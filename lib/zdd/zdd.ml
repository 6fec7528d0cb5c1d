(* Hash-consed ZDDs over int bitmasks.  See zdd.mli for the contract.

   Encoding: variable [v] of a manager with [nbits] bits decides bit
   [nbits - 1 - v], so the root decides the most significant bit and
   lo-before-hi traversal enumerates masks in increasing numeric
   order.  Terminals carry [var = max_int] so the usual "smaller var
   decides first" comparisons need no special cases. *)

type t = { id : int; var : int; lo : t; hi : t }

let rec bot = { id = 0; var = max_int; lo = bot; hi = bot }

let rec top = { id = 1; var = max_int; lo = top; hi = top }

let equal = ( == )

exception Limit of { what : string; limit : float; realized : int }

type stats = {
  mutable nodes : int;
  mutable cache_hits : int;
  mutable cache_lookups : int;
  mutable peak_unique : int;
}

let stats = { nodes = 0; cache_hits = 0; cache_lookups = 0; peak_unique = 0 }

let reset_stats () =
  stats.nodes <- 0;
  stats.cache_hits <- 0;
  stats.cache_lookups <- 0;
  stats.peak_unique <- 0

type manager = {
  nbits : int;
  node_limit : int;
  unique : (int * int * int, t) Hashtbl.t;
  cache : (int * int * int, t) Hashtbl.t;
  counts : (int, int) Hashtbl.t;
  mutable next_id : int;
}

let create ?(node_limit = 2_000_000) ~nbits () =
  if nbits < 0 || nbits > 62 then invalid_arg "Zdd.create: nbits out of range";
  {
    nbits;
    node_limit;
    unique = Hashtbl.create 4096;
    cache = Hashtbl.create 4096;
    counts = Hashtbl.create 256;
    next_id = 2;
  }

let bit_of m v = 1 lsl (m.nbits - 1 - v)

let var_of_label m l =
  if l < 0 || l >= m.nbits then invalid_arg "Zdd: label out of range";
  m.nbits - 1 - l

(* The zero-suppression rule [hi = bot ⇒ node ≡ lo] plus hash-consing
   keep every family canonical: any two structurally equal diagrams of
   one manager are physically equal. *)
let mk m var lo hi =
  if hi == bot then lo
  else begin
    let key = (var, lo.id, hi.id) in
    match Hashtbl.find_opt m.unique key with
    | Some n -> n
    | None ->
        let live = Hashtbl.length m.unique in
        if live >= m.node_limit then
          raise
            (Limit
               {
                 what = "Zdd: unique-table nodes";
                 limit = float_of_int m.node_limit;
                 realized = live;
               });
        let n = { id = m.next_id; var; lo; hi } in
        m.next_id <- m.next_id + 1;
        Hashtbl.add m.unique key n;
        stats.nodes <- stats.nodes + 1;
        if live + 1 > stats.peak_unique then stats.peak_unique <- live + 1;
        n
  end

(* Operation cache: one shared (opcode, x, y) table per manager.
   Commutative ops normalize the id order to double the hit rate; the
   unary label ops key on (opcode, label, id). *)
let op_union = 0

let op_inter = 1

let op_diff = 2

let op_maximal = 3

let op_subof = 4

let op_within = 5

let op_onset = 6

let op_offset = 7

let op_cofactor = 8

let cached m op x y compute =
  let key = (op, x, y) in
  stats.cache_lookups <- stats.cache_lookups + 1;
  match Hashtbl.find_opt m.cache key with
  | Some r ->
      stats.cache_hits <- stats.cache_hits + 1;
      r
  | None ->
      let r = compute () in
      Hashtbl.add m.cache key r;
      r

let rec union m a b =
  if a == b || b == bot then a
  else if a == bot then b
  else
    let x, y = if a.id <= b.id then (a, b) else (b, a) in
    cached m op_union x.id y.id @@ fun () ->
    if a.var < b.var then mk m a.var (union m a.lo b) a.hi
    else if b.var < a.var then mk m b.var (union m b.lo a) b.hi
    else mk m a.var (union m a.lo b.lo) (union m a.hi b.hi)

let rec inter m a b =
  if a == b then a
  else if a == bot || b == bot then bot
  else
    let x, y = if a.id <= b.id then (a, b) else (b, a) in
    cached m op_inter x.id y.id @@ fun () ->
    if a.var < b.var then inter m a.lo b
    else if b.var < a.var then inter m a b.lo
    else mk m a.var (inter m a.lo b.lo) (inter m a.hi b.hi)

let rec diff m a b =
  if a == b || a == bot then bot
  else if b == bot then a
  else
    cached m op_diff a.id b.id @@ fun () ->
    if a.var < b.var then mk m a.var (diff m a.lo b) a.hi
    else if b.var < a.var then diff m a b.lo
    else mk m a.var (diff m a.lo b.lo) (diff m a.hi b.hi)

let onset m l f =
  let v = var_of_label m l in
  let rec go f =
    if f.var > v then bot (* v absent from every member below (terminals included) *)
    else if f.var = v then mk m v bot f.hi
    else cached m op_onset l f.id (fun () -> mk m f.var (go f.lo) (go f.hi))
  in
  go f

let offset m l f =
  let v = var_of_label m l in
  let rec go f =
    if f.var > v then f
    else if f.var = v then f.lo
    else cached m op_offset l f.id (fun () -> mk m f.var (go f.lo) (go f.hi))
  in
  go f

let cofactor m l f =
  let v = var_of_label m l in
  let rec go f =
    if f.var > v then bot (* l absent from every member below *)
    else if f.var = v then f.hi
    else cached m op_cofactor l f.id (fun () -> mk m f.var (go f.lo) (go f.hi))
  in
  go f

let check_mask m what s =
  if s land lnot ((1 lsl m.nbits) - 1) <> 0 then
    invalid_arg (Printf.sprintf "Zdd.%s: mask out of range" what)

let of_mask m s =
  check_mask m "of_mask" s;
  (* The deepest node decides the lowest set bit: build upward. *)
  let rec up bit acc =
    if bit >= m.nbits then acc
    else
      up (bit + 1)
        (if s land (1 lsl bit) <> 0 then mk m (m.nbits - 1 - bit) bot acc
         else acc)
  in
  up 0 top

let powerset m s =
  check_mask m "powerset" s;
  let rec up bit acc =
    if bit >= m.nbits then acc
    else
      up (bit + 1)
        (if s land (1 lsl bit) <> 0 then mk m (m.nbits - 1 - bit) acc acc
         else acc)
  in
  up 0 top

let rec subsets_within m f s =
  if f == bot || f == top then f
  else
    cached m op_within f.id s @@ fun () ->
    if s land bit_of m f.var <> 0 then
      mk m f.var (subsets_within m f.lo s) (subsets_within m f.hi s)
    else subsets_within m f.lo s

let rec mem_empty f =
  if f == top then true else if f == bot then false else mem_empty f.lo

(* subsets-of-any: { x ∈ a | ∃ y ∈ b: x ⊆ y }. *)
let rec subof m a b =
  if a == bot || b == bot then bot
  else if a == top then top (* b ≠ bot: ∅ is a subset of any member *)
  else if b == top then if mem_empty a then top else bot
  else
    cached m op_subof a.id b.id @@ fun () ->
    if a.var < b.var then subof m a.lo b
    else if b.var < a.var then subof m a (union m b.lo b.hi)
    else mk m a.var (subof m a.lo (union m b.lo b.hi)) (subof m a.hi b.hi)

let rec maximal m f =
  if f == bot || f == top then f
  else
    cached m op_maximal f.id 0 @@ fun () ->
    let hi' = maximal m f.hi in
    let lo' = maximal m f.lo in
    (* A member without [f.var] is non-maximal iff it is ⊆ some member
       of the hi cofactor (that member regains [f.var], making the
       containment strict). *)
    mk m f.var (diff m lo' (subof m lo' f.hi)) hi'

let mem m f s =
  check_mask m "mem" s;
  let rec go f s =
    if s = 0 then mem_empty f
    else if f == top || f == bot then false
    else
      let b = m.nbits - 1 - f.var in
      (* Bits above this node's own bit can no longer be set. *)
      if s lsr (b + 1) <> 0 then false
      else if s land (1 lsl b) <> 0 then go f.hi (s land lnot (1 lsl b))
      else go f.lo s
  in
  go f s

let count m f =
  let rec go f =
    if f == bot then 0
    else if f == top then 1
    else
      match Hashtbl.find_opt m.counts f.id with
      | Some c -> c
      | None ->
          let c = go f.lo + go f.hi in
          Hashtbl.add m.counts f.id c;
          c
  in
  go f

let node_count _m f =
  let seen = Hashtbl.create 256 in
  let rec go f =
    if f == bot || f == top then ()
    else if not (Hashtbl.mem seen f.id) then begin
      Hashtbl.add seen f.id ();
      go f.lo;
      go f.hi
    end
  in
  go f;
  Hashtbl.length seen

let iter ?limit m f k =
  let emitted = ref 0 in
  let emit mask =
    (match limit with
    | Some l when !emitted >= l ->
        raise
          (Limit
             {
               what = "Zdd.iter: enumerated sets";
               limit = float_of_int l;
               realized = !emitted;
             })
    | _ -> ());
    incr emitted;
    k mask
  in
  let rec go f mask =
    if f == bot then ()
    else if f == top then emit mask
    else begin
      go f.lo mask;
      go f.hi (mask lor bit_of m f.var)
    end
  in
  go f 0

let iter_ge m f ~from k =
  check_mask m "iter_ge" from;
  let rec all f mask =
    if f == bot then ()
    else if f == top then k mask
    else begin
      all f.lo mask;
      all f.hi (mask lor bit_of m f.var)
    end
  in
  (* [ge] maintains: the mask built so far equals [from] on every bit
     already decided.  Variables skipped between the parent and this
     node contribute 0 bits; if [from] has a 1 anywhere in that span,
     every member below is numerically smaller and the subtree dies. *)
  let rec ge f mask next_var =
    if f == bot then ()
    else begin
      let upper = if f == top then m.nbits else f.var in
      let skipped =
        if upper <= next_var then 0
        else
          let below_next = (1 lsl (m.nbits - next_var)) - 1 in
          let below_upper = (1 lsl (m.nbits - upper)) - 1 in
          from land (below_next - below_upper)
      in
      if skipped <> 0 then ()
      else if f == top then k mask (* the member equals [from]: inclusive *)
      else
        let b = bit_of m f.var in
        if from land b <> 0 then ge f.hi (mask lor b) (f.var + 1)
        else begin
          ge f.lo mask (f.var + 1);
          all f.hi (mask lor b)
        end
    end
  in
  if from = 0 then all f 0 else ge f 0 0

let elements m f =
  let acc = ref [] in
  iter m f (fun mask -> acc := mask :: !acc);
  List.rev !acc

(* --- Slotted (multi-slot) families -------------------------------- *)

(* A layout splits the manager's bits into [slots] contiguous blocks of
   [width] bits; slot 0 occupies the *most significant* block so the
   numeric order on encodings is the lexicographic order on the slot
   mask tuples — the same order every enumeration above produces. *)

type layout = { slots : int; width : int }

let layout ~slots ~width =
  if slots < 1 || width < 1 || slots * width > 62 then
    invalid_arg "Zdd.layout: need slots >= 1, width >= 1, slots * width <= 62";
  { slots; width }

let layout_bits lay = lay.slots * lay.width

let slot_bit lay ~slot ~label =
  if slot < 0 || slot >= lay.slots || label < 0 || label >= lay.width then
    invalid_arg "Zdd.slot_bit: out of range";
  ((lay.slots - 1 - slot) * lay.width) + label

let encode_slots lay masks =
  if Array.length masks <> lay.slots then
    invalid_arg "Zdd.encode_slots: wrong number of slots";
  let full = (1 lsl lay.width) - 1 in
  let acc = ref 0 in
  Array.iteri
    (fun s mask ->
      if mask land lnot full <> 0 then
        invalid_arg "Zdd.encode_slots: slot mask out of range";
      acc := !acc lor (mask lsl ((lay.slots - 1 - s) * lay.width)))
    masks;
  !acc

let decode_slots lay enc =
  let full = (1 lsl lay.width) - 1 in
  Array.init lay.slots (fun s ->
      (enc lsr ((lay.slots - 1 - s) * lay.width)) land full)

let check_layout m what lay =
  if m.nbits <> layout_bits lay then
    invalid_arg (Printf.sprintf "Zdd.%s: manager width <> layout bits" what)

let one_per_slot m lay masks =
  check_layout m "one_per_slot" lay;
  if Array.length masks <> lay.slots then
    invalid_arg "Zdd.one_per_slot: wrong number of slots";
  (* Bottom slot upward; within a slot, ascending label order builds
     the deepest (least significant) decision first, so every [mk] sees
     children of strictly greater var.  An empty slot mask leaves
     [pick = bot], which zero-suppression then propagates to [bot] for
     the whole family — no transversal exists. *)
  let rec slot s acc =
    if s < 0 then acc
    else begin
      let pick = ref bot in
      for label = 0 to lay.width - 1 do
        if masks.(s) land (1 lsl label) <> 0 then
          pick := mk m (m.nbits - 1 - slot_bit lay ~slot:s ~label) !pick acc
      done;
      slot (s - 1) !pick
    end
  in
  slot (lay.slots - 1) top

(* The family of all "boxes" over a transversal relation [t]: members
   are encodings whose slot masks B₀ … B_{slots-1} are all non-empty
   and satisfy B₀ × … × B_{slots-1} ⊆ t (every one-per-slot choice is
   a member of [t]).

   Recursion per slot: walking the slot's labels from the most
   significant down, the state is the intersection [acc] of the
   cofactors of the slot-entry relation at every label taken so far
   (the completions of the remaining slots must be valid for *each*
   chosen label); [None] means no label was taken yet, and a slot that
   ends with [None] dies — boxes have no empty slot.  Memoization on
   (label, acc) per slot entry, plus (slot, relation) across entries,
   keeps the construction polynomial in the diagram sizes. *)
let boxes ?(work_limit = max_int) m lay t =
  check_layout m "boxes" lay;
  let work = ref 0 in
  let charge () =
    if !work >= work_limit then
      raise
        (Limit
           {
             what = "Zdd.boxes: construction work";
             limit = float_of_int work_limit;
             realized = !work;
           });
    incr work
  in
  let cubes_memo = Hashtbl.create 1024 in
  let rec cubes s rel =
    if s = lay.slots then if rel == top then top else bot
    else if rel == bot then bot
    else
      match Hashtbl.find_opt cubes_memo (s, rel.id) with
      | Some r -> r
      | None ->
          let base = (lay.slots - 1 - s) * lay.width in
          let cof =
            Array.init lay.width (fun label ->
                charge ();
                cofactor m (base + label) rel)
          in
          let memo = Hashtbl.create 64 in
          let rec g l acc =
            match acc with
            | None ->
                if l < 0 then bot
                else
                  mk m
                    (m.nbits - 1 - (base + l))
                    (g (l - 1) None)
                    (g (l - 1) (Some cof.(l)))
            | Some a when a == bot -> bot
            | Some a ->
                if l < 0 then cubes (s + 1) a
                else begin
                  match Hashtbl.find_opt memo (l, a.id) with
                  | Some r -> r
                  | None ->
                      charge ();
                      let r =
                        mk m
                          (m.nbits - 1 - (base + l))
                          (g (l - 1) (Some a))
                          (g (l - 1) (Some (inter m a cof.(l))))
                      in
                      Hashtbl.add memo (l, a.id) r;
                      r
                end
          in
          let r = g (lay.width - 1) None in
          Hashtbl.add cubes_memo (s, rel.id) r;
          r
  in
  cubes 0 t
