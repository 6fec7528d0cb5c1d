type label = Labelset.label

(* Sorted by symbol set, counts strictly positive, sets non-empty. *)
type t = (Labelset.t * int) array

let make pairs =
  List.iter
    (fun (s, c) ->
      if Labelset.is_empty s then invalid_arg "Line.make: empty symbol set";
      if c < 0 then invalid_arg "Line.make: negative count";
      if c = 0 then
        invalid_arg "Line.make: zero count (dropping the group would change the arity)")
    pairs;
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s, c) ->
      let key = Labelset.to_bits s in
      let cur = try Hashtbl.find tbl key with Not_found -> 0 in
      Hashtbl.replace tbl key (cur + c))
    pairs;
  let items =
    Hashtbl.fold
      (fun key c acc -> if c > 0 then (Labelset.of_bits key, c) :: acc else acc)
      tbl []
  in
  Array.of_list
    (List.sort (fun (a, _) (b, _) -> Labelset.compare a b) items)

let groups l = Array.to_list l

let arity l = Array.fold_left (fun acc (_, c) -> acc + c) 0 l

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) = compare a b

let of_multiset m =
  make (List.map (fun (l, c) -> (Labelset.singleton l, c)) (Multiset.counts m))

let to_multiset l =
  if Array.for_all (fun (s, _) -> Labelset.cardinal s = 1) l then
    Some (Multiset.of_counts (List.map (fun (s, c) -> (Labelset.choose s, c)) (groups l)))
  else None

let support l = Array.fold_left (fun acc (s, _) -> Labelset.union acc s) Labelset.empty l

let contains l m =
  let sources = Multiset.counts m in
  let supply = Array.of_list (List.map snd sources) in
  let labels = Array.of_list (List.map fst sources) in
  let demand = Array.map snd l in
  Util.transport_feasible ~supply ~demand ~allowed:(fun i j ->
      Labelset.mem labels.(i) (fst l.(j)))

let contains_partial l m =
  let slack = arity l - Multiset.size m in
  if slack < 0 then false
  else begin
    (* Add a slack source that may be routed anywhere. *)
    let sources = Multiset.counts m in
    let supply = Array.of_list (List.map snd sources @ [ slack ]) in
    let labels = Array.of_list (List.map fst sources) in
    let n_real = Array.length labels in
    let demand = Array.map snd l in
    Util.transport_feasible ~supply ~demand ~allowed:(fun i j ->
        i = n_real || Labelset.mem labels.(i) (fst l.(j)))
  end

let covers outer inner =
  let supply = Array.map snd inner in
  let demand = Array.map snd outer in
  Util.transport_feasible ~supply ~demand ~allowed:(fun i j ->
      Labelset.subset (fst inner.(i)) (fst outer.(j)))

let expansion_estimate l =
  Array.fold_left
    (fun acc (s, c) -> acc *. Util.choose_float (c + Labelset.cardinal s - 1) c)
    1. l

let expand l f =
  (* For each group, enumerate distributions of its count over its
     labels; combine distributions across groups. *)
  let groups = Array.to_list l in
  let rec go acc = function
    | [] -> f (Multiset.of_counts acc)
    | (s, c) :: rest ->
        let labels = Array.of_list (Labelset.elements s) in
        Util.compositions c (Array.length labels) (fun comp ->
            let picked = ref acc in
            Array.iteri
              (fun i cnt -> if cnt > 0 then picked := (labels.(i), cnt) :: !picked)
              comp;
            go !picked rest)
  in
  go [] groups

let map_syms f l = make (List.map (fun (s, c) -> (f s, c)) (groups l))

let pp alpha fmt l =
  Format.pp_open_hbox fmt ();
  let pp_group fmt (s, c) =
    let base =
      if Labelset.cardinal s = 1 then Alphabet.name alpha (Labelset.choose s)
      else begin
        let names = List.map (Alphabet.name alpha) (Labelset.elements s) in
        let sep = if List.for_all (fun n -> String.length n = 1) names then "" else " " in
        "[" ^ String.concat sep names ^ "]"
      end
    in
    if c = 1 then Format.pp_print_string fmt base
    else Format.fprintf fmt "%s^%d" base c
  in
  Format.pp_print_list ~pp_sep:Format.pp_print_space pp_group fmt (groups l);
  Format.pp_close_box fmt ()

let to_string alpha l = Format.asprintf "%a" (pp alpha) l
