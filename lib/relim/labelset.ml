type t = int

type label = int

let max_label = 60

let empty = 0

let is_empty s = s = 0

let check_label l =
  if l < 0 || l >= max_label then
    invalid_arg (Printf.sprintf "Labelset: label %d out of range" l)

let full n =
  if n < 0 || n > max_label then invalid_arg "Labelset.full";
  (1 lsl n) - 1

let singleton l =
  check_label l;
  1 lsl l

let mem l s = (s lsr l) land 1 = 1

let add l s = s lor singleton l

let remove l s = s land lnot (singleton l)

let union a b = a lor b

let inter a b = a land b

let diff a b = a land lnot b

let subset a b = a land lnot b = 0

let equal a b = a = b

let strict_subset a b = subset a b && a <> b

let compare (a : int) (b : int) = compare a b

let cardinal s =
  let rec count acc s = if s = 0 then acc else count (acc + 1) (s land (s - 1)) in
  count 0 s

let inter_cardinal a b = cardinal (a land b)

let elements s =
  let rec go l acc = if l < 0 then acc else go (l - 1) (if mem l s then l :: acc else acc) in
  go (max_label - 1) []

let of_list ls = List.fold_left (fun acc l -> add l acc) empty ls

(* Index of the lowest member of a non-empty set: a binary search on
   its isolated low bit, six steps for any bit of the word. *)
let lowest s =
  let b = ref (s land -s) and n = ref 0 in
  if !b land 0xFFFF_FFFF = 0 then begin n := 32; b := !b lsr 32 end;
  if !b land 0xFFFF = 0 then begin n := !n + 16; b := !b lsr 16 end;
  if !b land 0xFF = 0 then begin n := !n + 8; b := !b lsr 8 end;
  if !b land 0xF = 0 then begin n := !n + 4; b := !b lsr 4 end;
  if !b land 0x3 = 0 then begin n := !n + 2; b := !b lsr 2 end;
  if !b land 0x1 = 0 then !n + 1 else !n

(* The iterators walk the set bits in ascending order, clearing the
   lowest one each step; nothing is allocated. *)
let rec fold f s acc = if s = 0 then acc else fold f (s land (s - 1)) (f (lowest s) acc)

let rec iter f s =
  if s <> 0 then begin
    f (lowest s);
    iter f (s land (s - 1))
  end

let rec for_all p s = s = 0 || (p (lowest s) && for_all p (s land (s - 1)))

let rec exists p s = s <> 0 && (p (lowest s) || exists p (s land (s - 1)))

let rec filter_into p s acc =
  if s = 0 then acc
  else
    let l = lowest s in
    filter_into p (s land (s - 1)) (if p l then acc lor (1 lsl l) else acc)

let filter p s = filter_into p s 0

let choose s = if s = 0 then raise Not_found else lowest s

let nonempty_subsets s =
  (* Iterate sub-bitsets of [s] with the standard [(x - 1) land s] trick. *)
  let rec go x acc = if x = 0 then acc else go ((x - 1) land s) (x :: acc) in
  go s []

let of_bits b = b

let to_bits s = s
