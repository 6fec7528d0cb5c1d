type label = Labelset.label

(* Sorted by label, counts strictly positive. *)
type t = (label * int) array

(* Sort the pairs by label, then merge each run of equal labels in
   place, dropping zero totals.  A run of one pair keeps its tuple
   instead of allocating a new one. *)
let of_counts pairs =
  List.iter (fun (_, c) -> if c < 0 then invalid_arg "Multiset.of_counts") pairs;
  let a = Array.of_list pairs in
  Array.sort (fun ((x : label), _) (y, _) -> Int.compare x y) a;
  let n = Array.length a in
  let out = ref 0 and i = ref 0 in
  while !i < n do
    let start = !i and l = fst a.(!i) in
    let c = ref 0 in
    while !i < n && fst a.(!i) = l do
      c := !c + snd a.(!i);
      incr i
    done;
    if !c > 0 then begin
      a.(!out) <- (if !i = start + 1 then a.(start) else (l, !c));
      incr out
    end
  done;
  if !out = n then a else Array.sub a 0 !out

let of_list ls = of_counts (List.map (fun l -> (l, 1)) ls)

let counts m = Array.to_list m

let to_list m =
  List.concat_map (fun (l, c) -> List.init c (fun _ -> l)) (counts m)

let size m = Array.fold_left (fun acc (_, c) -> acc + c) 0 m

let count m l =
  let rec go i =
    if i >= Array.length m then 0
    else
      let l', c = m.(i) in
      if l' = l then c else if l' > l then 0 else go (i + 1)
  in
  go 0

let mem l m = count m l > 0

let support m = Array.fold_left (fun acc (l, _) -> Labelset.add l acc) Labelset.empty m

(* [add] and [remove_one] sit inside the box-enumeration DFS of
   [Rounde.rbar]; they insert into / delete from the sorted array
   directly instead of rebuilding through a hashtable and a sort. *)

let position l m =
  let rec go i = if i < Array.length m && fst m.(i) < l then go (i + 1) else i in
  go 0

let add l m =
  let n = Array.length m in
  let i = position l m in
  if i < n && fst m.(i) = l then begin
    let out = Array.copy m in
    out.(i) <- (l, snd m.(i) + 1);
    out
  end
  else begin
    let out = Array.make (n + 1) (l, 1) in
    Array.blit m 0 out 0 i;
    Array.blit m i out (i + 1) (n - i);
    out
  end

let remove_one l m =
  let n = Array.length m in
  let i = position l m in
  if i >= n || fst m.(i) <> l then raise Not_found;
  let c = snd m.(i) in
  if c > 1 then begin
    let out = Array.copy m in
    out.(i) <- (l, c - 1);
    out
  end
  else begin
    let out = Array.make (n - 1) (0, 0) in
    Array.blit m 0 out 0 i;
    Array.blit m (i + 1) out i (n - 1 - i);
    out
  end

let replace_one ~remove ~add:a m = add a (remove_one remove m)

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) = compare a b

let hash (m : t) = Hashtbl.hash m

let sub_multisets m f =
  let n = Array.length m in
  let chosen = Array.make n 0 in
  let rec go i =
    if i = n then begin
      let pairs = ref [] in
      for j = n - 1 downto 0 do
        if chosen.(j) > 0 then pairs := (fst m.(j), chosen.(j)) :: !pairs
      done;
      f (Array.of_list !pairs)
    end
    else
      for c = 0 to snd m.(i) do
        chosen.(i) <- c;
        go (i + 1)
      done
  in
  go 0

let sub_multisets_of_size k m f =
  let n = Array.length m in
  let chosen = Array.make n 0 in
  let suffix_max = Array.make (n + 1) 0 in
  for i = n - 1 downto 0 do
    suffix_max.(i) <- suffix_max.(i + 1) + snd m.(i)
  done;
  let rec go i remaining =
    if remaining > suffix_max.(i) then ()
    else if i = n then begin
      let pairs = ref [] in
      for j = n - 1 downto 0 do
        if chosen.(j) > 0 then pairs := (fst m.(j), chosen.(j)) :: !pairs
      done;
      f (Array.of_list !pairs)
    end
    else
      for c = 0 to min remaining (snd m.(i)) do
        chosen.(i) <- c;
        go (i + 1) (remaining - c)
      done
  in
  go 0 k

let pp alpha fmt m =
  let pp_item fmt (l, c) =
    if c = 1 then Alphabet.pp_label alpha fmt l
    else Format.fprintf fmt "%a^%d" (Alphabet.pp_label alpha) l c
  in
  Format.pp_print_list ~pp_sep:Format.pp_print_space pp_item fmt (counts m)

let to_string alpha m = Format.asprintf "%a" (pp alpha) m
