type label = Labelset.label

(* Signature of a label inside a problem: how often it occurs in node /
   edge lines, with which group sizes — any renaming must preserve it. *)
let signature (p : Problem.t) l =
  let occurrences constr =
    List.concat_map
      (fun line ->
        List.filter_map
          (fun (s, c) ->
            if Labelset.mem l s then Some (Labelset.cardinal s, c) else None)
          (Line.groups line))
      (Constr.lines constr)
    |> List.sort compare
  in
  (occurrences p.node, occurrences p.edge)

let remap_problem (p : Problem.t) (alpha' : Alphabet.t) mapping =
  let remap_set s =
    Labelset.fold (fun l acc -> Labelset.add mapping.(l) acc) s Labelset.empty
  in
  let remap = Constr.map_lines (Line.map_syms remap_set) in
  Problem.make ~name:p.name ~alpha:alpha' ~node:(remap p.node) ~edge:(remap p.edge)

(* Renaming preserves every label's signature and permutes the label
   set, so hashing the sorted signature list (plus a few global counts)
   is invariant under isomorphism. *)
let invariant_hash (p : Problem.t) =
  let n = Alphabet.size p.alpha in
  let sigs = List.sort compare (List.init n (signature p)) in
  Hashtbl.hash
    ( Problem.delta p,
      n,
      List.length (Constr.lines p.node),
      List.length (Constr.lines p.edge),
      sigs )

(* Depth-first over [a]'s labels in index order, each tried against
   [b]'s unused labels in index order, where a label may only go to one
   of the same signature: the first full assignment under which the
   constraints coincide is the lexicographically first renaming.  The
   signature multisets are compared first, so a label with no partner
   is refused before any search. *)
let find_renaming (a : Problem.t) (b : Problem.t) =
  let n = Alphabet.size a.alpha in
  if n <> Alphabet.size b.alpha then None
  else begin
    let sig_a = Array.init n (signature a) in
    let sig_b = Array.init n (signature b) in
    let sorted sigs = List.sort compare (Array.to_list sigs) in
    let mapping = Array.make n (-1) in
    let used = Array.make n false in
    let rec assign la =
      if la = n then
        let renamed = remap_problem a b.alpha mapping in
        Constr.equal renamed.node b.node && Constr.equal renamed.edge b.edge
      else
        let rec try_from lb =
          if lb = n then false
          else if used.(lb) || sig_a.(la) <> sig_b.(lb) then try_from (lb + 1)
          else begin
            used.(lb) <- true;
            mapping.(la) <- lb;
            let found = assign (la + 1) in
            used.(lb) <- false;
            found || try_from (lb + 1)
          end
        in
        try_from 0
    in
    if sorted sig_a = sorted sig_b && assign 0 then
      Some (List.init n (fun la -> (la, mapping.(la))))
    else None
  end

let equal_up_to_renaming a b = find_renaming a b <> None

let apply_renaming (p : Problem.t) pairs =
  let n = Alphabet.size p.alpha in
  let new_names =
    List.init n (fun l ->
        let old = Alphabet.name p.alpha l in
        match List.assoc_opt old pairs with Some fresh -> fresh | None -> old)
  in
  let alpha' = Alphabet.create new_names in
  remap_problem p alpha' (Array.init n Fun.id)
