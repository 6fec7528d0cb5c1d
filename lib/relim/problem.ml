type t = {
  name : string;
  alpha : Alphabet.t;
  node : Constr.t;
  edge : Constr.t;
}

let make ~name ~alpha ~node ~edge =
  if Constr.arity edge <> 2 then
    invalid_arg "Problem.make: edge constraint must have arity 2";
  let universe = Alphabet.universe alpha in
  if not (Labelset.subset (Constr.support node) universe) then
    invalid_arg "Problem.make: node constraint uses labels outside the alphabet";
  if not (Labelset.subset (Constr.support edge) universe) then
    invalid_arg "Problem.make: edge constraint uses labels outside the alphabet";
  { name; alpha; node; edge }

let delta p = Constr.arity p.node

let label_count p = Alphabet.size p.alpha

let compat_matrix p =
  let n = label_count p in
  let compat = Array.make_matrix n n false in
  let allow s1 s2 =
    Labelset.iter
      (fun a ->
        Labelset.iter
          (fun b ->
            compat.(a).(b) <- true;
            compat.(b).(a) <- true)
          s2)
      s1
  in
  (* [make] checked arity 2: a line is two groups of count 1 or one
     group of count 2. *)
  List.iter
    (fun line ->
      match Line.groups line with
      | [ (s1, _); (s2, _) ] -> allow s1 s2
      | groups -> List.iter (fun (s, _) -> allow s s) groups)
    (Constr.lines p.edge);
  compat

let equal a b =
  String.equal a.name b.name && Alphabet.equal a.alpha b.alpha
  && Constr.equal a.node b.node && Constr.equal a.edge b.edge

let trim p =
  let used = Labelset.union (Constr.support p.node) (Constr.support p.edge) in
  if Labelset.equal used (Alphabet.universe p.alpha) then p
  else begin
    let old_labels = Labelset.elements used in
    let alpha = Alphabet.create (List.map (Alphabet.name p.alpha) old_labels) in
    let mapping = Array.make (Alphabet.size p.alpha) (-1) in
    List.iteri (fun new_l old_l -> mapping.(old_l) <- new_l) old_labels;
    let remap_set s =
      Labelset.fold (fun l acc -> Labelset.add mapping.(l) acc) s Labelset.empty
    in
    let remap = Constr.map_lines (Line.map_syms remap_set) in
    { name = p.name; alpha; node = remap p.node; edge = remap p.edge }
  end

let pp fmt p =
  Format.fprintf fmt "@[<v>problem %s (Delta = %d, %d labels)@,node constraint:@,  @[<v>%a@]@,edge constraint:@,  @[<v>%a@]@]"
    p.name (delta p) (label_count p) (Constr.pp p.alpha) p.node
    (Constr.pp p.alpha) p.edge

let to_string p = Format.asprintf "%a" pp p
