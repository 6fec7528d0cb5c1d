type label = Labelset.label

let merge (p : Problem.t) ~from_ ~into_ =
  let lf = Alphabet.find p.alpha from_ in
  let li = Alphabet.find p.alpha into_ in
  if lf = li then invalid_arg "Simplify.merge: labels coincide";
  let rewrite_set s =
    if Labelset.mem lf s then Labelset.add li (Labelset.remove lf s) else s
  in
  let rewrite = Constr.map_lines (Line.map_syms rewrite_set) in
  Problem.trim
    {
      p with
      Problem.name = Printf.sprintf "%s[%s->%s]" p.name from_ into_;
      node = rewrite p.node;
      edge = rewrite p.edge;
    }

let merge_is_sound (p : Problem.t) ~from_ ~into_ =
  let lf = Alphabet.find p.alpha from_ in
  let li = Alphabet.find p.alpha into_ in
  let edge = Diagram.edge_diagram p in
  let node = Diagram.node_diagram p in
  Diagram.geq edge li lf && Diagram.geq node li lf

let merge_equivalent (p : Problem.t) =
  let edge = Diagram.edge_diagram p in
  let node = Diagram.node_diagram p in
  let n = Alphabet.size p.alpha in
  let pair = ref None in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      if
        !pair = None
        && Diagram.equivalent edge a b
        && Diagram.equivalent node a b
      then pair := Some (a, b)
    done
  done;
  match !pair with
  | None -> p
  | Some (a, b) ->
      merge p ~from_:(Alphabet.name p.alpha b) ~into_:(Alphabet.name p.alpha a)

let drop_redundant_lines (p : Problem.t) =
  (* Keep exactly the lines that no other line covers.  [Line.covers] is
     semantic inclusion, so it is transitive, and it is antisymmetric on
     canonical lines (the `line-covers-antisymmetric-on-canonical-lines`
     property); [Constr.make] holds each line once and sorts them.  So
     the kept lines are the cover-maximal ones, in canonical order, and
     every dropped line is covered by a kept one: the constraint's
     meaning is unchanged.  [covers outer inner] routes every group of
     [inner] into a group of [outer] with a superset of its labels, so it
     needs [support inner ⊆ support outer]; that one-word test screens
     out almost every pair before the max-flow. *)
  let prune constr =
    let lines = List.map (fun l -> (l, Line.support l)) (Constr.lines constr) in
    let covered (line, support) =
      List.exists
        (fun (other, support') ->
          Labelset.subset support support'
          && (not (Line.equal other line))
          && Line.covers other line)
        lines
    in
    Constr.make (List.map fst (List.filter (fun l -> not (covered l)) lines))
  in
  { p with Problem.node = prune p.node; edge = prune p.edge }

let normalize p =
  Trace.with_span "simplify.normalize" @@ fun () ->
  Problem.trim (drop_redundant_lines p)
