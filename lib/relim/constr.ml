type t = { arity : int; lines : Line.t list }

let make lines =
  match lines with
  | [] -> invalid_arg "Constr.make: empty constraint"
  | first :: _ ->
      let arity = Line.arity first in
      List.iter
        (fun l ->
          if Line.arity l <> arity then
            invalid_arg "Constr.make: lines of different arity")
        lines;
      let lines = List.sort_uniq Line.compare lines in
      { arity; lines }

let lines c = c.lines

let arity c = c.arity

let equal a b = a.arity = b.arity && List.equal Line.equal a.lines b.lines

let compare a b =
  match compare a.arity b.arity with
  | 0 -> List.compare Line.compare a.lines b.lines
  | n -> n

let support c =
  List.fold_left (fun acc l -> Labelset.union acc (Line.support l)) Labelset.empty c.lines

(* A label of [m] that lies in no group of [l] has nowhere to go in the
   matching, so [l] can contain [m] only if [m]'s support is inside
   [l]'s.  That subset test is a few word operations; the max-flow it
   spares is not, and in certificate validation about nine lines in
   ten fail it. *)
let mem c m =
  let sup = Multiset.support m in
  List.exists
    (fun l -> Labelset.subset sup (Line.support l) && Line.contains l m)
    c.lines

let covers_line c line = List.exists (fun l -> Line.covers l line) c.lines

let expansion_estimate c =
  List.fold_left (fun acc l -> acc +. Line.expansion_estimate l) 0. c.lines

let expand ?(limit = 5e6) c =
  if expansion_estimate c > limit then
    Budget.exceeded ~budget:"Constr.expand: constraint expansion" ~limit;
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun line ->
      Line.expand line (fun m ->
          if not (Hashtbl.mem tbl m) then Hashtbl.add tbl m ()))
    c.lines;
  Hashtbl.fold (fun m () acc -> m :: acc) tbl []

let map_lines f c = make (List.map f c.lines)

let pp alpha fmt c =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut (Line.pp alpha) fmt c.lines

let to_string alpha c = Format.asprintf "@[<v>%a@]" (pp alpha) c
