let fail fmt = Printf.ksprintf failwith fmt

type token = { atom : string list; count : int }
(* [atom] is the list of label names of the group (singleton for a bare
   label), [count] its multiplicity. *)

let split_lines s =
  String.split_on_char '\n' s
  |> List.concat_map (String.split_on_char ';')
  |> List.map String.trim
  |> List.filter (fun l -> l <> "")

let bracket_content content =
  let content = String.trim content in
  if content = "" then fail "empty disjunction []";
  String.iter
    (fun c ->
      if c = '^' || c = '[' then
        fail "character %C not allowed inside a [...] group (in %S)" c content)
    content;
  if String.contains content ' ' then
    String.split_on_char ' ' content |> List.filter (fun s -> s <> "")
  else List.init (String.length content) (fun i -> String.make 1 content.[i])

(* Tokenize one configuration line into groups. *)
let tokenize line_str =
  let n = String.length line_str in
  let tokens = ref [] in
  let i = ref 0 in
  let read_count () =
    (* Parse an optional ^k suffix at position !i. *)
    if !i < n && line_str.[!i] = '^' then begin
      incr i;
      let start = !i in
      while !i < n && line_str.[!i] >= '0' && line_str.[!i] <= '9' do
        incr i
      done;
      if !i = start then fail "expected integer after ^ in %S" line_str;
      let count = int_of_string (String.sub line_str start (!i - start)) in
      if count = 0 then
        fail "zero count ^0 in %S (a dropped group would silently change the arity)"
          line_str;
      count
    end
    else 1
  in
  while !i < n do
    let c = line_str.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if c = '[' then begin
      let close =
        match String.index_from_opt line_str !i ']' with
        | Some j -> j
        | None -> fail "unclosed [ in %S" line_str
      in
      let content = String.sub line_str (!i + 1) (close - !i - 1) in
      i := close + 1;
      let count = read_count () in
      tokens := { atom = bracket_content content; count } :: !tokens
    end
    else begin
      let start = !i in
      while
        !i < n
        &&
        let c = line_str.[!i] in
        c <> ' ' && c <> '\t' && c <> '[' && c <> ']' && c <> '^'
      do
        incr i
      done;
      if !i = start then fail "unexpected character %C in %S" c line_str;
      let name = String.sub line_str start (!i - start) in
      let count = read_count () in
      tokens := { atom = [ name ]; count } :: !tokens
    end
  done;
  List.rev !tokens

(* Every line of [s] with its groups. *)
let tokenized s = List.map (fun str -> (str, tokenize str)) (split_lines s)

(* The label names of [lines] in order of first appearance, and a table
   from each name to its position in that order. *)
let label_names lines =
  let index = Hashtbl.create 16 in
  let add name =
    if not (Hashtbl.mem index name) then Hashtbl.add index name (Hashtbl.length index)
  in
  List.iter (fun (_, ts) -> List.iter (fun { atom; _ } -> List.iter add atom) ts) lines;
  let names = Array.make (Hashtbl.length index) "" in
  Hashtbl.iter (fun name i -> names.(i) <- name) index;
  (Array.to_list names, index)

let scan_labels s = fst (label_names (tokenized s))

(* One line's groups as a [Line.t]; [find name] is [name]'s label. *)
let to_line find tokens =
  if tokens = [] then fail "empty configuration";
  let group { atom; count } =
    (List.fold_left (fun acc n -> Labelset.add (find n) acc) Labelset.empty atom, count)
  in
  Line.make (List.map group tokens)

(* [(text, line)] pairs as a constraint whose lines all have [arity]. *)
let to_constr ~arity lines =
  if lines = [] then fail "empty constraint";
  List.iter
    (fun (str, l) ->
      if Line.arity l <> arity then
        fail "configuration %S has arity %d, expected %d" str (Line.arity l) arity)
    lines;
  Constr.make (List.map snd lines)

let line alpha s =
  let find name =
    try Alphabet.find alpha name with Not_found -> fail "unknown label %S in %S" name s
  in
  to_line find (tokenize s)

let constr alpha ~arity s =
  to_constr ~arity (List.map (fun str -> (str, line alpha str)) (split_lines s))

(* Each line is tokenized once; its groups give the alphabet, then the
   constraints.  The edge text is tokenized first: an edge syntax error
   is reported before a node one. *)
let problem ~name ~node ~edge =
  let edge = tokenized edge in
  let node = tokenized node in
  let names, index = label_names (node @ edge) in
  let alpha = try Alphabet.create names with Invalid_argument msg -> failwith msg in
  let delta =
    match node with
    | [] -> fail "empty node constraint"
    | (_, tokens) :: _ -> List.fold_left (fun acc { count; _ } -> acc + count) 0 tokens
  in
  let resolve = List.map (fun (s, ts) -> (s, to_line (Hashtbl.find index) ts)) in
  let node = to_constr ~arity:delta (resolve node) in
  let edge = to_constr ~arity:2 (resolve edge) in
  Problem.make ~name ~alpha ~node ~edge
