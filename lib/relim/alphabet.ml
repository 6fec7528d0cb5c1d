type label = Labelset.label

type t = { names : string array }

let forbidden = [ '['; ']'; '^'; '('; ')'; ' '; '\t'; '\n' ]

let check_name s =
  if String.length s = 0 then invalid_arg "Alphabet.create: empty label name";
  String.iter
    (fun c ->
      if List.mem c forbidden then
        invalid_arg (Printf.sprintf "Alphabet.create: bad character %C in %S" c s))
    s

let create names =
  let n = List.length names in
  if n > Labelset.max_label then
    invalid_arg
      (Printf.sprintf "Alphabet.create: %d labels, more than %d" n Labelset.max_label);
  List.iter check_name names;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if Hashtbl.mem tbl s then
        invalid_arg (Printf.sprintf "Alphabet.create: duplicate label %S" s);
      Hashtbl.add tbl s ())
    names;
  { names = Array.of_list names }

let size a = Array.length a.names

let labels a = List.init (size a) Fun.id

let universe a = Labelset.full (size a)

let name a l =
  if l < 0 || l >= size a then invalid_arg "Alphabet.name: label out of range";
  a.names.(l)

let find a s =
  let rec go i =
    if i >= size a then raise Not_found
    else if String.equal a.names.(i) s then i
    else go (i + 1)
  in
  go 0

let mem_name a s = match find a s with _ -> true | exception Not_found -> false

let set_name a set =
  if Labelset.is_empty set then "\xe2\x88\x85"
  else
    match List.map (name a) (Labelset.elements set) with
    | [ single ] -> single
    | members ->
        if List.for_all (fun s -> String.length s = 1) members then
          String.concat "" members
        else String.concat "," members

let pp_label a fmt l = Format.pp_print_string fmt (name a l)

let pp_set a fmt s = Format.pp_print_string fmt (set_name a s)

let equal a b = a.names = b.names
