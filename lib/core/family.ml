type params = { delta : int; a : int; x : int }

let check_params { delta; a; x } =
  if delta < 1 then invalid_arg "Family: delta must be >= 1";
  if a < 0 || a > delta then invalid_arg "Family: need 0 <= a <= delta";
  if x < 0 || x > delta then invalid_arg "Family: need 0 <= x <= delta"

(* The paper's formulas naturally produce empty groups (e.g. X^0 when
   x = 0); the parser rejects an explicit ^0, so omit them when
   rendering.  A configuration must keep at least one group. *)
let config groups =
  match List.filter (fun (_, c) -> c <> 0) groups with
  | [] -> invalid_arg "Family: configuration with no labels"
  | groups ->
      String.concat " "
        (List.map
           (fun (name, c) ->
             if c = 1 then name else Printf.sprintf "%s^%d" name c)
           groups)

(* The alphabets are fixed explicitly (in the seed's interning order)
   so that the label indices never depend on (a, x) — [Lemma5] resolves
   its indices against a throwaway instance and relies on this. *)
let pi ({ delta; a; x } as params) =
  check_params params;
  let alpha = Relim.Alphabet.create [ "M"; "X"; "A"; "P"; "O" ] in
  let node =
    String.concat "\n"
      [
        config [ ("M", delta - x); ("X", x) ];
        config [ ("A", a); ("X", delta - a) ];
        config [ ("P", 1); ("O", delta - 1) ];
      ]
  in
  let edge = "M [PAOX]\nO [MAOX]\nP [MX]\nA [MOX]\nX [MPAOX]" in
  Relim.Problem.make
    ~name:(Printf.sprintf "Pi(Delta=%d,a=%d,x=%d)" delta a x)
    ~alpha
    ~node:(Relim.Parse.constr alpha ~arity:delta node)
    ~edge:(Relim.Parse.constr alpha ~arity:2 edge)

let require_lemma6_range ({ delta; a; x } as params) =
  check_params params;
  if not (x + 2 <= a && a <= delta) then
    invalid_arg "Family: requires x + 2 <= a <= delta"

let pi_plus ({ delta; a; x } as params) =
  require_lemma6_range params;
  let alpha = Relim.Alphabet.create [ "M"; "X"; "P"; "O"; "A"; "C" ] in
  let node =
    String.concat "\n"
      [
        config [ ("M", delta - x - 1); ("X", x + 1) ];
        config [ ("P", 1); ("O", delta - 1) ];
        config [ ("A", a - x - 1); ("X", delta - a + x + 1) ];
        config [ ("C", delta - x); ("X", x) ];
      ]
  in
  (* Edge constraint: the disjunction-method image of R(Π)'s edge
     constraint {XQ, OB, AU, PM} through Π_rel's set-labels, written in
     Π⁺'s names (see pi_rel_renaming).  Equivalently: Π's compatibility
     extended with C ~ {M, A, O, X}. *)
  let edge =
    String.concat "\n"
      [
        "X [MXPOAC]";
        "[XO] [MXOAC]";
        "[XOA] [MXOC]";
        "[XPOAC] [MX]";
      ]
  in
  Relim.Problem.make
    ~name:(Printf.sprintf "Pi+(Delta=%d,a=%d,x=%d)" delta a x)
    ~alpha
    ~node:(Relim.Parse.constr alpha ~arity:delta node)
    ~edge:(Relim.Parse.constr alpha ~arity:2 edge)

let r_pi_claimed ({ delta; a; x } as params) =
  require_lemma6_range params;
  let alpha =
    Relim.Alphabet.create [ "M"; "U"; "B"; "Q"; "X"; "O"; "A"; "P" ]
  in
  let node =
    String.concat "\n"
      [
        config [ ("[MUBQ]", delta - x); ("[XMOUABPQ]", x) ];
        config [ ("[PQ]", 1); ("[OUABPQ]", delta - 1) ];
        config [ ("[ABPQ]", a); ("[XMOUABPQ]", delta - a) ];
      ]
  in
  let edge = "X Q\nO B\nA U\nP M" in
  Relim.Problem.make
    ~name:(Printf.sprintf "R(Pi)(Delta=%d,a=%d,x=%d)" delta a x)
    ~alpha
    ~node:(Relim.Parse.constr alpha ~arity:delta node)
    ~edge:(Relim.Parse.constr alpha ~arity:2 edge)

let r_pi_denotations =
  [
    ("X", [ "X" ]);
    ("M", [ "M"; "X" ]);
    ("O", [ "O"; "X" ]);
    ("U", [ "M"; "O"; "X" ]);
    ("A", [ "A"; "O"; "X" ]);
    ("B", [ "M"; "A"; "O"; "X" ]);
    ("P", [ "P"; "A"; "O"; "X" ]);
    ("Q", [ "M"; "P"; "A"; "O"; "X" ]);
  ]

let set_mubq = [ "M"; "U"; "B"; "Q" ]

let set_all = [ "X"; "M"; "O"; "U"; "A"; "B"; "P"; "Q" ]

let set_pq = [ "P"; "Q" ]

let set_ouabpq = [ "O"; "U"; "A"; "B"; "P"; "Q" ]

let set_abpq = [ "A"; "B"; "P"; "Q" ]

let set_ubpq = [ "U"; "B"; "P"; "Q" ]

let pi_rel_node_lines ({ delta; a; x } as params) =
  require_lemma6_range params;
  (* Empty groups (count 0, e.g. the trailing [set_all]^x when x = 0)
     are dropped here; [Line.make] now rejects explicit zero counts. *)
  List.map
    (List.filter (fun (_, c) -> c <> 0))
    [
      [ (set_mubq, delta - x - 1); (set_all, x + 1) ];
      [ (set_pq, 1); (set_ouabpq, delta - 1) ];
      [ (set_abpq, a - x - 1); (set_all, delta - a + x + 1) ];
      [ (set_ubpq, delta - x); (set_all, x) ];
    ]

let pi_rel_renaming =
  [
    (set_mubq, "M");
    (set_all, "X");
    (set_pq, "P");
    (set_ouabpq, "O");
    (set_abpq, "A");
    (set_ubpq, "C");
  ]
