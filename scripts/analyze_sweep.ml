(* analyze_sweep — fold a relimsweep journal into the experiment
   tables.

   Usage:
     analyze_sweep JOURNAL [--md] [--n N]

   Verifies the journal covers its declared grid completely, then
   produces (a) a bound-curve table juxtaposing Theorem 1 / Corollary 2
   lower bounds with Localsim-measured upper bounds per Δ, (b) an
   engine-comparison table (explicit vs zdd walls, certify overhead)
   and (c) per-cell verdicts — printed as one JSON object on stdout,
   or as markdown with --md.  Exit 1 on coverage gaps, 2 on malformed
   input.  No dependencies beyond the repo's own libraries: JSON goes
   through lib/store's parser. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let read_lines path =
  if not (Sys.file_exists path) then fail "analyze_sweep: %s: no such file" path;
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | line -> go (if line = "" then acc else line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let j_member k j = Store.Json.member k j
let j_string k j = Option.bind (j_member k j) Store.Json.string_opt

(* ---- journal loading --------------------------------------------- *)

type journal = {
  grid : Sweep.grid;
  header : Store.Json.t;
  records : (string * Store.Json.t) list;  (* cell id -> record *)
}

let load path =
  let lines = read_lines path in
  match lines with
  | [] -> fail "analyze_sweep: %s is empty" path
  | first :: rest ->
      let parse line =
        match Store.Json.of_string line with
        | Ok j -> j
        | Error e -> fail "analyze_sweep: %s: bad JSON line: %s" path e
      in
      let header = parse first in
      if j_string "cell" header <> Some "@grid" then
        fail "analyze_sweep: %s does not start with an @grid header" path;
      let grid =
        match Sweep.grid_of_json header with
        | Ok g -> g
        | Error e -> fail "analyze_sweep: %s: %s" path e
      in
      let records =
        List.map
          (fun line ->
            let j = parse line in
            match j_string "cell" j with
            | Some id -> (id, j)
            | None -> fail "analyze_sweep: %s: record without a cell id" path)
          rest
      in
      { grid; header; records }

(* Every grid cell journaled exactly once, nothing extraneous. *)
let check_coverage { grid; records; _ } =
  let expected = List.map Sweep.cell_id (Sweep.cells grid) in
  let missing =
    List.filter (fun id -> not (List.mem_assoc id records)) expected
  in
  let extra =
    List.filter (fun (id, _) -> not (List.mem id expected)) records
  in
  let dup =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun (id, _) ->
        let d = Hashtbl.mem seen id in
        Hashtbl.replace seen id ();
        d)
      records
  in
  List.iter (fun id -> Printf.eprintf "missing cell: %s\n" id) missing;
  List.iter (fun (id, _) -> Printf.eprintf "extraneous cell: %s\n" id) extra;
  List.iter (fun (id, _) -> Printf.eprintf "duplicated cell: %s\n" id) dup;
  if missing <> [] || extra <> [] || dup <> [] then begin
    Printf.eprintf "analyze_sweep: journal does not cover its grid\n";
    exit 1
  end

(* ---- section assembly -------------------------------------------- *)

let statuses records =
  let count s =
    List.length (List.filter (fun (_, j) -> j_string "status" j = Some s) records)
  in
  Store.Json.Obj
    [
      ("ok", Store.Json.Int (count "ok"));
      ("budget", Store.Json.Int (count "budget"));
      ("skipped", Store.Json.Int (count "skipped"));
    ]

let cell_rows records =
  let row (id, j) =
    let get path_opt = Option.value ~default:Store.Json.Null path_opt in
    let sub obj k =
      match j_member obj j with Some o -> j_member k o | None -> None
    in
    Store.Json.Obj
      [
        ("cell", Store.Json.String id);
        ("status", get (j_member "status" j));
        ("budget", get (j_member "budget" j));
        ("fixed_point", get (sub "fixed_point" "verdict"));
        ("autopilot", get (sub "autopilot" "verdict"));
        ("wall_s", get (j_member "wall_s" j));
      ]
  in
  Store.Json.List (List.map row records)

(* Lower bounds (Theorem 1 / Corollary 2 / the PN chain length) next
   to rounds actually measured by the simulator on a random tree with
   that Δ — the "bound curve" of ROADMAP item 4. *)
let bound_curve ~n grid =
  let deltas = List.sort_uniq compare grid.Sweep.deltas in
  let row delta =
    let df = float_of_int delta and nf = float_of_int n in
    let measured =
      if delta < 2 then []
      else begin
        let g = Dsgraph.Tree_gen.random ~n ~max_degree:delta ~seed:42 in
        let _, luby_rounds = Distalgo.Luby.run ~seed:42 g in
        let _, cv_rounds = Distalgo.Kods.mis_on_tree g ~root:0 in
        [
          ("luby_rounds", Store.Json.Int luby_rounds);
          ("cv_mis_rounds", Store.Json.Int cv_rounds);
        ]
      end
    in
    Store.Json.Obj
      ([
         ("delta", Store.Json.Int delta);
         ("n", Store.Json.Int n);
         ( "thm1_det",
           Store.Json.Float (Core.Bounds.theorem1_det ~delta:df ~n:nf) );
         ( "thm1_rand",
           Store.Json.Float (Core.Bounds.theorem1_rand ~delta:df ~n:nf) );
         ( "cor2_det",
           Store.Json.Float (Core.Bounds.corollary2_det ~delta:df ~n:nf) );
         ( "chain_pn",
           Store.Json.Int
             (if delta < 2 then 0
              else Core.Sequence.kods_pn_lower_bound ~delta ~k:0) );
         ( "upper_mis",
           Store.Json.Float (Core.Bounds.upper_mis ~delta:df ~n:nf) );
       ]
      @ measured)
  in
  Store.Json.List (List.map row deltas)

(* Wall-clock comparisons across engine configurations of the same
   problem cell.  Statuses ride along so a budget-tripped side is
   never mistaken for a fast one. *)
let engine_comparison records =
  let find id = List.assoc_opt id records in
  let bases =
    List.sort_uniq compare
      (List.filter_map
         (fun (id, _) ->
           match String.index_opt id '|' with
           | Some i -> Some (String.sub id 0 (i - 1))
           | None -> None)
         records)
  in
  let rows =
    List.filter_map
      (fun base ->
        let explicit = find (base ^ " | explicit dom1 plain") in
        let zdd = find (base ^ " | zdd dom1 plain") in
        let certify = find (base ^ " | explicit dom1 certify") in
        match explicit with
        | None -> None
        | Some e ->
            let side name r =
              match r with
              | None -> []
              | Some j ->
                  [
                    ( name ^ "_status",
                      Option.value ~default:Store.Json.Null
                        (j_member "status" j) );
                    ( name ^ "_time_s",
                      Option.value ~default:Store.Json.Null
                        (j_member "wall_s" j) );
                  ]
            in
            Some
              (Store.Json.Obj
                 (( "cell", Store.Json.String base )
                 :: (side "explicit" (Some e) @ side "zdd" zdd
                   @ side "certify" certify))))
      bases
  in
  Store.Json.List rows

let sweep_section ~n ~journal_path j =
  let complete = true (* check_coverage exits otherwise *) in
  Store.Json.Obj
    [
      ("journal", Store.Json.String (Filename.basename journal_path));
      ("grid", j.header);
      ("complete", Store.Json.Bool complete);
      ("statuses", statuses j.records);
      ("cells", cell_rows j.records);
      ("bound_curve", bound_curve ~n j.grid);
      ("engine_comparison", engine_comparison j.records);
    ]

(* ---- markdown ----------------------------------------------------- *)

let md_of_section section =
  let get k = Option.value ~default:Store.Json.Null (j_member k section) in
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let escape s =
    (* Cell ids contain "|", the markdown column separator. *)
    String.concat "\\|" (String.split_on_char '|' s)
  in
  let fcell = function
    | Store.Json.Null -> "—"
    | Store.Json.String s -> escape s
    | Store.Json.Int i -> string_of_int i
    | Store.Json.Float f -> Printf.sprintf "%.3f" f
    | Store.Json.Bool b -> string_of_bool b
    | j -> escape (Store.Json.to_string j)
  in
  (match get "statuses" with
  | Store.Json.Obj kvs ->
      pf "Grid: %s cells — %s.\n\n"
        (match j_member "grid" section with
        | Some g ->
            fcell (Option.value ~default:Store.Json.Null
                     (j_member "expected_cells" g))
        | None -> "?")
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s %s" (fcell v) k) kvs))
  | _ -> ());
  let table title cols rows =
    pf "%s\n\n" title;
    pf "| %s |\n" (String.concat " | " (List.map fst cols));
    pf "|%s\n" (String.concat "" (List.map (fun _ -> "---|") cols));
    List.iter
      (fun row ->
        pf "| %s |\n"
          (String.concat " | "
             (List.map
                (fun (_, k) ->
                  fcell
                    (Option.value ~default:Store.Json.Null (j_member k row)))
                cols)))
      rows;
    pf "\n"
  in
  (match get "bound_curve" with
  | Store.Json.List rows ->
      table "Bound curve (lower bounds vs measured rounds, hidden constants = 1):"
        [
          ("Δ", "delta"); ("n", "n"); ("Thm 1 det", "thm1_det");
          ("Thm 1 rand", "thm1_rand"); ("Cor 2 det", "cor2_det");
          ("PN chain t(Δ,0)", "chain_pn"); ("O(Δ+log* n)", "upper_mis");
          ("Luby (measured)", "luby_rounds");
          ("CV-MIS (measured)", "cv_mis_rounds");
        ]
        rows
  | _ -> ());
  (match get "engine_comparison" with
  | Store.Json.List rows ->
      table "Engine comparison (seconds; statuses guard against comparing a budget-tripped side):"
        [
          ("cell", "cell");
          ("explicit", "explicit_time_s"); ("status", "explicit_status");
          ("zdd", "zdd_time_s"); ("status", "zdd_status");
          ("certify", "certify_time_s"); ("status", "certify_status");
        ]
        rows
  | _ -> ());
  (match get "cells" with
  | Store.Json.List rows ->
      table "Per-cell verdicts:"
        [
          ("cell", "cell"); ("status", "status"); ("budget", "budget");
          ("fixed point", "fixed_point"); ("autopilot", "autopilot");
        ]
        rows
  | _ -> ());
  Buffer.contents buf

(* ---- driver ------------------------------------------------------- *)

let () =
  let journal = ref None in
  let md = ref false in
  let n = ref 512 in
  let rec parse = function
    | [] -> ()
    | "--md" :: rest ->
        md := true;
        parse rest
    | "--n" :: v :: rest ->
        (match int_of_string_opt v with
        | Some i when i > 1 -> n := i
        | _ -> fail "analyze_sweep: --n expects an integer > 1");
        parse rest
    | arg :: rest when !journal = None && String.length arg > 0
                       && arg.[0] <> '-' ->
        journal := Some arg;
        parse rest
    | arg :: _ -> fail "analyze_sweep: unexpected argument %s" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let journal_path =
    match !journal with
    | Some p -> p
    | None -> fail "usage: analyze_sweep JOURNAL [--md] [--n N]"
  in
  let j = load journal_path in
  check_coverage j;
  let section = sweep_section ~n:!n ~journal_path j in
  if !md then print_string (md_of_section section)
  else print_string (Store.Json.to_string section ^ "\n")
