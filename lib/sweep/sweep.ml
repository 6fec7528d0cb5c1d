(* Resumable parametric sweep driver.  See sweep.mli for the
   determinism and cross-engine contracts; the load-bearing choices
   are marked inline. *)

type family = Mis | So | Mm | Col | Pi | Pi_plus

let family_name = function
  | Mis -> "mis"
  | So -> "so"
  | Mm -> "mm"
  | Col -> "col"
  | Pi -> "pi"
  | Pi_plus -> "pi-plus"

let family_of_string = function
  | "mis" -> Ok Mis
  | "so" -> Ok So
  | "mm" -> Ok Mm
  | "col" -> Ok Col
  | "pi" -> Ok Pi
  | "pi-plus" | "pi_plus" -> Ok Pi_plus
  | other ->
      Error
        (Printf.sprintf "unknown family %s (expected mis|so|mm|col|pi|pi-plus)"
           other)

type engine = { zdd : bool; domains : int; certify : bool }

type cell = {
  family : family;
  delta : int;
  a : int;
  x : int;
  labels : int;
  engine : engine;
}

let engine_id e =
  Printf.sprintf "%s dom%d %s"
    (if e.zdd then "zdd" else "explicit")
    e.domains
    (if e.certify then "certify" else "plain")

let cell_base_id c =
  Printf.sprintf "%s d%d a%d x%d l%d" (family_name c.family) c.delta c.a c.x
    c.labels

let cell_id c = cell_base_id c ^ " | " ^ engine_id c.engine

type budgets = {
  expand_limit : float;
  rc_limit : int;
  fp_steps : int;
  ap_steps : int;
  ap_beam : int;
}

let default_budgets =
  { expand_limit = 5e5; rc_limit = 20_000; fp_steps = 2; ap_steps = 2;
    ap_beam = 4 }

type grid = {
  families : family list;
  deltas : int list;
  a_values : int list;
  x_values : int list;
  label_counts : int list;
  engines : engine list;
}

(* Dimensions a family does not consume collapse to 0, so the raw
   cross product dedupes to one canonical cell per distinct problem ×
   engine configuration. *)
let canonicalize c =
  match c.family with
  | Pi | Pi_plus -> { c with labels = 0 }
  | Col -> { c with a = 0; x = 0 }
  | Mis | So | Mm -> { c with a = 0; x = 0; labels = 0 }

let cells g =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  List.iter
    (fun family ->
      List.iter
        (fun delta ->
          List.iter
            (fun a ->
              List.iter
                (fun x ->
                  List.iter
                    (fun labels ->
                      List.iter
                        (fun engine ->
                          let c =
                            canonicalize
                              { family; delta; a; x; labels; engine }
                          in
                          let id = cell_id c in
                          if not (Hashtbl.mem seen id) then begin
                            Hashtbl.add seen id ();
                            out := c :: !out
                          end)
                        g.engines)
                    g.label_counts)
                g.x_values)
            g.a_values)
        g.deltas)
    g.families;
  List.rev !out

let problem_of_cell c =
  let guard f =
    match f () with
    | p -> Ok p
    | exception Invalid_argument msg -> Error msg
    | exception Failure msg -> Error msg
  in
  if c.delta < 1 then Error "delta must be >= 1"
  else
    match c.family with
    | Mis -> guard (fun () -> Lcl.Encodings.mis ~delta:c.delta)
    | So ->
        if c.delta < 2 then Error "sinkless orientation needs delta >= 2"
        else guard (fun () -> Lcl.Encodings.sinkless_orientation ~delta:c.delta)
    | Mm -> guard (fun () -> Lcl.Encodings.maximal_matching ~delta:c.delta)
    | Col ->
        if c.labels < 2 then Error "coloring needs >= 2 colors"
        else
          guard (fun () ->
              Lcl.Encodings.coloring ~delta:c.delta ~colors:c.labels)
    | Pi ->
        guard (fun () ->
            Core.Family.pi { Core.Family.delta = c.delta; a = c.a; x = c.x })
    | Pi_plus ->
        guard (fun () ->
            Core.Family.pi_plus
              { Core.Family.delta = c.delta; a = c.a; x = c.x })

(* ---- per-cell environment pinning -------------------------------- *)

(* The ZDD toggle is consulted from the environment by every engine
   entry point that lacks a [?zdd] argument (fixed-point detection,
   the autopilot's internal steps), so the cell's configuration is
   pinned by overriding RELIM_ZDD for the cell's duration.  putenv
   cannot unset, but "0" and unset read identically (both disable). *)
let with_zdd_env zdd f =
  let prev = Sys.getenv_opt Relim.Parctl.zdd_env_var in
  Unix.putenv Relim.Parctl.zdd_env_var (if zdd then "1" else "0");
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv Relim.Parctl.zdd_env_var
        (Option.value ~default:"0" prev))
    f

let with_pool domains f =
  if domains <= 1 then f Parallel.Pool.sequential
  else begin
    let pool = Parallel.Pool.create ~domains in
    Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) (fun () ->
        f pool)
  end

let with_certify certify f =
  if certify then begin
    Certify.Check.reset_stats ();
    Certify.Hooks.with_hooks f
  end
  else f ()

(* ---- one cell ----------------------------------------------------- *)

let reset_engine_state () =
  Relim.Rounde.reset_stats ();
  Relim.Zeroround.reset_stats ();
  Relim.Fixedpoint.reset_stats ();
  (* The memo cache persists across calls; serving a later cell from a
     hit would make its counters depend on which cells ran earlier in
     the same process — fatal for the resume byte-identity contract. *)
  Relim.Fixedpoint.clear_cache ()

let run_cell ?(clock = Unix.gettimeofday) ~budgets c =
  let open Store.Json in
  let config =
    Obj
      [
        ("zdd", Bool c.engine.zdd);
        ("domains", Int c.engine.domains);
        ("certify", Bool c.engine.certify);
      ]
  in
  let base =
    [
      ("cell", String (cell_id c));
      ("family", String (family_name c.family));
      ("delta", Int c.delta);
      ("a", Int c.a);
      ("x", Int c.x);
      ("labels", Int c.labels);
      ("config", config);
    ]
  in
  match problem_of_cell c with
  | Error reason ->
      Obj
        (base
        @ [
            ("status", String "skipped");
            ("budget", Null);
            ("budget_phase", Null);
            ("skip_reason", String reason);
            ("problem", Null);
            ("hash", Null);
            ("step", Null);
            ("zero_round", Null);
            ("fixed_point", Null);
            ("autopilot", Null);
            ("certified", Null);
            ("counters", Null);
            ("engine_counters", Null);
            ("wall_s", Float 0.);
          ])
  | Ok p ->
      let t0 = clock () in
      reset_engine_state ();
      with_zdd_env c.engine.zdd @@ fun () ->
      with_pool c.engine.domains @@ fun pool ->
      with_certify c.engine.certify @@ fun () ->
      (* Phases run in a fixed order; a budget overrun voids only its
         own phase.  Whether a budget trips is a property of the
         instance, not of the schedule (the work budgets are shared
         atomically), so the trip list is deterministic. *)
      let trips = ref [] in
      let phase name f =
        Trace.with_span ("sweep." ^ name) (fun () ->
            match f () with
            | v -> Some v
            | exception Relim.Budget.Budget_exceeded { budget; _ } ->
                trips := (name, budget) :: !trips;
                None)
      in
      (* Each phase snapshots the counters of the module it drove the
         moment it completes, before any later phase (or a certifier
         replay — the fixed-point checker re-runs a sequential
         [Rounde.step]) can touch the same globals.  This is what makes
         ["counters"] carry exactly the PR 3/8 contract values: the
         step-phase Rounde counters are the ones pinned byte-identical
         across engines, untainted by the autopilot's engine-dependent
         exploration.  A phase that trips its budget leaves its
         counters [null] — mid-flight counter values at a raise are
         not schedule-independent under a multi-domain pool. *)
      let step_counters = ref Null in
      let eng_counters = ref Null in
      let zr_counters = ref Null in
      let fp_counters = ref Null in
      let step =
        phase "step" (fun () ->
            let zdd_nodes0 = Zdd.stats.Zdd.nodes in
            let zdd_hits0 = Zdd.stats.Zdd.cache_hits in
            let { Relim.Rounde.problem = q; _ } =
              Relim.Rounde.step ~expand_limit:budgets.expand_limit
                ~rc_limit:budgets.rc_limit ~pool ~zdd:c.engine.zdd p
            in
            let s = Relim.Rounde.stats in
            step_counters :=
              Obj
                [
                  ("r_calls", Int s.Relim.Rounde.r_calls);
                  ("closures_visited", Int s.Relim.Rounde.closures_visited);
                  ("closure_joins", Int s.Relim.Rounde.closure_joins);
                  ("closure_revisits", Int s.Relim.Rounde.closure_revisits);
                  ("rbar_calls", Int s.Relim.Rounde.rbar_calls);
                  ("rc_sets", Int s.Relim.Rounde.rc_sets);
                ];
            (* The documented per-engine exceptions, scoped to the step
               phase.  transport_cache_hits counts hits in per-worker
               memo tables, so it is only deterministic for
               single-domain cells; recording null otherwise keeps
               every journal byte-deterministic.  boxes_emitted moved
               here in PR 10: the fully symbolic path emits only the
               surviving maximal boxes, so the value is an engine
               property now, not a cross-engine invariant. *)
            eng_counters :=
              Obj
                [
                  ("boxes_emitted", Int s.Relim.Rounde.boxes_emitted);
                  ("boxes_pruned", Int s.Relim.Rounde.boxes_pruned);
                  ("box_dom_checks", Int s.Relim.Rounde.box_dom_checks);
                  ( "box_dom_cheap_skips",
                    Int s.Relim.Rounde.box_dom_cheap_skips );
                  ( "box_transport_calls",
                    Int s.Relim.Rounde.box_transport_calls );
                  ( "transport_cache_hits",
                    if c.engine.domains <= 1 then
                      Int s.Relim.Rounde.transport_cache_hits
                    else Null );
                  ("zdd_nodes", Int (Zdd.stats.Zdd.nodes - zdd_nodes0));
                  ( "zdd_cache_hits",
                    Int (Zdd.stats.Zdd.cache_hits - zdd_hits0) );
                  ("maxbox_tuples", Int s.Relim.Rounde.maxbox_tuples);
                  ("maxbox_cubes", Int s.Relim.Rounde.maxbox_cubes);
                  ("maxbox_maximal", Int s.Relim.Rounde.maxbox_maximal);
                  ("maxbox_enumerated", Int s.Relim.Rounde.maxbox_enumerated);
                ];
            Obj
              [
                ("labels_in", Int (Relim.Problem.label_count p));
                ("labels_out", Int (Relim.Problem.label_count q));
                ("problem", String (Relim.Serialize.to_string q));
                ("hash", Int (Relim.Iso.invariant_hash q));
              ])
      in
      let zero_round =
        phase "zero_round" (fun () ->
            let witness w =
              match w with
              | Some m -> String (Relim.Multiset.to_string p.Relim.Problem.alpha m)
              | None -> Null
            in
            let mirrored = Relim.Zeroround.solvable_mirrored p in
            let arbitrary =
              Relim.Zeroround.solvable_arbitrary_ports ~pool p
            in
            let bound =
              Relim.Zeroround.randomized_failure_bound
                ~limit:budgets.expand_limit p
            in
            let z = Relim.Zeroround.stats in
            zr_counters :=
              Obj
                [
                  ("clique_calls", Int z.Relim.Zeroround.clique_calls);
                  ("maximal_cliques", Int z.Relim.Zeroround.maximal_cliques);
                  ("bk_expansions", Int z.Relim.Zeroround.bk_expansions);
                ];
            Obj
              [
                ("mirrored", Bool (mirrored <> None));
                ("mirrored_witness", witness mirrored);
                ("arbitrary", Bool (arbitrary <> None));
                ("arbitrary_witness", witness arbitrary);
                ( "failure_bound",
                  match bound with Some b -> Float b | None -> Null );
              ])
      in
      let fixed_point =
        phase "fixed_point" (fun () ->
            let v =
              Relim.Fixedpoint.detect ~max_steps:budgets.fp_steps
                ~expand_limit:budgets.expand_limit ~pool p
            in
            let verdict =
              match v with
              | Relim.Fixedpoint.Fixed_point _ -> "fixed-point"
              | Relim.Fixedpoint.Reaches_fixed_point (i, _) ->
                  Printf.sprintf "reaches-fixed-point(%d)" i
              | Relim.Fixedpoint.No_fixed_point_found _ -> "none"
            in
            let f = Relim.Fixedpoint.stats in
            fp_counters :=
              Obj
                [
                  ("steps_applied", Int f.Relim.Fixedpoint.steps_applied);
                  ("cache_hits", Int f.Relim.Fixedpoint.cache_hits);
                  ("cache_misses", Int f.Relim.Fixedpoint.cache_misses);
                  ("hash_conflicts", Int f.Relim.Fixedpoint.hash_conflicts);
                ];
            let lb = Relim.Fixedpoint.lower_bound_statement v in
            Obj
              [
                ("verdict", String verdict);
                ( "lower_bound",
                  match lb with Some s -> String s | None -> Null );
              ])
      in
      let autopilot =
        phase "autopilot" (fun () ->
            let limits =
              {
                Autopilot.default_limits with
                Autopilot.max_steps = budgets.ap_steps;
                beam = budgets.ap_beam;
                expand_limit = budgets.expand_limit;
                rc_limit = budgets.rc_limit;
              }
            in
            let r = Autopilot.search ~limits ~pool p in
            Obj
              [
                ("verdict", String (Autopilot.verdict_string r.Autopilot.verdict));
                ("steps", Int (List.length r.Autopilot.steps));
                ("candidates_explored", Int r.Autopilot.candidates_explored);
                ("budget_skips", Int r.Autopilot.budget_skips);
                ("certified_steps", Int r.Autopilot.certified_steps);
              ])
      in
      (* Engine-independent counters, attributed to the phase that
         produced them: identical across ZDD/explicit and across domain
         counts wherever the phase completed (the PR 3/8 contracts). *)
      let counters =
        Obj
          [
            ("step", !step_counters);
            ("zero_round", !zr_counters);
            ("fixed_point", !fp_counters);
          ]
      in
      let engine_counters = !eng_counters in
      let certified =
        if c.engine.certify then
          let cs = Certify.Check.stats in
          Obj
            [
              ("r", Int cs.Certify.Check.r_certified);
              ("rbar", Int cs.Certify.Check.rbar_certified);
              ("zero_round", Int cs.Certify.Check.zero_certified);
              ("fixed_points", Int cs.Certify.Check.fixed_points_certified);
              ("relaxations", Int cs.Certify.Check.relaxations_certified);
              ("skipped_subchecks", Int cs.Certify.Check.skipped_subchecks);
            ]
        else Null
      in
      let trips = List.rev !trips in
      let status = if trips = [] then "ok" else "budget" in
      let budget, budget_phase =
        match trips with
        | [] -> (Null, Null)
        | (ph, b) :: _ -> (String b, String ph)
      in
      let opt = function Some j -> j | None -> Null in
      Obj
        (base
        @ [
            ("status", String status);
            ("budget", budget);
            ("budget_phase", budget_phase);
            ("skip_reason", Null);
            ("problem", String (Relim.Serialize.to_string p));
            ("hash", Int (Relim.Iso.invariant_hash p));
            ("step", opt step);
            ("zero_round", opt zero_round);
            ("fixed_point", opt fixed_point);
            ("autopilot", opt autopilot);
            ("certified", certified);
            ("counters", counters);
            ("engine_counters", engine_counters);
            ("wall_s", Float (clock () -. t0));
          ])

(* ---- journal ------------------------------------------------------ *)

let grid_schema = 1

let header_json g =
  let open Store.Json in
  Obj
    [
      ("cell", String "@grid");
      ("schema", Int grid_schema);
      ("families", List (List.map (fun f -> String (family_name f)) g.families));
      ("deltas", List (List.map (fun d -> Int d) g.deltas));
      ("a_values", List (List.map (fun v -> Int v) g.a_values));
      ("x_values", List (List.map (fun v -> Int v) g.x_values));
      ("label_counts", List (List.map (fun v -> Int v) g.label_counts));
      ( "engines",
        List
          (List.map
             (fun e ->
               Obj
                 [
                   ("zdd", Bool e.zdd);
                   ("domains", Int e.domains);
                   ("certify", Bool e.certify);
                 ])
             g.engines) );
      ("expected_cells", Int (List.length (cells g)));
    ]

let grid_of_json j =
  let open Store.Json in
  let ( let* ) r f = Result.bind r f in
  let field k =
    match member k j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "@grid header lacks %S" k)
  in
  let ints k =
    let* v = field k in
    match v with
    | List l ->
        let parsed = List.filter_map int_opt l in
        if List.length parsed = List.length l then Ok parsed
        else Error (Printf.sprintf "@grid %S has a non-integer member" k)
    | _ -> Error (Printf.sprintf "@grid %S is not a list" k)
  in
  let* fams = field "families" in
  let* families =
    match fams with
    | List l ->
        List.fold_left
          (fun acc v ->
            let* acc = acc in
            match string_opt v with
            | Some s ->
                let* f = family_of_string s in
                Ok (f :: acc)
            | None -> Error "@grid families must be strings")
          (Ok []) l
        |> Result.map List.rev
    | _ -> Error "@grid \"families\" is not a list"
  in
  let* deltas = ints "deltas" in
  let* a_values = ints "a_values" in
  let* x_values = ints "x_values" in
  let* label_counts = ints "label_counts" in
  let* engs = field "engines" in
  let* engines =
    match engs with
    | List l ->
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            match
              ( Option.bind (member "zdd" e) bool_opt,
                Option.bind (member "domains" e) int_opt,
                Option.bind (member "certify" e) bool_opt )
            with
            | Some zdd, Some domains, Some certify ->
                Ok ({ zdd; domains; certify } :: acc)
            | _ -> Error "@grid engine entry is malformed")
          (Ok []) l
        |> Result.map List.rev
    | _ -> Error "@grid \"engines\" is not a list"
  in
  Ok { families; deltas; a_values; x_values; label_counts; engines }

type scan = {
  header : Store.Json.t option;
  completed : (string * string) list;
  keep_bytes : int;
  dropped_tail : bool;
}

let scan_journal path =
  if not (Sys.file_exists path) then
    { header = None; completed = []; keep_bytes = 0; dropped_tail = false }
  else begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    let header = ref None in
    let completed = ref [] in
    let keep = ref 0 in
    let dropped = ref false in
    let n = String.length s in
    let pos = ref 0 in
    (try
       while !pos < n do
         match String.index_from_opt s !pos '\n' with
         | None ->
             (* Interrupted final write: even a parseable line without
                its newline is treated as damaged and re-run. *)
             dropped := true;
             raise Exit
         | Some nl -> (
             let line = String.sub s !pos (nl - !pos) in
             match Store.Json.of_string line with
             | Ok j -> (
                 match
                   Option.bind (Store.Json.member "cell" j)
                     Store.Json.string_opt
                 with
                 | Some "@grid" ->
                     header := Some j;
                     pos := nl + 1;
                     keep := !pos
                 | Some id ->
                     let status =
                       Option.value ~default:""
                         (Option.bind (Store.Json.member "status" j)
                            Store.Json.string_opt)
                     in
                     completed := (id, status) :: !completed;
                     pos := nl + 1;
                     keep := !pos
                 | None ->
                     dropped := true;
                     raise Exit)
             | Error _ ->
                 dropped := true;
                 raise Exit)
       done
     with Exit -> ());
    {
      header = !header;
      completed = List.rev !completed;
      keep_bytes = !keep;
      dropped_tail = !dropped;
    }
  end

type summary = {
  total : int;
  served : int;
  ran : int;
  ok : int;
  budgeted : int;
  skipped : int;
  recovered_tail : bool;
  complete : bool;
  wall_s : float;
}

exception Foreign_journal of string

let run ?(clock = Unix.gettimeofday) ?max_cells ?(log = fun _ -> ())
    ~budgets ~out grid =
  let t0 = clock () in
  let all = cells grid in
  let header = header_json grid in
  let scan = scan_journal out in
  (match scan.header with
  | Some h when Store.Json.to_string h <> Store.Json.to_string header ->
      raise
        (Foreign_journal
           (Printf.sprintf
              "%s holds a journal for a different grid; refusing to mix sweeps"
              out))
  | _ -> ());
  if scan.dropped_tail then begin
    Unix.truncate out scan.keep_bytes;
    log
      (Printf.sprintf "recovered journal: dropped a damaged tail at byte %d"
         scan.keep_bytes)
  end;
  let done_tbl = Hashtbl.create 64 in
  List.iter (fun (id, st) -> Hashtbl.replace done_tbl id st) scan.completed;
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 out
  in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  if scan.header = None then begin
    output_string oc (Store.Json.to_string header);
    output_char oc '\n';
    flush oc
  end;
  let served = ref 0 and ran = ref 0 in
  let ok = ref 0 and budgeted = ref 0 and skipped = ref 0 in
  let tally = function
    | "ok" -> incr ok
    | "budget" -> incr budgeted
    | "skipped" -> incr skipped
    | _ -> ()
  in
  let hit_limit = ref false in
  List.iter
    (fun c ->
      let id = cell_id c in
      match Hashtbl.find_opt done_tbl id with
      | Some status ->
          incr served;
          tally status;
          log (Printf.sprintf "served  %s (%s)" id status)
      | None ->
          if
            (match max_cells with Some m -> !ran >= m | None -> false)
            || !hit_limit
          then hit_limit := true
          else begin
            let record =
              Trace.with_span "sweep.cell" ~attrs:[ ("cell", id) ] (fun () ->
                  run_cell ~clock ~budgets c)
            in
            output_string oc (Store.Json.to_string record);
            output_char oc '\n';
            (* One flushed line per cell: a kill can lose or truncate
               at most the line being written, which the next scan
               detects and re-runs. *)
            flush oc;
            incr ran;
            let status =
              Option.value ~default:""
                (Option.bind (Store.Json.member "status" record)
                   Store.Json.string_opt)
            in
            tally status;
            log (Printf.sprintf "ran     %s (%s)" id status)
          end)
    all;
  let total = List.length all in
  let complete = !served + !ran = total in
  Trace.instant "sweep.done"
    ~attrs:
      [
        ("total", string_of_int total);
        ("served", string_of_int !served);
        ("ran", string_of_int !ran);
      ];
  {
    total;
    served = !served;
    ran = !ran;
    ok = !ok;
    budgeted = !budgeted;
    skipped = !skipped;
    recovered_tail = scan.dropped_tail;
    complete;
    wall_s = clock () -. t0;
  }
