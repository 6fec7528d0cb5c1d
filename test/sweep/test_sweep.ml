(* The sweep harness test suite, in four parts:

   1. A table-driven "mega-suite" over the small corner of the sweep
      grid: one generator walks every (family, parameter) row, runs
      the lemma pipeline on it — label counts through R and R-bar o R,
      right-closed-set and box counters, both 0-round deciders with
      their witnesses, the Lemma 15 failure bound, and the fixed-point
      verdict — and pins every value against a committed golden table
      (test/sweep/golden/megasuite.golden).  Regenerate with
      DUNE_GOLDEN_UPDATE=1 dune runtest; mismatches print 1-based
      line-numbered diffs.

   2. Resume/crash properties for Sweep.run: interrupting a sweep
      after k cells (via max_cells, the deterministic stand-in for a
      kill; scripts/sweep_smoke.sh does a real kill -9) and resuming
      yields a journal byte-identical to an uninterrupted run, and a
      journal whose tail was truncated mid-line is detected, cut back
      to the last complete record, and re-run to the same bytes.

   3. The cross-engine identity contract: for a cell that completes
      with status "ok" and no autopilot budget skips, the explicit and
      ZDD engines, 1 and 2 worker domains, and the certifying
      configuration all produce identical records outside the declared
      exceptions ("cell", "config", "wall_s", "certified", and —
      explicit vs ZDD — "engine_counters"; across domain counts only
      engine_counters.transport_cache_hits may differ).

   4. End-to-end CLI tests driving the real relimsweep and
      analyze_sweep executables (paths in $RELIMSWEEP and
      $ANALYZE_SWEEP, set by the dune stanza): journal -> analyzed
      "sweep" section, checked against the sweep contract, a
      partial journal refused, and bad arguments exiting 2. *)

module J = Store.Json

let seq = Parallel.Pool.sequential

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Part 1: the table-driven lemma mega-suite                           *)
(* ------------------------------------------------------------------ *)

(* The mega-suite pins engine counters, so the engine path must not
   depend on the CI leg: the ZDD toggle is pinned off for its duration
   (explicit-path counters are the ones in the golden; test/zdd pins
   the cross-path identities), the pool is explicitly sequential, and
   counters are snapshotted the moment the step returns — before
   fixed-point detection, whose certifier replay (RELIM_CERTIFY=1)
   re-enters the engine. *)
let with_zdd_pinned f =
  let prev = Sys.getenv_opt Relim.Parctl.zdd_env_var in
  Unix.putenv Relim.Parctl.zdd_env_var "0";
  Fun.protect
    ~finally:(fun () ->
      (* putenv cannot unset; "0" is equivalent to unset here. *)
      Unix.putenv Relim.Parctl.zdd_env_var (Option.value prev ~default:"0"))
    f

let mega_expand = 2e5
let mega_rc = 20_000

let budget_str f =
  match f () with
  | v -> v
  | exception Relim.Budget.Budget_exceeded { budget; _ } ->
      Printf.sprintf "budget(%s)" budget

(* Chain_n: the node diagram is an n-chain, so R-bar's right-closed
   family has exactly n members (suffixes) — the linear extreme of
   Lemma 8's order-ideal enumeration (same family as test/zdd). *)
let chain_problem n =
  let name i = Printf.sprintf "l%d" i in
  let names = List.init n name in
  let all = String.concat " " names in
  let node =
    String.concat "\n"
      (List.init n (fun i ->
           match List.filteri (fun j _ -> i + j >= n - 1) names with
           | [ only ] -> Printf.sprintf "%s %s" (name i) only
           | partners ->
               Printf.sprintf "%s [%s]" (name i) (String.concat " " partners)))
  in
  Relim.Parse.problem
    ~name:(Printf.sprintf "chain%d" n)
    ~node
    ~edge:(Printf.sprintf "[%s] [%s]" all all)

(* Antichain_k (complete-graph k-coloring on Delta = 2): the node
   diagram is a k-antichain, so the right-closed family has 2^k - 1
   members — the exponential extreme.  R-bar(antichain_k) is
   antichain_k itself. *)
let antichain_problem k =
  let name i = Printf.sprintf "c%d" i in
  let node =
    String.concat "\n"
      (List.init k (fun i -> Printf.sprintf "%s %s %s" (name i) (name i) (name i)))
  in
  let edge =
    String.concat "\n"
      (List.concat_map
         (fun i ->
           List.filter_map
             (fun j ->
               if i < j then Some (Printf.sprintf "%s %s" (name i) (name j))
               else None)
             (List.init k Fun.id))
         (List.init k Fun.id))
  in
  Relim.Parse.problem ~name:(Printf.sprintf "antichain%d" k) ~node ~edge

(* One row = 11 pinned metrics: label counts through R and the full
   step, the explicit-path rc-set/box counters, the symbolic-engine
   axis (the same step under ~zdd:true, pinned as "identical" plus the
   engine's maxbox counters — the cross-engine identity of PR 10), both
   0-round deciders with their witness configurations, the Lemma 15
   randomized failure bound, and the fixed-point verdict.  Budget
   overruns are themselves pinned, as the (deterministic) name of the
   tripped budget — the two engines trip distinctly named budgets, and
   the symbolic rung completes rows the explicit path cannot. *)
let mega_row buf name p =
  let add metric value =
    Buffer.add_string buf (Printf.sprintf "%-21s | %-13s = %s\n" name metric value)
  in
  add "labels_in" (string_of_int (Relim.Problem.label_count p));
  add "labels_r"
    (budget_str (fun () ->
         string_of_int
           (Relim.Problem.label_count (Relim.Rounde.r p).Relim.Rounde.problem)));
  Relim.Rounde.reset_stats ();
  let explicit =
    match
      Relim.Rounde.step ~expand_limit:mega_expand ~rc_limit:mega_rc ~pool:seq
        ~zdd:false p
    with
    | { Relim.Rounde.problem = stepped; denotations } ->
        (* Snapshot before anything else touches the engine (see
           above). *)
        Ok
          ( Relim.Serialize.to_string stepped,
            Array.to_list denotations,
            Relim.Rounde.stats.Relim.Rounde.rc_sets,
            Relim.Rounde.stats.Relim.Rounde.boxes_emitted )
    | exception Relim.Budget.Budget_exceeded { budget; _ } -> Error budget
  in
  (match explicit with
  | Ok (stepped, _, rc, boxes) ->
      add "labels_step"
        (string_of_int
           (Relim.Problem.label_count (Relim.Serialize.of_string stepped)));
      add "rc_sets" (string_of_int rc);
      add "boxes_emitted" (string_of_int boxes)
  | Error budget ->
      let b = Printf.sprintf "budget(%s)" budget in
      add "labels_step" b;
      add "rc_sets" b;
      add "boxes_emitted" b);
  (* Symbolic axis: the same step on the ZDD engine ladder.  Where both
     engines complete, problems, denotations and rc_sets must agree
     byte-for-byte; engine_counters ([boxes_emitted], [maxbox_*]) are
     the documented per-engine exceptions, so they are pinned
     separately rather than compared. *)
  Relim.Rounde.reset_stats ();
  (match
     Relim.Rounde.step ~expand_limit:mega_expand ~rc_limit:mega_rc ~pool:seq
       ~zdd:true p
   with
  | { Relim.Rounde.problem = zstepped; denotations = zdenots } ->
      let s = Relim.Rounde.stats in
      let zrc = s.Relim.Rounde.rc_sets in
      let maxbox =
        Printf.sprintf "%d/%d/%d/%d" s.Relim.Rounde.maxbox_tuples
          s.Relim.Rounde.maxbox_cubes s.Relim.Rounde.maxbox_maximal
          s.Relim.Rounde.maxbox_enumerated
      in
      (match explicit with
      | Ok (stepped, denots, rc, _) ->
          if
            Relim.Serialize.to_string zstepped = stepped
            && Array.to_list zdenots = denots
            && zrc = rc
          then add "zdd_step" "identical"
          else add "zdd_step" "MISMATCH"
      | Error _ -> add "zdd_step" "completes");
      add "zdd_maxbox" maxbox
  | exception Relim.Budget.Budget_exceeded { budget; _ } ->
      add "zdd_step" (Printf.sprintf "budget(%s)" budget);
      add "zdd_maxbox" "-");
  let witness = function
    | Some m ->
        (* Multiset.to_string is one label per line; fold to one line. *)
        "solvable "
        ^ String.concat "+"
            (String.split_on_char '\n'
               (Relim.Multiset.to_string p.Relim.Problem.alpha m))
    | None -> "unsolvable"
  in
  add "zr_mirrored" (witness (Relim.Zeroround.solvable_mirrored p));
  add "zr_arbitrary"
    (budget_str (fun () ->
         witness (Relim.Zeroround.solvable_arbitrary_ports ~pool:seq p)));
  add "failure_bound"
    (budget_str (fun () ->
         match Relim.Zeroround.randomized_failure_bound ~limit:mega_expand p with
         | Some f -> Printf.sprintf "%.9g" f
         | None -> "solvable"));
  Relim.Fixedpoint.clear_cache ();
  add "fixed_point"
    (budget_str (fun () ->
         match
           Relim.Fixedpoint.detect ~max_steps:2 ~expand_limit:mega_expand
             ~pool:seq p
         with
         | Relim.Fixedpoint.Fixed_point _ -> "fixed-point"
         | Relim.Fixedpoint.Reaches_fixed_point (i, _) ->
             Printf.sprintf "reaches-fixed-point(%d)" i
         | Relim.Fixedpoint.No_fixed_point_found _ -> "none"))

let mega_rows () =
  List.init 8 (fun i ->
      let n = i + 2 in
      (Printf.sprintf "chain n=%d" n, chain_problem n))
  @ List.init 5 (fun i ->
        let k = i + 2 in
        (Printf.sprintf "antichain k=%d" k, antichain_problem k))
  @ List.map
      (fun c ->
        (Printf.sprintf "col d=2 c=%d" c, Lcl.Encodings.coloring ~delta:2 ~colors:c))
      [ 2; 3; 4; 5 ]
  @ List.map
      (fun d -> (Printf.sprintf "mis d=%d" d, Lcl.Encodings.mis ~delta:d))
      [ 2; 3; 4; 5 ]
  @ List.map
      (fun d ->
        (Printf.sprintf "so d=%d" d, Lcl.Encodings.sinkless_orientation ~delta:d))
      [ 2; 3; 4 ]
  @ List.map
      (fun d ->
        (Printf.sprintf "mm d=%d" d, Lcl.Encodings.maximal_matching ~delta:d))
      [ 2; 3; 4 ]
  @ List.map
      (fun (delta, a, x) ->
        ( Printf.sprintf "pi d=%d a=%d x=%d" delta a x,
          Core.Family.pi { Core.Family.delta; a; x } ))
      [ (3, 2, 0); (3, 3, 1); (4, 3, 1); (4, 4, 2); (5, 4, 2) ]
  @ List.map
      (fun (delta, a, x) ->
        ( Printf.sprintf "pi-plus d=%d a=%d x=%d" delta a x,
          Core.Family.pi_plus { Core.Family.delta; a; x } ))
      [ (4, 3, 1); (5, 4, 2) ]

let test_megasuite () =
  with_zdd_pinned @@ fun () ->
  let rows = mega_rows () in
  (* Self-check the acceptance floor before comparing: the table must
     pin at least 200 values across at least 4 distinct families. *)
  let families =
    List.sort_uniq compare
      (List.map (fun (n, _) -> List.hd (String.split_on_char ' ' n)) rows)
  in
  Alcotest.(check bool)
    "mega-suite covers >= 4 families" true
    (List.length families >= 4);
  let buf = Buffer.create 8192 in
  List.iter (fun (name, p) -> mega_row buf name p) rows;
  let out = Buffer.contents buf in
  let pinned =
    List.length
      (List.filter (fun l -> l <> "") (String.split_on_char '\n' out))
  in
  Alcotest.(check bool)
    (Printf.sprintf "mega-suite pins >= 200 values (got %d)" pinned)
    true (pinned >= 200);
  Golden.check ~suite:"sweep" "megasuite" out

(* ------------------------------------------------------------------ *)
(* Part 2: resume / crash-recovery properties                          *)
(* ------------------------------------------------------------------ *)

(* Six cheap cells, one engine config, fixed clock: the reference
   journal for every byte-identity property. *)
let small_grid =
  {
    Sweep.families = [ Sweep.So; Sweep.Mm; Sweep.Col ];
    deltas = [ 2; 3 ];
    a_values = [ 0 ];
    x_values = [ 0 ];
    label_counts = [ 2 ];
    engines = [ { Sweep.zdd = false; domains = 1; certify = false } ];
  }

let tight_budgets = { Sweep.default_budgets with Sweep.ap_steps = 1; ap_beam = 2 }
let fixed_clock () = 0.

let run_small ?max_cells out =
  Sweep.run ~clock:fixed_clock ?max_cells ~budgets:tight_budgets ~out small_grid

let with_temp_journal f =
  let path = Filename.temp_file "test_sweep" ".jsonl" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* The uninterrupted reference run, computed once. *)
let reference =
  lazy
    (with_temp_journal (fun path ->
         let summary = run_small path in
         (summary, read_file path)))

let test_reference_run () =
  let summary, bytes = Lazy.force reference in
  Alcotest.(check int) "6 cells" 6 summary.Sweep.total;
  Alcotest.(check int) "all ran" 6 summary.Sweep.ran;
  Alcotest.(check int) "none served" 0 summary.Sweep.served;
  Alcotest.(check bool) "complete" true summary.Sweep.complete;
  Alcotest.(check bool) "no recovery" false summary.Sweep.recovered_tail;
  Alcotest.(check int)
    "journal = header + one line per cell" 7
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' bytes)))

let test_noop_rerun () =
  let _, bytes = Lazy.force reference in
  with_temp_journal (fun path ->
      write_file path bytes;
      let summary = run_small path in
      Alcotest.(check int) "nothing ran" 0 summary.Sweep.ran;
      Alcotest.(check int) "all served" 6 summary.Sweep.served;
      Alcotest.(check bool) "complete" true summary.Sweep.complete;
      Alcotest.(check string) "byte-identical no-op" bytes (read_file path))

(* Killing a sweep after k cells and resuming is byte-identical to the
   uninterrupted run.  max_cells stops the run at exactly the same
   place a kill between two journal flushes would (records are written
   and flushed one at a time); the mid-write kill — torn last line —
   is the truncation property below, and scripts/sweep_smoke.sh
   additionally does a real kill -9 on the binary. *)
let prop_resume_after_k_cells =
  QCheck.Test.make ~count:12 ~name:"interrupt after k cells + resume = no-op"
    QCheck.(int_bound 5)
    (fun k ->
      let _, expected = Lazy.force reference in
      with_temp_journal (fun path ->
          let first = run_small ~max_cells:k path in
          let resumed = run_small path in
          first.Sweep.ran = k
          && (not first.Sweep.complete)
          && resumed.Sweep.served = k
          && resumed.Sweep.ran = 6 - k
          && resumed.Sweep.complete
          && String.equal expected (read_file path)))

(* A journal whose tail was torn mid-write (kill -9, disk full, ...):
   chopping any suffix off the reference journal leaves at most one
   damaged trailing line; resuming truncates it, re-runs from the last
   complete record, and reproduces the reference bytes exactly. *)
let prop_resume_after_torn_tail =
  QCheck.Test.make ~count:20 ~name:"torn trailing line + resume = no-op"
    QCheck.(int_range 1 400)
    (fun chop ->
      let _, expected = Lazy.force reference in
      let chop = min chop (String.length expected - 1) in
      with_temp_journal (fun path ->
          write_file path (String.sub expected 0 (String.length expected - chop));
          let summary = run_small path in
          summary.Sweep.complete
          && String.equal expected (read_file path)))

let test_scan_detects_torn_tail () =
  let _, bytes = Lazy.force reference in
  let header_len = 1 + String.index bytes '\n' in
  with_temp_journal (fun path ->
      (* A header plus half a record: the damage must be detected and
         the keep-point must be the end of the header line. *)
      write_file path (String.sub bytes 0 (header_len + 25));
      let scan = Sweep.scan_journal path in
      Alcotest.(check bool) "tail flagged" true scan.Sweep.dropped_tail;
      Alcotest.(check int) "keep to header end" header_len scan.Sweep.keep_bytes;
      Alcotest.(check int)
        "no cells believed complete" 0
        (List.length scan.Sweep.completed))

let test_refuses_foreign_journal () =
  let _, bytes = Lazy.force reference in
  with_temp_journal (fun path ->
      write_file path bytes;
      let other = { small_grid with Sweep.deltas = [ 2 ] } in
      match
        Sweep.run ~clock:fixed_clock ~budgets:tight_budgets ~out:path other
      with
      | _ -> Alcotest.fail "accepted a journal for a different grid"
      | exception Sweep.Foreign_journal msg ->
          Alcotest.(check bool)
            "names the refusal" true
            (String.length msg > 0)
          (* the journal must be left untouched by the refusal: *);
          Alcotest.(check string) "journal untouched" bytes (read_file path))

(* ------------------------------------------------------------------ *)
(* Part 3: cross-engine identity                                       *)
(* ------------------------------------------------------------------ *)

let drop_members keys = function
  | J.Obj ms -> J.Obj (List.filter (fun (k, _) -> not (List.mem k keys)) ms)
  | j -> j

let member k = function
  | J.Obj ms -> ( match List.assoc_opt k ms with Some v -> v | None -> J.Null)
  | _ -> J.Null

let map_member key f = function
  | J.Obj ms ->
      J.Obj (List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) ms)
  | j -> j

let record cell = Sweep.run_cell ~clock:fixed_clock ~budgets:tight_budgets cell

let mk_cell family delta labels engine =
  { Sweep.family; delta; a = 0; x = 0; labels; engine }

(* Cells cheap enough to run 4x each and known to complete with
   status "ok" and zero autopilot budget skips (the contract's
   precondition, asserted below rather than assumed). *)
let identity_cells =
  [
    (Sweep.So, 2, 0);
    (Sweep.So, 3, 0);
    (Sweep.Mm, 3, 0);
    (Sweep.Col, 2, 2);
    (Sweep.Mis, 2, 0);
  ]

let check_identity name expected actual =
  let e = J.to_string expected and a = J.to_string actual in
  Alcotest.(check string) name e a

let test_cross_engine_identity () =
  List.iter
    (fun (family, delta, labels) ->
      let base engine = mk_cell family delta labels engine in
      let explicit1 =
        record (base { Sweep.zdd = false; domains = 1; certify = false })
      in
      let zdd1 =
        record (base { Sweep.zdd = true; domains = 1; certify = false })
      in
      let explicit2 =
        record (base { Sweep.zdd = false; domains = 2; certify = false })
      in
      let certify1 =
        record (base { Sweep.zdd = false; domains = 1; certify = true })
      in
      let tag = J.to_string (member "cell" explicit1) in
      (* Precondition: every configuration completed the whole
         pipeline — the identity contract only covers such cells. *)
      List.iter
        (fun r ->
          Alcotest.(check string)
            (tag ^ ": status ok") "\"ok\""
            (J.to_string (member "status" r));
          Alcotest.(check string)
            (tag ^ ": no autopilot budget skips") "0"
            (J.to_string (member "budget_skips" (member "autopilot" r))))
        [ explicit1; zdd1; explicit2; certify1 ];
      (* Explicit vs ZDD: identical outside the per-engine counters. *)
      let core r =
        drop_members
          [ "cell"; "config"; "wall_s"; "engine_counters"; "certified" ]
          r
      in
      check_identity (tag ^ ": explicit = zdd") (core explicit1) (core zdd1);
      (* 1 vs 2 domains: engine_counters must also agree, except the
         per-worker transport memo hits (null for domains > 1). *)
      let dom r =
        map_member "engine_counters"
          (drop_members [ "transport_cache_hits" ])
          (drop_members [ "cell"; "config"; "wall_s"; "certified" ] r)
      in
      check_identity (tag ^ ": 1 = 2 domains") (dom explicit1) (dom explicit2);
      (* Certifying must not perturb anything it observes — even the
         engine counters agree, because the certifier's checks never
         re-enter the engine during the counted phases. *)
      let cert r = drop_members [ "cell"; "config"; "wall_s"; "certified" ] r in
      check_identity (tag ^ ": plain = certify") (cert explicit1)
        (cert certify1);
      (* And the certifying record actually certified something. *)
      Alcotest.(check bool)
        (tag ^ ": certified counters present") true
        (member "certified" certify1 <> J.Null))
    identity_cells

(* ------------------------------------------------------------------ *)
(* Part 4: CLI end-to-end (relimsweep / analyze_sweep)                 *)
(* ------------------------------------------------------------------ *)

let exe name =
  match Sys.getenv_opt name with
  | Some p -> p
  | None -> Alcotest.fail (name ^ " not set (run via dune runtest)")

(* Runs [bin args], returning (exit code, stdout, stderr). *)
let run_cmd bin args =
  let out = Filename.temp_file "sweep_out" ".txt" in
  let err = Filename.temp_file "sweep_err" ".txt" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> %s" (Filename.quote bin) args
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let cli_grid_args =
  "--families so,col --deltas 2 --label-counts 2 --ap-steps 1 --ap-beam 2 \
   --fixed-clock -q"

(* One fixed-clock CLI sweep and its analysis, shared by the CLI tests
   below: (the "sweep" section analyze_sweep prints, its markdown). *)
let cli_artifacts =
  lazy
    (let journal = Filename.temp_file "cli_sweep" ".jsonl" in
     let code, _, err =
       run_cmd (exe "RELIMSWEEP")
         (Printf.sprintf "--out %s %s" (Filename.quote journal) cli_grid_args)
     in
     if code <> 0 then
       Alcotest.failf "relimsweep failed (exit %d): %s" code err;
     let first = read_file journal in
     (* Re-running a completed sweep must be a byte-identical no-op. *)
     let code2, _, err2 =
       run_cmd (exe "RELIMSWEEP")
         (Printf.sprintf "--out %s %s" (Filename.quote journal) cli_grid_args)
     in
     if code2 <> 0 then
       Alcotest.failf "relimsweep re-run failed (exit %d): %s" code2 err2;
     let second = read_file journal in
     if not (String.equal first second) then
       Alcotest.fail "relimsweep re-run modified a completed journal";
     let code3, json, err3 =
       run_cmd (exe "ANALYZE_SWEEP") (Filename.quote journal)
     in
     if code3 <> 0 then
       Alcotest.failf "analyze_sweep failed (exit %d): %s" code3 err3;
     let section =
       match J.of_string json with
       | Ok j -> j
       | Error e -> Alcotest.failf "analyze_sweep printed invalid JSON: %s" e
     in
     let code4, md, err4 =
       run_cmd (exe "ANALYZE_SWEEP")
         (Printf.sprintf "%s --md" (Filename.quote journal))
     in
     if code4 <> 0 then
       Alcotest.failf "analyze_sweep --md failed (exit %d): %s" code4 err4;
     Sys.remove journal;
     (section, md))

(* The sweep contract on analyze_sweep's section, as the list of its
   violations (empty when it holds): the journal covered its whole
   grid, the status tallies and the per-cell rows both account for
   every expected cell, and a row names a budget exactly when its
   status is "budget". *)
let sweep_contract_violations section =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let int_of what = function
    | J.Int i -> Some i
    | j ->
        err "%s is not an integer: %s" what (J.to_string j);
        None
  in
  (match member "complete" section with
  | J.Bool true -> ()
  | j -> err "journal did not cover its grid: complete=%s" (J.to_string j));
  let expected =
    int_of "grid.expected_cells"
      (member "expected_cells" (member "grid" section))
  in
  let tally s =
    int_of ("statuses." ^ s) (member s (member "statuses" section))
  in
  (match (expected, tally "ok", tally "budget", tally "skipped") with
  | Some e, Some ok, Some budget, Some skipped when ok + budget + skipped <> e
    ->
      err "ok + budget + skipped = %d, but expected_cells = %d"
        (ok + budget + skipped) e
  | _ -> ());
  (match member "cells" section with
  | J.List rows ->
      (match expected with
      | Some e when List.length rows <> e ->
          err "%d cells rows, but expected_cells = %d" (List.length rows) e
      | _ -> ());
      List.iter
        (fun row ->
          let tag = J.to_string (member "cell" row) in
          match member "status" row with
          | J.String ("ok" | "budget" | "skipped" as status) ->
              if (status <> "budget") <> (member "budget" row = J.Null) then
                err "%s: budget must be null exactly when status is not budget"
                  tag
          | j -> err "%s: unknown status %s" tag (J.to_string j))
        rows
  | j -> err "cells is not a list: %s" (J.to_string j));
  List.rev !errs

let test_cli_sweep_contract () =
  let section, _ = Lazy.force cli_artifacts in
  Alcotest.(check (list string))
    "sweep contract violations" []
    (sweep_contract_violations section)

(* The contract check is the gate that replaced the bench validator: a
   section claiming an incomplete journal must fail it, with the error
   naming completeness. *)
let test_validator_rejects_incomplete () =
  let section, _ = Lazy.force cli_artifacts in
  let broken = map_member "complete" (fun _ -> J.Bool false) section in
  Alcotest.(check bool) "corruption applied" true (broken <> section);
  match sweep_contract_violations broken with
  | [] -> Alcotest.fail "incomplete sweep accepted"
  | errs ->
      Alcotest.(check bool)
        "error names completeness" true
        (List.exists (contains ~sub:"complete") errs)

let test_cli_interrupted_exit_code () =
  let journal = Filename.temp_file "cli_partial" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove journal) @@ fun () ->
  let code, _, _ =
    run_cmd (exe "RELIMSWEEP")
      (Printf.sprintf "--out %s --max-cells 1 %s" (Filename.quote journal)
         cli_grid_args)
  in
  Alcotest.(check int) "incomplete sweep exits 3" 3 code;
  let code, _, err = run_cmd (exe "ANALYZE_SWEEP") (Filename.quote journal) in
  Alcotest.(check int) "analyze_sweep refuses the partial journal" 1 code;
  Alcotest.(check bool)
    "names the coverage gap" true
    (contains ~sub:"does not cover its grid" err)

(* Bad arguments are usage errors: exit 2 with the message on stderr,
   before any journal is written, never cmdliner's "internal error"
   exit 125. *)
let test_cli_bad_arguments () =
  List.iter
    (fun (args, msg) ->
      let journal = Filename.temp_file "cli_bad" ".jsonl" in
      Sys.remove journal;
      let code, stdout, stderr =
        run_cmd (exe "RELIMSWEEP")
          (Printf.sprintf "--out %s %s" (Filename.quote journal) args)
      in
      Alcotest.(check int) (args ^ ": exit code 2") 2 code;
      Alcotest.(check bool)
        (Printf.sprintf "%s: message on stderr: %s" args stderr)
        true
        (contains ~sub:("relimsweep: " ^ msg) stderr);
      Alcotest.(check string) (args ^ ": nothing on stdout") "" stdout;
      Alcotest.(check bool) (args ^ ": no journal") false
        (Sys.file_exists journal))
    [
      ("--families nope", "unknown family nope");
      ("--fp-steps 0", "--fp-steps must be at least 1");
    ];
  (* A journal for a different grid is refused before any cell runs,
     and left as it was. *)
  let journal = Filename.temp_file "cli_foreign" ".jsonl" in
  let header = Store.Json.to_string (Sweep.header_json small_grid) ^ "\n" in
  write_file journal header;
  let code, stdout, stderr =
    run_cmd (exe "RELIMSWEEP")
      (Printf.sprintf "--out %s %s" (Filename.quote journal) cli_grid_args)
  in
  let after = read_file journal in
  Sys.remove journal;
  Alcotest.(check int) "foreign journal: exit code 2" 2 code;
  Alcotest.(check bool)
    (Printf.sprintf "foreign journal: message on stderr: %s" stderr)
    true
    (contains
       ~sub:("relimsweep: " ^ journal ^ " holds a journal for a different grid")
       stderr);
  Alcotest.(check string) "foreign journal: nothing on stdout" "" stdout;
  Alcotest.(check string) "foreign journal: untouched" header after

let test_cli_markdown () =
  let _, md = Lazy.force cli_artifacts in
  Alcotest.(check bool) "bound-curve table" true (contains ~sub:"Bound curve" md);
  Alcotest.(check bool)
    "engine-comparison table" true
    (contains ~sub:"Engine comparison" md);
  Alcotest.(check bool) "markdown table rows" true (contains ~sub:"|---|" md);
  Alcotest.(check bool)
    "escapes pipes inside cell ids" true
    (contains ~sub:"\\|" md)

(* ------------------------------------------------------------------ *)

let () =
  Certify.Hooks.install_if_env ();
  Trace.setup_from_env ();
  Alcotest.run "sweep"
    [
      ( "mega-suite",
        [
          Alcotest.test_case "table-driven lemma mega-suite" `Quick
            test_megasuite;
        ] );
      ( "resume",
        [
          Alcotest.test_case "uninterrupted reference run" `Quick
            test_reference_run;
          Alcotest.test_case "completed sweep re-run is a no-op" `Quick
            test_noop_rerun;
          Qseed.to_alcotest prop_resume_after_k_cells;
          Qseed.to_alcotest prop_resume_after_torn_tail;
          Alcotest.test_case "scan detects a torn tail" `Quick
            test_scan_detects_torn_tail;
          Alcotest.test_case "refuses a foreign journal" `Quick
            test_refuses_foreign_journal;
        ] );
      ( "cross-engine",
        [
          Alcotest.test_case "explicit/zdd/domains/certify identity" `Quick
            test_cross_engine_identity;
        ] );
      ( "cli",
        [
          Alcotest.test_case "sweep -> analyze -> validate" `Quick
            test_cli_sweep_contract;
          Alcotest.test_case "interrupted sweep exits 3" `Quick
            test_cli_interrupted_exit_code;
          Alcotest.test_case "bad arguments exit 2" `Quick
            test_cli_bad_arguments;
          Alcotest.test_case "markdown tables" `Quick test_cli_markdown;
          Alcotest.test_case "validator rejects complete=false" `Quick
            test_validator_rejects_incomplete;
        ] );
    ]
