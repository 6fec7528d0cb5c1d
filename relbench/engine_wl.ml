(* The in-process workloads: [steps] (speedup steps on a fixed job list)
   and [autopilot] (certified relaxation searches).  Both are closed
   loops with one caller; one pass runs every job once.  Their inputs
   and job order are fixed, so the workload seed changes nothing: a
   seeded job order moved the heap high-water mark by 15% between
   runs. *)

open Relim
open Common

(* ---- steps ---- *)

let zdd_of = function Inputs.Default -> None | Inputs.Zdd -> Some true

(* R̄ inputs of the last traced pass, for the right-closed-family probe. *)
let rbar_inputs : (Inputs.engine * Problem.t) list ref = ref []

let rbar engine q =
  if Trace.enabled () then rbar_inputs := (engine, q) :: !rbar_inputs;
  call "relbench.rbar" @@ fun () ->
  let tuples0 = Rounde.stats.Rounde.maxbox_tuples in
  (* Which ZDD rung ran: the maxbox counters move only on the symbolic
     one. *)
  let tag () =
    if engine = Inputs.Zdd then
      Trace.instant "relbench.rung"
        ~attrs:[ ("rung", if Rounde.stats.Rounde.maxbox_tuples > tuples0 then "symbolic" else "streaming") ]
  in
  match Rounde.rbar ?zdd:(zdd_of engine) q with
  | d ->
      tag ();
      d
  | exception e ->
      tag ();
      raise e

(* One step's outcome: digest of the normalized result text and both
   0-round verdicts. *)
let step_outcome p =
  let m = call "relbench.zeroround" (fun () -> Zeroround.solvable_mirrored p) in
  let a = call "relbench.zeroround" (fun () -> Zeroround.solvable_arbitrary_ports p) in
  Printf.sprintf "%s mirrored=%b arbitrary=%b" (digest (Serialize.to_string p)) (m <> None) (a <> None)

(* Run a job; the outcome lists every step's result, ending with the
   budget that stopped the job, if one did.  [check] sees every
   completed step (the reference generator validates it there). *)
let run_step_job ?(check = fun ~source:_ ~r:_ _ -> ()) (j : Inputs.step_job) =
  let finish ~source ~r rb =
    check ~source ~r rb;
    let norm = call "relbench.normalize" (fun () -> Simplify.normalize rb.Rounde.problem) in
    (norm, step_outcome norm)
  in
  let one q =
    match j.kind with
    | Inputs.Rbar_only -> finish ~source:q ~r:None (rbar j.engine q)
    | Inputs.Steps _ ->
        let rd = call "relbench.r" (fun () -> Rounde.r q) in
        finish ~source:q ~r:(Some rd) (rbar j.engine rd.Rounde.problem)
  in
  let n = match j.kind with Inputs.Rbar_only -> 1 | Inputs.Steps n -> n in
  let rec go q i acc =
    if i > n then List.rev acc
    else
      match one q with
      | next, o -> go next (i + 1) (o :: acc)
      | exception Budget.Budget_exceeded { budget; _ } -> List.rev (("budget " ^ budget) :: acc)
  in
  String.concat "; " (go j.input 1 [])

(* Time the diagram layer on every R̄ input of the traced pass, outside
   the timed pass: node diagram plus the right-closed sets (default
   engine) or the right-closed family (ZDD jobs). *)
let rc_probe () =
  List.iter
    (fun (engine, q) ->
      Trace.with_span "relbench.rc" @@ fun () ->
      let d = Diagram.node_diagram q in
      try
        match engine with
        | Inputs.Default -> ignore (Diagram.right_closed_sets d)
        | Inputs.Zdd -> ignore (Diagram.right_closed_family d)
      with Budget.Budget_exceeded _ -> ())
    (List.rev !rbar_inputs);
  rbar_inputs := []

(* ---- autopilot ---- *)

let certificates : Certify.Certificate.t list ref = ref []

(* While tracing, mark every successful R̄ so that the candidates the
   search abandons on a budget show up as unmarked [rounde.rbar]
   spans. *)
let with_rbar_marks f =
  if not (Trace.enabled ()) then f ()
  else begin
    let prev = !Rounde.observer in
    (Rounde.observer := Some (fun ~op ~source:_ _ -> if op = `Rbar then Trace.instant "relbench.rbar_ok"));
    Fun.protect ~finally:(fun () -> Rounde.observer := prev) f
  end

let search_outcome (r : Autopilot.report) =
  Printf.sprintf "%s steps=%d candidates=%d budget_skips=%d certified=%d"
    (Autopilot.verdict_string r.Autopilot.verdict)
    (List.length r.Autopilot.steps) r.Autopilot.candidates_explored r.Autopilot.budget_skips
    r.Autopilot.certified_steps

(* Every search starts from an empty fixed-point memo, as a fresh
   [roundelim autopilot] process does; otherwise the first pass would
   fill it and later passes would measure less work. *)
let run_search layers (j : Inputs.search_job) =
  Fixedpoint.clear_cache ();
  let r =
    with_rbar_marks @@ fun () ->
    call ("relbench.autopilot." ^ j.Inputs.sid) (fun () -> Autopilot.search ~limits:j.Inputs.limits j.Inputs.sinput)
  in
  if Trace.enabled () then begin
    Layers.add layers "autopilot.candidates" (float_of_int r.Autopilot.candidates_explored);
    Layers.add layers "autopilot.budget_skips" (float_of_int r.Autopilot.budget_skips);
    Layers.add layers "autopilot.certified" (float_of_int r.Autopilot.certified_steps);
    certificates := List.map (fun a -> a.Autopilot.certificate) r.Autopilot.steps @ !certificates
  end;
  search_outcome r

(* Re-validate the traced pass's certificates with the independent
   checker, outside the timed pass. *)
let certify_probe () =
  List.iter
    (fun c -> ignore (call "relbench.certify" (fun () -> Certify.Certificate.validate c)))
    !certificates;
  certificates := []

(* ---- the shared pass loop ---- *)

type op = { op_id : string; outcome : string; wall_s : float }

type 'job spec = {
  setup : unit -> 'job list;
  id : 'job -> string;
  run : Layers.t -> 'job -> string;
  probe : unit -> unit;
  unmarked_rbar_as : string option;
  layer_extra : Layers.t -> (string * float) list;
}

let steps_spec =
  {
    setup = Inputs.step_jobs;
    id = (fun j -> j.Inputs.id);
    run = (fun _ j -> run_step_job j);
    probe = rc_probe;
    unmarked_rbar_as = None;
    layer_extra = (fun _ -> []);
  }

let autopilot_spec =
  {
    setup = Inputs.search_jobs;
    id = (fun j -> j.Inputs.sid);
    run = run_search;
    probe = certify_probe;
    unmarked_rbar_as = Some "caught inside the autopilot search";
    layer_extra =
      (fun l ->
        ( "autopilot.accept_ratio",
          ratio (Layers.get l "autopilot.certified") (Layers.get l "autopilot.candidates") )
        :: List.map
             (fun j ->
               let sid = j.Inputs.sid in
               ( "autopilot.search_ms." ^ sid,
                 span_ms l.Layers.summary ("relbench.autopilot." ^ sid) /. float_of_int (max 1 l.Layers.passes) ))
             (Inputs.search_jobs ()));
  }

(* Run passes for about [seconds]: a pass starts only while at least
   half a pass's time is left (at least one pass; with [traced], at
   least one untraced and one traced, alternating).  End-to-end numbers come from
   the untraced passes only.  Set-up takes under a few milliseconds, so
   it is timed [setup_reps] times after every untraced pass and reported
   as the median: timed only at process start, while the CPU is still
   ramping up, its run-to-run spread was 40%. *)
let run spec ~setup_extra ~seconds ~traced ~expected =
  let setup_reps = 11 in
  let setup_times = ref [] in
  let time_setups () =
    for _ = 1 to setup_reps do
      let t0 = now () in
      setup_extra ();
      ignore (spec.setup ());
      setup_times := (now () -. t0) :: !setup_times
    done
  in
  let jobs = Array.of_list (spec.setup ()) in
  let layers = Layers.create () in
  let passes = ref [] and traced_passes = ref [] and ops = ref [] in
  let minor = ref [] and major = ref [] in
  let attempted = ref 0 and failed = ref 0 and mismatches = ref [] in
  let timed_pass () =
    let t0 = now () in
    let results =
      Array.map
        (fun j ->
          let t = now () in
          let outcome = spec.run layers j in
          { op_id = spec.id j; outcome; wall_s = now () -. t })
        jobs
    in
    (results, now () -. t0)
  in
  let check results =
    Array.iter
      (fun o ->
        incr attempted;
        if expected o.op_id <> Some o.outcome then begin
          incr failed;
          mismatches := Json.Obj [ ("op", Json.String o.op_id); ("outcome", Json.String o.outcome) ] :: !mismatches
        end)
      results
  in
  (* The traced run compares traced with untraced passes, so it first
     runs one unmeasured pass: the first pass also grows the heap and
     would bias the comparison. *)
  if traced then check (fst (timed_pass ()));
  let start = now () and last = ref 0. in
  let k = ref 0 in
  while !k < (if traced then 2 else 1) || now () -. start +. (!last /. 2.) < seconds do
    let t0 = now () in
    if traced && !k mod 2 = 1 then begin
      Layers.reset_engine_stats ();
      let path = Filename.concat out_dir (Printf.sprintf "trace-%d-%d.jsonl" (Unix.getpid ()) !k) in
      let results, dt = with_trace_file path timed_pass in
      Layers.add_engine_stats layers;
      let probe_path = path ^ ".probe" in
      with_trace_file probe_path spec.probe;
      summarize_trace ?unmarked_rbar_as:spec.unmarked_rbar_as layers.Layers.summary path;
      summarize_trace layers.Layers.summary probe_path;
      Sys.remove path;
      Sys.remove probe_path;
      layers.Layers.passes <- layers.Layers.passes + 1;
      traced_passes := dt :: !traced_passes;
      check results
    end
    else begin
      let g0 = Gc.quick_stat () in
      let results, dt = timed_pass () in
      let g1 = Gc.quick_stat () in
      minor := ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6) :: !minor;
      major := float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) :: !major;
      passes := dt :: !passes;
      ops := Array.to_list results @ !ops;
      check results;
      time_setups ()
    end;
    last := now () -. t0;
    incr k
  done;
  let metrics =
    if traced then
      Layers.metrics layers
        ~extra:
          ([
             ("trace.overhead_ratio", median !traced_passes /. median !passes);
             ("gc.minor_mwords", median !minor);
             ("gc.major_collections", median !major);
           ]
          @ spec.layer_extra layers)
    else
      [
        metric "setup_s" "s" (median !setup_times);
        metric "pass_s" "s" (median !passes);
        metric "peak_rss_mb" "MB" (peak_rss_mb "self");
      ]
  in
  let per_op =
    Array.to_list jobs
    |> List.map (fun j ->
           let id = spec.id j in
           let w = List.filter_map (fun o -> if o.op_id = id then Some (o.wall_s *. 1e3) else None) !ops in
           (id, Json.Obj [ ("median_ms", Json.Float (median w)); ("runs", Json.Int (List.length w)) ]))
  in
  {
    attempted = !attempted;
    failed = !failed;
    metrics;
    detail =
      [
        ("passes", Json.List (List.rev_map (fun s -> Json.Float s) !passes));
        ("traced_passes", Json.List (List.rev_map (fun s -> Json.Float s) !traced_passes));
        ("setup_s_median", Json.Float (median !setup_times));
        ("ops", Json.Obj per_op);
        ("mismatches", Json.List (List.rev !mismatches));
      ]
      @ if traced then [ ("layers", Layers.detail layers) ] else [];
  }
