(* relimsweep — resumable parametric sweep over the lemma pipeline.

   Examples:
     relimsweep --out sweep.jsonl --families mis,so --deltas 2,3
     relimsweep --out sweep.jsonl --families pi --deltas 3,4 \
       --a-values 3 --x-values 1 --engine-zdd both --domain-counts 1,2
     relimsweep --out sweep.jsonl --families col --deltas 2 \
       --label-counts 2,3 --fixed-clock        # byte-deterministic journal

   Re-running a completed sweep appends nothing; an interrupted sweep
   resumes where it stopped (see lib/sweep/README.md). *)

open Cmdliner

let families_t =
  Arg.(
    value
    & opt (list string) [ "mis"; "so" ]
    & info [ "families" ]
        ~doc:
          "Comma-separated problem families: mis, so, mm, col, pi, pi-plus.")

let deltas_t =
  Arg.(
    value & opt (list int) [ 2; 3 ]
    & info [ "deltas" ] ~doc:"Comma-separated Delta values.")

let a_values_t =
  Arg.(
    value & opt (list int) [ 0 ]
    & info [ "a-values" ]
        ~doc:"Comma-separated a values (consumed by pi / pi-plus cells).")

let x_values_t =
  Arg.(
    value & opt (list int) [ 0 ]
    & info [ "x-values" ]
        ~doc:"Comma-separated x values (consumed by pi / pi-plus cells).")

let label_counts_t =
  Arg.(
    value & opt (list int) [ 0 ]
    & info [ "label-counts" ]
        ~doc:"Comma-separated label counts (consumed by coloring cells).")

let engine_zdd_t =
  Arg.(
    value
    & opt (enum [ ("explicit", [ false ]); ("zdd", [ true ]);
                  ("both", [ false; true ]) ])
        [ false ]
    & info [ "engine-zdd" ]
        ~doc:
          "Which Rbar representation(s) to sweep: $(b,explicit), $(b,zdd) \
           or $(b,both).")

let domain_counts_t =
  Arg.(
    value & opt (list int) [ 1 ]
    & info [ "domain-counts" ]
        ~doc:
          "Comma-separated worker-domain counts (1 = sequential).  Records \
           are identical across counts except transport_cache_hits, which \
           is recorded as null for multi-domain cells.")

let certify_t =
  Arg.(
    value
    & opt (enum [ ("off", [ false ]); ("on", [ true ]);
                  ("both", [ false; true ]) ])
        [ false ]
    & info [ "certify" ]
        ~doc:
          "Whether cells run with the independent certifier hooks \
           installed: $(b,off), $(b,on) or $(b,both).")

let out_t =
  Arg.(
    value & opt string "sweep.jsonl"
    & info [ "out"; "o" ] ~doc:"Journal path (JSON lines, appended).")

let expand_limit_t =
  Arg.(
    value & opt float Sweep.default_budgets.Sweep.expand_limit
    & info [ "expand-limit" ]
        ~doc:"Per-cell node-constraint expansion budget.")

let rc_limit_t =
  Arg.(
    value & opt int Sweep.default_budgets.Sweep.rc_limit
    & info [ "rc-limit" ]
        ~doc:"Per-cell right-closed-set budget (explicit path).")

let fp_steps_t =
  Arg.(
    value & opt int Sweep.default_budgets.Sweep.fp_steps
    & info [ "fp-steps" ] ~doc:"Fixed-point detection step budget.")

let ap_steps_t =
  Arg.(
    value & opt int Sweep.default_budgets.Sweep.ap_steps
    & info [ "ap-steps" ] ~doc:"Autopilot accepted-step budget.")

let ap_beam_t =
  Arg.(
    value & opt int Sweep.default_budgets.Sweep.ap_beam
    & info [ "ap-beam" ] ~doc:"Autopilot candidate covers per step.")

let max_cells_t =
  Arg.(
    value & opt int 0
    & info [ "max-cells" ]
        ~doc:
          "Execute at most this many not-yet-journaled cells, then stop \
           (0 = unlimited).  Served cells are free; the resume tests use \
           this to stop a sweep mid-grid deterministically.")

let fixed_clock_t =
  Arg.(
    value & flag
    & info [ "fixed-clock" ]
        ~doc:
          "Record wall_s as 0.0 everywhere, making the journal fully \
           byte-deterministic (used by the resume byte-identity checks).")

let quiet_t =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No per-cell progress lines.")

(* A bad argument prints [relimsweep: <message>] and exits 2.  [run]
   must exit itself: [Cmd.eval] turns an exception escaping it into an
   "internal error" with exit 125. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Format.eprintf "relimsweep: %s@." msg;
      exit 2)
    fmt

let run families deltas a_values x_values label_counts zdds domain_counts
    certifies out expand_limit rc_limit fp_steps ap_steps ap_beam max_cells
    fixed_clock quiet =
  let families =
    List.map
      (fun s ->
        match Sweep.family_of_string s with
        | Ok f -> f
        | Error msg -> usage_error "%s" msg)
      families
  in
  if fp_steps < 1 then usage_error "--fp-steps must be at least 1";
  let engines =
    List.concat_map
      (fun zdd ->
        List.concat_map
          (fun domains ->
            List.map
              (fun certify -> { Sweep.zdd; domains; certify })
              certifies)
          domain_counts)
      zdds
  in
  let grid =
    { Sweep.families; deltas; a_values; x_values; label_counts; engines }
  in
  let budgets =
    { Sweep.expand_limit; rc_limit; fp_steps; ap_steps; ap_beam }
  in
  let clock = if fixed_clock then fun () -> 0. else Unix.gettimeofday in
  let log =
    if quiet then fun _ -> () else fun line -> Printf.eprintf "%s\n%!" line
  in
  let max_cells = if max_cells > 0 then Some max_cells else None in
  let s = Sweep.run ~clock ?max_cells ~log ~budgets ~out grid in
  Printf.printf
    "sweep: %d cells (%d served, %d ran) — %d ok, %d budget, %d skipped%s%s \
     [%.2fs]\n"
    s.Sweep.total s.Sweep.served s.Sweep.ran s.Sweep.ok s.Sweep.budgeted
    s.Sweep.skipped
    (if s.Sweep.recovered_tail then ", recovered damaged tail" else "")
    (if s.Sweep.complete then ", complete" else ", INCOMPLETE")
    s.Sweep.wall_s;
  if not s.Sweep.complete then exit 3

let cmd =
  Cmd.v
    (Cmd.info "relimsweep" ~version:"1.0.0"
       ~doc:
         "Resumable parametric sweep of the round-elimination lemma \
          pipeline over a (family x Delta x a x x x label-count) x engine \
          grid")
    Term.(
      const run $ families_t $ deltas_t $ a_values_t $ x_values_t
      $ label_counts_t $ engine_zdd_t $ domain_counts_t $ certify_t $ out_t
      $ expand_limit_t $ rc_limit_t $ fp_steps_t $ ap_steps_t $ ap_beam_t
      $ max_cells_t $ fixed_clock_t $ quiet_t)

let () =
  (match Trace.setup_from_env () with
  | () -> ()
  | exception Sys_error msg ->
      Format.eprintf "relimsweep: %s: cannot open trace file: %s@."
        Trace.env_var msg;
      exit 2);
  exit (Cmd.eval cmd)
