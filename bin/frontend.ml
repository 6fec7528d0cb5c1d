(* The command-line edge shared by roundelim, roundelimd, relimsweep and
   certify_fuzz.  The engine switches these binaries share are defined
   here once, and each reaches the engine as an argument: the
   worker-domain count ([domains_t], and [pool_of_domains], which
   refuses a negative count) and the trace sink ([trace_t],
   [trace_format_t], [with_trace], and [trace_from_env] for
   RELIM_TRACE), opened before any work runs.  Input the user got wrong
   goes through [usage_error] ([at_least] for a count): one line
   [<prog>: <message>] on stderr and exit 2, before any work runs,
   never cmdliner's "internal error" exit 125 (which is what an
   exception escaping a command becomes). *)

open Cmdliner

let usage_error ~prog fmt =
  Printf.ksprintf
    (fun msg ->
      Format.eprintf "%s: %s@." prog msg;
      exit 2)
    fmt

let at_least ~prog flag min v =
  if v < min then usage_error ~prog "%s must be at least %d" flag min

let domains_t =
  Arg.(
    value & opt int 0
    & info [ "domains" ]
        ~doc:
          "Worker domains for the engine's parallel hot paths (results are \
           identical for every count).  0 (the default) defers to the \
           RELIM_DOMAINS environment variable; 1 forces sequential.")

(* [None] (from --domains 0) lets the engine fall back to the
   RELIM_DOMAINS-driven default pool. *)
let pool_of_domains ~prog d =
  at_least ~prog "--domains" 0 d;
  if d >= 1 then Some (Parallel.Pool.create ~domains:d) else None

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a structured execution trace (spans + counters for every \
           engine phase) to $(docv).  See $(b,--trace-format).  Tracing is \
           also enabled by RELIM_TRACE=<path> (format from \
           RELIM_TRACE_FORMAT).")

let trace_format_t =
  Arg.(
    value
    & opt (enum [ ("jsonl", Trace.Jsonl); ("chrome", Trace.Chrome) ]) Trace.Jsonl
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:
          "Trace output format: $(b,jsonl) (one event per line) or \
           $(b,chrome) (trace_event JSON for about://tracing / Perfetto).")

let cannot_open ~prog source msg =
  usage_error ~prog "%s: cannot open trace file: %s" source msg

(* The sink is opened before any work runs: an unwritable path must
   abort immediately, not after minutes of computation. *)
let with_trace ~prog trace format f =
  match trace with
  | None -> f ()
  | Some path ->
      (try Trace.enable ~path ~format
       with Sys_error msg -> cannot_open ~prog "--trace" msg);
      Fun.protect ~finally:Trace.close f

(* RELIM_TRACE=<path> traces engine calls without a --trace flag; like
   --trace, a bad path aborts before any work runs. *)
let trace_from_env ~prog =
  try Trace.setup_from_env ()
  with Sys_error msg -> cannot_open ~prog Trace.env_var msg
