(** Structured tracing and metrics for the round-elimination engine.

    Dependency-free (stdlib + [Unix.gettimeofday] only).  The engine's
    hot paths are instrumented with hierarchical {e spans}
    ({!with_span}), point-in-time {e instants} ({!instant}) and
    cumulative {e counter samples} ({!counters}).  All of it is
    disabled by default: every entry point first reads one atomic flag
    and returns immediately, so an untraced run pays only that load
    (see the TRACE section of EXPERIMENTS.md).

    {2 Per-domain attribution}

    Events are appended to a {e per-domain} buffer (domain-local
    storage, no locks on the hot path), so spans opened inside
    [Parallel.Pool] workers land on the worker's own timeline.  Buffers
    register themselves in the active sink under a mutex on their first
    event; {!close} merges them in increasing domain-id order with each
    buffer's events kept in emission order — a deterministic interleave
    for a deterministic schedule.  Timestamps are microseconds since
    {!enable} and are clamped monotone non-decreasing {e per domain}.

    {2 Sinks}

    Two output formats ({!format}):
    {ul
    {- [Jsonl] — one JSON object per line, one line per event:
       [{"ev":"b"|"e"|"i","dom":D,"ts":T,"name":N,"attrs":{...}}] for
       span begin/end and instants, and
       [{"ev":"c","dom":D,"ts":T,"counters":{...}}] for counter
       samples (cumulative values).
       Machine-checked by [bench/validate_trace.ml].}
    {- [Chrome] — the Chrome [trace_event] JSON format (an object with
       a ["traceEvents"] array of [B]/[E]/[C]/[i] phase events, domain
       = [tid]), loadable in [about://tracing] and
       {{:https://ui.perfetto.dev}Perfetto}.}}

    {2 Well-formedness contract}

    For every trace this module emits:
    {ul
    {- span begin/end events are properly nested per domain
       ({!with_span} closes its span even when the body raises);}
    {- timestamps are monotone non-decreasing per domain;}
    {- counter samples are cumulative, hence non-decreasing per
       counter name.}}
    [bench/validate_trace.ml] re-checks all three on the emitted file,
    plus the reconciliation of engine counter totals against the
    legacy [Rounde.stats] / [Fixedpoint.stats] records. *)

type format = Jsonl | Chrome

(** Environment variables read by {!setup_from_env}: [RELIM_TRACE]
    (output path; unset or empty means disabled) and
    [RELIM_TRACE_FORMAT] ([jsonl], the default, or [chrome]). *)
val env_var : string

val format_env_var : string

(** Is a sink currently active?  Every emitting entry point checks
    this first; when [false] they are no-ops. *)
val enabled : unit -> bool

(** [enable ~path ~format] opens [path] (truncating) and starts
    recording.  Any previously active sink is {!close}d first.  The
    file is opened {e eagerly}, so an unwritable path fails here — with
    the usual [Sys_error] — before any traced work runs.  A [close] is
    registered with [at_exit] so a traced process that exits normally
    always flushes its events.
    @raise Sys_error if [path] cannot be opened for writing. *)
val enable : path:string -> format:format -> unit

(** Enable from the environment: no-op unless [RELIM_TRACE] is set to
    a non-empty path.  [RELIM_TRACE_FORMAT=chrome] selects the Chrome
    sink; anything else (or unset) means JSONL.  A literal ["%p"] in
    the path is replaced with the process id, so concurrent processes
    (e.g. the test binaries of one [dune runtest]) can share a single
    setting without clobbering each other's trace.
    @raise Sys_error if the requested path cannot be opened. *)
val setup_from_env : unit -> unit

(** Flush all per-domain buffers to the sink file and deactivate.
    Idempotent.  Must not race a running parallel section (the engine
    only calls it from the main domain between calls). *)
val close : unit -> unit

(** [with_span ?attrs name f] runs [f ()] inside a span: a begin event
    before, an end event after — also on exception, so nesting stays
    well-formed.  When disabled this is just [f ()]. *)
val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a

(** A point event on the current domain's timeline. *)
val instant : ?attrs:(string * string) list -> string -> unit

(** [counters kvs] emits one sample carrying the {e cumulative} values
    [kvs].  The engine uses this to mirror its legacy stats records
    (e.g. [Rounde.stats]) into the trace at span boundaries, which is
    what lets [validate_trace] reconcile the two. *)
val counters : (string * int) list -> unit
