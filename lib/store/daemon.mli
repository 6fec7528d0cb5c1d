(** The [roundelimd] server: JSON-lines round elimination over a Unix
    socket (and optionally TCP on loopback), backed by the
    certificate-gated result {!Store}.

    {2 Request lifecycle}

    The event loop ([Unix.select]) drains every complete request line
    that has arrived, then processes the whole set as one {e batch}:

    {ul
    {- a {e parallel prepare phase} — decoding, problem parsing and
       canonicalization (pure work) — fans out over the configured
       {!Parallel.Pool} via [Pool.map];}
    {- a {e sequential compute phase} walks the batch in arrival
       order.  The engine parallelizes internally over the same pool
       ([Rounde.rbar]'s box search), so the engine's process-global
       statistics are never touched from two domains at once.}}

    [step], [fixed-point] and [autopilot] requests share one path,
    which differs only in the engine call at its end.  Each decodes to
    one {!Protocol.Compute} request and runs in one [daemon.request]
    trace span named by its op.  A request is then answered from the
    first of:
    {ol
    {- one in-process memo, keyed by the op (with its [max_steps]) and
       the canonical problem text, which replays an earlier answer of
       this daemon's lifetime as [cached:true];}
    {- the store, whose hits also answer [cached:true];}
    {- the engine, whose certified results are admitted to the store
       (fixed points, immediate or eventual, and period-1 autopilot
       cycles; a budget-dependent "none" or a search that closes no
       cycle is not stored).}}
    A budget overrun answers with the structured [budget] error and
    any other engine [Failure] with [engine-error].  Control requests
    ([ping], [stats], [shutdown]) answer directly.  The stats op's
    [requests] counts every line that reaches a batch (an oversized
    one does not), and [served_ok]/[served_error] count every response
    line by the outcome it reports, oversized-line errors included.

    Responses are written per connection in request order.

    {2 Canonicalization}

    Input problems are canonicalized by iterating
    [Serialize.of_string ∘ Serialize.to_string] to a textual fixed
    point (reached after one round; the parser assigns label indices
    by first appearance, which re-serialization then preserves).  The
    canonical text is the store key, so a byte-identical request warm
    from the store returns a byte-identical result to the cold
    computation that populated it.

    {2 Hardening}

    Garbage, truncated or oversized request lines yield structured
    error responses (oversized ones close the connection afterwards —
    the daemon never buffers unboundedly); an engine budget overrun
    comes back as code [budget] with the budget's name and limit in
    its own [budget]/[limit] fields ({!Protocol.budget_error_line});
    a client disconnecting mid-response is dropped without disturbing
    the loop ([SIGPIPE] is ignored). *)

type listen = Unix_socket of string | Tcp of int  (** loopback only *)

type config = {
  listen : listen list;
  store_dir : string option;  (** [None] disables the on-disk store. *)
  pool : Parallel.Pool.t option;
      (** [None] means {!Relim.Parctl.default}. *)
  max_line : int;  (** Max request-line bytes (default 8 MiB). *)
}

val default_config : config

(** Run the server until a [shutdown] request arrives or [stop ()]
    turns true (polled between select rounds; used by in-process
    harnesses).  Listening sockets are closed — and Unix socket paths
    unlinked — on the way out. *)
val serve : ?stop:(unit -> bool) -> config -> unit
