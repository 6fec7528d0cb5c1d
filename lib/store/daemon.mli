(** The [roundelimd] server: JSON-lines round elimination over a Unix
    socket (and optionally TCP on loopback), backed by the
    certificate-gated result {!Store}.

    {2 Request lifecycle}

    The event loop ([Unix.select]) reads every readable connection
    through one 64 KiB buffer, copying each read into that connection's
    own line buffer at once, drains every complete request line that
    has arrived, and answers the whole set as one {e batch}, in arrival
    order, on the loop's domain.  The engine parallelizes internally
    over the configured {!Parallel.Pool} ([Rounde.rbar]'s box search),
    so the engine's process-global statistics are never touched from
    two domains at once.

    [step], [fixed-point] and [autopilot] requests share one path,
    which differs only in the engine call at its end.  Each decodes to
    one {!Protocol.Compute} request and runs in one [daemon.request]
    trace span named by its op.  A request is then answered from the
    first of:
    {ol
    {- one in-process memo, keyed by the op (with its [max_steps]) and
       the problem text exactly as the request spelled it, which
       replays what an earlier request of this daemon's lifetime came
       to: an answer as [cached:true], an error (a refused problem
       text, a budget overrun or an engine failure) byte for byte
       under the new request's id.  A repeat is answered after its
       JSON decode and one table lookup;}
    {- for a [step] only, the store, whose hits also answer
       [cached:true];}
    {- the engine.  A computed step is admitted to the store with its
       certificate.  Fixed-point detection and the autopilot search
       store nothing: no check binds a stored verdict to its request
       for less than running the detection or search again, so a
       daemon with a store answers them exactly as one without.}}
    Only a memo miss canonicalizes the problem text ({!canonicalize}),
    for the store and the engine.  So a copy of an earlier request
    spelled differently (say, its lines in another order) with the same
    canonical text is computed again, with the same bytes and
    [cached:false], unless it is a [step] that the store holds.  A
    budget overrun answers with the structured [budget] error and any
    other engine [Failure] with [engine-error].  Fixed-point detection
    and the autopilot keep no memo of their own, so an answer that
    neither the memo nor the store gives is computed from the request's
    own problem text, whatever this daemon answered before.  Control
    requests ([ping], [stats], [shutdown]) answer directly.  The stats
    op answers [requests], [served_ok], [served_error], a [zdd] object
    (the process-wide ZDD counters and the symbolic R̄ family sizes)
    and [store] (the store's counters, [null] without one).
    [requests] counts every line that reaches a batch (an oversized
    one does not), and [served_ok]/[served_error] count every response
    line by the outcome it reports, oversized-line errors included.

    Responses are written per connection in request order.

    {2 Canonicalization}

    Input problems are canonicalized by {!canonicalize}.  The
    canonical text is the store key, so a store hit serves what was
    computed for the same canonical text, and a relabelled copy of a
    stored input, whose canonical text differs, is computed in its own
    labels.

    {2 Hardening}

    Garbage, truncated or oversized request lines yield structured
    error responses (oversized ones close the connection afterwards —
    the daemon never buffers unboundedly); an engine budget overrun
    comes back as code [budget] with the budget's name and limit in
    its own [budget]/[limit] fields ({!Protocol.budget_error_line});
    a client disconnecting mid-response is dropped without disturbing
    the loop ([SIGPIPE] is ignored).

    A response is written at once, in one write when the socket takes
    it.  What the socket does not take stays in the connection's
    output buffer, and later responses queue behind it; the loop
    flushes it when the socket turns writable.  A connection with
    pending output is not read until the output is flushed.  So its
    buffer holds the answers to one read at most, a client that sends
    requests without reading the answers is held back by its own
    socket, and the other connections are served meanwhile.  A
    connection that reached end of input or sent an oversized line is
    closed once its output is flushed, or when a write fails. *)

type listen = Unix_socket of string | Tcp of int  (** loopback only *)

type config = {
  listen : listen list;
  store_dir : string option;  (** [None] disables the on-disk store. *)
  pool : Parallel.Pool.t option;
      (** [None] means {!Relim.Parctl.default}. *)
  max_line : int;  (** Max request-line bytes (default 8 MiB). *)
}

val default_config : config

(** [canonicalize text] iterates [Serialize.to_string ∘
    Serialize.of_string] on [text] to a textual fixed point and returns
    the parsed problem with that text.  The parser numbers labels by
    first appearance and the printer orders lines by those numbers,
    which can move a label's first appearance, so a text may need more
    than one round: up to four on 600,000 random texts with shuffled
    lines (EXPERIMENTS.md §STOREKEY).  The loop gives up after five
    rounds.
    @raise Failure on a parse error, or
    ["canonicalization did not converge"]. *)
val canonicalize : string -> Relim.Problem.t * string

(** Run the server until a [shutdown] request arrives or [stop ()]
    turns true (polled between select rounds; used by in-process
    harnesses).  Listening sockets are closed — and Unix socket paths
    unlinked — on the way out. *)
val serve : ?stop:(unit -> bool) -> config -> unit
