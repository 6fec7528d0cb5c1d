(** A small, dependency-free domain pool for data-parallel loops.

    Built directly on OCaml 5 [Domain]s plus a mutex/condition pair —
    no external libraries.  A pool created with [create ~domains:d]
    runs parallel loops on [d] domains in total: [d - 1] persistent
    worker domains (spawned lazily on the first parallel call) plus the
    calling domain, which always participates.  With [domains <= 1] no
    domain is ever spawned and [run] degrades to a plain sequential
    loop — same code path, same iteration order.

    {2 Determinism contract}

    Work is distributed by chunked index claiming from a shared atomic
    counter, so {e which} worker runs which index is scheduling
    dependent — but the {e result} of [run] need not be.  [run] gives
    each participating worker a private state ([init]) and merges the
    states sequentially in the calling domain ([merge], worker order).
    As long as the merge operation is commutative and associative over
    the per-item contributions (e.g. integer counters), the merged total
    is exact and identical for every domain count.  A body that writes
    index [i]'s result into slot [i] of a shared array keeps input order
    exactly, for any domain count and any chunk size.

    Exceptions raised by a body are caught, the remaining work is
    cancelled (at chunk granularity), every worker's state is merged,
    and the first captured exception is re-raised in the calling domain
    with its backtrace.  If the body can only raise one distinct
    exception per loop (the usual budget trip), propagation is
    deterministic too; what the states hold by then depends on the
    schedule, unless the loop runs on one worker.

    A pool is meant to be driven from one domain at a time; nested
    parallel calls from inside a worker body fall back to sequential
    execution instead of deadlocking. *)

type t

(** [create ~domains] makes a pool running loops on [domains] domains
    in total (callers included).  Values [<= 1] mean sequential; the
    count is clamped to [1 .. 128].  Workers are spawned on first use. *)
val create : domains:int -> t

(** A pool that never spawns and always runs sequentially. *)
val sequential : t

(** Total domain count the pool was created with (always [>= 1]). *)
val domains : t -> int

(** [run ?chunk t ~n ~init ~body ~merge] executes [body local i] for
    every [i] in [0 .. n-1].  Each participating worker first gets a
    private [local = init ()]; after all indices are done, [merge] is
    called on every local state, sequentially, in the calling domain.
    Indices are claimed in contiguous chunks of [chunk] (default 1) in
    increasing order.  With an effective single worker the loop runs
    [i = 0 .. n-1] in order — bit-compatible with hand-written
    sequential code.  If any [body] raises, the remaining indices are
    cancelled, [merge] still runs on every local state, and then the
    first exception is re-raised. *)
val run :
  ?chunk:int ->
  t ->
  n:int ->
  init:(unit -> 'w) ->
  body:('w -> int -> unit) ->
  merge:('w -> unit) ->
  unit

(** Join all worker domains.  The pool remains valid but runs every
    subsequent call sequentially.  Idempotent. *)
val shutdown : t -> unit
