(** Typed budget verdicts for the engine's work guards.

    Every enumeration in the engine is bounded — expansion estimates,
    right-closed-set counts, Bron–Kerbosch recursion, the R̄ box DFS,
    the output-alphabet width.  Historically an overrun raised a bare
    [Failure _], indistinguishable from a genuine engine error (an
    empty constraint, a parse error): callers could only string-match
    the message.  Overruns now raise {!Budget_exceeded}, which names
    the budget that tripped and its limit, so search drivers (the
    autopilot, the fuzzer) can {e skip} oversized instances while
    still crashing loudly on real bugs.

    Genuine errors — an empty node/edge constraint after [R]/[R̄],
    malformed input — still raise [Failure]. *)

(** The named budget [budget] (e.g. ["Rounde.rbar box work"]) was
    exceeded; [limit] is the configured bound (integral budgets are
    reported as exact floats). *)
exception Budget_exceeded of { budget : string; limit : float }

(** [exceeded ~budget ~limit] raises {!Budget_exceeded}. *)
val exceeded : budget:string -> limit:float -> 'a

(** Human-readable rendering, as used by the registered exception
    printer: ["budget exceeded: <budget> (limit <limit>)"]. *)
val message : budget:string -> limit:float -> string
