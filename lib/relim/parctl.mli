(** Engine-wide parallelism control.

    Every parallel hot path in the engine ([Rounde.rbar]'s box search
    and maximal-box filter, [Zeroround.solvable_arbitrary_ports]'s
    Bron–Kerbosch branch fan-out) takes an optional [?pool] argument.
    When the argument is omitted the path uses the process-wide default
    pool, whose domain count is read once from the [RELIM_DOMAINS]
    environment variable (unset, unparseable or [<= 1] means
    sequential).  Results are identical for every domain count — the
    variable is purely a performance knob, safe to set for an entire
    test run. *)

(** Name of the environment variable: ["RELIM_DOMAINS"]. *)
val env_var : string

(** How a raw environment value reads: absent, a valid positive domain
    count, or malformed (non-integer, zero or negative — the original
    string is kept for the warning). *)
type parsed = Unset | Domains of int | Malformed of string

(** Pure classification of [Sys.getenv_opt env_var]'s result; no
    warning side effect. *)
val parse_env : string option -> parsed

(** Domain count requested by the environment ([>= 1]; [1] when the
    variable is unset or invalid).  A malformed value — [Malformed] per
    {!parse_env} — additionally emits a single warning through
    {!warn_hook} for the whole process lifetime: the user asked for
    parallelism and is silently getting none. *)
val domains_from_env : unit -> int

(** Warning sink used by {!domains_from_env}; defaults to printing the
    message on stderr.  Tests may replace it to capture the warning. *)
val warn_hook : (string -> unit) ref

(** Test-only: forget that the once-per-process warnings (one per
    variable) were already emitted, so the next malformed read warns
    again. *)
val reset_warned : unit -> unit

(** {1 Boolean toggles}

    [RELIM_ZDD] and [RELIM_CERTIFY] are read by one reader.  Unset
    means off; [1]/[true]/[yes]/[on] and [0]/[false]/[no]/[off]/empty
    mean what they say, in any case and with surrounding blanks;
    anything else reads as off and warns once per variable through
    {!warn_hook}. *)

type flag_parsed = Flag_unset | Flag_set of bool | Flag_malformed of string

(** Pure classification of a boolean variable's [Sys.getenv_opt]
    result; no warning side effect. *)
val parse_flag_env : string option -> flag_parsed

(** [flag_from_env var ~fallback] reads boolean variable [var].  A
    malformed value reads as off, and its one warning ends with
    [fallback], which says what runs instead. *)
val flag_from_env : string -> fallback:string -> bool

(** {2 ZDD path toggle}

    [Rounde]'s box search and maximal-box filter can run on the
    hash-consed family representation from [lib/zdd] instead of
    explicit set lists.  The result is byte-identical either way; the
    toggle is purely a performance/capacity knob, safe to set for an
    entire run. *)

(** Name of the environment variable: ["RELIM_ZDD"]. *)
val zdd_env_var : string

(** Whether the environment enables the ZDD path
    ({!flag_from_env} on {!zdd_env_var}). *)
val zdd_from_env : unit -> bool

(** [resolve_zdd zdd] is [b] for [Some b], otherwise
    {!zdd_from_env}[ ()] — the resolution every [?zdd] optional
    argument in [Rounde] goes through. *)
val resolve_zdd : bool option -> bool

(** The process-wide default pool.  Created lazily from
    {!domains_from_env} on first use. *)
val default : unit -> Parallel.Pool.t

(** [resolve pool] is [pool] if given, otherwise {!default} [()]. *)
val resolve : Parallel.Pool.t option -> Parallel.Pool.t
