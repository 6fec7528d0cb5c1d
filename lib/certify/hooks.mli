(** Installation of the certificate checkers into the engine's
    emission hooks.

    Once {!install}ed, every successful [Rounde.r] / [Rounde.rbar]
    call, every 0-round verdict and every confirmed fixed point is
    re-checked by the independent certifiers in {!Check}; a divergence
    raises {!Check.Violation} at the engine call site.  The hooks are
    process-global (they certify engine calls from any library), cheap
    when absent (one pointer load per call), and removable with
    {!uninstall}. *)

(** Name of the environment variable consulted by {!install_if_env}:
    ["RELIM_CERTIFY"]. *)
val env_var : string

(** Install the checkers (idempotent). *)
val install : unit -> unit

(** Remove the checkers and clear the engine observers (idempotent). *)
val uninstall : unit -> unit

val installed : unit -> bool

(** [true] iff the environment requests certification: [RELIM_CERTIFY]
    read by {!Relim.Parctl.flag_from_env}, so [1], [true], [yes] or
    [on] in any case.  A malformed value reads as off and warns once
    through {!Relim.Parctl.warn_hook}. *)
val enabled_in_env : unit -> bool

(** {!install} when {!enabled_in_env}; test binaries call this at
    startup so [RELIM_CERTIFY=1 dune runtest] runs every suite under
    the certifier. *)
val install_if_env : unit -> unit

(** [with_hooks f] — run [f] with the checkers installed, restoring
    the previous installation state afterwards (even on exceptions). *)
val with_hooks : (unit -> 'a) -> 'a
