(** Serializable certificates for engine results.

    A certificate packages everything the independent checkers in
    {!Check} need to re-validate a result {e from the text alone}:
    problems travel as [Serialize] texts and denotations are keyed by
    label {e name} (never by label index, which the parser is free to
    permute).  This is what lets a result store re-validate an entry
    on load, on a different machine, long after the process that
    computed it has exited — a tampered or corrupted certificate fails
    {!validate} and the entry is rejected rather than served.

    The text format is line-oriented with length-prefixed blocks
    ([tag <byte-length>] followed by exactly that many bytes), so it
    is robust to any problem text, including label names containing
    format-significant characters. *)

type step = {
  source : string;  (** [Serialize] text of the input problem Π. *)
  r : string;  (** Text of R(Π). *)
  r_denotations : (string * string list) list;
      (** For each label name of R(Π), the source label names it
          denotes — the [Rounde.denoted] array, made index-free. *)
  result : string;  (** Text of R̄(R(Π)), i.e. the speedup step result. *)
  result_denotations : (string * string list) list;
      (** For each label name of the result, the R(Π) label names it
          denotes. *)
}

type relaxed_step = {
  rs_source : string;  (** [Serialize] text of the input problem Π. *)
  rs_r : string;  (** Text of R(Π). *)
  rs_r_denotations : (string * string list) list;
      (** For each label name of R(Π), the source label names it
          denotes. *)
  rs_relaxed : string;  (** Text of the relaxation Q of R(Π). *)
  rs_relaxed_denotations : (string * string list) list;
      (** For each label name of Q, the R(Π) label names it stands
          for — validated by {!Check.check_relaxation}. *)
  rs_result : string;  (** Text of R̄(Q): the relaxed-step result. *)
  rs_result_denotations : (string * string list) list;
      (** For each label name of the result, the Q label names it
          denotes. *)
}

type t =
  | Step of step
  | Relaxed_step of relaxed_step
      (** A speedup step with a 0-round relaxation interleaved between
          R and R̄ (the paper's Lemma 8/9 shape): the result is
          [R̄(Q)] where [Q] relaxes [R(Π)], so
          [T(result) = max (T(Π) - 1) 0] still holds. *)
  | Fixed_point of { problem : string }
      (** Text of a problem Π claimed to satisfy
          [step Π ≅ Π] after normalization. *)

(** Build a step certificate from the engine's own outputs: [r] is the
    [Rounde.r] result for [source], [result] the [Rounde.rbar] result
    for [r]'s problem (with whatever final name the caller gave it). *)
val of_step_parts :
  source:Relim.Problem.t ->
  r:Relim.Rounde.denoted ->
  result:Relim.Rounde.denoted ->
  t

(** Build a relaxed-step certificate: [r] is the [Rounde.r] result for
    [source], [relaxed] a relaxation of [r]'s problem (denotations into
    [r]'s alphabet), [result] the [Rounde.rbar] result for [relaxed]'s
    problem. *)
val of_relaxed_step_parts :
  source:Relim.Problem.t ->
  r:Relim.Rounde.denoted ->
  relaxed:Relim.Rounde.denoted ->
  result:Relim.Rounde.denoted ->
  t

val of_fixed_point : Relim.Problem.t -> t

(** The payload a result cache would serve: the step-result text for
    {!Step}, the fixed problem's text for {!Fixed_point}. *)
val result_text : t -> string

val to_text : t -> string

(** Total inverse of {!to_text}; structured [Error] on any malformed
    input, never an exception. *)
val of_text : string -> (t, string) result

(** Re-validate from the texts alone: parse every problem, rebuild the
    denotation arrays by name, and run {!Check.check_r} /
    {!Check.check_rbar} (for {!Step}), additionally
    {!Check.check_relaxation} on the interleaved relaxation (for
    {!Relaxed_step}), or {!Check.check_fixed_point}
    (for {!Fixed_point}).  [Error] carries the checker's violation
    message.  Budget-guarded sub-checks of {!Check} may be skipped on
    very large instances, past {!Check}'s fixed budget of 2,000,000
    charged steps per sub-check (counted in
    [Check.stats.skipped_subchecks]) — a skipped sub-check makes the
    certificate partial, never wrong.  Traced as a [certify.validate]
    span. *)
val validate : t -> (unit, string) result
