(** Differential fuzzing harness.

    Generates random small problems, runs the optimized pipeline on
    them — [Rounde.r] / [Rounde.rbar], [Rounde.step] at one and at
    several domains, both 0-round deciders — and certifies every
    output with the independent checkers in {!Check} and {!Simcheck}.
    Engine budget trips ([Failure]) are counted as skips; a
    {!Check.Violation} is a real divergence and is {e shrunk} to a
    minimal reproducer (greedily dropping constraint lines and
    alphabet labels while the divergence persists), which is rendered
    in the parser's concrete syntax and checked to round-trip through
    {!Serialize}.

    [mutate_r] injects a fault into the [R] output before it is
    certified; the tests use it to prove the harness actually catches
    (and minimizes) engine bugs. *)

(** Verdict of one fuzz iteration. *)
type outcome =
  | Passed
  | Skipped of string  (** Engine raised [Failure] (a budget trip). *)
  | Failed of string  (** A certifier raised {!Check.Violation}. *)

type reproducer = {
  message : string;  (** The violation message of the shrunk instance. *)
  problem : Relim.Problem.t;  (** Shrunk and trimmed. *)
  rendered : string;  (** [Serialize.to_string problem]. *)
  roundtrip_ok : bool;
      (** Does [rendered] parse back to an isomorphic problem? *)
}

type report = {
  mutable runs : int;
  mutable passed : int;
  mutable skipped : int;
  mutable reproducers : reproducer list;
}

(** [gen_problem ~max_labels ~max_delta rng] — a random problem:
    uniform alphabet size in [1 .. max_labels], arity in
    [1 .. max_delta], 1–3 node lines and 1–2 edge lines of uniformly
    random non-empty label-set groups.  Label [i] is named by the
    [i]-th capital letter, so [max_labels] must lie in [1 .. 26] and
    [max_delta] be at least 1.
    @raise Invalid_argument outside that range. *)
val gen_problem :
  ?max_labels:int -> ?max_delta:int -> Random.State.t -> Relim.Problem.t

(** [run_one ?mutate_r ?pool ?sim_seed p] — certify the full pipeline
    on [p].  [pool], when given, additionally compares
    [Serialize.to_string (Rounde.step p)] between a sequential run and
    a run on [pool] (the engine promises domain-count independence).
    Never raises: violations and budget trips are reported in the
    {!outcome}. *)
val run_one :
  ?mutate_r:(Relim.Rounde.denoted -> Relim.Rounde.denoted) ->
  ?pool:Parallel.Pool.t ->
  ?sim_seed:int ->
  Relim.Problem.t ->
  outcome

(** [shrink ~fails p] — greedy minimization: repeatedly remove an
    alphabet label, a node line or an edge line while [fails] still
    returns [Some _]; returns the (untrimmed) minimum. *)
val shrink :
  fails:(Relim.Problem.t -> string option) -> Relim.Problem.t -> Relim.Problem.t

(** [run ?mutate_r ?count ?seed ?max_labels ?max_delta ?domains ()] —
    the full campaign: [count] (default 100) random problems from
    [seed] (default 2026), differential step comparison at [domains]
    (default 2; [<= 1] disables it and the pool).  Each failure is
    shrunk with the same [mutate_r] installed.  Never raises. *)
val run :
  ?mutate_r:(Relim.Rounde.denoted -> Relim.Rounde.denoted) ->
  ?count:int ->
  ?seed:int ->
  ?max_labels:int ->
  ?max_delta:int ->
  ?domains:int ->
  unit ->
  report

(** Render a report for humans: one line of counters, then every
    reproducer's message and concrete syntax. *)
val pp_report : Format.formatter -> report -> unit
