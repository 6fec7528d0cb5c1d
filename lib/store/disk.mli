(** On-disk content-addressed result store for round elimination.

    An entry is keyed by its kind ([step], [fixed-point] or
    [autopilot]) and the canonical text of its input problem
    ([Serialize.to_string]), and lives in exactly one file,
    [entries/<kind>-<MD5 hex of the key text>.ent], which carries the
    full key text.  A lookup reads only that file and serves it only
    if its key text equals the request's, so every answer is computed
    from, and written in the labels of, the requested text itself: a
    relabelled or renamed copy of a stored input is a different key,
    misses, and gets its own entry.

    {2 Trust model}

    An entry is admitted only together with a {!Certify.Certificate}
    that {!Certify.Certificate.validate}s at admission time, and the
    certificate is re-validated when the entry is loaded from disk —
    so results can be trusted across runs and machines.  Beyond the
    certificate's own validity, one claim check runs at admission and
    again on load, with the same rejection messages:
    {ul
    {- the certificate's kind matches the entry's ([Step] for a step
       entry, [Fixed_point] for a fixed-point entry, [Relaxed_step] for
       an autopilot entry);}
    {- a step or autopilot certificate's source text is the entry's
       key text;}
    {- a fixed-point entry records [steps >= 1];}
    {- an autopilot entry's relaxed step closes a period-1 cycle on its
       key (result and key are isomorphic after normalization), and
       the key is not 0-round solvable.}}
    On load, an entry is {e rejected, never served} if any of these
    fail:
    {ul
    {- the framing or checksum is wrong (truncated or bit-flipped
       file, e.g. a simulated [kill -9] mid-write — though writes are
       atomic tmp-file + [rename], so a crash normally leaves no
       partial entry at all);}
    {- the file is in format [v1], which filed entries by an
       isomorphism hash and served renamed copies from them: it is
       refused as invalid, naming v1, and a lookup of its key misses,
       so the key is recomputed and admitted under its [v2] name;}
    {- the file name is not the one of its own kind and key text (an
       entry copied under another key's name);}
    {- the key problem does not parse;}
    {- the embedded certificate fails independent re-validation, or
       the claim check.}}
    Rejections are counted in {!stats} and reported by
    {!validate_all}.  A rejected file stays in place for inspection
    until its key is admitted again, which replaces it atomically.

    A hit therefore serves the texts admitted for that very key text,
    in its labels, whichever copies of the problem were stored
    before. *)

type t

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable admitted : int;
  mutable rejected_invalid : int;
      (** Intact entries refused on load: format v1, a file name that
          is not the key's, or a failed re-validation or claim
          check. *)
  mutable rejected_corrupt : int;
      (** Entries with broken framing or checksum. *)
}

(** Open (creating directories as needed) a store rooted at [dir]. *)
val open_dir : string -> t

val dir : t -> string

val stats : t -> stats

(** [find_step t p] is the stored speedup-step result text for [p]
    (keyed by [Serialize.to_string p]), if one is admitted. *)
val find_step : t -> Relim.Problem.t -> string option

(** [add_step t ~source cert] admits a step entry keyed by [source].
    The certificate must pass the claim check (a [Step] whose source
    text is exactly [Serialize.to_string source]) and validate before
    anything is written.  If the key's file then loads, admission is a
    no-op ([Ok]); otherwise the entry is written atomically, replacing
    a rejected file of the same key.  The checks run before the key is
    looked up, for every admission ([add_fixed_point] and
    [add_autopilot] too): re-adding a stored key costs a full
    validation, and a forged certificate for it is refused ([Error]),
    never answered [Ok] on the strength of the stored entry. *)
val add_step :
  t -> source:Relim.Problem.t -> Certify.Certificate.t -> (unit, string) result

(** [find_fixed_point t p] is [(steps, fixed_text)] for a stored
    fixed-point verdict on [p]: the number of speedup steps the
    detection performed and the fixed problem's text.  [steps = 1]
    means the (normalized) input was itself the fixed point. *)
val find_fixed_point : t -> Relim.Problem.t -> (int * string) option

(** [add_fixed_point t ~source ~steps cert] admits a fixed-point entry
    keyed by [source]; the claim check wants a [Fixed_point]
    certificate and [steps >= 1], and the certificate is validated (a
    fresh sequential speedup replay) before admission. *)
val add_fixed_point :
  t ->
  source:Relim.Problem.t ->
  steps:int ->
  Certify.Certificate.t ->
  (unit, string) result

(** [find_autopilot t p] is the stored relaxed-cycle result text for
    [p], if an autopilot entry is admitted.  The result is a problem
    isomorphic to [p] after normalization — the entry's value is the
    lower-bound claim its certificate carries. *)
val find_autopilot : t -> Relim.Problem.t -> string option

(** [add_autopilot t ~source cert] admits a relaxed-cycle entry keyed
    by [source].  The claim check wants a [Relaxed_step] whose source
    text is exactly [Serialize.to_string source], whose result is
    isomorphic to [source] after normalization (a period-1 cycle), and
    a [source] that is not 0-round solvable — the combination is what
    makes the entry a lower-bound witness (Ω(log n) LOCAL). *)
val add_autopilot :
  t -> source:Relim.Problem.t -> Certify.Certificate.t -> (unit, string) result

(** Scan every entry file in the store, re-validating each from
    scratch: [(total, ok, rejects)] where [rejects] pairs a filename
    with the reason it was rejected ([corrupt: ...] or
    [invalid: ...]). *)
val validate_all : t -> int * int * (string * string) list
