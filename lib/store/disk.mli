(** On-disk content-addressed result store for round elimination.

    Entries are addressed by {!Relim.Iso.invariant_hash} {e buckets}:
    the hash picks the bucket (a filename prefix), and every entry
    carries the full canonical problem text, so in-bucket candidates
    are resolved with {!Relim.Iso.equal_up_to_renaming} — a hash
    collision between non-isomorphic problems costs one extra
    comparison, never a wrong result.

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
    {- the key problem does not parse, or hashes outside its bucket;}
    {- the embedded certificate fails independent re-validation, or
       the claim check.}}
    Rejections are counted in {!stats} and reported by
    {!validate_all}; a rejected file is left in place for inspection.

    Lookups may return an {e isomorphic representative}: as with the
    in-process [Fixedpoint] memo, a hit for a renamed variant serves
    the stored entry's texts.  Byte-identity between warm and cold
    responses is guaranteed for byte-identical (canonicalized)
    inputs. *)

type t

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable admitted : int;
  mutable rejected_invalid : int;
      (** Entries whose certificate failed re-validation. *)
  mutable rejected_corrupt : int;
      (** Entries with broken framing or checksum. *)
  mutable hash_conflicts : int;
      (** In-bucket candidates that shared the key hash but failed the
          isomorphism check. *)
}

(** Open (creating directories as needed) a store rooted at [dir]. *)
val open_dir : string -> t

val dir : t -> string

val stats : t -> stats

(** [find_step t p] is the stored speedup-step result text for a
    problem isomorphic to [p], if one is admitted. *)
val find_step : t -> Relim.Problem.t -> string option

(** [add_step t ~source cert] admits a step entry keyed by [source].
    The certificate must pass the claim check (a [Step] whose source
    text is exactly [Serialize.to_string source]) and validate before
    anything is written.  Re-adding an already-present key is a no-op
    ([Ok]). *)
val add_step :
  t -> source:Relim.Problem.t -> Certify.Certificate.t -> (unit, string) result

(** [find_fixed_point t p] is [(steps, fixed_text)] for a stored
    fixed-point verdict on a problem isomorphic to [p]: the number of
    speedup steps the detection performed and the fixed problem's
    text.  [steps = 1] means the (normalized) input was itself the
    fixed point. *)
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

(** [find_autopilot t p] is the stored relaxed-cycle result text for a
    problem isomorphic to [p], if an autopilot entry is admitted.  The
    result is a problem isomorphic to [p] after normalization — the
    entry's value is the lower-bound claim its certificate carries. *)
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
    with the reason it was rejected. *)
val validate_all : t -> int * int * (string * string) list
