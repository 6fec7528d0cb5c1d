(** On-disk content-addressed store of certified speedup steps.

    An entry holds the result of one [R̄ ∘ R] step, keyed by the
    canonical text of its input problem ([Serialize.to_string]), and
    lives in exactly one file, [entries/step-<MD5 hex of the key
    text>.ent], which carries the full key text.  A lookup reads only
    that file and serves it only if its key text equals the request's,
    so every answer is computed from, and written in the labels of, the
    requested text itself: a relabelled or renamed copy of a stored
    input is a different key, misses, and gets its own entry.

    The store keeps no other kind of entry.  A fixed-point or autopilot
    verdict is bound to its request only by replaying the detection or
    search from it, which costs as much as answering anew, so such
    verdicts are recomputed, never stored.

    {2 Trust model}

    An entry is admitted only together with a {!Certify.Certificate}
    that {!Certify.Certificate.validate}s at admission time, and the
    certificate is re-validated when the entry is loaded from disk —
    so results can be trusted across runs and machines.  Beyond the
    certificate's own validity, one claim check runs at admission and
    again on load, with the same rejection messages: the certificate
    is a [Step] whose source text is the entry's key text.  On load, an
    entry is {e rejected, never served} if any of these fail:
    {ul
    {- the framing or checksum is wrong (truncated or bit-flipped
       file, e.g. a simulated [kill -9] mid-write — though writes are
       atomic tmp-file + [rename], so a crash normally leaves no
       partial entry at all);}
    {- the file is in format [v1], which filed entries by an
       isomorphism hash and served renamed copies from them: it is
       refused as invalid, naming v1, and a lookup of its key misses,
       so the key is recomputed and admitted under its [v2] name;}
    {- the entry's kind is not [step]: an earlier store's
       [fixed-point] and [autopilot] entries are refused as invalid,
       naming their kind, and no lookup reads them;}
    {- the file name is not the one of its own key text (an entry
       copied under another key's name);}
    {- the claim check or the certificate's independent
       re-validation.}}
    Rejections are counted in {!stats} and reported by
    {!validate_all}.  A rejected file stays in place for inspection
    until its key is admitted again, which replaces it atomically.

    A hit therefore serves the text admitted for that very key text,
    in its labels, whichever copies of the problem were stored
    before. *)

type t

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable admitted : int;
  mutable rejected_invalid : int;
      (** Intact entries refused on load: format v1, a kind other
          than [step], a file name that is not the key's, or a failed
          claim check or re-validation. *)
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
    looked up: re-adding a stored key costs a full validation, and a
    forged certificate for it is refused ([Error]), never answered
    [Ok] on the strength of the stored entry. *)
val add_step :
  t -> source:Relim.Problem.t -> Certify.Certificate.t -> (unit, string) result

(** Scan every entry file in the store, re-validating each from
    scratch: [(total, ok, rejects)] where [rejects] pairs a filename
    with the reason it was rejected ([corrupt: ...] or
    [invalid: ...]). *)
val validate_all : t -> int * int * (string * string) list
