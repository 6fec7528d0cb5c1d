(** Problem isomorphism: equality up to a bijective renaming of labels.

    Used to verify the paper's "after renaming" claims (e.g. Lemma 6:
    [R(Π_Δ(a,x))] equals a hand-stated 8-label problem after the given
    renaming). *)

type label = Labelset.label

(** [invariant_hash p] is invariant under label renaming:
    [equal_up_to_renaming a b] implies [invariant_hash a =
    invariant_hash b] (the converse need not hold).  Built from the
    sorted per-label occurrence signatures; the autopilot prefilters
    its cycle check with it, and sweep journal records carry it.
    [Store.Disk] does not use it: its entries are keyed by their
    canonical text. *)
val invariant_hash : Problem.t -> int

(** [find_renaming a b] searches for a bijection σ from [a]'s labels to
    [b]'s labels such that applying σ to [a]'s node and edge
    constraints yields exactly [b]'s (as sets of configurations).
    Returns the bijection as an association list of labels, in [a]'s
    label order, or [None].  When several bijections fit, the one
    returned is the lexicographically first (by the images of [a]'s
    labels 0, 1, …).  The search backtracks over [a]'s labels in index
    order and maps each only to a label of [b] with the same occurrence
    signature (the group sizes and multiplicities it appears with), so
    its cost grows with the sizes of the signature classes, not with
    the alphabet: labels that share one signature are still tried in
    every order. *)
val find_renaming : Problem.t -> Problem.t -> (label * label) list option

(** [equal_up_to_renaming a b] — convenience wrapper. *)
val equal_up_to_renaming : Problem.t -> Problem.t -> bool

(** [apply_renaming p pairs] renames [p]'s labels: label [l] of [p]
    becomes the label named [List.assoc (name l) pairs] (names not
    listed are kept).  The alphabet is rebuilt with the new names in
    the same index order.
    @raise Invalid_argument if renaming creates duplicates. *)
val apply_renaming : Problem.t -> (string * string) list -> Problem.t
