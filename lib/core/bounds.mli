(** The bound formulas of the paper and of the prior work it compares
    against (Sections 1.1 and 4), as executable functions.

    These are asymptotic statements; the functions evaluate the bound
    expressions with all hidden constants set to 1, which is the
    convention used to reproduce "who wins, by what factor, where the
    crossovers fall" in the benchmarks.  The genuinely computed part of
    this paper's bound — the port-numbering chain length t(Δ, k) — is
    in {!Sequence}. *)

val log2 : float -> float

(** Iterated logarithm: least [i] with [log₂^(i) x ≤ 1]. *)
val log_star : float -> int

(** {1 This paper} *)

(** Theorem 1, deterministic: [min(log Δ, log_Δ n)]. *)
val theorem1_det : delta:float -> n:float -> float

(** Theorem 1, randomized: [min(log Δ, log_Δ (log n))]. *)
val theorem1_rand : delta:float -> n:float -> float

(** Corollary 2, deterministic: [min(log Δ, √(log n))]. *)
val corollary2_det : delta:float -> n:float -> float

(** Corollary 2, randomized: [min(log Δ, √(log log n))]. *)
val corollary2_rand : delta:float -> n:float -> float

(** The Δ that maximizes Corollary 2's deterministic bound:
    [2^√(log n)]. *)
val best_delta_det : n:float -> float

(** {1 Prior work} *)

(** MIS on trees, Balliu–Brandt–Olivetti FOCS'20 [5], deterministic:
    [min(log Δ / log log Δ, √(log n / log log n))]. *)
val bbo20_det : delta:float -> n:float -> float

(** General graphs / b-matching lower bound of [4, 15], deterministic:
    [min(Δ/b, log n / log log n)] (for MIS set [b = 1]). *)
val bbhors_det : delta:float -> b:float -> n:float -> float

(** {1 Upper bounds (Section 1.1)} *)

(** MIS in [O(Δ + log* n)] [Barenboim–Elkin–Kuhn '14]. *)
val upper_mis : delta:float -> n:float -> float

(** k-outdegree dominating sets in [O(Δ/k + log* n)]. *)
val upper_kods : delta:float -> k:float -> n:float -> float
