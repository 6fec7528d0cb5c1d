(** Small combinatorial helpers shared across the engine. *)

(** [transport_feasible ~supply ~demand ~allowed] decides whether a
    transportation problem has a solution: [supply.(i)] units at source
    [i] must be shipped to sinks, sink [j] absorbing exactly
    [demand.(j)] units, and source [i] may ship to sink [j] only when
    [allowed i j].  Total supply must equal total demand, otherwise the
    answer is [false].  Implemented as a small max-flow; sizes are
    expected to stay below a few dozen nodes. *)
val transport_feasible :
  supply:int array -> demand:int array -> allowed:(int -> int -> bool) -> bool

(** [compositions n k] enumerates all ways to write [n] as an ordered
    sum of [k] non-negative integers, calling the callback with each
    composition.  The array passed to the callback is reused; copy it
    if you keep it. *)
val compositions : int -> int -> (int array -> unit) -> unit

(** [choose n k] is the binomial coefficient as a float (avoids
    overflow; used only for feasibility estimates). *)
val choose_float : int -> int -> float

(** [multisets elems k] enumerates all multisets of size [k] over the
    list [elems], as sorted lists (non-decreasing by list position).
    The callback receives each multiset as a list of elements. *)
val multisets : 'a list -> int -> ('a list -> unit) -> unit
