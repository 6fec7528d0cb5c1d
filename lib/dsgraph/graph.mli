(** Undirected graphs with per-endpoint port numbers.

    This is the communication-graph substrate for the LOCAL /
    port-numbering simulator: every node numbers its incident edges
    with distinct ports [0 .. deg-1] (the paper uses 1-based ports; we
    use 0-based throughout the code).  Graphs are immutable. *)

type t

(** [of_edges ~n edges] builds a graph on nodes [0 .. n-1].  Ports are
    assigned in order of appearance of each endpoint in [edges].
    @raise Invalid_argument on self-loops, duplicate edges, or
    out-of-range endpoints. *)
val of_edges : n:int -> (int * int) list -> t

val n : t -> int

(** Number of edges. *)
val m : t -> int

val degree : t -> int -> int

val max_degree : t -> int

(** [neighbor g v p] — the node at the other end of [v]'s port [p]. *)
val neighbor : t -> int -> int -> int

(** [edge_id g v p] — global edge identifier of [v]'s port [p]. *)
val edge_id : t -> int -> int -> int

(** [back_port g v p] — the port number that [neighbor g v p] assigned
    to this same edge. *)
val back_port : t -> int -> int -> int

(** Endpoints of an edge id, as given at construction. *)
val endpoints : t -> int -> int * int

(** [port_of g v u] — the port of [v] leading to neighbor [u].
    @raise Not_found if they are not adjacent. *)
val port_of : t -> int -> int -> int

val edges : t -> (int * int) list

val is_connected : t -> bool

val is_tree : t -> bool

(** [bfs g root] — distances from [root]; unreachable nodes get [-1]. *)
val bfs : t -> int -> int array

(** [bfs_parents g root] — [(dist, parent)] arrays; the root's parent
    is itself, unreachable nodes get parent [-1]. *)
val bfs_parents : t -> int -> int array * int array

(** Maximum distance from [root] to any reachable node. *)
val eccentricity : t -> int -> int

(** Diameter of a connected graph (two-pass BFS is exact only on
    trees; on general graphs this computes max over all sources). *)
val diameter : t -> int

(** Length of a shortest cycle; [None] for forests.  BFS from every
    node; O(n·m). *)
val girth : t -> int option

(** [permute_ports g perms] renumbers each node's ports:
    [perms.(v)] must be a permutation of [0 .. deg v - 1]; new port
    [perms.(v).(p)] refers to the edge formerly at port [p].
    @raise Invalid_argument if some [perms.(v)] is not a permutation. *)
val permute_ports : t -> int array array -> t

(** GraphViz rendering; optional per-edge colors become edge labels and
    a node predicate highlights a selection (e.g. a dominating set). *)
val to_dot :
  ?name:string -> ?edge_colors:int array -> ?highlight:(int -> bool) -> t -> string
