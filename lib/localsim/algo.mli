(** Synchronous message-passing algorithms.

    One round = every node sends one message per port, receives one
    message per port, updates its state.  A node terminates by
    reporting [Some output]; terminated nodes keep participating in
    message forwarding (their [send]/[recv] are still called), matching
    the standard LOCAL convention that the round complexity is the time
    until {e all} nodes have decided.

    ['input] is the per-node input (e.g. a color, a root flag, or [()]
    for input-free problems) — the same device the paper uses when it
    hands every node a Δ-edge coloring. *)

type ('input, 'state, 'msg, 'out) t = {
  name : string;
  init : Ctx.t -> 'input -> 'state;
  send : Ctx.t -> 'state -> round:int -> 'msg array;
      (** Must return exactly [degree] messages, indexed by port. *)
  recv : Ctx.t -> 'state -> round:int -> 'msg array -> 'state;
      (** [inbox] is indexed by port: the message the neighbor behind
          that port sent across the shared edge. *)
  output : 'state -> 'out option;
}
