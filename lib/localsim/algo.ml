type ('input, 'state, 'msg, 'out) t = {
  name : string;
  init : Ctx.t -> 'input -> 'state;
  send : Ctx.t -> 'state -> round:int -> 'msg array;
  recv : Ctx.t -> 'state -> round:int -> 'msg array -> 'state;
  output : 'state -> 'out option;
}
