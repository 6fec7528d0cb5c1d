type verdict =
  | Fixed_point of Problem.t * (Labelset.label * Labelset.label) list
  | Reaches_fixed_point of int * Problem.t
  | No_fixed_point_found of Problem.t

type stats = { mutable steps_applied : int }

let stats = { steps_applied = 0 }

let reset_stats () = stats.steps_applied <- 0

(* Fired with the fixed problem whenever [detect] confirms a fixed
   point (immediate or eventual).  Installed by [Certify.Hooks], whose
   checker replays one sequential speedup step from scratch. *)
let fixed_point_observer : (Problem.t -> unit) option ref = ref None

let notify_fixed_point p =
  match !fixed_point_observer with None -> () | Some f -> f p

let clear_cache () = ()

let sample_counters () =
  Trace.counters [ ("fixedpoint.steps_applied", stats.steps_applied) ]

let step_normalized ?expand_limit ?pool ?zdd (p : Problem.t) =
  Trace.with_span "fixedpoint.step"
    ~attrs:[ ("problem", p.Problem.name) ]
  @@ fun () ->
  Fun.protect ~finally:sample_counters @@ fun () ->
  stats.steps_applied <- stats.steps_applied + 1;
  let { Rounde.problem = next; _ } = Rounde.step ?expand_limit ?pool ?zdd p in
  Simplify.normalize next

let detect ?(max_steps = 5) ?expand_limit ?pool ?zdd (p : Problem.t) =
  Trace.with_span "fixedpoint.detect"
    ~attrs:
      [ ("problem", p.Problem.name); ("max_steps", string_of_int max_steps) ]
  @@ fun () ->
  let p0 = Simplify.normalize p in
  let first = step_normalized ?expand_limit ?pool ?zdd p0 in
  match Iso.find_renaming first p0 with
  | Some assoc ->
      notify_fixed_point p0;
      Fixed_point (p0, assoc)
  | None ->
      (* [i] counts the speedup steps applied so far, including the one
         performed by the current iteration: the unrolled first step
         was number 1, so the loop starts at 2. *)
      let rec iterate prev i =
        if i > max_steps then No_fixed_point_found prev
        else begin
          let next = step_normalized ?expand_limit ?pool ?zdd prev in
          if Iso.equal_up_to_renaming next prev then begin
            notify_fixed_point prev;
            Reaches_fixed_point (i, prev)
          end
          else iterate next (i + 1)
        end
      in
      iterate first 2

let lower_bound_statement verdict =
  let from_problem p =
    if Zeroround.solvable_arbitrary_ports p = None then
      Some
        (Printf.sprintf
           "problem %s is a non-trivial fixed point: Omega(log n) deterministic \
            and Omega(log log n) randomized LOCAL lower bounds"
           p.Problem.name)
    else None
  in
  match verdict with
  | Fixed_point (p, _) | Reaches_fixed_point (_, p) -> from_problem p
  | No_fixed_point_found _ -> None
