(* The relaxation-search autopilot end to end: whole reports pinned on
   quick searches, the sinkless-orientation fixed point rediscovered as
   a certified relaxed cycle, the Pi(5,4,2) upper bound reached through
   a quotient cover where the plain speedup step trips its budget, the
   short names of a cover's relaxed labels and certificate
   round-trips; and the identity-only search behind `roundelim
   upper-bound`, checked against a plain iteration of the speedup
   step. *)

module A = Autopilot
module Cert = Certify.Certificate

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let so () = Lcl.Encodings.sinkless_orientation ~delta:3
let pi542 () = Core.Family.pi { Core.Family.delta = 5; a = 4; x = 2 }

(* CI-sized limits: enough for both reference runs, small enough that
   rejected candidates fail fast. *)
let tight =
  {
    A.default_limits with
    A.expand_limit = 50_000.;
    rc_limit = 4_000;
    beam = 12;
    max_steps = 4;
  }

(* Every accepted step's certificate must re-validate independently
   and survive a to_text/of_text round trip. *)
let check_steps_certified (r : A.report) =
  check_int "certified = accepted" (List.length r.A.steps) r.A.certified_steps;
  List.iter
    (fun (s : A.accepted) ->
      (match Cert.validate s.A.certificate with
      | Ok () -> ()
      | Error m -> Alcotest.failf "step %d certificate: %s" s.A.step_index m);
      let text = Cert.to_text s.A.certificate in
      match Cert.of_text text with
      | Error m -> Alcotest.failf "step %d reparse: %s" s.A.step_index m
      | Ok c2 ->
          check_bool
            (Printf.sprintf "step %d text round-trip" s.A.step_index)
            true
            (String.equal text (Cert.to_text c2));
          (match Cert.validate c2 with
          | Ok () -> ()
          | Error m ->
              Alcotest.failf "step %d reparsed certificate: %s" s.A.step_index m))
    r.A.steps

(* A whole report as the tests below pin it: the verdict line, the
   counters, and every accepted step as (step_index, cover,
   result_labels). *)
type pinned = {
  verdict : string;
  candidates : int;
  skips : int;
  certified : int;
  steps : (int * int option * int) list;
}

(* Runs the search and requires [want] of its report.  The search must
   also apply no [Fixedpoint] step: the pick ranks the viable candidates
   by one key and never runs a fixed-point detection of its own. *)
let check_pinned name ~limits ?zdd p want =
  Relim.Fixedpoint.reset_stats ();
  let r = A.search ~limits ?zdd p in
  let got =
    {
      verdict = A.verdict_string r.A.verdict;
      candidates = r.A.candidates_explored;
      skips = r.A.budget_skips;
      certified = r.A.certified_steps;
      steps =
        List.map
          (fun (s : A.accepted) -> (s.A.step_index, s.A.cover, s.A.result_labels))
          r.A.steps;
    }
  in
  Alcotest.(check string) (name ^ ": verdict") want.verdict got.verdict;
  check_int (name ^ ": candidates") want.candidates got.candidates;
  check_int (name ^ ": budget skips") want.skips got.skips;
  check_int (name ^ ": certified steps") want.certified got.certified;
  Alcotest.(check (list (triple int (option int) int)))
    (name ^ ": steps (index, cover, labels)") want.steps got.steps;
  check_int
    (name ^ ": fixed-point steps applied")
    0 Relim.Fixedpoint.stats.Relim.Fixedpoint.steps_applied;
  r

let so_cycle =
  {
    verdict = "fixed-point (period 1)";
    candidates = 2;
    skips = 0;
    certified = 2;
    steps = [ (1, None, 2); (2, None, 2) ];
  }

let mm_identity =
  {
    verdict = "exhausted";
    candidates = 3;
    skips = 0;
    certified = 3;
    steps = [ (1, None, 4); (2, None, 10); (3, None, 46) ];
  }

(* Quick searches covering every verdict and both kinds of accepted
   step, each pinned in full. *)
let test_pinned_reports () =
  let so d = Lcl.Encodings.sinkless_orientation ~delta:d
  and mm d = Lcl.Encodings.maximal_matching ~delta:d in
  List.iter
    (fun (name, limits, p, want) -> ignore (check_pinned name ~limits p want))
    [
      ("so Delta=2", A.default_limits, so 2, so_cycle);
      ("so Delta=3", A.default_limits, so 3, so_cycle);
      ("so Delta=4", A.default_limits, so 4, so_cycle);
      ("mm Delta=2", A.default_limits, mm 2, mm_identity);
      ("mm Delta=3", A.default_limits, mm 3, mm_identity);
      ( "mis Delta=2",
        tight,
        Lcl.Encodings.mis ~delta:2,
        {
          verdict = "upper-bound (3 steps)";
          candidates = 7;
          skips = 1;
          certified = 3;
          steps = [ (1, None, 6); (2, None, 19); (3, Some 47, 1) ];
        } );
      ( "weak2col Delta=3",
        A.default_limits,
        Lcl.Encodings.weak_2_coloring ~delta:3,
        {
          verdict = "exhausted";
          candidates = 1;
          skips = 0;
          certified = 1;
          steps = [ (1, None, 17) ];
        } );
    ]

let test_so_fixed_point () =
  let r = A.search (so ()) in
  (match r.A.verdict with
  | A.Fixed_point { period; problem } ->
      check_int "period-1 cycle" 1 period;
      (* The fixed point must be hard — that is the lower bound. *)
      check_bool "cycle state not 0-round solvable" true
        (Relim.Zeroround.solvable_arbitrary_ports problem = None)
  | v -> Alcotest.failf "expected a fixed point, got %s" (A.verdict_string v));
  check_bool "took at least one step" true (r.A.steps <> []);
  check_steps_certified r

let test_pi_budget_wall () =
  let r =
    check_pinned "Pi(5,4,2)" ~limits:tight (pi542 ())
      {
        verdict = "upper-bound (2 steps)";
        candidates = 14;
        skips = 11;
        certified = 2;
        steps = [ (1, None, 14); (2, Some 20, 1) ];
      }
  in
  (* The point of the run: the plain step trips its budget, and a
     quotient cover carries the search through the wall. *)
  check_bool "budget wall was hit" true (r.A.budget_skips > 0);
  check_bool "a cover step broke through" true
    (List.exists (fun (s : A.accepted) -> s.A.cover <> None) r.A.steps);
  check_steps_certified r

(* mis Δ=2 at the CI limits reaches its upper bound through a quotient
   by a 47-set cover.  Its relaxed labels must carry the fresh names
   q0…q46, with their meaning only in the certificate's denotations:
   names joined from R(Π)'s already-joined names made that step's
   certificate text 72 MB. *)
let test_cover_short_names () =
  let r = A.search ~limits:tight (Lcl.Encodings.mis ~delta:2) in
  (match r.A.verdict with
  | A.Upper_bound { steps } -> check_int "upper bound in 3 steps" 3 steps
  | v -> Alcotest.failf "expected an upper bound, got %s" (A.verdict_string v));
  check_int "candidates" 7 r.A.candidates_explored;
  check_int "budget skips" 1 r.A.budget_skips;
  check_int "certified steps" 3 r.A.certified_steps;
  let covers = List.filter (fun (s : A.accepted) -> s.A.cover <> None) r.A.steps in
  check_bool "a cover step was accepted" true (covers <> []);
  (* On a mismatch, name the first offending label, cut short: a joined
     name runs to megabytes. *)
  let check_fresh what step names =
    List.iteri
      (fun i name ->
        if name <> Printf.sprintf "q%d" i then
          Alcotest.failf "step %d %s %d is named %S, not q%d" step what i
            (if String.length name > 40 then String.sub name 0 40 ^ "..."
             else name)
            i)
      names
  in
  List.iter
    (fun (s : A.accepted) ->
      let rs =
        match s.A.certificate with
        | Cert.Relaxed_step rs -> rs
        | _ -> Alcotest.fail "accepted step is not a relaxed step"
      in
      let alpha =
        (Relim.Serialize.of_string rs.Cert.rs_relaxed).Relim.Problem.alpha
      in
      check_int
        (Printf.sprintf "step %d one label per cover set" s.A.step_index)
        (Option.get s.A.cover) (Relim.Alphabet.size alpha);
      check_fresh "relaxed label" s.A.step_index
        (List.map (Relim.Alphabet.name alpha) (Relim.Alphabet.labels alpha));
      check_fresh "denotation" s.A.step_index
        (List.map fst rs.Cert.rs_relaxed_denotations))
    covers;
  List.iter
    (fun (s : A.accepted) ->
      let bytes = String.length (Cert.to_text s.A.certificate) in
      if bytes >= 8_000_000 then
        Alcotest.failf "step %d certificate text is %d bytes" s.A.step_index
          bytes)
    r.A.steps;
  check_steps_certified r

(* ------------------------------------------------------------------ *)
(* Identity-only search (roundelim upper-bound)                         *)
(* ------------------------------------------------------------------ *)

(* A beam of 0 tries only the identity relaxation, so each accepted
   step is the plain Rbar o R step, under [Rounde.step]'s default
   budgets and no label cap below R's own. *)
let identity_only max_steps =
  {
    A.max_steps;
    beam = 0;
    expand_limit = 2e6;
    rc_limit = 100_000;
    max_labels = Relim.Labelset.max_label;
  }

let parse = Relim.Parse.problem
let triv () = parse ~name:"t" ~node:"A A A" ~edge:"A A"
let so2 () = parse ~name:"SO" ~node:"O [IO]^2" ~edge:"O I"
let mis3 () = parse ~name:"MIS" ~node:"M M M\nP O O" ~edge:"M [PO]\nO O"

let exhausted_after name want (r : A.report) =
  match r.A.verdict with
  | A.Exhausted _ ->
      check_int (name ^ ": accepted steps") want (List.length r.A.steps)
  | v ->
      Alcotest.failf "%s: expected exhausted, got %s" name (A.verdict_string v)

let test_ub_trivial () =
  match (A.search ~limits:(identity_only 4) (triv ())).A.verdict with
  | A.Upper_bound { steps } -> check_int "0-round solvable as given" 0 steps
  | v ->
      Alcotest.failf "expected upper-bound (0 steps), got %s"
        (A.verdict_string v)

(* SO is never 0-round solvable: the plain step closes a certified
   period-1 cycle instead of running out of steps. *)
let test_ub_so_unsolvable () =
  let r = A.search ~limits:(identity_only 3) (so2 ()) in
  (match r.A.verdict with
  | A.Fixed_point { period; _ } -> check_int "period" 1 period
  | v -> Alcotest.failf "expected a fixed point, got %s" (A.verdict_string v));
  check_steps_certified r

(* A search's [Upper_bound k] must agree with the 0-round decider on
   the k-step image: [p1] is not 0-round solvable, and its image after
   one step is; MIS Δ=3 reaches no bound within 2 steps. *)
let test_ub_consistency () =
  let p1 =
    parse ~name:"p1" ~node:"A [BCD]\n[AB] D" ~edge:"B [ABD]\n[ABC] D"
  in
  let bound p =
    match (A.search ~limits:(identity_only 2) p).A.verdict with
    | A.Upper_bound { steps } -> Some steps
    | A.Exhausted _ | A.Fixed_point _ -> None
  in
  Alcotest.(check (option int)) "p1" (Some 1) (bound p1);
  Alcotest.(check (option int)) "MIS" None (bound (mis3 ()));
  let solvable q = Relim.Zeroround.solvable_arbitrary_ports q <> None in
  let p1 = Relim.Simplify.normalize p1 in
  check_bool "p1 not 0-round solvable" false (solvable p1);
  check_bool "its one-step image is" true
    (solvable
       (Relim.Simplify.normalize (Relim.Rounde.step p1).Relim.Rounde.problem))

(* SO never becomes 0-round solvable and closes its cycle at step 2, so
   a budget of 0 (no step: only the input's own 0-round check) or 1
   stops exactly there. *)
let test_ub_max_steps () =
  exhausted_after "max_steps 0" 0 (A.search ~limits:(identity_only 0) (so2 ()));
  exhausted_after "max_steps 1" 1 (A.search ~limits:(identity_only 1) (so2 ()))

(* R(MIS) has more labels than a cap of 2, so the identity relaxation
   is refused before R-bar runs and the search ends with no step.  The
   cap is the autopilot's own, so every R-bar rung honours it (the
   symbolic one ignores [expand_limit]). *)
let test_ub_label_cap () =
  let limits = { (identity_only 3) with A.max_labels = 2 } in
  exhausted_after "label cap" 0 (A.search ~limits (mis3 ()))

(* The verdict, counters and accepted steps are identical for every
   domain count. *)
let test_ub_pool () =
  let pool = Parallel.Pool.create ~domains:3 in
  let summary (r : A.report) =
    ( A.verdict_string r.A.verdict,
      r.A.candidates_explored,
      r.A.budget_skips,
      List.map
        (fun (s : A.accepted) ->
          (s.A.step_index, s.A.result_labels, Cert.to_text s.A.certificate))
        r.A.steps )
  in
  List.iter
    (fun p ->
      let limits = identity_only 2 in
      check_bool
        (Printf.sprintf "report on %s" p.Relim.Problem.name)
        true
        (summary (A.search ~limits p) = summary (A.search ~limits ~pool p)))
    [ triv (); so2 (); mis3 () ];
  Parallel.Pool.shutdown pool

(* The 0-round decider runs once per state: upper-bound's search on
   MIS Δ=2 stands on 3 states (the input and two accepted steps) and
   decides each once, an accepted candidate's answer reused. *)
let test_ub_decided_once () =
  Relim.Zeroround.reset_stats ();
  exhausted_after "mis Delta=2" 2
    (A.search ~limits:(identity_only 3) (Lcl.Encodings.mis ~delta:2));
  check_int "decider calls" 3 Relim.Zeroround.stats.Relim.Zeroround.clique_calls

(* [?zdd] reaches every R-bar the search runs, in every test leg:
   [~zdd:true] builds ZDD nodes and [~zdd:false] none, whatever
   RELIM_ZDD says. *)
let test_zdd_arg () =
  let nodes zdd =
    Zdd.reset_stats ();
    ignore
      (check_pinned "so Delta=3" ~limits:A.default_limits ~zdd (so ()) so_cycle);
    Zdd.stats.Zdd.nodes
  in
  check_bool "~zdd:true builds nodes" true (nodes true > 0);
  check_int "~zdd:false builds none" 0 (nodes false)

(* Outcome of iterating the speedup step up to [max_steps] times. *)
type reach =
  | Solvable_after of int  (** A 0-round-solvable state after k steps. *)
  | Not_reached  (** None within the steps, or a step tripped a budget. *)
  | Decider_tripped  (** The 0-round decider tripped on a state. *)
  | Engine_failure of string

let reach_string = function
  | Solvable_after k -> Printf.sprintf "solvable after %d" k
  | Not_reached -> "not reached"
  | Decider_tripped -> "decider tripped"
  | Engine_failure m -> "failure: " ^ m

(* The plain iteration, from its definition: normalize, then step and
   normalize until a state is 0-round solvable. *)
let plain_iteration ~max_steps p =
  let rec go q k =
    if Relim.Zeroround.solvable_arbitrary_ports q <> None then Solvable_after k
    else if k = max_steps then Not_reached
    else
      match Relim.Rounde.step q with
      | { Relim.Rounde.problem; _ } ->
          go (Relim.Simplify.normalize problem) (k + 1)
      | exception Relim.Budget.Budget_exceeded _ -> Not_reached
  in
  match go (Relim.Simplify.normalize p) 0 with
  | r -> r
  | exception Relim.Budget.Budget_exceeded _ -> Decider_tripped
  | exception Failure m -> Engine_failure m

let identity_search ~max_steps p =
  match (A.search ~limits:(identity_only max_steps) p).A.verdict with
  | A.Upper_bound { steps } -> Solvable_after steps
  | A.Exhausted _ | A.Fixed_point _ -> Not_reached
  | exception Relim.Budget.Budget_exceeded _ -> Decider_tripped
  | exception Failure m -> Engine_failure m

(* On 400 seeded random problems the identity-only search answers
   exactly as the plain iteration: the same step count when it reaches
   a 0-round-solvable state, no bound only when the iteration reaches
   none, and the engine's [Failure] passed on.  Every kind of answer
   occurs at least once. *)
let test_ub_differential () =
  let rng = Random.State.make [| 7 |] in
  let max_steps = 3 in
  let solvable = ref 0 and not_reached = ref 0 and failed = ref 0 in
  for i = 1 to 400 do
    let p = Certify.Fuzz.gen_problem rng in
    let want = plain_iteration ~max_steps p in
    let got = identity_search ~max_steps p in
    if got <> want then
      Alcotest.failf "problem %d: search %s, iteration %s\n%s" i
        (reach_string got) (reach_string want) (Relim.Serialize.to_string p);
    match got with
    | Solvable_after k when k >= 1 -> incr solvable
    | Not_reached -> incr not_reached
    | Engine_failure _ -> incr failed
    | Solvable_after _ | Decider_tripped -> ()
  done;
  check_bool "some problem needs a step" true (!solvable > 0);
  check_bool "some problem is never solved" true (!not_reached > 0);
  check_bool "some problem fails in the engine" true (!failed > 0)

let () =
  (* The RELIM_CERTIFY and RELIM_TRACE test legs cover this suite too. *)
  Certify.Hooks.install_if_env ();
  Trace.setup_from_env ();
  Alcotest.run "autopilot"
    [
      ( "search",
        [
          Alcotest.test_case "reports pinned, no fixed-point step" `Quick
            test_pinned_reports;
          Alcotest.test_case "SO fixed point rediscovered" `Quick
            test_so_fixed_point;
          Alcotest.test_case "Pi(5,4,2) through the budget wall" `Slow
            test_pi_budget_wall;
          Alcotest.test_case "cover step labels get short names" `Quick
            test_cover_short_names;
          Alcotest.test_case "?zdd picks the R-bar rung" `Quick test_zdd_arg;
        ] );
      ( "upperbound",
        [
          Alcotest.test_case "trivial is 0-round" `Quick test_ub_trivial;
          Alcotest.test_case "SO stays unsolvable" `Quick test_ub_so_unsolvable;
          Alcotest.test_case "bound confirmed by the 0-round decider" `Quick
            test_ub_consistency;
          Alcotest.test_case "max_steps caps the search" `Quick
            test_ub_max_steps;
          Alcotest.test_case "label cap budget verdict" `Quick
            test_ub_label_cap;
          Alcotest.test_case "sequential and pooled agree" `Quick test_ub_pool;
          Alcotest.test_case "each state decided once" `Quick
            test_ub_decided_once;
          Alcotest.test_case "agrees with the plain iteration" `Quick
            test_ub_differential;
        ] );
    ]
