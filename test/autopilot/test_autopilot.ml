(* The relaxation-search autopilot end to end: whole reports pinned on
   quick searches, the sinkless-orientation fixed point rediscovered as
   a certified relaxed cycle, the Pi(5,4,2) upper bound reached through
   a quotient cover where the plain speedup step trips its budget, the
   short names of a cover's relaxed labels, certificate round-trips,
   and the certificate-gated store admission of discovered cycles. *)

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
let check_pinned name ~limits p want =
  Relim.Fixedpoint.reset_stats ();
  let r = A.search ~limits p in
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

let test_store_admission () =
  let r = A.search (so ()) in
  let cert =
    match List.rev r.A.steps with
    | last :: _ -> last.A.certificate
    | [] -> Alcotest.fail "no accepted steps"
  in
  let rs =
    match cert with
    | Cert.Relaxed_step rs -> rs
    | _ -> Alcotest.fail "cycle certificate is not a relaxed step"
  in
  let source = Relim.Serialize.of_string rs.Cert.rs_source in
  let dir =
    let d = Filename.temp_file "autopilot-store" "" in
    Sys.remove d;
    Unix.mkdir d 0o700;
    d
  in
  let store = Store.Disk.open_dir dir in
  (match Store.Disk.add_autopilot store ~source cert with
  | Ok () -> ()
  | Error m -> Alcotest.failf "admission: %s" m);
  check_bool "served back" true
    (Store.Disk.find_autopilot store source = Some rs.Cert.rs_result);
  (* A fresh handle re-validates the entry from disk — certificate,
     cycle condition, and hardness — before serving it. *)
  let fresh = Store.Disk.open_dir dir in
  check_bool "served after reopen (full re-validation)" true
    (Store.Disk.find_autopilot fresh source = Some rs.Cert.rs_result);
  (* Keying is not decorative: admitting under a different problem
     must be rejected (the certificate speaks about its own source). *)
  match Store.Disk.add_autopilot store ~source:(so ()) cert with
  | Ok () -> Alcotest.fail "mis-keyed admission accepted"
  | Error _ -> ()

let () =
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
        ] );
      ( "store",
        [ Alcotest.test_case "cycle admission" `Quick test_store_admission ] );
    ]
