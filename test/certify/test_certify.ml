(* Tests for lib/certify: the independent certificate checkers, the
   engine hooks, the simulator cross-check and the fuzzing harness.

   The suite certifies real engine runs (including the Π(5,4,2)
   pipeline and the SO fixed point), then verifies that *tampered*
   outputs are rejected, and finally that the fuzzing harness catches
   an intentionally injected engine fault and shrinks it to a tiny
   reproducer that round-trips through the parser. *)

open Relim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mis () = Parse.problem ~name:"MIS" ~node:"M M M\nP O O" ~edge:"M [PO]\nO O"
let trivial () = Parse.problem ~name:"trivial" ~node:"A A A" ~edge:"A A"

let violates f =
  match f () with
  | () -> false
  | (exception Certify.Check.Violation _) -> true

(* ------------------------------------------------------------------ *)
(* Direct certificates on real engine outputs                          *)
(* ------------------------------------------------------------------ *)

let test_r_pass () =
  let p = mis () in
  let d = Rounde.r p in
  Certify.Check.check_r ~source:p d;
  let p' = trivial () in
  Certify.Check.check_r ~source:p' (Rounde.r p')

let test_rbar_pass () =
  let p = mis () in
  let d = Rounde.r p in
  let d2 = Rounde.rbar ~pool:Parallel.Pool.sequential d.Rounde.problem in
  Certify.Check.check_rbar ~source:d.Rounde.problem d2

let test_zero_round_pass () =
  let p = mis () in
  Certify.Check.check_zero_round ~mode:`Mirrored p
    (Zeroround.solvable_mirrored p);
  Certify.Check.check_zero_round ~mode:`Arbitrary p
    (Zeroround.solvable_arbitrary_ports ~pool:Parallel.Pool.sequential p);
  let t = trivial () in
  Certify.Check.check_zero_round ~mode:`Mirrored t
    (Zeroround.solvable_mirrored t)

let test_fixed_point_pass_and_fail () =
  let so = Lcl.Encodings.sinkless_orientation ~delta:3 in
  (match Fixedpoint.detect so with
  | Fixedpoint.Reaches_fixed_point (_, fp) -> Certify.Check.check_fixed_point fp
  | _ -> Alcotest.fail "SO should reach a fixed point");
  (* MIS is not a fixed point of Rbar o R. *)
  check_bool "MIS rejected as fixed point" true
    (violates (fun () -> Certify.Check.check_fixed_point (mis ())))

(* ------------------------------------------------------------------ *)
(* Tampered outputs are rejected                                       *)
(* ------------------------------------------------------------------ *)

let test_tampered_denotation () =
  let p = mis () in
  let d = Rounde.r p in
  (* Shrink the first multi-label denotation: the R edge pair using
     that label stops matching its definitional meaning (validity,
     maximality or distinctness must break). *)
  let tampered =
    let changed = ref false in
    let denots =
      Array.map
        (fun s ->
          if (not !changed) && Labelset.cardinal s >= 2 then begin
            changed := true;
            Labelset.remove (Labelset.choose s) s
          end
          else s)
        d.Rounde.denotations
    in
    { d with Rounde.denotations = denots }
  in
  check_bool "shrunk denotation caught" true
    (violates (fun () -> Certify.Check.check_r ~source:p tampered))

let test_dropped_edge_pair () =
  let p = mis () in
  let d = Rounde.r p in
  let p' = d.Rounde.problem in
  let lines = Constr.lines p'.Problem.edge in
  check_bool "R(MIS) has several edge lines" true (List.length lines >= 2);
  (* Dropping a maximal pair breaks completeness: no remaining pair
     dominates the dropped one. *)
  let tampered =
    {
      d with
      Rounde.problem =
        Problem.make ~name:p'.Problem.name ~alpha:p'.Problem.alpha
          ~node:p'.Problem.node
          ~edge:(Constr.make (List.tl lines));
    }
  in
  check_bool "dropped pair caught" true
    (violates (fun () -> Certify.Check.check_r ~source:p tampered))

let test_tampered_rbar_box () =
  let p = mis () in
  let d = Rounde.r p in
  let d2 = Rounde.rbar ~pool:Parallel.Pool.sequential d.Rounde.problem in
  let p'' = d2.Rounde.problem in
  let lines = Constr.lines p''.Problem.node in
  check_bool "Rbar(R(MIS)) has several boxes" true (List.length lines >= 2);
  (* Dropping a box breaks coverage of the source node constraint. *)
  let tampered =
    {
      d2 with
      Rounde.problem =
        Problem.make ~name:p''.Problem.name ~alpha:p''.Problem.alpha
          ~node:(Constr.make (List.tl lines))
          ~edge:p''.Problem.edge;
    }
  in
  check_bool "dropped box caught" true
    (violates (fun () ->
         Certify.Check.check_rbar ~source:d.Rounde.problem tampered))

let test_tampered_zero_round () =
  let p = mis () in
  (* M^3 is an allowed node configuration but M is not self-compatible
     — a bogus witness. *)
  check_bool "bogus witness caught" true
    (violates (fun () ->
         Certify.Check.check_zero_round ~mode:`Arbitrary p
           (Some (Multiset.of_list [ 0; 0; 0 ]))));
  (* The trivial problem is 0-round solvable — a bogus None. *)
  check_bool "bogus None caught" true
    (violates (fun () ->
         Certify.Check.check_zero_round ~mode:`Mirrored (trivial ()) None))

(* ------------------------------------------------------------------ *)
(* Hooks                                                               *)
(* ------------------------------------------------------------------ *)

let test_hooks_state () =
  Certify.Hooks.uninstall ();
  check_bool "not installed" false (Certify.Hooks.installed ());
  Certify.Hooks.with_hooks (fun () ->
      check_bool "installed inside with_hooks" true (Certify.Hooks.installed ()));
  check_bool "restored after with_hooks" false (Certify.Hooks.installed ());
  Certify.Hooks.install ();
  Certify.Hooks.install ();
  check_bool "install idempotent" true (Certify.Hooks.installed ());
  Certify.Hooks.uninstall ();
  check_bool "uninstalled" false (Certify.Hooks.installed ())

let test_hooks_certify_engine_run () =
  Certify.Check.reset_stats ();
  Certify.Hooks.with_hooks (fun () -> ignore (Rounde.step (mis ())));
  let s = Certify.Check.stats in
  check_int "one R certified" 1 s.Certify.Check.r_certified;
  check_int "one Rbar certified" 1 s.Certify.Check.rbar_certified

(* ------------------------------------------------------------------ *)
(* The Pi(5,4,2) pipeline run, certified end to end                    *)
(* ------------------------------------------------------------------ *)

let test_pi5_run_certified () =
  let pi5 = Core.Family.pi { Core.Family.delta = 5; a = 4; x = 2 } in
  Certify.Check.reset_stats ();
  Certify.Hooks.with_hooks (fun () ->
      (* Iterate the speedup until an engine budget stops it; every
         completed R / Rbar output is certified by the hooks.  (With
         default budgets the Π(5,4,2) pipeline completes step 1 and is
         stopped inside step 2's Rbar.) *)
      let rec go p i =
        if i <= 3 then
          match Rounde.step ~pool:Parallel.Pool.sequential p with
          | d -> go (Simplify.normalize d.Rounde.problem) (i + 1)
          | exception Budget.Budget_exceeded _ -> ()
      in
      go pi5 1);
  let s = Certify.Check.stats in
  check_bool "at least two R steps certified" true
    (s.Certify.Check.r_certified >= 2);
  check_bool "at least one Rbar step certified" true
    (s.Certify.Check.rbar_certified >= 1)

let test_so_fixed_point_certified () =
  Certify.Check.reset_stats ();
  Certify.Hooks.with_hooks (fun () ->
      let so = Lcl.Encodings.sinkless_orientation ~delta:3 in
      match Fixedpoint.detect so with
      | Fixedpoint.Reaches_fixed_point _ -> ()
      | _ -> Alcotest.fail "SO should reach a fixed point");
  check_bool "fixed point certified via hook" true
    (Certify.Check.stats.Certify.Check.fixed_points_certified >= 1)

(* ------------------------------------------------------------------ *)
(* Simulator cross-check                                               *)
(* ------------------------------------------------------------------ *)

let test_simcheck_agrees_with_engine () =
  List.iter
    (fun p ->
      Certify.Simcheck.cross_check ~mode:`Mirrored p
        (Zeroround.solvable_mirrored p);
      Certify.Simcheck.cross_check ~mode:`Arbitrary p
        (Zeroround.solvable_arbitrary_ports ~pool:Parallel.Pool.sequential p))
    [
      mis ();
      trivial ();
      Parse.problem ~name:"3col" ~node:"A A\nB B\nC C" ~edge:"A [BC]\nB C";
      Lcl.Encodings.sinkless_orientation ~delta:3;
    ]

let test_simcheck_rejects_bogus_verdicts () =
  check_bool "bogus witness refuted by simulation" true
    (violates (fun () ->
         Certify.Simcheck.cross_check ~mode:`Arbitrary (mis ())
           (Some (Multiset.of_list [ 0; 0; 0 ]))));
  check_bool "bogus None refuted by simulation" true
    (violates (fun () ->
         Certify.Simcheck.cross_check ~mode:`Mirrored (trivial ()) None))

(* ------------------------------------------------------------------ *)
(* Fuzzing harness                                                     *)
(* ------------------------------------------------------------------ *)

let test_clean_fuzz () =
  let report = Certify.Fuzz.run ~count:60 ~seed:Qseed.seed ~domains:2 () in
  check_int "runs" 60 report.Certify.Fuzz.runs;
  check_int "no violations" 0 (List.length report.Certify.Fuzz.reproducers);
  check_bool "most runs certified" true (report.Certify.Fuzz.passed >= 30)

(* The injected engine fault: shrink one denotation of every R output.
   The harness must catch it and shrink the failure to a tiny
   reproducer that round-trips through the parser. *)
let inject_fault (d : Rounde.denoted) =
  let changed = ref false in
  let denots =
    Array.map
      (fun s ->
        if (not !changed) && Labelset.cardinal s >= 2 then begin
          changed := true;
          Labelset.remove (List.hd (List.rev (Labelset.elements s))) s
        end
        else s)
      d.Rounde.denotations
  in
  { d with Rounde.denotations = denots }

let test_injected_fault_caught_and_shrunk () =
  let report =
    Certify.Fuzz.run ~mutate_r:inject_fault ~count:40 ~seed:Qseed.seed
      ~domains:1 ()
  in
  let reps = report.Certify.Fuzz.reproducers in
  check_bool "fault caught at least once" true (List.length reps >= 1);
  List.iter
    (fun r ->
      check_bool "reproducer is tiny (<= 4 labels)" true
        (Problem.label_count r.Certify.Fuzz.problem <= 4);
      (* Satellite: every shrunk reproducer re-parses to an isomorphic
         problem. *)
      check_bool "reproducer round-trips through the parser" true
        r.Certify.Fuzz.roundtrip_ok;
      let back = Serialize.of_string r.Certify.Fuzz.rendered in
      check_bool "rendered syntax parses to the same problem" true
        (Iso.equal_up_to_renaming back r.Certify.Fuzz.problem))
    reps

let fuzz_qcheck =
  [
    QCheck.Test.make ~name:"fuzzed-problems-always-certify" ~count:30
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let p = Certify.Fuzz.gen_problem rng in
        match Certify.Fuzz.run_one ~sim_seed:seed p with
        | Certify.Fuzz.Passed | Certify.Fuzz.Skipped _ -> true
        | Certify.Fuzz.Failed _ -> false);
  ]

let () =
  Certify.Hooks.install_if_env ();
  Trace.setup_from_env ();
  let qsuite name tests = (name, List.map Qseed.to_alcotest tests) in
  Alcotest.run "certify"
    [
      ( "certificates",
        [
          Alcotest.test_case "R pass" `Quick test_r_pass;
          Alcotest.test_case "Rbar pass" `Quick test_rbar_pass;
          Alcotest.test_case "zero-round pass" `Quick test_zero_round_pass;
          Alcotest.test_case "fixed point pass and fail" `Quick
            test_fixed_point_pass_and_fail;
        ] );
      ( "tampering",
        [
          Alcotest.test_case "shrunk denotation" `Quick test_tampered_denotation;
          Alcotest.test_case "dropped edge pair" `Quick test_dropped_edge_pair;
          Alcotest.test_case "dropped Rbar box" `Quick test_tampered_rbar_box;
          Alcotest.test_case "bogus zero-round verdicts" `Quick
            test_tampered_zero_round;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "install state" `Quick test_hooks_state;
          Alcotest.test_case "hooks certify engine run" `Quick
            test_hooks_certify_engine_run;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "Pi(5,4,2) run certified" `Quick
            test_pi5_run_certified;
          Alcotest.test_case "SO fixed point certified" `Quick
            test_so_fixed_point_certified;
        ] );
      ( "simcheck",
        [
          Alcotest.test_case "agrees with engine" `Quick
            test_simcheck_agrees_with_engine;
          Alcotest.test_case "rejects bogus verdicts" `Quick
            test_simcheck_rejects_bogus_verdicts;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "clean campaign" `Quick test_clean_fuzz;
          Alcotest.test_case "injected fault caught and shrunk" `Quick
            test_injected_fault_caught_and_shrunk;
        ] );
      qsuite "fuzz-props" fuzz_qcheck;
    ]
