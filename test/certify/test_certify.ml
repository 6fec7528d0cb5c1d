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

let violation f =
  match f () with
  | () -> None
  | exception Certify.Check.Violation msg -> Some msg

let violates f = Option.is_some (violation f)

let sequential = Parallel.Pool.sequential

(* Line i of the n-label threshold relation: l_i with every l_j such
   that i + j >= n - 1. *)
let threshold_lines n =
  let name i = Printf.sprintf "l%d" i in
  String.concat "\n"
    (List.init n (fun i ->
         match List.filter (fun j -> i + j >= n - 1) (List.init n Fun.id) with
         | [ j ] -> Printf.sprintf "%s %s" (name i) (name j)
         | js ->
             Printf.sprintf "%s [%s]" (name i) (String.concat " " (List.map name js))))

(* An n-label problem whose node diagram is a chain (the node
   constraint is the threshold relation) and whose edge allows every
   pair.  Its R completeness scan would visit all 2^n label subsets. *)
let chain n =
  let all = String.concat " " (List.init n (Printf.sprintf "l%d")) in
  Parse.problem ~name:(Printf.sprintf "chain%d" n) ~node:(threshold_lines n)
    ~edge:(Printf.sprintf "[%s] [%s]" all all)

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

(* R completeness costs n + |E|² set operations, so it runs on the
   widest sources too: the chains' certificates skip nothing. *)
let test_wide_completeness_checked () =
  List.iter
    (fun n ->
      let p = chain n in
      let d = Rounde.r p in
      let before = Certify.Check.stats.Certify.Check.skipped_subchecks in
      Certify.Check.check_r ~source:p d;
      check_int
        (Printf.sprintf "chain%d: no sub-check skipped" n)
        before Certify.Check.stats.Certify.Check.skipped_subchecks)
    [ 57; 60 ]

(* The threshold relation as both constraints: R's sides are the n
   sets { l_j | j >= k }. *)
let threshold n =
  let text = threshold_lines n in
  Parse.problem ~name:(Printf.sprintf "threshold%d" n) ~node:text ~edge:text

let with_edge (d : Rounde.denoted) lines =
  let p = d.Rounde.problem in
  {
    d with
    Rounde.problem =
      Problem.make ~name:p.Problem.name ~alpha:p.Problem.alpha ~node:p.Problem.node
        ~edge:(Constr.make lines);
  }

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let completeness_message = "is dominated by no emitted pair"

(* Dropping R's first edge pair leaves its two sides unemitted.  The
   check must catch that at every width, also from 17 labels on, where
   a scan of the 2^n label subsets would exceed the default work
   budget of 2·10⁶. *)
let test_threshold_dropped_pair () =
  List.iter
    (fun n ->
      let p = threshold n in
      let d = Rounde.r p in
      let lines = Constr.lines d.Rounde.problem.Problem.edge in
      let v =
        violation (fun () ->
            Certify.Check.check_r ~source:p (with_edge d (List.tl lines)))
      in
      check_bool
        (Printf.sprintf "threshold%d without its first pair: %s" n
           (Option.value v ~default:"accepted"))
        true
        (match v with Some m -> contains ~sub:completeness_message m | None -> false))
    [ 12; 16; 17; 20 ]

(* The step certificates of Π(8,6,1) and Π(5,4,2), pinned: on Π(8,6,1)
   R's node recomputation runs out of budget and is skipped, and every
   other sub-check of both steps runs to the end.  The steps run on the
   explicit engine whatever RELIM_ZDD says: the ZDD rungs trip their
   maximal-box scan budget on Π(8,6,1). *)
let test_pi_steps_pinned () =
  List.iter
    (fun (delta, a, x, skipped) ->
      let what = Printf.sprintf "Pi(%d,%d,%d)" delta a x in
      Certify.Check.reset_stats ();
      Certify.Hooks.with_hooks (fun () ->
          ignore
            (Rounde.step ~pool:sequential ~zdd:false
               (Core.Family.pi { Core.Family.delta; a; x })));
      let s = Certify.Check.stats in
      check_int (what ^ ": R certified") 1 s.Certify.Check.r_certified;
      check_int (what ^ ": Rbar certified") 1 s.Certify.Check.rbar_certified;
      check_int (what ^ ": sub-checks skipped") skipped
        s.Certify.Check.skipped_subchecks)
    [ (8, 6, 1, 1); (5, 4, 2, 0) ]

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

(* The next four tampers reach the configurations the membership table
   answers for: R's node recomputation and R̄'s validity and maximality
   scans.  Each pins the exact violation, and each first certifies the
   untampered steps of MIS and of Q.  The checks of MIS's outputs never
   hinge on a multiplicity; Q's do, since Q allows A A B but not A B B,
   so a table that merged two multisets would fail there. *)
let q () = Parse.problem ~name:"Q" ~node:"A A B" ~edge:"A B\nB B"

let certify_clean_steps () =
  List.iter
    (fun p ->
      let d = Rounde.r p in
      Certify.Check.check_r ~source:p d;
      let r = d.Rounde.problem in
      Certify.Check.check_rbar ~source:r (Rounde.rbar ~pool:sequential r))
    [ mis (); q () ]

let config (p : Problem.t) names =
  Multiset.of_list (List.map (Alphabet.find p.Problem.alpha) names)

let with_node (d : Rounde.denoted) lines =
  let p = d.Rounde.problem in
  {
    d with
    Rounde.problem =
      Problem.make ~name:p.Problem.name ~alpha:p.Problem.alpha
        ~node:(Constr.make lines) ~edge:p.Problem.edge;
  }

let with_denotation (d : Rounde.denoted) label f =
  let i = Alphabet.find d.Rounde.problem.Problem.alpha label in
  {
    d with
    Rounde.denotations =
      Array.mapi (fun j s -> if j = i then f s else s) d.Rounde.denotations;
  }

let check_violation what expected f =
  Alcotest.(check (option string)) what (Some expected) (violation f)

let test_dropped_node_line () =
  certify_clean_steps ();
  let p = mis () in
  let d = Rounde.r p in
  (* R(MIS)'s node constraint as concrete lines, without O PO^2, which
     shares its support with the kept O^2 PO. *)
  let dropped = config d.Rounde.problem [ "O"; "PO"; "PO" ] in
  let lines =
    List.filter_map
      (fun m -> if Multiset.equal m dropped then None else Some (Line.of_multiset m))
      (Constr.expand d.Rounde.problem.Problem.node)
  in
  check_violation "dropped node line caught"
    "R certificate (MIS): node configuration O PO^2 admits an allowed choice \
     but is not in the node constraint"
    (fun () -> Certify.Check.check_r ~source:p (with_node d lines))

let test_added_node_configuration () =
  certify_clean_steps ();
  let p = mis () in
  let d = Rounde.r p in
  (* M O^2's one choice, M O O, is not an MIS node; M^2 O, with the same
     support, is not emitted either. *)
  let added = Line.of_multiset (config d.Rounde.problem [ "M"; "O"; "O" ]) in
  check_violation "added node configuration caught"
    "R certificate (MIS): node configuration M O^2 has no allowed choice of \
     representatives"
    (fun () ->
      Certify.Check.check_r ~source:p
        (with_node d (added :: Constr.lines d.Rounde.problem.Problem.node)))

let test_widened_denotation () =
  certify_clean_steps ();
  let r = (Rounde.r (mis ())).Rounde.problem in
  let d = Rounde.rbar ~pool:sequential r in
  (* MO standing for O as well puts the choice O O M into the box
     MO^2 [M MO PO]. *)
  let o = Alphabet.find r.Problem.alpha "O" in
  check_violation "widened denotation caught"
    "Rbar certificate (R(MIS)): box [O,MO O,MO M,MO,PO] has the disallowed \
     choice M O^2"
    (fun () ->
      Certify.Check.check_rbar ~source:r (with_denotation d "MO" (Labelset.add o)))

let test_narrowed_denotation () =
  certify_clean_steps ();
  let r = (Rounde.r (mis ())).Rounde.problem in
  let d = Rounde.rbar ~pool:sequential r in
  (* O,MO,PO standing for O and PO only leaves the box PO [O PO]^2, and
     MO still fits beside them. *)
  let mo = Alphabet.find r.Problem.alpha "MO" in
  check_violation "narrowed denotation caught"
    "Rbar certificate (R(MIS)): box [PO O,PO O,PO] is not maximal — label MO \
     fits at position 1"
    (fun () ->
      Certify.Check.check_rbar ~source:r
        (with_denotation d "O,MO,PO" (Labelset.remove mo)))

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

(* [Check.member] against [Constr.mem] on random constraints of arity up
   to 12 over labels up to 59.  Each constraint draws its labels from a
   pool of two to four, so configurations repeat labels and share
   supports; every configuration is asked three times, once with its
   labels shuffled, so a key that overflows or merges two multisets
   answers one of them wrongly. *)
let membership_qcheck =
  [
    QCheck.Test.make ~name:"member-agrees-with-Constr.mem" ~count:300
      QCheck.(int_range 0 1_000_000)
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let int k = Random.State.int rng k in
        let delta = 1 + int 12 in
        let pool = Array.init (2 + int 3) (fun _ -> int Labelset.max_label) in
        let pick () = pool.(int (Array.length pool)) in
        let set () =
          List.fold_left
            (fun s _ -> Labelset.add (pick ()) s)
            Labelset.empty
            (List.init (1 + int 2) Fun.id)
        in
        let rec groups left =
          if left = 0 then []
          else
            let k = 1 + int left in
            (set (), k) :: groups (left - k)
        in
        let lines = List.init (1 + int 3) (fun _ -> Line.make (groups delta)) in
        let c = Constr.make lines in
        let element s =
          let l = Labelset.elements s in
          List.nth l (int (List.length l))
        in
        let line_member l =
          Array.of_list
            (List.concat_map
               (fun (s, k) -> List.init k (fun _ -> element s))
               (Line.groups l))
        in
        let configs =
          List.init 40 (fun i ->
              if i mod 2 = 0 then line_member (List.nth lines (int (List.length lines)))
              else Array.init delta (fun _ -> pick ()))
        in
        let shuffled a =
          let a = Array.copy a in
          for i = Array.length a - 1 downto 1 do
            let j = int (i + 1) in
            let t = a.(i) in
            a.(i) <- a.(j);
            a.(j) <- t
          done;
          a
        in
        let t = Certify.Check.membership c in
        List.for_all
          (fun a ->
            Certify.Check.member t a
            = Constr.mem c (Multiset.of_list (Array.to_list a)))
          (configs @ List.map shuffled configs @ List.rev configs));
  ]

(* ------------------------------------------------------------------ *)
(* The checks that replaced two scans, against those scans             *)
(* ------------------------------------------------------------------ *)

(* The source's edge compatibility, from its concrete edge pairs. *)
let compat_of (p : Problem.t) =
  let n = Problem.label_count p in
  let compat = Array.make_matrix n n false in
  List.iter
    (fun m ->
      match Multiset.to_list m with
      | [ a; b ] ->
          compat.(a).(b) <- true;
          compat.(b).(a) <- true
      | _ -> assert false)
    (Constr.expand p.Problem.edge);
  compat

let pairs_of (c : Constr.t) =
  List.map
    (fun m -> match Multiset.to_list m with [ i; j ] -> (i, j) | _ -> assert false)
    (Constr.expand c)

(* Reference R completeness, as [Check.check_r] ran it before: every
   pair (S, N(S)) over the 2^n non-empty label subsets S is dominated
   by an emitted pair. *)
let reference_r_complete (p : Problem.t) (d : Rounde.denoted) =
  let compat = compat_of p in
  let n = Problem.label_count p in
  let denots = d.Rounde.denotations in
  let pairs = pairs_of d.Rounde.problem.Problem.edge in
  List.for_all
    (fun s ->
      let b =
        Labelset.filter
          (fun y -> Labelset.for_all (fun x -> compat.(x).(y)) s)
          (Labelset.full n)
      in
      Labelset.is_empty b
      || List.exists
           (fun (i, j) ->
             (Labelset.subset s denots.(i) && Labelset.subset b denots.(j))
             || (Labelset.subset s denots.(j) && Labelset.subset b denots.(i)))
           pairs)
    (Labelset.nonempty_subsets (Labelset.full n))

(* Distinct non-empty denotations, and every emitted pair valid and
   maximal: what [check_r] checks before completeness. *)
let reference_r_edges_ok (p : Problem.t) (d : Rounde.denoted) =
  let compat = compat_of p in
  let n = Problem.label_count p in
  let denots = d.Rounde.denotations in
  let partners s =
    Labelset.filter
      (fun y -> Labelset.for_all (fun x -> compat.(x).(y)) s)
      (Labelset.full n)
  in
  Array.for_all (fun s -> not (Labelset.is_empty s)) denots
  && List.length (List.sort_uniq Labelset.compare (Array.to_list denots))
     = Array.length denots
  && List.for_all
       (fun (i, j) ->
         Labelset.equal denots.(i) (partners denots.(j))
         && Labelset.equal denots.(j) (partners denots.(i)))
       (pairs_of d.Rounde.problem.Problem.edge)

let pair_line i j = Line.of_multiset (Multiset.of_list [ i; j ])

(* A random problem of up to 12 labels: each label pair is compatible
   with one probability, and one to three random node lines. *)
let gen_r_source rng =
  let int k = Random.State.int rng k in
  let n = 1 + int 12 in
  let density = 1 + int 4 in
  let edge =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if j >= i && int 5 < density then Some (pair_line i j) else None)
          (List.init n Fun.id))
      (List.init n Fun.id)
  in
  let edge = if edge = [] then [ pair_line 0 0 ] else edge in
  let set () = Labelset.of_bits (1 + int ((1 lsl n) - 1)) in
  let delta = 1 + int 3 in
  let node =
    List.init (1 + int 3) (fun _ -> Line.make (List.init delta (fun _ -> (set (), 1))))
  in
  Problem.make ~name:"random"
    ~alpha:(Alphabet.create (List.init n (Printf.sprintf "a%d")))
    ~node:(Constr.make node) ~edge:(Constr.make edge)

(* R(p) untampered, or with one edge pair dropped or added, or one
   denotation grown or shrunk by a source label. *)
let tamper_r rng (p : Problem.t) (d : Rounde.denoted) =
  let int k = Random.State.int rng k in
  let pairs = pairs_of d.Rounde.problem.Problem.edge in
  let n = Problem.label_count p and n' = Array.length d.Rounde.denotations in
  let edge_of pairs = with_edge d (List.map (fun (i, j) -> pair_line i j) pairs) in
  let denotation f =
    let k = int n' in
    with_denotation d
      (Alphabet.name d.Rounde.problem.Problem.alpha k)
      (fun s -> f s (int n))
  in
  match int 5 with
  | 1 when List.length pairs >= 2 ->
      let k = int (List.length pairs) in
      edge_of (List.filteri (fun i _ -> i <> k) pairs)
  | 2 ->
      let i = int n' and j = int n' in
      let pair = (min i j, max i j) in
      if List.mem pair pairs then d else edge_of (pair :: pairs)
  | 3 -> denotation (fun s z -> Labelset.add z s)
  | 4 -> denotation (fun s z -> Labelset.remove z s)
  | _ -> d

(* [check_r] accepts, or fails only at its node recomputation, exactly
   when the denotations, validity, maximality and the 2^n scan all
   pass; it reports a completeness violation exactly when all but the
   scan pass. *)
(* The crown on x1..x4 and y1..y4 (x_i and y_j compatible iff i <> j):
   R's pair ({x1, x2}, {y3, y4}) has two sides that are no N({z}), so
   only the intersection half of the closure test misses it. *)
let test_crown_dropped_pair () =
  let lines =
    List.init 4 (fun i ->
        Printf.sprintf "x%d [%s]" (i + 1)
          (String.concat " "
             (List.filter_map
                (fun j -> if i <> j then Some (Printf.sprintf "y%d" (j + 1)) else None)
                (List.init 4 Fun.id))))
  in
  let text = String.concat "\n" lines in
  let p = Parse.problem ~name:"crown4" ~node:text ~edge:text in
  let d = Rounde.r p in
  let label names =
    let s = Labelset.of_list (List.map (Alphabet.find p.Problem.alpha) names) in
    let i = ref (-1) in
    Array.iteri (fun k t -> if Labelset.equal s t then i := k) d.Rounde.denotations;
    !i
  in
  let dropped = Multiset.of_list [ label [ "x1"; "x2" ]; label [ "y3"; "y4" ] ] in
  let kept =
    List.filter_map
      (fun m -> if Multiset.equal m dropped then None else Some (Line.of_multiset m))
      (Constr.expand d.Rounde.problem.Problem.edge)
  in
  check_int "one pair dropped"
    (List.length (Constr.expand d.Rounde.problem.Problem.edge) - 1)
    (List.length kept);
  check_violation "crown pair caught"
    "R certificate (crown4): valid pair (y3,y4, x1,x2) is dominated by no emitted pair"
    (fun () -> Certify.Check.check_r ~source:p (with_edge d kept))

let r_completeness_qcheck =
  [
    QCheck.Test.make ~name:"R-completeness-equals-subset-scan" ~count:300
      QCheck.(int_range 0 1_000_000)
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let p = gen_r_source rng in
        match Rounde.r p with
        | exception (Budget.Budget_exceeded _ | Failure _) -> true
        | d -> (
            let d = tamper_r rng p d in
            let edges_ok = reference_r_edges_ok p d in
            let complete = reference_r_complete p d in
            match violation (fun () -> Certify.Check.check_r ~source:p d) with
            | None -> edges_ok && complete
            | Some m when contains ~sub:completeness_message m -> edges_ok && not complete
            | Some m when contains ~sub:"node configuration" m -> edges_ok && complete
            | Some _ -> not edges_ok));
  ]

(* Reference R̄ non-dominance, as [Check.check_rbar] ran it before: no
   box injectively embeds, set by set into supersets, into another. *)
let reference_box_dominated bi bj =
  let d = Array.length bj in
  let used = Array.make d false in
  let rec go = function
    | [] -> true
    | s :: rest ->
        let rec try_slot j =
          if j >= d then false
          else if (not used.(j)) && Labelset.subset s bj.(j) then begin
            used.(j) <- true;
            if go rest then true
            else begin
              used.(j) <- false;
              try_slot (j + 1)
            end
          end
          else try_slot (j + 1)
        in
        try_slot 0
  in
  go (Array.to_list bi)

let reference_no_dominated_box (d : Rounde.denoted) =
  let boxes =
    List.concat_map
      (fun line ->
        let acc = ref [] in
        Line.expand line (fun m ->
            acc :=
              Array.of_list
                (List.map (fun l -> d.Rounde.denotations.(l)) (Multiset.to_list m))
              :: !acc);
        !acc)
      (Constr.lines d.Rounde.problem.Problem.node)
    |> Array.of_list
  in
  let nb = Array.length boxes in
  let dominated = ref false in
  for i = 0 to nb - 1 do
    for j = 0 to nb - 1 do
      if i <> j && reference_box_dominated boxes.(i) boxes.(j) then dominated := true
    done
  done;
  not !dominated

(* R̄(r) untampered, or with a box dropped, a copy of a box with one
   set shrunk added (under a fresh label when no label denotes the
   smaller set), or a box split into a disjunctive line. *)
let tamper_rbar rng (d : Rounde.denoted) =
  let int k = Random.State.int rng k in
  let q = d.Rounde.problem in
  let lines = Constr.lines q.Problem.node in
  let line = List.nth lines (int (List.length lines)) in
  let labels = Array.of_list (Multiset.to_list (Option.get (Line.to_multiset line))) in
  let slot = int (Array.length labels) in
  let denots = d.Rounde.denotations in
  let n' = Array.length denots in
  let replace_slot l =
    Line.of_multiset
      (Multiset.of_list
         (Array.to_list (Array.mapi (fun k x -> if k = slot then l else x) labels)))
  in
  match int 4 with
  | 1 when List.length lines >= 2 -> with_node d (List.filter (fun l -> l != line) lines)
  | 2 when Labelset.cardinal denots.(labels.(slot)) >= 2 -> (
      let s = denots.(labels.(slot)) in
      let elements = Labelset.elements s in
      let smaller = Labelset.remove (List.nth elements (int (List.length elements))) s in
      match
        List.find_opt (fun l -> Labelset.equal denots.(l) smaller) (List.init n' Fun.id)
      with
      | Some l -> with_node d (replace_slot l :: lines)
      | None ->
          let names = List.init n' (Alphabet.name q.Problem.alpha) in
          {
            Rounde.problem =
              Problem.make ~name:q.Problem.name
                ~alpha:(Alphabet.create (names @ [ "shrunk" ]))
                ~node:(Constr.make (replace_slot n' :: lines))
                ~edge:q.Problem.edge;
            denotations = Array.append denots [| smaller |];
          })
  | 3 when n' >= 2 ->
      let other = (labels.(slot) + 1 + int (n' - 1)) mod n' in
      let groups =
        Array.to_list
          (Array.mapi
             (fun k x ->
               if k = slot then (Labelset.of_list [ x; other ], 1)
               else (Labelset.singleton x, 1))
             labels)
      in
      with_node d (Line.make groups :: List.filter (fun l -> l != line) lines)
  | _ -> d

(* Whenever [check_rbar]'s validity and maximality scan runs to the
   end and passes, the pairwise scan finds no dominated box. *)
let rbar_nondominance_qcheck =
  [
    QCheck.Test.make ~name:"Rbar-valid-maximal-boxes-nondominated" ~count:300
      QCheck.(int_range 0 1_000_000)
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let p = Certify.Fuzz.gen_problem rng in
        match
          let r = (Rounde.r p).Rounde.problem in
          (r, Rounde.rbar ~pool:sequential r)
        with
        | exception (Budget.Budget_exceeded _ | Failure _) -> true
        | r, d ->
            let d = tamper_rbar rng d in
            let before = Certify.Check.stats.Certify.Check.skipped_subchecks in
            let v = violation (fun () -> Certify.Check.check_rbar ~source:r d) in
            let scanned = Certify.Check.stats.Certify.Check.skipped_subchecks = before in
            let passed =
              match v with
              | None -> true
              | Some m ->
                  contains ~sub:"covered by no box" m || contains ~sub:"compatible choice" m
            in
            not (scanned && passed) || reference_no_dominated_box d);
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
          Alcotest.test_case "wide R completeness checked" `Quick
            test_wide_completeness_checked;
          Alcotest.test_case "Pi step certificates pinned" `Quick
            test_pi_steps_pinned;
        ] );
      ( "tampering",
        [
          Alcotest.test_case "shrunk denotation" `Quick test_tampered_denotation;
          Alcotest.test_case "dropped edge pair" `Quick test_dropped_edge_pair;
          Alcotest.test_case "threshold R without a pair" `Quick
            test_threshold_dropped_pair;
          Alcotest.test_case "crown R without a pair" `Quick test_crown_dropped_pair;
          Alcotest.test_case "dropped Rbar box" `Quick test_tampered_rbar_box;
          Alcotest.test_case "bogus zero-round verdicts" `Quick
            test_tampered_zero_round;
          Alcotest.test_case "dropped node line" `Quick test_dropped_node_line;
          Alcotest.test_case "added node configuration" `Quick
            test_added_node_configuration;
          Alcotest.test_case "widened Rbar denotation" `Quick
            test_widened_denotation;
          Alcotest.test_case "narrowed Rbar denotation" `Quick
            test_narrowed_denotation;
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
      qsuite "membership-props" membership_qcheck;
      qsuite "replaced-scans" (r_completeness_qcheck @ rbar_nondominance_qcheck);
    ]
