(* Equivalence suite for the hash-consed ZDD engine (lib/zdd) and its
   wiring into the round-elimination hot paths.

   The contract under test is byte-identity: on every instance both
   paths can handle, the ZDD-backed variants must reproduce the
   explicit-list results exactly — same sets, same order, same
   serialized problems, same counters — while extending the capacity
   envelope past the explicit path's budgets (the "Δ wall"). *)

open Relim

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Reference model: a family as a sorted list of masks                 *)
(* ------------------------------------------------------------------ *)

module IntSet = Set.Make (Int)

let family_of_zdd mgr z = IntSet.of_list (Zdd.elements mgr z)

let zdd_of_family mgr fam =
  IntSet.fold (fun m acc -> Zdd.union mgr acc (Zdd.of_mask mgr m)) fam Zdd.bot

let ref_join a b =
  IntSet.fold
    (fun x acc -> IntSet.fold (fun y acc -> IntSet.add (x lor y) acc) b acc)
    a IntSet.empty

let ref_meet a b =
  IntSet.fold
    (fun x acc -> IntSet.fold (fun y acc -> IntSet.add (x land y) acc) b acc)
    a IntSet.empty

let ref_maximal fam =
  IntSet.filter
    (fun x ->
      not
        (IntSet.exists (fun y -> x <> y && x land y = x && x lor y = y) fam))
    fam

(* ------------------------------------------------------------------ *)
(* Core engine: unit cases                                             *)
(* ------------------------------------------------------------------ *)

let test_zdd_basics () =
  let mgr = Zdd.create ~nbits:6 () in
  check_int "bot count" 0 (Zdd.count mgr Zdd.bot);
  check_int "top count" 1 (Zdd.count mgr Zdd.top);
  check Alcotest.(list int) "top elements" [ 0 ] (Zdd.elements mgr Zdd.top);
  let ps = Zdd.powerset mgr 0b101011 in
  check_int "powerset count" 16 (Zdd.count mgr ps);
  check_int "powerset nodes" 4 (Zdd.node_count mgr ps);
  check_bool "powerset mem" true (Zdd.mem mgr ps 0b100010);
  check_bool "powerset not mem" false (Zdd.mem mgr ps 0b000100);
  (* canonical: same family built two ways is physically equal *)
  let a = Zdd.union mgr (Zdd.of_mask mgr 5) (Zdd.of_mask mgr 3) in
  let b = Zdd.union mgr (Zdd.of_mask mgr 3) (Zdd.of_mask mgr 5) in
  check_bool "canonical" true (Zdd.equal a b);
  check Alcotest.(list int) "sorted enumeration" [ 3; 5 ]
    (Zdd.elements mgr a)

let test_zdd_node_limit () =
  let mgr = Zdd.create ~node_limit:8 ~nbits:20 () in
  match Zdd.powerset mgr ((1 lsl 20) - 1) with
  | _ -> Alcotest.fail "expected Limit"
  | exception Zdd.Limit { what; limit; realized } ->
      check_bool "names the table" true (contains ~sub:"unique-table" what);
      check_bool "echoes the limit" true (limit = 8.);
      check_bool "realized at the cap" true (realized >= 8)

let test_zdd_iter_limit () =
  let mgr = Zdd.create ~nbits:5 () in
  let ps = Zdd.powerset mgr 0b11111 in
  (* exactly at the cardinality: no trip *)
  let n = ref 0 in
  Zdd.iter ~limit:32 mgr ps (fun _ -> incr n);
  check_int "limit = count passes" 32 !n;
  (* one below: trips with the realized count in the payload *)
  match Zdd.iter ~limit:7 mgr ps (fun _ -> ()) with
  | () -> Alcotest.fail "expected Limit"
  | exception Zdd.Limit { realized; limit; _ } ->
      check_int "realized = limit" 7 realized;
      check_bool "limit echoed" true (limit = 7.)

(* ------------------------------------------------------------------ *)
(* Core engine: every operation vs the reference model                 *)
(* ------------------------------------------------------------------ *)

let zdd_qcheck =
  let nbits = 8 in
  let gen_family =
    QCheck.(
      map IntSet.of_list (list_of_size Gen.(0 -- 12) (int_bound 255)))
  in
  let mk () = Zdd.create ~nbits () in
  let eq mgr z fam = IntSet.equal (family_of_zdd mgr z) fam in
  [
    QCheck.Test.make ~name:"roundtrip" ~count:300 gen_family (fun fam ->
        let mgr = mk () in
        eq mgr (zdd_of_family mgr fam) fam);
    QCheck.Test.make ~name:"union/inter/diff = set ops" ~count:300
      (QCheck.pair gen_family gen_family) (fun (a, b) ->
        let mgr = mk () in
        let za = zdd_of_family mgr a and zb = zdd_of_family mgr b in
        eq mgr (Zdd.union mgr za zb) (IntSet.union a b)
        && eq mgr (Zdd.inter mgr za zb) (IntSet.inter a b)
        && eq mgr (Zdd.diff mgr za zb) (IntSet.diff a b));
    QCheck.Test.make ~name:"join/meet = pointwise or/and" ~count:300
      (QCheck.pair gen_family gen_family) (fun (a, b) ->
        let mgr = mk () in
        let za = zdd_of_family mgr a and zb = zdd_of_family mgr b in
        eq mgr (Zdd.join mgr za zb) (ref_join a b)
        && eq mgr (Zdd.meet mgr za zb) (ref_meet a b));
    QCheck.Test.make ~name:"onset/offset = bit filters" ~count:300
      (QCheck.pair gen_family (QCheck.int_bound (nbits - 1)))
      (fun (a, l) ->
        let mgr = mk () in
        let za = zdd_of_family mgr a in
        eq mgr (Zdd.onset mgr l za)
          (IntSet.filter (fun x -> x land (1 lsl l) <> 0) a)
        && eq mgr (Zdd.offset mgr l za)
             (IntSet.filter (fun x -> x land (1 lsl l) = 0) a));
    QCheck.Test.make ~name:"subsets_within = subset filter" ~count:300
      (QCheck.pair gen_family (QCheck.int_bound 255))
      (fun (a, s) ->
        let mgr = mk () in
        eq mgr
          (Zdd.subsets_within mgr (zdd_of_family mgr a) s)
          (IntSet.filter (fun x -> x land s = x) a));
    QCheck.Test.make ~name:"maximal = antichain of maximal members"
      ~count:300 gen_family (fun a ->
        let mgr = mk () in
        eq mgr (Zdd.maximal mgr (zdd_of_family mgr a)) (ref_maximal a));
    QCheck.Test.make ~name:"count/mem/sorted-iter" ~count:300
      (QCheck.pair gen_family (QCheck.int_bound 255))
      (fun (a, probe) ->
        let mgr = mk () in
        let za = zdd_of_family mgr a in
        Zdd.count mgr za = IntSet.cardinal a
        && Zdd.mem mgr za probe = IntSet.mem probe a
        && Zdd.elements mgr za = IntSet.elements a);
    QCheck.Test.make ~name:"iter_ge = sorted suffix" ~count:300
      (QCheck.pair gen_family (QCheck.int_bound 255))
      (fun (a, from) ->
        let mgr = mk () in
        let za = zdd_of_family mgr a in
        let got = ref [] in
        Zdd.iter_ge mgr za ~from (fun x -> got := x :: !got);
        List.rev !got = List.filter (fun x -> x >= from) (IntSet.elements a));
  ]

(* ------------------------------------------------------------------ *)
(* Right-closed families: ZDD vs order-ideal enumeration               *)
(* ------------------------------------------------------------------ *)

(* Random Δ = 2 problems over 4 labels: the edge constraint is a random
   non-empty set of unordered label pairs (every label used at least
   once so the alphabet survives parsing), giving edge diagrams that
   range over chains, antichains and everything between. *)
let gen_edge_problem =
  let names = [| "a"; "b"; "c"; "d" |] in
  let all_pairs =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if j >= i then Some (i, j) else None)
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  QCheck.map
    (fun bits ->
      let chosen =
        List.filteri (fun idx _ -> bits land (1 lsl idx) <> 0) all_pairs
      in
      (* guarantee every label appears: always include (0,1) and (2,3) *)
      let chosen =
        List.sort_uniq compare ((0, 1) :: (2, 3) :: chosen)
      in
      let edge =
        String.concat "\n"
          (List.map
             (fun (i, j) -> Printf.sprintf "%s %s" names.(i) names.(j))
             chosen)
      in
      Parse.problem ~name:"rand" ~node:"[a b c d] [a b c d]" ~edge)
    QCheck.(int_bound 1023)

let rc_sets_equal d =
  let explicit = Diagram.right_closed_sets d in
  let zdd = Diagram.right_closed_sets_zdd d in
  List.equal Labelset.equal explicit zdd

let rc_qcheck =
  [
    QCheck.Test.make ~name:"right_closed_sets_zdd = explicit (random edge \
                            diagrams)" ~count:300 gen_edge_problem (fun p ->
        rc_sets_equal (Diagram.edge_diagram p));
  ]

(* Δ = 2 problem whose node diagram is the chain l0 < … < l(n-1); same
   construction as the relim suite.  24 labels — past the seed's old
   hard caps — has exactly 24 right-closed sets (the suffixes). *)
let chain_problem n =
  let name i = Printf.sprintf "l%d" i in
  let names = List.init n name in
  let all = String.concat " " names in
  let node =
    String.concat "\n"
      (List.init n (fun i ->
           match List.filteri (fun j _ -> i + j >= n - 1) names with
           | [ only ] -> Printf.sprintf "%s %s" (name i) only
           | partners ->
               Printf.sprintf "%s [%s]" (name i) (String.concat " " partners)))
  in
  Parse.problem
    ~name:(Printf.sprintf "chain%d" n)
    ~node
    ~edge:(Printf.sprintf "[%s] [%s]" all all)

(* Complete graph k-coloring: the node constraint is monochromatic, the
   edge constraint all distinct pairs, so the node diagram is a
   k-antichain and the right-closed family has 2^k - 1 members — an
   exponentially large family with a k-node ZDD.  R̄(col_k) = col_k. *)
let col_problem k =
  let name i = Printf.sprintf "c%d" i in
  let node =
    String.concat "\n"
      (List.init k (fun i ->
           Printf.sprintf "%s %s %s" (name i) (name i) (name i)))
  in
  let edge =
    String.concat "\n"
      (List.concat_map
         (fun i ->
           List.filter_map
             (fun j ->
               if i < j then Some (Printf.sprintf "%s %s" (name i) (name j))
               else None)
             (List.init k Fun.id))
         (List.init k Fun.id))
  in
  Parse.problem ~name:(Printf.sprintf "col%d" k) ~node ~edge

let test_rc_chain24 () =
  let n = 24 in
  let d = Diagram.node_diagram (chain_problem n) in
  check_bool "chain24 families agree" true (rc_sets_equal d);
  check_int "chain24 has n suffixes" n
    (List.length (Diagram.right_closed_sets_zdd d));
  (* compressed size: the n suffix sets share their tails, so the
     diagram stays linear (measured: 2n - 3 nodes) *)
  let mgr, fam = Diagram.right_closed_family d in
  check_int "chain24 counts without enumeration" n (Zdd.count mgr fam);
  check_bool "linear node count" true (Zdd.node_count mgr fam <= 2 * n)

let test_rc_antichain_compression () =
  let k = 16 in
  let d = Diagram.node_diagram (col_problem k) in
  let mgr, fam = Diagram.right_closed_family d in
  check_int "2^k - 1 members" ((1 lsl k) - 1) (Zdd.count mgr fam);
  (* "all non-empty subsets" needs one chain per bit plus a spine
     tracking "some bit already set": ≤ 2k nodes for 2^k - 1 members *)
  check_bool "O(k)-node representation" true (Zdd.node_count mgr fam <= 2 * k)

let test_rc_zdd_budgets () =
  let d = Diagram.node_diagram (col_problem 12) in
  (* set-count budget carries the realized count, like the explicit
     path's message (both feed the same bench/validate checks) *)
  (match Diagram.right_closed_sets_zdd ~limit:100 d with
  | _ -> Alcotest.fail "expected Budget_exceeded"
  | exception Budget.Budget_exceeded { budget; limit } ->
      check_bool "realized in payload" true
        (contains ~sub:"(realized 100)" budget);
      check_bool "limit echoed" true (limit = 100.));
  (* node budget trips as a Budget_exceeded, not a raw Zdd.Limit *)
  match Diagram.right_closed_family ~node_limit:4 d with
  | _ -> Alcotest.fail "expected Budget_exceeded"
  | exception Budget.Budget_exceeded { budget; _ } ->
      check_bool "names the table" true (contains ~sub:"unique-table" budget)

let test_rc_explicit_realized_payload () =
  let d = Diagram.node_diagram (col_problem 8) in
  match Diagram.right_closed_sets ~limit:9 d with
  | _ -> Alcotest.fail "expected Budget_exceeded"
  | exception Budget.Budget_exceeded { budget; _ } ->
      check_bool "realized in payload" true
        (contains ~sub:"(realized 9)" budget)

(* ------------------------------------------------------------------ *)
(* Engine parity: rbar / step with and without the ZDD path            *)
(* ------------------------------------------------------------------ *)

let mis3 =
  Parse.problem ~name:"mis" ~node:"M M M\nP O O\nP P O\nP P P"
    ~edge:"M [PO]\nO O"

let so3 = Parse.problem ~name:"so" ~node:"H T T\nH H T\nH H H" ~edge:"H T"

(* [boxes_emitted] is deliberately absent: since PR 10 the fully
   symbolic path emits only the surviving boxes, so the counter is
   engine-dependent (see Rounde.rbar).  [rc_sets] stays in the
   contract — the symbolic path counts the same right-closed family
   via [Diagram.right_closed_count] without materializing it. *)
type outcome =
  | Done of string * Labelset.t list * int
      (** serialized problem, denotations, rc_sets *)
  | Tripped of string

let run_step ?rc_limit ~zdd p =
  Rounde.reset_stats ();
  match Rounde.step ?rc_limit ~zdd p with
  | { Rounde.problem; denotations } ->
      Done
        ( Serialize.to_string problem,
          Array.to_list denotations,
          Rounde.stats.Rounde.rc_sets )
  | exception Budget.Budget_exceeded { budget; _ } -> Tripped budget

let run_rbar ?rc_limit ~zdd p =
  Rounde.reset_stats ();
  match Rounde.rbar ?rc_limit ~zdd p with
  | { Rounde.problem; denotations } ->
      Done
        ( Serialize.to_string problem,
          Array.to_list denotations,
          Rounde.stats.Rounde.rc_sets )
  | exception Budget.Budget_exceeded { budget; _ } -> Tripped budget

let check_parity ~what run p =
  let explicit = run ~zdd:false p and zdd = run ~zdd:true p in
  (match explicit with
  | Done _ -> ()
  | Tripped b -> Alcotest.failf "%s: explicit path tripped %s" what b);
  check_bool (what ^ ": byte-identical") true (explicit = zdd)

let test_step_parity_presets () =
  check_parity ~what:"mis3 step" (fun ~zdd p -> run_step ~zdd p) mis3;
  (* the MIS step runs fully symbolically: pin its engine-dependent
     counters.  27 allowed tuples, 167 valid boxes (arrangements
     counted), 8 maximal arrangements, 4 canonical maximal boxes —
     and only those 4 survivors were ever materialized *)
  ignore (run_step ~zdd:true mis3);
  let s = Rounde.stats in
  check_int "mis3 maxbox tuples" 27 s.Rounde.maxbox_tuples;
  check_int "mis3 maxbox cubes" 167 s.Rounde.maxbox_cubes;
  check_int "mis3 maxbox maximal" 8 s.Rounde.maxbox_maximal;
  check_int "mis3 maxbox enumerated" 4 s.Rounde.maxbox_enumerated;
  check_int "mis3 emits only survivors" 4 s.Rounde.boxes_emitted;
  check_parity ~what:"so3 step" (fun ~zdd p -> run_step ~zdd p) so3;
  (* two iterated speedup steps of MIS: the diagrams get irregular *)
  let p1 = (Rounde.step mis3).Rounde.problem in
  check_parity ~what:"mis3 step^2" (fun ~zdd p -> run_step ~zdd p) p1;
  (* the third speedup step is past the explicit wall — pin how each
     engine reports.  The DFS drowns in box enumeration work; the
     compressed path enumerates the boxes cheaply (the R̄ alphabet here
     is 46 labels wide, past the Δ·n ≤ 62 slot envelope) and
     trips on the quadratic dominance scan instead — the scan-work
     budget that turned a minutes-long discarded scan into an instant
     verdict in PR 10. *)
  let p2 = (Rounde.step p1).Rounde.problem in
  (match run_step ~zdd:false p2 with
  | Done _ -> Alcotest.fail "mis3 step^3 should exceed the explicit budget"
  | Tripped budget ->
      check_bool "explicit: box work" true
        (contains ~sub:"box enumeration work" budget));
  match run_step ~zdd:true p2 with
  | Done _ -> Alcotest.fail "mis3 step^3 should exceed the scan budget"
  | Tripped budget ->
      check_bool "zdd: maximal box scan work" true
        (contains ~sub:"maximal box scan work (zdd)" budget)

let test_rbar_parity_families () =
  List.iter
    (fun k ->
      check_parity
        ~what:(Printf.sprintf "col%d rbar" k)
        (fun ~zdd p -> run_rbar ~zdd p)
        (col_problem k))
    [ 2; 4; 6; 8; 10 ];
  List.iter
    (fun n ->
      check_parity
        ~what:(Printf.sprintf "chain%d rbar" n)
        (fun ~zdd p -> run_rbar ~zdd p)
        (chain_problem n))
    [ 4; 10; 24 ]

(* every library preset the pipeline ships, at the Δs the sweep grids
   use: the full step must be byte-identical across engines on all of
   them (the symbolic rung handles the exact-diagram ones, the
   streaming rung the rest — which rung ran is invisible here, as it
   must be) *)
let test_step_parity_all_presets () =
  let presets =
    [
      Lcl.Encodings.mis ~delta:2;
      Lcl.Encodings.mis ~delta:3;
      Lcl.Encodings.sinkless_orientation ~delta:3;
      Lcl.Encodings.sinkless_orientation ~delta:4;
      Lcl.Encodings.maximal_matching ~delta:2;
      Lcl.Encodings.maximal_matching ~delta:3;
      Lcl.Encodings.coloring ~delta:3 ~colors:3;
      Lcl.Encodings.coloring ~delta:3 ~colors:4;
      Lcl.Encodings.weak_2_coloring ~delta:3;
      Core.Family.pi { Core.Family.delta = 3; a = 2; x = 1 };
      Core.Family.pi { Core.Family.delta = 4; a = 3; x = 2 };
      Core.Family.pi_plus { Core.Family.delta = 4; a = 3; x = 1 };
      Core.Family.pi_plus { Core.Family.delta = 5; a = 4; x = 2 };
    ]
  in
  List.iter
    (fun p ->
      let what = Printf.sprintf "%s step" p.Problem.name in
      let explicit = run_step ~zdd:false p in
      let zdd = run_step ~zdd:true p in
      (match explicit with
      | Done _ -> ()
      | Tripped b ->
          (* the output-alphabet-width budget is engine-independent
             (both paths produce the same boxes), so a preset past it —
             4-coloring at Δ=3 — must trip identically on both *)
          check_bool
            (what ^ ": only the width budget may trip")
            true
            (contains ~sub:"output alphabet width" b));
      check_bool (what ^ ": byte-identical") true (explicit = zdd))
    presets

let rbar_parity_qcheck =
  [
    (* R images of random 4-label problems have up to 15 set-labels, so
       their R̄ instances range over genuinely irregular diagrams.  A
       small [rc_limit] keeps the search fast: instances past it are
       skipped (the deterministic chain / coloring cases cover the
       heavy end), everything the explicit path completes must be
       reproduced byte-for-byte. *)
    QCheck.Test.make ~name:"rbar parity on random edge problems" ~count:60
      gen_edge_problem (fun p ->
        match Rounde.r p with
        | exception Failure _ -> true (* dead node constraint: no R image *)
        | { Rounde.problem = p'; _ } -> (
            match run_rbar ~rc_limit:500 ~zdd:false p' with
            | Tripped _ -> true
            | Done _ as explicit ->
                explicit = run_rbar ~rc_limit:500 ~zdd:true p'));
    (* the same contract one level up: a full speedup step R̄ ∘ R *)
    QCheck.Test.make ~name:"step parity on random edge problems" ~count:40
      gen_edge_problem (fun p ->
        match run_step ~rc_limit:500 ~zdd:false p with
        | exception Failure _ -> true (* dead node constraint: no R image *)
        | Tripped _ -> true
        | Done _ as explicit -> explicit = run_step ~rc_limit:500 ~zdd:true p);
  ]

(* ------------------------------------------------------------------ *)
(* Slotted (multi-slot) families vs brute force                        *)
(* ------------------------------------------------------------------ *)

(* Δ = 3 slots of 3 labels each: small enough to enumerate all 7³
   boxes and all 3³ transversal tuples explicitly, wide enough to
   exercise every slot boundary. *)
let lay3x3 = Zdd.layout ~slots:3 ~width:3

let mgr_for lay = Zdd.create ~nbits:(Zdd.layout_bits lay) ()

let gen_slot_masks =
  QCheck.(
    map
      (fun (a, b, c) -> [| a; b; c |])
      (triple (int_bound 7) (int_bound 7) (int_bound 7)))

(* a relation T as an explicit set of transversal tuples (one label
   per slot, labels in 0..2) *)
let gen_tuples =
  QCheck.(
    list_of_size
      Gen.(0 -- 8)
      (triple (int_bound 2) (int_bound 2) (int_bound 2)))

let encode_tuple lay (l0, l1, l2) =
  Zdd.encode_slots lay [| 1 lsl l0; 1 lsl l1; 1 lsl l2 |]

let zdd_of_tuples mgr lay tuples =
  List.fold_left
    (fun acc t -> Zdd.union mgr acc (Zdd.of_mask mgr (encode_tuple lay t)))
    Zdd.bot tuples

let bits mask = List.filter (fun l -> mask land (1 lsl l) <> 0) [ 0; 1; 2 ]

(* all transversals of a 3-slot box, as tuples *)
let transversals masks =
  List.concat_map
    (fun l0 ->
      List.concat_map
        (fun l1 -> List.map (fun l2 -> (l0, l1, l2)) (bits masks.(2)))
        (bits masks.(1)))
    (bits masks.(0))

let cofactor_qcheck =
  let gen_family =
    QCheck.(map IntSet.of_list (list_of_size Gen.(0 -- 12) (int_bound 255)))
  in
  [
    QCheck.Test.make ~name:"cofactor = reference model" ~count:200
      QCheck.(pair (int_bound 7) gen_family)
      (fun (l, fam) ->
        let mgr = Zdd.create ~nbits:8 () in
        let z = zdd_of_family mgr fam in
        let expect =
          IntSet.filter_map
            (fun x ->
              if x land (1 lsl l) <> 0 then Some (x land lnot (1 lsl l))
              else None)
            fam
        in
        IntSet.equal expect (family_of_zdd mgr (Zdd.cofactor mgr l z)));
  ]

let test_slotted_encoding () =
  let lay = lay3x3 in
  check_int "layout bits" 9 (Zdd.layout_bits lay);
  (* slot 0 is the most significant block *)
  check_int "slot 0 label 0 bit" 6 (Zdd.slot_bit lay ~slot:0 ~label:0);
  check_int "slot 2 label 2 bit" 2 (Zdd.slot_bit lay ~slot:2 ~label:2);
  check_int "packing" ((0b101 lsl 6) lor (0b001 lsl 3) lor 0b110)
    (Zdd.encode_slots lay [| 0b101; 0b001; 0b110 |]);
  (* out-of-envelope layouts are rejected at construction *)
  (match Zdd.layout ~slots:21 ~width:3 with
  | _ -> Alcotest.fail "63-bit layout must be rejected"
  | exception Invalid_argument _ -> ())

let slotted_qcheck =
  [
    QCheck.Test.make ~name:"encode/decode roundtrip, numeric = lex order"
      ~count:200
      QCheck.(pair gen_slot_masks gen_slot_masks)
      (fun (a, b) ->
        let lay = lay3x3 in
        let ea = Zdd.encode_slots lay a and eb = Zdd.encode_slots lay b in
        Zdd.decode_slots lay ea = a
        && compare ea eb = compare (Array.to_list a) (Array.to_list b));
    QCheck.Test.make ~name:"one_per_slot = brute-force transversals"
      ~count:200 gen_slot_masks (fun masks ->
        let lay = lay3x3 in
        let mgr = mgr_for lay in
        let expect =
          IntSet.of_list
            (List.map (encode_tuple lay) (transversals masks))
        in
        IntSet.equal expect
          (family_of_zdd mgr (Zdd.one_per_slot mgr lay masks)));
    QCheck.Test.make ~name:"Zdd.boxes = brute-force valid boxes" ~count:150
      gen_tuples (fun tuples ->
        let lay = lay3x3 in
        let mgr = mgr_for lay in
        let t = zdd_of_tuples mgr lay tuples in
        let allowed = List.sort_uniq compare tuples in
        (* reference: every all-non-empty box whose transversals all
           lie in the relation *)
        let expect = ref IntSet.empty in
        for m0 = 1 to 7 do
          for m1 = 1 to 7 do
            for m2 = 1 to 7 do
              let masks = [| m0; m1; m2 |] in
              if
                List.for_all
                  (fun tu -> List.mem tu allowed)
                  (transversals masks)
              then
                expect :=
                  IntSet.add (Zdd.encode_slots lay masks) !expect
            done
          done
        done;
        IntSet.equal !expect (family_of_zdd mgr (Zdd.boxes mgr lay t)));
    (* the tentpole theorem: on a permutation-closed slotted family,
       Coudert maximal-set extraction answers exactly the box-dominance
       verdict (∃ an injective matching of the box's slots into
       supersets ⟺ ∃ a slot permutation σ with bᵢ ⊆ σ(c)ᵢ ⟺ strict
       encoding containment) — no transportation matching needed *)
    QCheck.Test.make ~name:"slotted maximal = permutation dominance"
      ~count:150
      QCheck.(
        list_of_size
          Gen.(1 -- 5)
          (map
             (fun (a, b, c) -> [| a; b; c |])
             (triple (int_range 1 7) (int_range 1 7) (int_range 1 7))))
      (fun boxes ->
        let lay = lay3x3 in
        let mgr = mgr_for lay in
        let perms =
          [
            [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |];
            [| 1; 2; 0 |]; [| 2; 0; 1 |]; [| 2; 1; 0 |];
          ]
        in
        let permute p c = Array.init 3 (fun i -> c.(p.(i))) in
        (* the orbit closure: all slot arrangements of all boxes *)
        let fam =
          List.fold_left
            (fun acc c ->
              List.fold_left
                (fun acc p ->
                  Zdd.union mgr acc
                    (Zdd.of_mask mgr (Zdd.encode_slots lay (permute p c))))
                acc perms)
            Zdd.bot boxes
        in
        let maxf = Zdd.maximal mgr fam in
        let canonical b =
          let s = Array.copy b in
          Array.sort compare s;
          s
        in
        let subset x y = x land y = x in
        (* reference verdict by direct permutation matching *)
        let dominated b =
          List.exists
            (fun c ->
              List.exists
                (fun p ->
                  let cp = permute p c in
                  Array.for_all2 subset b cp && b <> cp)
                perms)
            boxes
        in
        List.for_all
          (fun b ->
            let cb = canonical b in
            Zdd.mem mgr maxf (Zdd.encode_slots lay cb)
            = not (dominated cb))
          boxes);
  ]

let test_boxes_work_limit () =
  (* the construction budget trips as Zdd.Limit with the realized
     count, which Rounde translates into its budget payload *)
  let lay = Zdd.layout ~slots:3 ~width:6 in
  let mgr = mgr_for lay in
  let full = [| 0b111111; 0b111111; 0b111111 |] in
  let t = Zdd.one_per_slot mgr lay full in
  match Zdd.boxes ~work_limit:5 mgr lay t with
  | _ -> Alcotest.fail "expected Zdd.Limit"
  | exception Zdd.Limit { what; limit; realized } ->
      check Alcotest.string "budget name" "Zdd.boxes: construction work" what;
      check_bool "limit echoed" true (limit = 5.);
      check_bool "realized at the limit" true (realized >= 5)

(* ------------------------------------------------------------------ *)
(* Breaking the Δ wall                                                 *)
(* ------------------------------------------------------------------ *)

let test_wall_col18 () =
  let p = col_problem 18 in
  (* explicit path: the 2^18 - 1 right-closed sets blow the rc budget *)
  (match run_rbar ~zdd:false p with
  | Done _ -> Alcotest.fail "col18 must trip the explicit rc budget"
  | Tripped budget ->
      check_bool "trips the rc budget" true (contains ~sub:"right-closed" budget);
      check_bool "realized count in payload" true
        (contains ~sub:"realized" budget));
  (* ZDD path: completes, and R̄(col_k) = col_k *)
  match run_rbar ~zdd:true p with
  | Tripped budget -> Alcotest.failf "col18 tripped on the zdd path: %s" budget
  | Done (_, denotations, rc_sets) ->
      check_int "rc family counted in full" ((1 lsl 18) - 1) rc_sets;
      check_int "one box per color" 18 Rounde.stats.Rounde.boxes_emitted;
      check_int "singleton denotations" 18 (List.length denotations)

let test_wall_col19_symbolic () =
  (* one past the PR 8 wall: the streaming engine used to trip "box
     enumeration work (zdd)" here.  Δ·n = 57 ≤ 62, so the fully
     symbolic output side takes over and the instance completes — the
     family of 2^19 - 1 right-closed sets and the 19-fold tuple
     relation are never materialized. *)
  let p = col_problem 19 in
  (match run_rbar ~zdd:false p with
  | Done _ -> Alcotest.fail "col19 must trip the explicit rc budget"
  | Tripped budget ->
      check_bool "explicit still trips the rc budget" true
        (contains ~sub:"right-closed" budget));
  match run_rbar ~zdd:true p with
  | Tripped budget -> Alcotest.failf "col19 tripped on the zdd path: %s" budget
  | Done (_, denotations, rc_sets) ->
      check_int "rc family counted in full" ((1 lsl 19) - 1) rc_sets;
      check_int "singleton denotations" 19 (List.length denotations);
      let s = Rounde.stats in
      check_int "allowed tuples" 19 s.Rounde.maxbox_tuples;
      check_int "valid cubes" 19 s.Rounde.maxbox_cubes;
      check_int "maximal cubes" 19 s.Rounde.maxbox_maximal;
      check_int "canonical boxes" 19 s.Rounde.maxbox_enumerated

let test_wall_col21_streaming () =
  (* past the symbolic envelope (Δ·n = 63 > 62 bits): the engine falls
     back to the streaming DFS, whose work budget trips under its
     distinct name so bench records can tell the walls apart *)
  match run_rbar ~zdd:true (col_problem 21) with
  | Done _ -> Alcotest.fail "col21 should exceed the zdd work budget"
  | Tripped budget ->
      check_bool "distinct budget name" true
        (contains ~sub:"box enumeration work (zdd)" budget)

(* ------------------------------------------------------------------ *)
(* Toggle plumbing and instrumentation                                 *)
(* ------------------------------------------------------------------ *)

let test_parctl_zdd_parse () =
  let open Parctl in
  check_bool "unset" true (parse_flag_env None = Flag_unset);
  List.iter
    (fun s -> check_bool s true (parse_flag_env (Some s) = Flag_set true))
    [ "1"; "true"; "YES"; " on " ];
  List.iter
    (fun s -> check_bool s true (parse_flag_env (Some s) = Flag_set false))
    [ "0"; "false"; "no"; "OFF"; "" ];
  check_bool "malformed" true
    (parse_flag_env (Some "maybe") = Flag_malformed "maybe");
  check_bool "resolve Some wins" true (resolve_zdd (Some true));
  (* malformed env warns exactly once and reads as off *)
  let warnings = ref [] in
  let saved = !warn_hook and saved_env = Sys.getenv_opt zdd_env_var in
  warn_hook := (fun m -> warnings := m :: !warnings);
  reset_warned ();
  Unix.putenv zdd_env_var "maybe";
  check_bool "malformed reads off" false (zdd_from_env ());
  check_bool "second read stays quiet" false (zdd_from_env ());
  (* restored, so the RELIM_ZDD=1 test leg keeps the toggle afterwards *)
  Unix.putenv zdd_env_var (Option.value saved_env ~default:"");
  warn_hook := saved;
  check_int "warned once" 1 (List.length !warnings);
  check_bool "warning names the variable" true
    (contains ~sub:"RELIM_ZDD" (List.hd !warnings))

(* RELIM_CERTIFY goes through the same reader: every boolean spelling
   RELIM_ZDD accepts, and one warning for a malformed value. *)
let test_certify_env_parse () =
  let var = Certify.Hooks.env_var in
  let saved = Sys.getenv_opt var and saved_hook = !Parctl.warn_hook in
  let warnings = ref [] in
  Parctl.warn_hook := (fun m -> warnings := m :: !warnings);
  Parctl.reset_warned ();
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv var (Option.value saved ~default:"");
      Parctl.warn_hook := saved_hook)
  @@ fun () ->
  let reads s =
    Unix.putenv var s;
    Certify.Hooks.enabled_in_env ()
  in
  List.iter
    (fun s -> check_bool (Printf.sprintf "%S reads on" s) true (reads s))
    [ "1"; "true"; "TRUE"; "yes"; "on"; " 1" ];
  List.iter
    (fun s -> check_bool (Printf.sprintf "%S reads off" s) false (reads s))
    [ "0"; "false"; "no"; "OFF"; "" ];
  check_int "no warning for a boolean" 0 (List.length !warnings);
  check_bool "malformed reads off" false (reads "maybe");
  check_bool "second read stays quiet" false (reads "maybe");
  check_int "warned once" 1 (List.length !warnings);
  check_bool "warning names the variable" true
    (contains ~sub:"RELIM_CERTIFY" (List.hd !warnings))

let test_zdd_stats () =
  Zdd.reset_stats ();
  check_int "reset nodes" 0 Zdd.stats.Zdd.nodes;
  check_int "reset peak" 0 Zdd.stats.Zdd.peak_unique;
  (match run_rbar ~zdd:true (col_problem 8) with
  | Done _ -> ()
  | Tripped b -> Alcotest.failf "col8 tripped: %s" b);
  check_bool "nodes counted" true (Zdd.stats.Zdd.nodes > 0);
  check_bool "peak tracks the table" true
    (Zdd.stats.Zdd.peak_unique > 0
    && Zdd.stats.Zdd.peak_unique <= Zdd.stats.Zdd.nodes);
  check_bool "lookups bound hits" true
    (Zdd.stats.Zdd.cache_hits <= Zdd.stats.Zdd.cache_lookups)

(* ------------------------------------------------------------------ *)

let () =
  (* The RELIM_CERTIFY and RELIM_TRACE test legs cover this suite too. *)
  Certify.Hooks.install_if_env ();
  Trace.setup_from_env ();
  Alcotest.run "zdd"
    [
      ( "engine",
        [
          Alcotest.test_case "basics" `Quick test_zdd_basics;
          Alcotest.test_case "node limit" `Quick test_zdd_node_limit;
          Alcotest.test_case "iter limit" `Quick test_zdd_iter_limit;
        ]
        @ List.map Qseed.to_alcotest zdd_qcheck );
      ( "right-closed families",
        [
          Alcotest.test_case "chain24" `Quick test_rc_chain24;
          Alcotest.test_case "antichain compression" `Quick
            test_rc_antichain_compression;
          Alcotest.test_case "zdd budgets" `Quick test_rc_zdd_budgets;
          Alcotest.test_case "explicit realized payload" `Quick
            test_rc_explicit_realized_payload;
        ]
        @ List.map Qseed.to_alcotest rc_qcheck );
      ( "engine parity",
        [
          Alcotest.test_case "presets" `Quick test_step_parity_presets;
          Alcotest.test_case "all library presets" `Slow
            test_step_parity_all_presets;
          Alcotest.test_case "chain and coloring families" `Quick
            test_rbar_parity_families;
        ]
        @ List.map Qseed.to_alcotest rbar_parity_qcheck );
      ( "slotted families",
        [
          Alcotest.test_case "encoding layout" `Quick test_slotted_encoding;
          Alcotest.test_case "boxes work limit payload" `Quick
            test_boxes_work_limit;
        ]
        @ List.map Qseed.to_alcotest (cofactor_qcheck @ slotted_qcheck) );
      ( "the Δ wall",
        [
          Alcotest.test_case "col18: explicit trips, zdd completes" `Slow
            test_wall_col18;
          Alcotest.test_case "col19: symbolic output side completes" `Slow
            test_wall_col19_symbolic;
          Alcotest.test_case "col21: streaming fallback budget" `Slow
            test_wall_col21_streaming;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "RELIM_ZDD parsing" `Quick test_parctl_zdd_parse;
          Alcotest.test_case "RELIM_CERTIFY parsing" `Quick
            test_certify_env_parse;
          Alcotest.test_case "global stats" `Quick test_zdd_stats;
        ] );
    ]
