(* roundelim — command-line interface to the round-elimination engine,
   the Π_Δ(a,x) family, the lower-bound chains, and the simulator.

   Examples:
     roundelim show --preset mis --delta 3
     roundelim show --node "M M M;P O O" --edge "M [PO];O O"
     roundelim step --preset mis --delta 3 --steps 2
     roundelim zero-round --preset pi --delta 8 -a 6 -x 1
     roundelim chain --delta 1024 -k 0 --verify
     roundelim lemmas --delta 16 -a 10 -x 2
     roundelim simulate --algo luby --nodes 1000 --max-degree 8 *)

open Cmdliner

(* Input the user got wrong (an unknown preset, label, diagram or
   algorithm, bad parameters, a parse error, a file that cannot be read
   or written) is a usage error: print the message and exit 2, as a bad
   --trace path does, instead of letting cmdliner report an uncaught
   exception with exit 125.  [or_usage_error] wraps only argument and
   file checks, never engine work. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Format.eprintf "roundelim: %s@." msg;
      exit 2)
    fmt

let or_usage_error f =
  try f () with Failure msg | Invalid_argument msg | Sys_error msg -> usage_error "%s" msg

let preset_problem preset delta a x node edge =
  or_usage_error @@ fun () ->
  match (preset, node, edge) with
  | Some "mis", _, _ -> Lcl.Encodings.mis ~delta
  | Some "so", _, _ -> Lcl.Encodings.sinkless_orientation ~delta
  | Some "mm", _, _ -> Lcl.Encodings.maximal_matching ~delta
  | Some "weak2col", _, _ -> Lcl.Encodings.weak_2_coloring ~delta
  | Some "pi", _, _ -> Core.Family.pi { delta; a; x }
  | Some "pi-plus", _, _ -> Core.Family.pi_plus { delta; a; x }
  | Some "r-pi", _, _ -> Core.Family.r_pi_claimed { delta; a; x }
  | Some other, _, _ ->
      Printf.ksprintf failwith
        "unknown preset %s (expected mis|so|mm|weak2col|pi|pi-plus|r-pi)" other
  | None, Some node, Some edge -> Relim.Parse.problem ~name:"cli" ~node ~edge
  | None, _, _ ->
      failwith "provide either --preset or both --node and --edge"

(* ---- common flags ---- *)

let preset_t =
  Arg.(value & opt (some string) None & info [ "preset"; "p" ] ~doc:"Problem preset: mis, so, mm, weak2col, pi, pi-plus, r-pi.")

let delta_t =
  Arg.(value & opt int 3 & info [ "delta"; "d" ] ~doc:"Maximum degree / node arity Delta.")

let a_t = Arg.(value & opt int 3 & info [ "a" ] ~doc:"Family parameter a (owned edges).")

let x_t = Arg.(value & opt int 0 & info [ "x" ] ~doc:"Family parameter x (allowed outdegree).")

let node_t =
  Arg.(value & opt (some string) None & info [ "node" ] ~doc:"Node constraint; configurations separated by ';'.")

let edge_t =
  Arg.(value & opt (some string) None & info [ "edge" ] ~doc:"Edge constraint; configurations separated by ';'.")

let domains_t =
  Arg.(
    value & opt int 0
    & info [ "domains" ]
        ~doc:
          "Worker domains for the engine's parallel hot paths (results are \
           identical for every count).  0 (the default) defers to the \
           RELIM_DOMAINS environment variable; 1 forces sequential.")

(* [None] (from --domains 0) lets the engine fall back to the
   RELIM_DOMAINS-driven default pool. *)
let pool_of_domains d =
  if d >= 1 then Some (Parallel.Pool.create ~domains:d) else None

let zdd_t =
  Arg.(
    value & flag
    & info [ "zdd" ]
        ~doc:
          "Run the Rbar box search and maximal-box filter on the hash-consed \
           ZDD family representation (lib/zdd) instead of explicit set \
           lists.  Results are byte-identical wherever both paths complete, \
           but the capacity envelope moves: the right-closed family is never \
           materialized, so instances past the explicit path's budgets may \
           finish here.  Also enabled by RELIM_ZDD=1.")

(* [false] (flag absent) defers to the RELIM_ZDD environment variable. *)
let zdd_opt flag = if flag then Some true else None

let certify_t =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Re-check every R / Rbar output, 0-round verdict and fixed point \
           against the definitions with the independent certificate checker \
           (lib/certify) while the command runs; a divergence aborts with a \
           Violation.  Also enabled by RELIM_CERTIFY=1.")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a structured execution trace (spans + counters for every \
           engine phase) to $(docv).  See $(b,--trace-format).  Tracing is \
           also enabled by RELIM_TRACE=<path> (format from \
           RELIM_TRACE_FORMAT).")

let trace_format_t =
  Arg.(
    value
    & opt (enum [ ("jsonl", Trace.Jsonl); ("chrome", Trace.Chrome) ]) Trace.Jsonl
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:
          "Trace output format: $(b,jsonl) (one event per line) or \
           $(b,chrome) (trace_event JSON for about://tracing / Perfetto).")

(* The sink is opened before any work runs: an unwritable path must
   abort immediately, not after minutes of computation. *)
let with_trace trace fmt f =
  match trace with
  | None -> f ()
  | Some path ->
      (match Trace.enable ~path ~format:fmt with
      | () -> ()
      | exception Sys_error msg ->
          Format.eprintf "roundelim: --trace: cannot open trace file: %s@." msg;
          exit 2);
      Fun.protect ~finally:Trace.close f

(* Run [f] with the certificate checkers installed when requested,
   printing a one-line certification summary afterwards. *)
let with_certify certify f =
  if certify || Certify.Hooks.enabled_in_env () then begin
    Certify.Check.reset_stats ();
    let result = Certify.Hooks.with_hooks f in
    let s = Certify.Check.stats in
    Format.eprintf
      "certified: %d R steps, %d Rbar steps, %d zero-round verdicts, %d \
       fixed points (%d sub-checks skipped on budget, %.3fs)@."
      s.Certify.Check.r_certified s.Certify.Check.rbar_certified
      s.Certify.Check.zero_certified s.Certify.Check.fixed_points_certified
      s.Certify.Check.skipped_subchecks s.Certify.Check.time_s;
    result
  end
  else f ()

let stats_t =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "After the run, print the engine's cumulative hot-path counters \
           (right-closed sets, boxes, dominance filter work, ZDD engine \
           activity) on standard error.")

let print_engine_stats () =
  let s = Relim.Rounde.stats in
  Format.eprintf
    "engine stats:@.\
    \  rbar: calls=%d rc_sets=%d boxes_emitted=%d boxes_pruned=%d (%.3fs)@.\
    \  maximal: dom_checks=%d cheap_skips=%d transport_calls=%d \
     cache_hits=%d (%.3fs)@.\
    \  zdd: nodes=%d cache_hits=%d peak_unique=%d@.\
    \  zdd.maxbox: tuples=%d cubes=%d maximal=%d enumerated=%d@."
    s.Relim.Rounde.rbar_calls s.Relim.Rounde.rc_sets
    s.Relim.Rounde.boxes_emitted s.Relim.Rounde.boxes_pruned
    s.Relim.Rounde.rbar_time_s s.Relim.Rounde.box_dom_checks
    s.Relim.Rounde.box_dom_cheap_skips s.Relim.Rounde.box_transport_calls
    s.Relim.Rounde.transport_cache_hits s.Relim.Rounde.maxbox_time_s
    Zdd.stats.Zdd.nodes Zdd.stats.Zdd.cache_hits Zdd.stats.Zdd.peak_unique
    s.Relim.Rounde.maxbox_tuples s.Relim.Rounde.maxbox_cubes
    s.Relim.Rounde.maxbox_maximal s.Relim.Rounde.maxbox_enumerated

(* ---- show ---- *)

let show preset delta a x node edge diagrams =
  let p = preset_problem preset delta a x node edge in
  Format.printf "%a@." Relim.Problem.pp p;
  if diagrams then begin
    Format.printf "@.edge diagram:@.%a@." Relim.Diagram.pp
      (Relim.Diagram.edge_diagram p);
    Format.printf "@.node diagram:@.%a@." Relim.Diagram.pp
      (Relim.Diagram.node_diagram p)
  end

let show_cmd =
  let diagrams_t =
    Arg.(value & flag & info [ "diagrams" ] ~doc:"Also print the label-strength diagrams.")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a problem and optionally its diagrams")
    Term.(const show $ preset_t $ delta_t $ a_t $ x_t $ node_t $ edge_t $ diagrams_t)

(* ---- step ---- *)

let step preset delta a x node edge steps domains zdd stats certify trace tfmt
    =
  with_trace trace tfmt @@ fun () ->
  let pool = pool_of_domains domains in
  let zdd = zdd_opt zdd in
  let p = ref (preset_problem preset delta a x node edge) in
  Format.printf "%a@." Relim.Problem.pp !p;
  with_certify certify (fun () ->
      try
        for i = 1 to steps do
          let { Relim.Rounde.problem = next; _ } =
            Relim.Rounde.step ?pool ?zdd !p
          in
          p := next;
          Format.printf "@.after speedup step %d (%d labels):@.%a@." i
            (Relim.Problem.label_count next)
            Relim.Problem.pp next
        done
      with
      | Relim.Budget.Budget_exceeded { budget; limit } ->
          Format.printf "@.stopped: %s@." (Relim.Budget.message ~budget ~limit)
      | Failure msg -> Format.printf "@.stopped: %s@." msg);
  if stats then print_engine_stats ()

let step_cmd =
  let steps_t =
    Arg.(value & opt int 1 & info [ "steps"; "s" ] ~doc:"Number of speedup steps.")
  in
  Cmd.v
    (Cmd.info "step" ~doc:"Apply round-elimination speedup steps (Rbar o R)")
    Term.(
      const step $ preset_t $ delta_t $ a_t $ x_t $ node_t $ edge_t $ steps_t
      $ domains_t $ zdd_t $ stats_t $ certify_t $ trace_t $ trace_format_t)

(* ---- zero-round ---- *)

let zero_round preset delta a x node edge domains certify trace tfmt =
  with_trace trace tfmt @@ fun () ->
  let pool = pool_of_domains domains in
  let p = preset_problem preset delta a x node edge in
  with_certify certify (fun () ->
      (match Relim.Zeroround.solvable_mirrored p with
      | Some w ->
          Format.printf "0-round solvable under mirrored ports, witness: %s@."
            (Relim.Multiset.to_string p.alpha w)
      | None -> Format.printf "NOT 0-round solvable under mirrored ports@.");
      (match Relim.Zeroround.solvable_arbitrary_ports ?pool p with
      | Some w ->
          Format.printf "0-round solvable under arbitrary ports, witness: %s@."
            (Relim.Multiset.to_string p.alpha w)
      | None -> Format.printf "NOT 0-round solvable under arbitrary ports@.");
      match Relim.Zeroround.randomized_failure_bound p with
      | Some b ->
          Format.printf "randomized 0-round failure probability >= %g@." b
      | None -> ())

let zero_round_cmd =
  Cmd.v
    (Cmd.info "zero-round" ~doc:"Decide 0-round solvability in the PN model")
    Term.(
      const zero_round $ preset_t $ delta_t $ a_t $ x_t $ node_t $ edge_t
      $ domains_t $ certify_t $ trace_t $ trace_format_t)

(* ---- chain ---- *)

let chain delta k verify =
  let chain = Core.Sequence.build ~delta ~x0:k in
  Format.printf "%a@." Core.Sequence.pp_chain chain;
  Format.printf "port-numbering lower bound for %d-outdegree dominating sets: %d rounds@."
    k
    (Core.Sequence.kods_pn_lower_bound ~delta ~k);
  if verify then begin
    let check = Core.Sequence.verify chain in
    Format.printf "mechanical verification of every link: %b@."
      (Core.Sequence.chain_ok check)
  end

let chain_cmd =
  let k_t = Arg.(value & opt int 0 & info [ "k" ] ~doc:"Outdegree bound k (x0 of the chain).") in
  let verify_t = Arg.(value & flag & info [ "verify" ] ~doc:"Mechanically verify every link.") in
  Cmd.v
    (Cmd.info "chain" ~doc:"Build (and verify) the Lemma 13 lower-bound chain")
    Term.(const chain $ delta_t $ k_t $ verify_t)

(* ---- lemmas ---- *)

let lemmas delta a x concrete =
  let params = { Core.Family.delta; a; x } in
  let l6 = Core.Lemma6.verify params in
  Format.printf "Lemma 6  (R(Pi) has the claimed 8-label form): %b@."
    (l6.renaming <> None && l6.denotations_match);
  (match l6.renaming with
  | Some pairs ->
      Format.printf "  renaming: %s@."
        (String.concat ", " (List.map (fun (c, d) -> c ^ " -> " ^ d) pairs))
  | None -> ());
  let l8 = Core.Lemma8.verify_symbolic params in
  Format.printf
    "Lemma 8  (symbolic certificate): %b  [c1=%b c2=%b c3=%b c4=%b c5=%b m1=%b m2=%b arith=%b rel=%b]@."
    (Core.Lemma8.all_ok l8) l8.c1 l8.c2 l8.c3 l8.c4 l8.c5 l8.m1 l8.m2
    l8.arithmetic l8.pi_rel_is_pi_plus;
  if concrete then begin
    let r = Core.Lemma8.verify_concrete params in
    Format.printf
      "Lemma 8  (full Rbar(R(Pi)) computation): %d configurations, all relax: %b@."
      r.boxes r.all_relax
  end;
  Format.printf "Lemma 12 (not 0-round solvable): %b@."
    (Core.Zero_round.deterministic_unsolvable params);
  match Core.Zero_round.randomized_failure_bound params with
  | Some b -> Format.printf "Lemma 15 (randomized failure bound): %g@." b
  | None -> Format.printf "Lemma 15: not applicable@."

let lemmas_cmd =
  let concrete_t =
    Arg.(value & flag & info [ "concrete" ] ~doc:"Also run the full Rbar(R(Pi)) computation (small Delta only).")
  in
  Cmd.v
    (Cmd.info "lemmas" ~doc:"Run the mechanized lemma verifiers for Pi(Delta, a, x)")
    Term.(const lemmas $ delta_t $ a_t $ x_t $ concrete_t)

(* ---- simplify ---- *)

let simplify preset delta a x node edge merge_from merge_into =
  let p = preset_problem preset delta a x node edge in
  let p =
    match (merge_from, merge_into) with
    | Some f, Some i ->
        List.iter
          (fun l ->
            if not (Relim.Alphabet.mem_name p.Relim.Problem.alpha l) then
              usage_error "unknown label %s" l)
          [ f; i ];
        if f = i then usage_error "--merge-from and --merge-into name the same label";
        Format.printf "merge %s -> %s sound: %b@." f i
          (Relim.Simplify.merge_is_sound p ~from_:f ~into_:i);
        Relim.Simplify.merge p ~from_:f ~into_:i
    | None, None -> Relim.Simplify.merge_equivalent p
    | _ -> usage_error "provide both --merge-from and --merge-into, or neither"
  in
  Format.printf "%a@." Relim.Problem.pp (Relim.Simplify.normalize p)

let simplify_cmd =
  let from_t =
    Arg.(value & opt (some string) None & info [ "merge-from" ] ~doc:"Label to merge away.")
  in
  let into_t =
    Arg.(value & opt (some string) None & info [ "merge-into" ] ~doc:"Label to merge into.")
  in
  Cmd.v
    (Cmd.info "simplify" ~doc:"Merge labels / drop redundant configurations")
    Term.(const simplify $ preset_t $ delta_t $ a_t $ x_t $ node_t $ edge_t $ from_t $ into_t)

(* ---- save / load ---- *)

let save preset delta a x node edge file =
  let p = preset_problem preset delta a x node edge in
  let oc = or_usage_error (fun () -> open_out file) in
  output_string oc (Relim.Serialize.to_string p);
  close_out oc;
  Format.printf "wrote %s@." file

let save_cmd =
  let file_t = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "save" ~doc:"Serialize a problem to a file")
    Term.(const save $ preset_t $ delta_t $ a_t $ x_t $ node_t $ edge_t $ file_t)

let load file diagrams =
  let p =
    or_usage_error @@ fun () ->
    Relim.Serialize.of_string (In_channel.with_open_text file In_channel.input_all)
  in
  Format.printf "%a@." Relim.Problem.pp p;
  if diagrams then
    Format.printf "@.edge diagram:@.%a@." Relim.Diagram.pp
      (Relim.Diagram.edge_diagram p)

let load_cmd =
  let file_t = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let diagrams_t = Arg.(value & flag & info [ "diagrams" ] ~doc:"Also print diagrams.") in
  Cmd.v
    (Cmd.info "load" ~doc:"Load and print a serialized problem")
    Term.(const load $ file_t $ diagrams_t)

(* ---- upper-bound ---- *)

let upper_bound preset delta a x node edge max_steps domains certify trace tfmt =
  with_trace trace tfmt @@ fun () ->
  let pool = pool_of_domains domains in
  let p = preset_problem preset delta a x node edge in
  with_certify certify @@ fun () ->
  match Relim.Upperbound.search ~max_steps ?pool p with
  | Relim.Upperbound.Solvable_in k ->
      Format.printf
        "solvable in %d round(s) in the PN model (on high-girth Delta-regular instances)@."
        k
  | Relim.Upperbound.Unknown_after k ->
      Format.printf "no 0-round problem reached within %d step(s) (budget/blow-up)@." k

let upper_bound_cmd =
  let steps_t =
    Arg.(value & opt int 3 & info [ "max-steps" ] ~doc:"Speedup-step budget.")
  in
  Cmd.v
    (Cmd.info "upper-bound" ~doc:"Search for an upper bound by iterated speedup")
    Term.(
      const upper_bound $ preset_t $ delta_t $ a_t $ x_t $ node_t $ edge_t
      $ steps_t $ domains_t $ certify_t $ trace_t $ trace_format_t)

(* ---- fixed-point ---- *)

let fixed_point preset delta a x node edge max_steps domains certify trace tfmt =
  if max_steps < 1 then usage_error "--max-steps must be at least 1";
  with_trace trace tfmt @@ fun () ->
  let pool = pool_of_domains domains in
  let p = preset_problem preset delta a x node edge in
  with_certify certify @@ fun () ->
  let verdict = Relim.Fixedpoint.detect ~max_steps ?pool p in
  (match verdict with
  | Relim.Fixedpoint.Fixed_point (p0, _) ->
      Format.printf "the problem is itself a fixed point of Rbar o R:@.%a@."
        Relim.Problem.pp p0
  | Relim.Fixedpoint.Reaches_fixed_point (steps, fp) ->
      Format.printf "stabilizes after %d step(s) at:@.%a@." steps
        Relim.Problem.pp fp
  | Relim.Fixedpoint.No_fixed_point_found last ->
      Format.printf "no fixed point within the step budget; last problem (%d labels):@.%a@."
        (Relim.Problem.label_count last) Relim.Problem.pp last);
  Option.iter (Format.printf "=> %s@.")
    (Relim.Fixedpoint.lower_bound_statement verdict)

let fixed_point_cmd =
  let steps_t =
    Arg.(value & opt int 4 & info [ "max-steps" ] ~doc:"Speedup-step budget.")
  in
  Cmd.v
    (Cmd.info "fixed-point" ~doc:"Search for a round-elimination fixed point")
    Term.(
      const fixed_point $ preset_t $ delta_t $ a_t $ x_t $ node_t $ edge_t
      $ steps_t $ domains_t $ certify_t $ trace_t $ trace_format_t)

(* ---- autopilot ---- *)

let autopilot preset delta a x node edge max_steps beam domains certify trace
    tfmt =
  with_trace trace tfmt @@ fun () ->
  let pool = pool_of_domains domains in
  let p = preset_problem preset delta a x node edge in
  with_certify certify @@ fun () ->
  let limits =
    { Autopilot.default_limits with Autopilot.max_steps; beam }
  in
  let report = Autopilot.search ~limits ?pool p in
  List.iter
    (fun s ->
      Format.printf "step %d: %s -> %d labels@." s.Autopilot.step_index
        (match s.Autopilot.cover with
        | None -> "identity relaxation"
        | Some n -> Printf.sprintf "quotient by a %d-set cover" n)
        s.Autopilot.result_labels)
    report.Autopilot.steps;
  Format.printf
    "verdict: %s  (%d candidates explored, %d budget-skipped, %d certified \
     steps, %.2fs)@."
    (Autopilot.verdict_string report.Autopilot.verdict)
    report.Autopilot.candidates_explored report.Autopilot.budget_skips
    report.Autopilot.certified_steps report.Autopilot.wall_s;
  match report.Autopilot.verdict with
  | Autopilot.Fixed_point { problem; period } ->
      Format.printf
        "certified relaxed cycle of period %d through a non-0-round-solvable \
         state:@.%a@.=> Omega(log n) deterministic and Omega(log log n) \
         randomized LOCAL lower bounds@."
        period Relim.Problem.pp problem
  | Autopilot.Upper_bound { steps } ->
      Format.printf
        "certified upper bound: solvable in %d round(s) in the PN model on \
         high-girth Delta-regular instances@."
        steps
  | Autopilot.Exhausted { last } ->
      Format.printf "search exhausted; last state (%d labels):@.%a@."
        (Relim.Problem.label_count last)
        Relim.Problem.pp last

let autopilot_cmd =
  let steps_t =
    Arg.(
      value
      & opt int Autopilot.default_limits.Autopilot.max_steps
      & info [ "max-steps" ] ~doc:"Accepted-step budget of the search.")
  in
  let beam_t =
    Arg.(
      value
      & opt int Autopilot.default_limits.Autopilot.beam
      & info [ "beam" ] ~doc:"Candidate covers evaluated per step.")
  in
  Cmd.v
    (Cmd.info "autopilot"
       ~doc:
         "Search for a certified relaxed fixed point (or upper bound) by \
          quotient-cover relaxation")
    Term.(
      const autopilot $ preset_t $ delta_t $ a_t $ x_t $ node_t $ edge_t
      $ steps_t $ beam_t $ domains_t $ certify_t $ trace_t $ trace_format_t)

(* ---- certify ---- *)

let certify delta k n =
  let cert = Core.Theorem14.certify ~delta ~k in
  Format.printf "%a@." Core.Theorem14.pp cert;
  Format.printf "valid: %b@." (Core.Theorem14.valid cert);
  Format.printf "at n = %g: det >= %.2f, rand >= %.2f rounds@." n
    (Core.Theorem14.conclusion_det cert ~n)
    (Core.Theorem14.conclusion_rand cert ~n)

let certify_cmd =
  let k_t = Arg.(value & opt int 0 & info [ "k" ] ~doc:"Outdegree bound.") in
  let n_t = Arg.(value & opt float 1e9 & info [ "n" ] ~doc:"Number of nodes for the LOCAL bound.") in
  Cmd.v
    (Cmd.info "certify" ~doc:"Assemble and check the Theorem 14 certificate")
    Term.(const certify $ delta_t $ k_t $ n_t)

(* ---- dot ---- *)

let dot preset delta a x node edge which =
  let p = preset_problem preset delta a x node edge in
  match which with
  | "edge" -> print_string (Relim.Diagram.to_dot ~name:(p.Relim.Problem.name ^ "-edge") (Relim.Diagram.edge_diagram p))
  | "node" -> print_string (Relim.Diagram.to_dot ~name:(p.Relim.Problem.name ^ "-node") (Relim.Diagram.node_diagram p))
  | other -> usage_error "unknown diagram %s (edge|node)" other

let dot_cmd =
  let which_t =
    Arg.(value & opt string "edge" & info [ "which" ] ~doc:"Which diagram: edge or node.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit a GraphViz rendering of a label-strength diagram")
    Term.(const dot $ preset_t $ delta_t $ a_t $ x_t $ node_t $ edge_t $ which_t)

(* ---- verify-all ---- *)

let verify_all delta k concrete =
  let report = Core.Paper.verify ~concrete_lemma8:concrete ~delta ~k () in
  Format.printf "%a@." Core.Paper.pp report;
  if not (Core.Paper.all_ok report) then exit 1

let verify_all_cmd =
  let k_t = Arg.(value & opt int 0 & info [ "k" ] ~doc:"Outdegree bound.") in
  let concrete_t =
    Arg.(value & flag & info [ "concrete" ] ~doc:"Include the full Rbar(R(Pi)) cross-check.")
  in
  Cmd.v
    (Cmd.info "verify-all" ~doc:"Run the entire mechanized verification at (Delta, k)")
    Term.(const verify_all $ delta_t $ k_t $ concrete_t)

(* ---- simulate ---- *)

let simulate algo nodes max_degree seed k =
  let g = Dsgraph.Tree_gen.random ~n:nodes ~max_degree ~seed in
  let count sel = Array.fold_left (fun acc b -> acc + if b then 1 else 0) 0 sel in
  match algo with
  | "luby" ->
      let mis, rounds = Distalgo.Luby.run ~seed g in
      Format.printf "Luby MIS: |S| = %d of %d, %d rounds@." (count mis) nodes rounds
  | "cv-mis" ->
      let mis, rounds = Distalgo.Kods.mis_on_tree g ~root:0 in
      Format.printf "CV + color-iteration MIS: |S| = %d of %d, %d rounds@."
        (count mis) nodes rounds
  | "kods" ->
      let res = Distalgo.Kods.via_arbdefective g ~k in
      Format.printf
        "k-outdegree dominating set (k=%d): |S| = %d of %d, %d rounds, palette %d@."
        k
        (count res.Distalgo.Kods.selected)
        nodes res.Distalgo.Kods.rounds res.Distalgo.Kods.palette
  | other -> usage_error "unknown algorithm %s (luby|cv-mis|kods)" other

let simulate_cmd =
  let algo_t =
    Arg.(value & opt string "luby" & info [ "algo" ] ~doc:"Algorithm: luby, cv-mis, kods.")
  in
  let nodes_t = Arg.(value & opt int 1000 & info [ "nodes"; "n" ] ~doc:"Number of nodes.") in
  let degree_t = Arg.(value & opt int 8 & info [ "max-degree" ] ~doc:"Maximum degree.") in
  let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let k_t = Arg.(value & opt int 1 & info [ "k" ] ~doc:"Outdegree bound for kods.") in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a distributed algorithm on a random tree")
    Term.(const simulate $ algo_t $ nodes_t $ degree_t $ seed_t $ k_t)

let main_cmd =
  Cmd.group
    (Cmd.info "roundelim" ~version:"1.0.0"
       ~doc:"Round elimination, the Pi(Delta,a,x) family, and the MIS lower-bound machinery")
    [
      show_cmd;
      step_cmd;
      zero_round_cmd;
      chain_cmd;
      lemmas_cmd;
      simulate_cmd;
      fixed_point_cmd;
      autopilot_cmd;
      certify_cmd;
      simplify_cmd;
      save_cmd;
      load_cmd;
      upper_bound_cmd;
      verify_all_cmd;
      dot_cmd;
    ]

let () =
  (* RELIM_TRACE=<path> traces engine calls from any subcommand, even
     those without a --trace flag; like --trace, a bad path aborts
     before any work runs. *)
  (match Trace.setup_from_env () with
  | () -> ()
  | exception Sys_error msg ->
      Format.eprintf "roundelim: %s: cannot open trace file: %s@."
        Trace.env_var msg;
      exit 2);
  (* RELIM_CERTIFY=1 certifies engine calls from any subcommand, even
     those without a --certify flag (lemmas, verify-all, chain, ...). *)
  Certify.Hooks.install_if_env ();
  exit (Cmd.eval main_cmd)
