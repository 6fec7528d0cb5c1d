(* certify_fuzz — differential fuzzing harness for the engine.

   Generates random problems, runs the optimized pipeline (R, Rbar,
   step at 1 and N domains, both 0-round deciders), certifies every
   output with lib/certify and cross-checks 0-round verdicts against
   brute-force simulation; shrinks any divergence to a minimal
   reproducer printed in the parser's concrete syntax.

   Exit status: 0 when no violation survived, 1 otherwise.

   --self-test injects a fault into every R output instead (shrinking
   each denotation) and *requires* the harness to catch it — this
   guards the guard. *)

open Cmdliner

let prog = "certify_fuzz"

let fuzz count seed max_labels max_delta domains self_test =
  (* [Fuzz.gen_problem] names label i by the i-th capital letter. *)
  if max_labels < 1 || max_labels > 26 then
    Frontend.usage_error ~prog "--max-labels must be between 1 and 26";
  Frontend.at_least ~prog "--max-delta" 1 max_delta;
  let mutate_r =
    if not self_test then None
    else
      Some
        (fun (d : Relim.Rounde.denoted) ->
          let changed = ref false in
          let denots =
            Array.map
              (fun s ->
                if (not !changed) && Relim.Labelset.cardinal s >= 2 then begin
                  changed := true;
                  Relim.Labelset.remove
                    (List.hd (List.rev (Relim.Labelset.elements s)))
                    s
                end
                else s)
              d.Relim.Rounde.denotations
          in
          { d with Relim.Rounde.denotations = denots })
  in
  let report =
    Certify.Fuzz.run ?mutate_r ~count ~seed ~max_labels ~max_delta ~domains ()
  in
  Format.printf "%a" Certify.Fuzz.pp_report report;
  let violations = List.length report.Certify.Fuzz.reproducers in
  if self_test then
    if violations > 0 then begin
      Format.printf
        "self-test: injected fault caught %d time(s) — harness works@."
        violations;
      exit 0
    end
    else begin
      Format.printf "self-test: injected fault NEVER caught@.";
      exit 1
    end
  else if violations > 0 then exit 1

let fuzz_cmd =
  let count_t =
    Arg.(value & opt int 500 & info [ "count"; "n" ] ~doc:"Number of random problems.")
  in
  let seed_t = Arg.(value & opt int 2026 & info [ "seed" ] ~doc:"Generator seed.") in
  let labels_t =
    Arg.(
      value & opt int 4
      & info [ "max-labels" ] ~doc:"Maximum alphabet size, from 1 to 26.")
  in
  let delta_t =
    Arg.(
      value & opt int 3
      & info [ "max-delta" ] ~doc:"Maximum node arity, at least 1.")
  in
  let domains_t =
    Arg.(
      value & opt int 2
      & info [ "domains" ]
          ~doc:
            "Also compare Rounde.step between a sequential run and a run on \
             this many domains; <= 1 disables the comparison.")
  in
  let self_test_t =
    Arg.(
      value & flag
      & info [ "self-test" ]
          ~doc:"Inject a fault into every R output and require it to be caught.")
  in
  Cmd.v
    (Cmd.info "certify_fuzz" ~version:"1.0.0"
       ~doc:
         "Differentially fuzz the round-elimination engine against the \
          independent certificate checker")
    Term.(
      const fuzz $ count_t $ seed_t $ labels_t $ delta_t $ domains_t
      $ self_test_t)

let () =
  Frontend.trace_from_env ~prog;
  exit (Cmd.eval fuzz_cmd)
