(* The repository benchmark.  Run from the repository root:

     sh relbench/run.sh --workload steps|autopilot|daemon --seed N \
       --seconds S --trace 0|1
     sh relbench/run.sh --make-reference

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer metrics and the tracing overhead; the last line of stdout
   is always one JSON object {correct, attempted, failed, metrics}.
   The full result, with the environment it ran in, is written to
   relbench-out/.  A run exits non-zero when any operation's outcome
   differs from relbench/reference.json. *)

open Common

(* Engine paths these variables switch silently; a benchmark result is
   only comparable with them all unset. *)
let pinned_env = [ "RELIM_ZDD"; "RELIM_DOMAINS"; "RELIM_CERTIFY"; "RELIM_TRACE" ]

let check_env () =
  match List.filter (fun v -> Sys.getenv_opt v <> None) pinned_env with
  | [] -> ()
  | set ->
      Printf.eprintf
        "relbench: refusing to run with %s set: these variables switch engine paths, so the \
         numbers would not be comparable.  Unset them and retry.\n"
        (String.concat ", " set);
      exit 2

(* The git revision, when the checkout is a git repository. *)
let git_revision () =
  let read p = try Some (String.trim (read_file p)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          match read (Filename.concat ".git" r) with
          | Some rev -> rev
          | None -> (
              match read ".git/packed-refs" with
              | Some packed ->
                  String.split_on_char '\n' packed
                  |> List.find_map (fun l ->
                         match String.split_on_char ' ' l with [ rev; name ] when name = r -> Some rev | _ -> None)
                  |> Option.value ~default:"unknown"
              | None -> "unknown"))
      | _ -> head)

let environment ~seed =
  Json.Obj
    [
      ("seed", Json.Int seed);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      (* run.sh pins the benchmark to one CPU. *)
      ("cpus_allowed", Json.String (Option.value (proc_status "self" "Cpus_allowed_list") ~default:"unknown"));
      ("domains", Json.Int 1);
      ("ocaml", Json.String Sys.ocaml_version);
      ("dune_profile", Json.String Build_info.profile);
      ("ocamlrunparam", match Sys.getenv_opt "OCAMLRUNPARAM" with Some v -> Json.String v | None -> Json.Null);
      ("git_revision", Json.String (git_revision ()));
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 and make_ref = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME steps, autopilot or daemon");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time of the run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--make-reference", Arg.Set make_ref, " regenerate relbench/reference.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "relbench --workload NAME --seed N --seconds S --trace 0|1";
  check_env ();
  mkdir_p out_dir;
  if !make_ref then Reference.generate ()
  else begin
    let reference = Reference.load () in
    let traced = !trace = 1 in
    let go spec section =
      Engine_wl.run spec
        ~setup_extra:(fun () -> ignore (Reference.load ()))
        ~seconds:!seconds ~traced
        ~expected:(Reference.expected reference section)
    in
    let r =
      match !workload with
      | "steps" -> go Engine_wl.steps_spec "steps"
      | "autopilot" -> go Engine_wl.autopilot_spec "autopilot"
      | "daemon" ->
          Daemon_wl.run ~seed:!seed ~seconds:!seconds ~traced ~expected:(Reference.expected reference "daemon")
      | w ->
          Printf.eprintf "relbench: unknown workload %S (steps, autopilot, daemon)\n" w;
          exit 2
    in
    let correct = r.failed = 0 in
    List.iter (fun m -> Printf.printf "%-32s %16.6f %s\n" m.name m.value m.unit) r.metrics;
    Printf.printf "operations: %d attempted, %d failed (failed_frac %.6f)\n" r.attempted
      r.failed
      (float_of_int r.failed /. float_of_int (max 1 r.attempted));
    let summary =
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int r.attempted);
        ("failed", Json.Int r.failed);
        ("metrics", metrics_json r.metrics);
      ]
    in
    let file = Filename.concat out_dir (Printf.sprintf "result-%s-seed%d-trace%d.json" !workload !seed !trace) in
    write_file file
      (Json.to_string
         (Json.Obj
            ([ ("workload", Json.String !workload); ("environment", environment ~seed:!seed) ]
            @ summary @ r.detail))
      ^ "\n");
    Printf.printf "result written to %s\n" file;
    print_endline (Json.to_string (Json.Obj summary));
    if not correct then exit 1
  end
