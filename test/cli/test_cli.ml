(* End-to-end tests of the roundelim binary, driving the real
   executable (path in $ROUNDELIM, set by the dune stanza): its tracing
   interface, checked with the schema validator ($VALIDATE_TRACE), the
   --zdd flag, the fixed-point command's certified summary, the
   zero-round witness line, engine work that stops, and the exit code
   of bad input, also for the other binaries that share its front end:
   certify_fuzz, roundelimd and relimsweep ($CERTIFY_FUZZ, $ROUNDELIMD,
   $RELIMSWEEP).  The key tracing regression: an unwritable --trace
   path or RELIM_TRACE must abort with a clear error and exit code 2
   before any engine work runs. *)

let exe var =
  match Sys.getenv_opt var with
  | Some p -> p
  | None -> Alcotest.fail (var ^ " not set (run via dune runtest)")

let roundelim = exe "ROUNDELIM"
let certify_fuzz = exe "CERTIFY_FUZZ"
let roundelimd = exe "ROUNDELIMD"
let relimsweep = exe "RELIMSWEEP"
let validate_trace = exe "VALIDATE_TRACE"

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* Runs [bin args] (roundelim by default), returning (exit code, stdout,
   stderr). *)
let run ?(env = []) ?(bin = roundelim) args =
  let out = Filename.temp_file "cli_out" ".txt" in
  let err = Filename.temp_file "cli_err" ".txt" in
  let env_prefix =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s=%s " k (Filename.quote v)) env)
  in
  let cmd =
    Printf.sprintf "%s%s %s > %s 2> %s" env_prefix (Filename.quote bin)
      args (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The arguments of a roundelimd serve run, behind a [timeout]: a check
   that is missing fails the row (exit 124) instead of leaving a server
   running.  Pass the result as [run ~bin:"timeout"]. *)
let serve args =
  let socket = Filename.concat (Filename.get_temp_dir_name ()) "cli_serve.sock" in
  Printf.sprintf "10 %s serve --socket %s %s" (Filename.quote roundelimd)
    (Filename.quote socket) args

(* A journal path no file holds, for a relimsweep run that must not
   write one. *)
let fresh_journal () =
  let path = Filename.temp_file "cli_sweep" ".jsonl" in
  Sys.remove path;
  path

let test_unwritable_trace_path () =
  let code, stdout, stderr =
    run "step -p mis -d 3 --trace /nonexistent-dir/trace.jsonl"
  in
  Alcotest.(check int) "exit code 2" 2 code;
  Alcotest.(check bool) "clear error on stderr" true
    (contains ~sub:"--trace: cannot open trace file" stderr);
  (* The sink is opened before any engine work: no output was printed. *)
  Alcotest.(check string) "no work before the failure" "" stdout

(* Each binary opens RELIM_TRACE where it honours it (every roundelim,
   relimsweep and certify_fuzz command, roundelimd serve) before any
   work: exit 2 and one line on stderr. *)
let test_unwritable_env_trace_path () =
  let path = "/nonexistent-dir/trace.jsonl" in
  let journal = fresh_journal () in
  List.iter
    (fun (bin, prog, args) ->
      let code, stdout, stderr = run ~env:[ ("RELIM_TRACE", path) ] ~bin args in
      Alcotest.(check int) (prog ^ ": exit code 2") 2 code;
      Alcotest.(check string)
        (prog ^ ": one line naming the env var")
        (Printf.sprintf
           "%s: RELIM_TRACE: cannot open trace file: %s: No such file or \
            directory\n"
           prog path)
        stderr;
      Alcotest.(check string) (prog ^ ": nothing on stdout") "" stdout)
    [
      (roundelim, "roundelim", "step -p mis -d 3");
      (certify_fuzz, "certify_fuzz", "--count 1");
      ( relimsweep,
        "relimsweep",
        "--families so --deltas 3 --out " ^ Filename.quote journal );
      ("timeout", "roundelimd", serve "");
    ];
  Alcotest.(check bool) "relimsweep wrote no journal" false
    (Sys.file_exists journal)

let test_trace_jsonl_written () =
  let path = Filename.temp_file "cli_trace" ".jsonl" in
  let code, _, _ =
    run (Printf.sprintf "step -p mis -d 3 --trace %s" (Filename.quote path))
  in
  Alcotest.(check int) "exit code 0" 0 code;
  let trace = read_file path in
  let vcode, _, verr = run ~bin:validate_trace (Filename.quote path) in
  Sys.remove path;
  Alcotest.(check int) ("validate_trace accepts it: " ^ verr) 0 vcode;
  Alcotest.(check bool) "jsonl object lines" true
    (String.length trace > 0 && trace.[0] = '{');
  Alcotest.(check bool) "engine spans recorded" true
    (contains ~sub:"\"rounde.step\"" trace
    && contains ~sub:"\"rounde.r_calls\"" trace);
  (* The same trace with its last line cut in half, as a killed writer
     leaves it, must be refused. *)
  let last = String.rindex_from trace (String.length trace - 2) '\n' + 1 in
  let cut = last + ((String.length trace - last) / 2) in
  let torn = Filename.temp_file "cli_trace_torn" ".jsonl" in
  let oc = open_out_bin torn in
  output_string oc (String.sub trace 0 cut);
  close_out oc;
  let tcode, _, terr = run ~bin:validate_trace (Filename.quote torn) in
  Sys.remove torn;
  Alcotest.(check int) "torn trace exits 1" 1 tcode;
  Alcotest.(check bool)
    ("names the file and the bad JSON: " ^ terr)
    true
    (contains ~sub:torn terr && contains ~sub:"invalid JSON" terr)

let test_trace_chrome_written () =
  let path = Filename.temp_file "cli_trace" ".json" in
  let code, _, _ =
    run
      (Printf.sprintf "step -p mis -d 3 --trace %s --trace-format chrome"
         (Filename.quote path))
  in
  Alcotest.(check int) "exit code 0" 0 code;
  let trace = read_file path in
  let vcode, _, verr =
    run ~bin:validate_trace ("--chrome " ^ Filename.quote path)
  in
  Sys.remove path;
  Alcotest.(check int) ("validate_trace --chrome accepts it: " ^ verr) 0 vcode;
  Alcotest.(check bool) "trace_event wrapper" true
    (contains ~sub:"{\"traceEvents\":[" trace
    && contains ~sub:"\"displayTimeUnit\":\"ms\"" trace);
  Alcotest.(check bool) "begin/end phases present" true
    (contains ~sub:"\"ph\":\"B\"" trace && contains ~sub:"\"ph\":\"E\"" trace)

let test_bad_trace_format_rejected () =
  let code, _, _ = run "step -p mis -d 3 --trace /tmp/x --trace-format xml" in
  Alcotest.(check bool) "cmdliner usage error" true (code <> 0)

(* --zdd routes the box search through lib/zdd; the printed problems
   must not change by a byte, and --stats must show the engine was
   really on the compressed path (and really off it by default). *)
let test_zdd_flag_byte_identity () =
  (* RELIM_ZDD=0 pins the baseline to the explicit path even when the
     suite itself runs under RELIM_ZDD=1. *)
  let code0, explicit, _ =
    run ~env:[ ("RELIM_ZDD", "0") ] "step -p mis -d 3 -s 2 --stats"
  in
  let code1, zdd, stderr = run "step -p mis -d 3 -s 2 --zdd --stats" in
  Alcotest.(check int) "explicit exit 0" 0 code0;
  Alcotest.(check int) "zdd exit 0" 0 code1;
  Alcotest.(check string) "stdout byte-identical" explicit zdd;
  Alcotest.(check bool) "zdd engine exercised" true
    (contains ~sub:"zdd: nodes=" stderr
    && not (contains ~sub:"zdd: nodes=0 " stderr));
  (* the MIS step runs on the fully symbolic output side: its
     maximal-box family counters land in --stats *)
  Alcotest.(check bool) "maxbox counters printed" true
    (contains ~sub:"zdd.maxbox: tuples=" stderr
    && not (contains ~sub:"zdd.maxbox: tuples=0 " stderr))

let test_stats_explicit_zero_zdd () =
  let code, _, stderr =
    run ~env:[ ("RELIM_ZDD", "0") ] "step -p mis -d 3 --stats"
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "stats printed" true
    (contains ~sub:"engine stats:" stderr);
  Alcotest.(check bool) "zdd engine idle on the explicit path" true
    (contains ~sub:"zdd: nodes=0 " stderr)

let test_zdd_trace_counters () =
  let path = Filename.temp_file "cli_trace" ".jsonl" in
  let code, _, _ =
    run (Printf.sprintf "step -p mis -d 3 --zdd --trace %s" (Filename.quote path))
  in
  Alcotest.(check int) "exit code 0" 0 code;
  let trace = read_file path in
  Sys.remove path;
  Alcotest.(check bool) "zdd counters sampled" true
    (contains ~sub:"\"zdd.nodes\"" trace
    && contains ~sub:"\"zdd.cache_hits\"" trace
    && contains ~sub:"\"zdd.peak_unique\"" trace);
  Alcotest.(check bool) "maxbox counters sampled" true
    (contains ~sub:"\"zdd.maxbox_tuples\"" trace
    && contains ~sub:"\"zdd.maxbox_cubes\"" trace
    && contains ~sub:"\"zdd.maxbox_maximal\"" trace
    && contains ~sub:"\"zdd.maxbox_enumerated\"" trace)

(* An input that is itself a fixed point is detected once: the
   certified summary counts one fixed point, not one per detection. *)
let test_fixed_point_input_certified_once () =
  let code, stdout, stderr =
    run "fixed-point --node 'A A A' --edge 'A A' --certify"
  in
  Alcotest.(check int) "exit code 0" 0 code;
  Alcotest.(check bool) "the input is the fixed point" true
    (contains ~sub:"the problem is itself a fixed point" stdout);
  Alcotest.(check bool) ("one fixed point certified: " ^ stderr) true
    (contains ~sub:"1 fixed points" stderr)

(* A witness with two distinct labels prints on one line. *)
let test_zero_round_witness_one_line () =
  let code, stdout, _ = run "zero-round --node 'A B B' --edge 'A A;B B;A B'" in
  Alcotest.(check int) "exit code 0" 0 code;
  Alcotest.(check bool) ("witness A B^2: " ^ stdout) true
    (contains ~sub:"under mirrored ports, witness: A B^2\n" stdout
    && contains ~sub:"under arbitrary ports, witness: A B^2\n" stdout)

(* Input the user got wrong (a problem, a label, a diagram or
   algorithm name, a count out of its range, a file that cannot be read
   or written, a fuzzing limit the generator cannot draw from) is a usage
   error in every binary that shares the front end: exit 2, the message
   in one line on stderr and nothing on stdout (nor a relimsweep
   journal), never cmdliner's "internal error" exit 125.  [load] reads
   a saved problem whose edge line lost its closing bracket. *)
let test_bad_problem_exits_2 () =
  let bad = Filename.temp_file "cli_bad" ".relim" in
  let oc = open_out bad in
  output_string oc "problem bad\nnode:\nM^2\nP O\nedge:\nM [PO\n";
  close_out oc;
  let usage_error ?(bin = roundelim) prog (args, msg) =
    let code, stdout, stderr = run ~bin args in
    Alcotest.(check int) (args ^ ": exit code 2") 2 code;
    Alcotest.(check bool)
      (Printf.sprintf "%s: message on stderr: %s" args stderr)
      true
      (contains ~sub:(prog ^ ": " ^ msg) stderr);
    Alcotest.(check int)
      (args ^ ": one line on stderr")
      (String.length stderr - 1)
      (String.index stderr '\n');
    Alcotest.(check string) (args ^ ": nothing on stdout") "" stdout;
    Alcotest.(check bool) (args ^ ": no internal error") false
      (contains ~sub:"internal error" stderr)
  in
  List.iter (usage_error "roundelim")
    [
      ("step --node 'A A' --edge 'A B^'", "expected integer after ^");
      ("show -p nope", "unknown preset nope");
      ("show -p pi -d 3 -a 5", "Family: need 0 <= a <= delta");
      ("show --node 'A A'", "provide either --preset or both --node and --edge");
      ("load " ^ Filename.quote bad, "unclosed [");
      ("simplify -p mis -d 3 --merge-from M",
        "provide both --merge-from and --merge-into, or neither");
      ("simplify -p mis -d 3 --merge-from Z --merge-into M", "unknown label Z");
      ("simplify -p mis -d 3 --merge-from M --merge-into M",
        "--merge-from and --merge-into name the same label");
      ("dot -p mis -d 3 --which bogus", "unknown diagram bogus (edge|node)");
      ("simulate --algo bogus", "unknown algorithm bogus (luby|cv-mis|kods)");
      ("fixed-point -p so -d 3 --max-steps 0", "--max-steps must be at least 1");
      ("step -p mis -d 3 --steps=-1", "--steps must be at least 0");
      ("autopilot -p so -d 3 --max-steps=-2", "--max-steps must be at least 1");
      ("autopilot -p so -d 3 --max-steps 0", "--max-steps must be at least 1");
      ("autopilot -p so -d 3 --beam=-1", "--beam must be at least 0");
      ("upper-bound -p mis -d 3 --max-steps=-1", "--max-steps must be at least 0");
      ("chain --delta=-4", "--delta must be at least 1");
      ("chain --delta 3 -k 5", "-k must be between 0 and --delta");
      ("certify --delta 0", "--delta must be at least 1");
      ("lemmas --delta 0", "Family: delta must be >= 1");
      ("lemmas --delta 2", "Family: need 0 <= a <= delta");
      ("lemmas -d 4 -a 3 -x 2", "Family: requires x + 2 <= a <= delta");
      ("verify-all --delta 0", "--delta must be at least 1");
      ("simulate --algo luby -n 0", "--nodes must be at least 1");
      ("simulate -n 5 --max-degree 1", "Tree_gen.random: max_degree too small");
      ("load /nonexistent-dir/file.relim",
        "/nonexistent-dir/file.relim: No such file or directory");
      ("save -p mis -d 3 /nonexistent-dir/file.relim",
        "/nonexistent-dir/file.relim: No such file or directory");
    ];
  (* Fuzz labels are the letters A..Z, and arities start at 1. *)
  List.iter
    (usage_error ~bin:certify_fuzz "certify_fuzz")
    [
      ("--count 20 --max-labels 30", "--max-labels must be between 1 and 26");
      ("--max-labels 0", "--max-labels must be between 1 and 26");
      ("--max-delta 0", "--max-delta must be at least 1");
    ];
  usage_error "roundelim"
    ("step -p mis -d 3 --domains=-1", "--domains must be at least 0");
  usage_error ~bin:"timeout" "roundelimd"
    (serve "--domains=-1", "--domains must be at least 0");
  let journal = fresh_journal () in
  List.iter
    (fun (args, msg) ->
      usage_error ~bin:relimsweep "relimsweep"
        ( Printf.sprintf "--families so --deltas 3 --out %s %s"
            (Filename.quote journal) args,
          msg ))
    [
      ("--ap-steps=-2 --ap-beam=-5", "--ap-steps must be at least 1");
      ("--ap-beam=-5", "--ap-beam must be at least 0");
      ("--domain-counts 0,1,-3", "--domain-counts entries must be at least 1");
      ("--max-cells=-1", "--max-cells must be at least 0");
    ];
  Alcotest.(check bool) "relimsweep wrote no journal" false
    (Sys.file_exists journal);
  Sys.remove bad

(* A problem whose edge compatibility is the cocktail-party graph on
   22 pairs: node "a0 a1", and for each i < 44 the edge line
   "a<i> [every label but a<i xor 1>]".  Its 2^22 maximal cliques trip
   the arbitrary-port decider's expansion budget. *)
let clique_blowup =
  let label = Printf.sprintf "a%d" in
  let line i =
    List.init 44 Fun.id
    |> List.filter (fun j -> j <> i lxor 1)
    |> List.map label |> String.concat " "
    |> Printf.sprintf "%s [%s]" (label i)
  in
  Printf.sprintf "--node 'a0 a1' --edge '%s'"
    (String.concat ";" (List.init 44 line))

(* Sinkless orientation is never 0-round solvable: the upper-bound
   search closes a certified period-1 cycle and says so, with the lower
   bounds that follow, instead of reporting a budget or blow-up. *)
let test_upper_bound_fixed_point () =
  let code, stdout, _ = run "upper-bound -p so -d 3" in
  Alcotest.(check int) "exit code 0" 0 code;
  Alcotest.(check string) "fixed-point line"
    "no 0-round problem is ever reached: the speedup step closes a \
     certified cycle of period 1 (Omega(log n) deterministic and Omega(log \
     log n) randomized LOCAL lower bounds)\n"
    stdout

(* The search decides each state's 0-round solvability once: MIS Δ=2
   stands on 3 states, so 3 verdicts are certified. *)
let test_upper_bound_decides_once () =
  let code, _, stderr = run "upper-bound -p mis -d 2 --certify" in
  Alcotest.(check int) "exit code 0" 0 code;
  Alcotest.(check bool) ("3 zero-round verdicts: " ^ stderr) true
    (contains ~sub:"certified: 5 R steps, 4 Rbar steps, 3 zero-round verdicts,"
       stderr)

(* Engine work that cannot finish (a budget overrun, or an empty node
   constraint after R) is not a usage error: step, zero-round,
   upper-bound, fixed-point, autopilot and lemmas --concrete print
   "stopped: <message>" on stdout and exit 0, never cmdliner's
   "internal error" exit 125.  RELIM_ZDD=0 pins the budget the default
   engine trips. *)
let test_engine_stops () =
  let empty = "Rounde.r: empty node constraint (no node line survived)" in
  let cliques =
    "budget exceeded: Zeroround: maximal-clique enumeration (limit 1000000)"
  in
  let stops (args, msg) =
    let code, stdout, stderr = run ~env:[ ("RELIM_ZDD", "0") ] args in
    let name = if String.length args > 60 then String.sub args 0 60 ^ "..." else args in
    Alcotest.(check int) (name ^ ": exit code 0") 0 code;
    Alcotest.(check bool)
      (Printf.sprintf "%s: stopped on stdout: %s" name stdout)
      true
      (contains ~sub:("\nstopped: " ^ msg ^ "\n") stdout);
    Alcotest.(check bool)
      (Printf.sprintf "%s: no internal error: %s" name stderr)
      false
      (contains ~sub:"internal error" stderr);
    stdout
  in
  List.iter
    (fun row -> ignore (stops row))
    [
      ( "fixed-point -p mis -d 3 --max-steps 3",
        "budget exceeded: Rounde.rbar: box enumeration work (limit 5000000)" );
      ("fixed-point --node 'A A' --edge 'B B'", empty);
      ("autopilot --node 'A A' --edge 'B B'", empty);
      ("step --node 'A A' --edge 'B B'", empty);
      ("upper-bound --node 'A A' --edge 'B B'", empty);
      ("zero-round " ^ clique_blowup, cliques);
      ("upper-bound " ^ clique_blowup, cliques);
      ("autopilot " ^ clique_blowup, cliques);
      (* R's closure lattice here is huge; the width budget trips as
         soon as R's alphabet is known to exceed 60 labels. *)
      ( "step " ^ clique_blowup,
        "budget exceeded: Rounde.r: output alphabet width (limit 60)" );
    ];
  (* Only the concrete line of lemmas stops; the 0-round lemmas still
     print after it. *)
  let stdout =
    stops
      ( "lemmas --delta 40 -a 30 -x 2 --concrete",
        "budget exceeded: Rounde.rbar: node constraint expansion (limit \
         2000000)" )
  in
  Alcotest.(check bool)
    ("lemmas prints Lemma 12 and 15 after the stop: " ^ stdout)
    true
    (contains
       ~sub:
         "(limit 2000000)\nLemma 12 (not 0-round solvable): true\nLemma 15 "
       stdout)

let () =
  Alcotest.run "cli"
    [
      ( "trace-flag",
        [
          Alcotest.test_case "unwritable --trace path aborts early" `Quick
            test_unwritable_trace_path;
          Alcotest.test_case "unwritable RELIM_TRACE aborts early" `Quick
            test_unwritable_env_trace_path;
          Alcotest.test_case "jsonl trace written" `Quick
            test_trace_jsonl_written;
          Alcotest.test_case "chrome trace written" `Quick
            test_trace_chrome_written;
          Alcotest.test_case "bad --trace-format rejected" `Quick
            test_bad_trace_format_rejected;
        ] );
      ( "zdd-flag",
        [
          Alcotest.test_case "--zdd keeps stdout byte-identical" `Quick
            test_zdd_flag_byte_identity;
          Alcotest.test_case "--stats reports an idle zdd engine" `Quick
            test_stats_explicit_zero_zdd;
          Alcotest.test_case "zdd.* trace counters recorded" `Quick
            test_zdd_trace_counters;
        ] );
      ( "fixed-point",
        [
          Alcotest.test_case "fixed-point input certified once" `Quick
            test_fixed_point_input_certified_once;
        ] );
      ( "zero-round",
        [
          Alcotest.test_case "witness on one line" `Quick
            test_zero_round_witness_one_line;
        ] );
      ( "upper-bound",
        [
          Alcotest.test_case "SO prints the fixed-point line" `Quick
            test_upper_bound_fixed_point;
          Alcotest.test_case "each state decided once" `Quick
            test_upper_bound_decides_once;
        ] );
      ( "bad-input",
        [
          Alcotest.test_case "bad problem exits 2" `Quick
            test_bad_problem_exits_2;
        ] );
      ( "engine-stop",
        [
          Alcotest.test_case "budget or failure prints stopped" `Quick
            test_engine_stops;
        ] );
    ]
