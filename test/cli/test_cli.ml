(* End-to-end tests of the roundelim binary, driving the real
   executable (path in $ROUNDELIM, set by the dune stanza): its tracing
   interface, checked with the schema validator ($VALIDATE_TRACE), the
   --zdd flag, the fixed-point command's certified summary, and the
   exit code of bad input.  The key tracing regression: an
   unwritable --trace path must abort with a clear error and exit code
   2 before any engine work runs. *)

let exe var =
  match Sys.getenv_opt var with
  | Some p -> p
  | None -> Alcotest.fail (var ^ " not set (run via dune runtest)")

let roundelim = exe "ROUNDELIM"
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

let test_unwritable_trace_path () =
  let code, stdout, stderr =
    run "step -p mis -d 3 --trace /nonexistent-dir/trace.jsonl"
  in
  Alcotest.(check int) "exit code 2" 2 code;
  Alcotest.(check bool) "clear error on stderr" true
    (contains ~sub:"--trace: cannot open trace file" stderr);
  (* The sink is opened before any engine work: no output was printed. *)
  Alcotest.(check string) "no work before the failure" "" stdout

let test_unwritable_env_trace_path () =
  let code, _, stderr =
    run
      ~env:[ ("RELIM_TRACE", "/nonexistent-dir/trace.jsonl") ]
      "step -p mis -d 3"
  in
  Alcotest.(check int) "exit code 2" 2 code;
  Alcotest.(check bool) "names the env var" true
    (contains ~sub:"RELIM_TRACE" stderr)

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

(* Input the user got wrong (a problem, a label, a diagram or
   algorithm name, a step budget below 1, a file that cannot be read or
   written) is a usage error: exit 2, the message on stderr and nothing
   on stdout, never cmdliner's "internal error" exit 125.  [load] reads
   a saved problem whose edge line lost its closing bracket. *)
let test_bad_problem_exits_2 () =
  let bad = Filename.temp_file "cli_bad" ".relim" in
  let oc = open_out bad in
  output_string oc "problem bad\nnode:\nM^2\nP O\nedge:\nM [PO\n";
  close_out oc;
  List.iter
    (fun (args, msg) ->
      let code, stdout, stderr = run args in
      Alcotest.(check int) (args ^ ": exit code 2") 2 code;
      Alcotest.(check bool)
        (Printf.sprintf "%s: message on stderr: %s" args stderr)
        true
        (contains ~sub:("roundelim: " ^ msg) stderr);
      Alcotest.(check string) (args ^ ": nothing on stdout") "" stdout)
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
      ("load /nonexistent-dir/file.relim",
        "/nonexistent-dir/file.relim: No such file or directory");
      ("save -p mis -d 3 /nonexistent-dir/file.relim",
        "/nonexistent-dir/file.relim: No such file or directory");
    ];
  Sys.remove bad

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
      ( "bad-input",
        [
          Alcotest.test_case "bad problem exits 2" `Quick
            test_bad_problem_exits_2;
        ] );
    ]
