(* Unit tests for lib/trace: the disabled path is a no-op, both sinks
   emit well-formed output, spans survive exceptions, and per-domain
   events from pool workers are merged deterministically. *)

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let with_temp_trace ?(format = Trace.Jsonl) f =
  let path = Filename.temp_file "trace_test" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Trace.enable ~path ~format;
      Fun.protect ~finally:Trace.close (fun () -> f ());
      Trace.close ();
      read_file path)

(* Crude field scraping, enough for structural assertions without a
   JSON parser (bench/validate_trace.ml does the full check). *)
let count_substring sub s =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else if String.sub s i m = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_disabled_noop () =
  check_bool "disabled by default" false (Trace.enabled ());
  (* with_span is transparent when disabled. *)
  check_int "with_span passes the value through" 41
    (Trace.with_span "x" (fun () -> 41));
  (match Trace.with_span "x" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  Trace.instant "nothing";
  Trace.counters [ ("a", 1) ]

let test_enable_disable_cycle () =
  let out =
    with_temp_trace (fun () ->
        check_bool "enabled" true (Trace.enabled ());
        Trace.with_span "outer" (fun () -> Trace.instant "tick"))
  in
  check_bool "disabled after close" false (Trace.enabled ());
  check_bool "output written" true (String.length out > 0);
  (* A second sink works after the first closed. *)
  let out2 = with_temp_trace (fun () -> Trace.instant "again") in
  check_bool "re-enabled sink writes" true
    (count_substring "\"again\"" out2 = 1)

let test_jsonl_structure () =
  let out =
    with_temp_trace (fun () ->
        Trace.with_span "outer"
          ~attrs:[ ("k", "v\"quoted\"") ]
          (fun () ->
            Trace.with_span "inner" (fun () -> Trace.instant "tick");
            Trace.counters [ ("calls", 1) ];
            Trace.counters [ ("calls", 2) ]))
  in
  let ls = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  (* outer b, inner b, tick i, inner e, two counter samples, outer e *)
  check_int "7 events" 7 (List.length ls);
  List.iter
    (fun l ->
      check_bool "line is an object" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    ls;
  check_int "2 begins" 2 (count_substring "\"ev\":\"b\"" out);
  check_int "2 ends" 2 (count_substring "\"ev\":\"e\"" out);
  check_int "1 instant" 1 (count_substring "\"ev\":\"i\"" out);
  check_int "2 counter samples" 2 (count_substring "\"ev\":\"c\"" out);
  check_int "attr string escaped" 1
    (count_substring "\"k\":\"v\\\"quoted\\\"\"" out);
  (* Timestamps are monotone within the (single) domain. *)
  let ts_of l =
    Scanf.sscanf
      (String.sub l (String.length "{\"ev\":\"x\",\"dom\":0,\"ts\":")
         (String.length l - String.length "{\"ev\":\"x\",\"dom\":0,\"ts\":"))
      "%d" Fun.id
  in
  let tss = List.map ts_of ls in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check_bool "monotone timestamps" true (monotone tss)

let test_span_closed_on_exception () =
  let out =
    with_temp_trace (fun () ->
        match Trace.with_span "failing" (fun () -> failwith "boom") with
        | () -> Alcotest.fail "exception swallowed"
        | exception Failure _ -> ())
  in
  check_int "span opened" 1 (count_substring "\"ev\":\"b\"" out);
  check_int "span closed despite the exception" 1
    (count_substring "\"ev\":\"e\"" out)

let test_chrome_structure () =
  let out =
    with_temp_trace ~format:Trace.Chrome (fun () ->
        Trace.with_span "outer" (fun () ->
            Trace.instant "tick";
            Trace.counters [ ("calls", 3) ]))
  in
  check_bool "traceEvents wrapper" true
    (count_substring "{\"traceEvents\":[" out = 1);
  check_bool "displayTimeUnit trailer" true
    (count_substring "\"displayTimeUnit\":\"ms\"" out = 1);
  check_int "begin phase" 1 (count_substring "\"ph\":\"B\"" out);
  check_int "end phase" 1 (count_substring "\"ph\":\"E\"" out);
  check_int "instant phase" 1 (count_substring "\"ph\":\"i\"" out);
  check_int "counter phase" 1 (count_substring "\"ph\":\"C\"" out)

let test_multi_domain_merge () =
  let domains = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let pool = Parallel.Pool.create ~domains in
  let out =
    with_temp_trace (fun () ->
        Parallel.Pool.run ~chunk:1 pool ~n:64
          ~init:(fun () -> ())
          ~body:(fun () i -> if i mod 8 = 0 then Trace.instant "probe")
          ~merge:ignore)
  in
  Parallel.Pool.shutdown pool;
  (* One pool.run span on the caller, one pool.worker span per
     participating domain, and every probe event recorded. *)
  check_int "one pool.run span (begin + end)" 2
    (count_substring "\"pool.run\"" out);
  check_int "8 probes" 8 (count_substring "\"probe\"" out);
  let worker_spans = count_substring "\"pool.worker\"" out in
  check_bool "worker spans recorded" true (worker_spans >= 2);
  (* Events are grouped by domain, domains in increasing order. *)
  let doms =
    List.filter_map
      (fun l ->
        match count_substring "\"dom\":" l with
        | 0 -> None
        | _ ->
            Scanf.sscanf
              (String.sub l
                 (String.length "{\"ev\":\"x\",\"dom\":")
                 (String.length l - String.length "{\"ev\":\"x\",\"dom\":"))
              "%d" Option.some)
      (String.split_on_char '\n' out |> List.filter (fun l -> l <> ""))
  in
  let sorted = List.sort compare doms in
  check_bool "per-domain blocks in increasing domain order" true
    (doms = sorted)

let test_setup_from_env () =
  (* Unset / empty: disabled. *)
  Unix.putenv Trace.env_var "";
  Trace.setup_from_env ();
  check_bool "empty env leaves tracing off" false (Trace.enabled ());
  let path = Filename.temp_file "trace_env" ".jsonl" in
  Unix.putenv Trace.env_var path;
  Unix.putenv Trace.format_env_var "jsonl";
  Trace.setup_from_env ();
  check_bool "env enables tracing" true (Trace.enabled ());
  Trace.instant "env";
  Trace.close ();
  check_int "event written" 1 (count_substring "\"env\"" (read_file path));
  (* "%p" in the path is replaced with the pid, so concurrent processes
     sharing one RELIM_TRACE setting get distinct files. *)
  let dir = Filename.temp_file "trace_env_pid" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Unix.putenv Trace.env_var (Filename.concat dir "t.%p.jsonl");
  Trace.setup_from_env ();
  check_bool "%%p env enables tracing" true (Trace.enabled ());
  Trace.instant "pid";
  Trace.close ();
  let expanded =
    Filename.concat dir
      (Printf.sprintf "t.%d.jsonl" (Unix.getpid ()))
  in
  check_bool "%%p expanded to the pid" true (Sys.file_exists expanded);
  check_int "event written to pid file" 1
    (count_substring "\"pid\"" (read_file expanded));
  Sys.remove expanded;
  Unix.rmdir dir;
  Unix.putenv Trace.env_var "";
  Sys.remove path

let () =
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "enable/close cycle" `Quick
            test_enable_disable_cycle;
          Alcotest.test_case "jsonl structure" `Quick test_jsonl_structure;
          Alcotest.test_case "span closed on exception" `Quick
            test_span_closed_on_exception;
          Alcotest.test_case "chrome structure" `Quick test_chrome_structure;
          Alcotest.test_case "multi-domain merge" `Quick
            test_multi_domain_merge;
          Alcotest.test_case "setup from env" `Quick test_setup_from_env;
        ] );
    ]
