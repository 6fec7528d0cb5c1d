(* Wire-protocol tests against an in-process [roundelimd]: golden
   request/response transcripts, pipelining and concurrent-client
   interleaving, input hardening, and warm-restart byte-identity
   against the certificate-gated store. *)

module Daemon = Store.Daemon
module Client = Store.Client

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let counter = ref 0

let tmpdir () =
  incr counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "relim-daemon-test-%d-%d" (Unix.getpid ()) !counter)
  in
  (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

(* Spawn a daemon on a fresh Unix socket in its own domain; [stop] is
   polled between select rounds, so teardown takes at most one poll
   interval even if no shutdown request was sent. *)
let spawn_daemon ?max_line ?store_dir sock =
  let config =
    {
      Daemon.default_config with
      Daemon.listen = [ Daemon.Unix_socket sock ];
      store_dir;
      max_line =
        Option.value max_line ~default:Daemon.default_config.Daemon.max_line;
    }
  in
  let stop = Atomic.make false in
  let d = Domain.spawn (fun () -> Daemon.serve ~stop:(fun () -> Atomic.get stop) config) in
  (d, stop)

let with_daemon ?max_line ?store_dir f =
  let sock = Filename.concat (tmpdir ()) "d.sock" in
  let d, stop = spawn_daemon ?max_line ?store_dir sock in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join d)
    (fun () -> f sock)

let connect sock =
  match Client.connect ~retries:100 (`Unix sock) with
  | Ok c -> c
  | Error m -> Alcotest.failf "cannot connect: %s" m

let request c line =
  match Client.request c line with
  | Ok r -> r
  | Error m -> Alcotest.failf "request failed: %s" m

(* ------------------------------------------------------------------ *)
(* Golden transcripts                                                  *)
(* ------------------------------------------------------------------ *)

(* Every line below is pinned byte-for-byte: the response format is a
   wire contract, and accidental changes must fail loudly. *)
let golden_transcript =
  [
    ( {|{"id":1,"op":"ping"}|},
      {|{"id":1,"ok":true,"result":{"pong":true}}|} );
    ( {|this is not json|},
      {|{"id":null,"ok":false,"error":{"code":"parse-error","message":"not valid JSON: bad literal at offset 0"}}|}
    );
    ( {|{"id":5,"op":|},
      {|{"id":null,"ok":false,"error":{"code":"parse-error","message":"not valid JSON: unexpected end of input"}}|}
    );
    ( {|{"id":9,"op":"launch"}|},
      {|{"id":9,"ok":false,"error":{"code":"bad-request","message":"unknown op \"launch\""}}|}
    );
    ( {|{"id":2,"op":"step","problem":"not a problem"}|},
      {|{"id":2,"ok":false,"error":{"code":"bad-request","message":"problem text: Serialize.of_string: unexpected line not a problem"}}|}
    );
    ( {|{"id":4,"op":"step","problem":"problem x\nnode:\nA( A( A(\nedge:\nA( A(\n"}|},
      {|{"id":4,"ok":false,"error":{"code":"bad-request","message":"problem text: Alphabet.create: bad character '(' in \"A(\""}}|}
    );
    ( {|{"id":3,"op":"step","problem":"problem t\ndelta 2\nnode:\nA A\nedge:\nA A\n"}|},
      {|{"id":3,"ok":true,"cached":false,"result":{"problem":"problem step(t)\ndelta 2\nnode:\nA^2\nedge:\nA^2\n","labels":1,"delta":2}}|}
    );
    ( {|{"id":"fp","op":"fixed-point","problem":"problem SO\ndelta 3\nnode:\nO [IO]^2\nedge:\nO I\n"}|},
      {|{"id":"fp","ok":true,"cached":false,"result":{"verdict":"reaches-fixed-point","steps":2,"fixed":"problem step(SO)\ndelta 3\nnode:\nO OI^2\nedge:\nOI^2\nO OI\n","lower_bound":"problem step(SO) is a non-trivial fixed point: Omega(log n) deterministic and Omega(log log n) randomized LOCAL lower bounds"}}|}
    );
  ]

let test_golden_transcript () =
  with_daemon @@ fun sock ->
  let c = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.iteri
    (fun i (req, expect) ->
      check_string (Printf.sprintf "transcript line %d" i) expect (request c req))
    golden_transcript;
  (* Errors never kill the connection: the daemon is still serving. *)
  check_string "still alive after the error lines"
    {|{"id":99,"ok":true,"result":{"pong":true}}|}
    (request c {|{"id":99,"op":"ping"}|})

(* The stats payload is a wire contract too: pin its exact JSON shape,
   including the engine-wide ZDD counters sampled from [Zdd.stats].
   All global counters are reset before the daemon spawns, so the
   bytes are deterministic regardless of suite order. *)
let test_stats_transcript () =
  Relim.Fixedpoint.reset_stats ();
  Zdd.reset_stats ();
  Relim.Rounde.reset_stats ();
  with_daemon @@ fun sock ->
  let c = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  check_string "stats shape, pinned bytes"
    ({|{"id":1,"ok":true,"result":{"requests":1,"served_ok":0,|}
   ^ {|"served_error":0,"fixedpoint_cache":{"hits":0,"misses":0,|}
   ^ {|"hash_conflicts":0},"zdd":{"nodes":0,"cache_hits":0,|}
   ^ {|"peak_unique":0,"maxbox_tuples":0,"maxbox_cubes":0,|}
   ^ {|"maxbox_maximal":0,"maxbox_enumerated":0},"store":null}}|})
    (request c {|{"id":1,"op":"stats"}|});
  (* A ZDD-path engine call moves the zdd counters; the explicit path
     (the daemon's default when RELIM_ZDD is unset) must not.  Under
     RELIM_ZDD=1 the whole suite runs on the compressed path, so only
     the shape — not the zero values — can be pinned then. *)
  let mis = {|{"id":2,"op":"step","problem":"problem MIS\ndelta 3\nnode:\nM^3\nP O^2\nedge:\nO^2\nM [PO]\n"}|} in
  let _ = request c mis in
  let stats = request c {|{"id":3,"op":"stats"}|} in
  if Relim.Parctl.zdd_from_env () then
    check_bool "zdd step moves the zdd counters" true
      (contains ~sub:{|"zdd":{"nodes":|} stats
      && not (contains ~sub:{|"zdd":{"nodes":0,|} stats))
  else
    check_bool "explicit step leaves zdd counters at zero" true
      (contains ~sub:{|"zdd":{"nodes":0,"cache_hits":0,"peak_unique":0,|} stats)

(* Regression: a budget overrun inside the engine used to surface as a
   generic engine-error Failure; it is now a structured "budget" error
   echoing the tripped budget's name and configured limit.  The
   request is the one speedup step past Pi(5,4,2) — its node
   constraint expansion overruns the default engine budget
   immediately. *)
let test_budget_error_transcript () =
  let budget_req =
    let pi = Core.Family.pi { Core.Family.delta = 5; a = 4; x = 2 } in
    let { Relim.Rounde.problem = s1; _ } = Relim.Rounde.step pi in
    let text = Relim.Serialize.to_string (Relim.Simplify.normalize s1) in
    let escaped = String.concat "\\n" (String.split_on_char '\n' text) in
    {|{"id":7,"op":"step","problem":"|} ^ escaped ^ {|"}|}
  in
  with_daemon @@ fun sock ->
  let c = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  check_string "structured budget error, pinned bytes"
    {|{"id":7,"ok":false,"error":{"code":"budget","budget":"Rounde.rbar: node constraint expansion","limit":2000000,"message":"budget exceeded: Rounde.rbar: node constraint expansion (limit 2000000)"}}|}
    (request c budget_req);
  (* A budget error is an answer, not a connection failure. *)
  check_string "still serving after the budget error"
    {|{"id":8,"ok":true,"result":{"pong":true}}|}
    (request c {|{"id":8,"op":"ping"}|})

(* The compressed engines trip their own, distinctly named budgets;
   those surface over the wire as the same structured "budget" error.
   A monochromatic 21-color problem with an equality edge constraint
   has a cheap R image (21 singleton Galois pairs) whose R̄ faces the
   2^21 - 1 antichain: Δ·n = 63 bits is past the fully symbolic
   envelope, so the ZDD path streams the box DFS and overruns its
   work budget. *)
let test_zdd_budget_error_transcript () =
  let eqcol_21 =
    let names = List.init 21 (fun i -> Printf.sprintf "c%d" i) in
    let node =
      String.concat "\n"
        (List.map (fun c -> Printf.sprintf "%s %s %s" c c c) names)
    in
    let edge = String.concat "\n" (List.map (fun c -> c ^ " " ^ c) names) in
    Relim.Parse.problem ~name:"eqcol21" ~node ~edge
  in
  let req =
    let text = Relim.Serialize.to_string eqcol_21 in
    let escaped = String.concat "\\n" (String.split_on_char '\n' text) in
    {|{"id":21,"op":"step","problem":"|} ^ escaped ^ {|"}|}
  in
  let saved = Sys.getenv_opt Relim.Parctl.zdd_env_var in
  Unix.putenv Relim.Parctl.zdd_env_var "1";
  Fun.protect ~finally:(fun () ->
      Unix.putenv Relim.Parctl.zdd_env_var (Option.value saved ~default:""))
  @@ fun () ->
  with_daemon @@ fun sock ->
  let c = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  check_string "zdd budget error, pinned bytes"
    {|{"id":21,"ok":false,"error":{"code":"budget","budget":"Rounde.rbar: box enumeration work (zdd)","limit":5000000,"message":"budget exceeded: Rounde.rbar: box enumeration work (zdd) (limit 5000000)"}}|}
    (request c req);
  check_string "still serving after the zdd budget error"
    {|{"id":22,"ok":true,"result":{"pong":true}}|}
    (request c {|{"id":22,"op":"ping"}|})

(* ------------------------------------------------------------------ *)
(* Autopilot                                                           *)
(* ------------------------------------------------------------------ *)

let ap_req =
  {|{"id":"ap","op":"autopilot","problem":"problem SO\ndelta 3\nnode:\nO [IO]^2\nedge:\nO I\n"}|}

let ap_expected =
  {|{"id":"ap","ok":true,"cached":false,"result":{"verdict":"fixed-point","steps":2,"candidates":2,"budget_skips":0,"certified":2,"period":1,"fixed":"problem Rbar(R(Rbar(R(SO))))\ndelta 3\nnode:\nO,OI OI,O,OI^2\nedge:\nOI,O,OI^2\nO,OI OI,O,OI\n","lower_bound":"problem SO admits a certified relaxed fixed point: Omega(log n) deterministic and Omega(log log n) randomized LOCAL lower bounds"}}|}

let test_autopilot_op () =
  with_daemon @@ fun sock ->
  let c = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  check_string "sinkless orientation rediscovered, pinned bytes" ap_expected
    (request c ap_req);
  (* Same canonicalized problem again: served from the in-run memo. *)
  let again = request c ap_req in
  check_bool "repeat flagged cached" true
    (contains ~sub:{|"cached":true|} again);
  check_bool "repeat carries the same verdict" true
    (contains ~sub:{|"verdict":"fixed-point"|} again);
  (* max_steps is honored over the wire: one accepted step cannot
     close the SO cycle, so the search exhausts. *)
  let capped =
    request c
      {|{"id":"ap1","op":"autopilot","problem":"problem SO\ndelta 3\nnode:\nO [IO]^2\nedge:\nO I\n","max_steps":1}|}
  in
  check_bool "capped search exhausts" true
    (contains ~sub:{|"verdict":"exhausted"|} capped);
  check_bool "capped response reports the last state" true
    (contains ~sub:{|"last":"|} capped)

(* ------------------------------------------------------------------ *)
(* Pipelining and concurrent clients                                   *)
(* ------------------------------------------------------------------ *)

(* One connection, many requests in flight: responses must come back
   in request order with the ids echoed. *)
let test_pipelining () =
  with_daemon @@ fun sock ->
  let c = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let n = 50 in
  for i = 0 to n - 1 do
    match Client.send_line c (Printf.sprintf {|{"id":%d,"op":"ping"}|} (100 + i)) with
    | Ok () -> ()
    | Error m -> Alcotest.failf "send %d: %s" i m
  done;
  for i = 0 to n - 1 do
    match Client.recv_line c with
    | Ok r ->
        check_string
          (Printf.sprintf "pipelined response %d in order" i)
          (Printf.sprintf {|{"id":%d,"ok":true,"result":{"pong":true}}|}
             (100 + i))
          r
    | Error m -> Alcotest.failf "recv %d: %s" i m
  done

(* Two simultaneous connections with interleaved sends: each gets its
   own responses, in its own order, regardless of arrival interleaving. *)
let test_concurrent_clients () =
  with_daemon @@ fun sock ->
  let c1 = connect sock in
  let c2 = connect sock in
  Fun.protect
    ~finally:(fun () ->
      Client.close c1;
      Client.close c2)
  @@ fun () ->
  let mis = {|problem MIS\ndelta 3\nnode:\nM^3\nP O^2\nedge:\nO^2\nM [PO]\n|} in
  (* c1 starts an expensive request, c2 slips a cheap one in before
     c1's answer is read — and reads its own answer first. *)
  (match Client.send_line c1 ({|{"id":"big","op":"step","problem":"|} ^ mis ^ {|"}|}) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "c1 send: %s" m);
  (match Client.send_line c2 {|{"id":"small","op":"ping"}|} with
  | Ok () -> ()
  | Error m -> Alcotest.failf "c2 send: %s" m);
  (match Client.recv_line c2 with
  | Ok r ->
      check_string "c2 gets its own response"
        {|{"id":"small","ok":true,"result":{"pong":true}}|} r
  | Error m -> Alcotest.failf "c2 recv: %s" m);
  (match Client.recv_line c1 with
  | Ok r ->
      check_bool "c1 gets its own id" true (contains ~sub:{|"id":"big"|} r);
      check_bool "c1 result is the MIS step" true
        (contains ~sub:{|step(MIS)|} r)
  | Error m -> Alcotest.failf "c1 recv: %s" m);
  (* Interleave again in the opposite order on the same connections. *)
  (match Client.request c2 {|{"id":"again","op":"ping"}|} with
  | Ok r ->
      check_string "c2 still serviced"
        {|{"id":"again","ok":true,"result":{"pong":true}}|} r
  | Error m -> Alcotest.failf "c2 second: %s" m)

(* ------------------------------------------------------------------ *)
(* Input hardening                                                     *)
(* ------------------------------------------------------------------ *)

let test_oversized_line () =
  with_daemon ~max_line:1024 @@ fun sock ->
  let c = connect sock in
  let huge =
    {|{"id":1,"op":"step","problem":"|} ^ String.make 2000 'x' ^ {|"}|}
  in
  (match Client.request c huge with
  | Ok r ->
      check_bool "oversized line answered with a structured error" true
        (contains ~sub:{|"ok":false|} r && contains ~sub:"parse-error" r)
  | Error m -> Alcotest.failf "oversized: %s" m);
  (* The connection is dropped afterwards — bounded buffering — but
     the daemon itself keeps serving new connections. *)
  (match Client.recv_line c with
  | Error _ -> ()
  | Ok r -> Alcotest.failf "connection survived oversize: %s" r);
  Client.close c;
  let c2 = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c2) @@ fun () ->
  check_string "daemon still serving"
    {|{"id":2,"ok":true,"result":{"pong":true}}|}
    (request c2 {|{"id":2,"op":"ping"}|})

let test_abrupt_disconnect () =
  with_daemon @@ fun sock ->
  (* A client that sends half a line and vanishes must not disturb the
     loop. *)
  let c = connect sock in
  (match Client.send_line c {|{"id":1,"op":"pi|} with
  | Ok () -> ()
  | Error m -> Alcotest.failf "partial send: %s" m);
  Client.close c;
  let c2 = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c2) @@ fun () ->
  check_string "daemon unaffected by abrupt disconnect"
    {|{"id":2,"ok":true,"result":{"pong":true}}|}
    (request c2 {|{"id":2,"op":"ping"}|})

(* ------------------------------------------------------------------ *)
(* Warm restart against the store                                      *)
(* ------------------------------------------------------------------ *)

let step_req =
  {|{"id":1,"op":"step","problem":"problem MIS\ndelta 3\nnode:\nM^3\nP O^2\nedge:\nO^2\nM [PO]\n"}|}

let fp_req =
  {|{"id":2,"op":"fixed-point","problem":"problem SO\ndelta 3\nnode:\nO [IO]^2\nedge:\nO I\n"}|}

let shutdown_req = {|{"id":0,"op":"shutdown"}|}

(* Run one daemon lifetime over [store_dir], play [reqs], return the
   responses.  The daemon exits through the shutdown request. *)
let daemon_round ~store_dir reqs =
  let sock = Filename.concat (tmpdir ()) "d.sock" in
  let d, _stop = spawn_daemon ~store_dir sock in
  let c = connect sock in
  let responses = List.map (request c) reqs in
  let bye = request c shutdown_req in
  check_string "clean shutdown" {|{"id":0,"ok":true,"result":{"stopping":true}}|}
    bye;
  Client.close c;
  Domain.join d;
  responses

let test_restart_byte_identity () =
  let store_dir = Filename.concat (tmpdir ()) "store" in
  let cold = daemon_round ~store_dir [ step_req; fp_req ] in
  let warm = daemon_round ~store_dir [ step_req; fp_req ] in
  List.iteri
    (fun i (c, w) ->
      check_bool (Printf.sprintf "cold %d computed fresh" i) true
        (contains ~sub:{|"cached":false|} c);
      check_bool (Printf.sprintf "warm %d served from the store" i) true
        (contains ~sub:{|"cached":true|} w);
      (* Modulo the cache flag, the warm response must be the cold
         response, byte for byte. *)
      let subst s =
        let sub = {|"cached":true|} and rep = {|"cached":false|} in
        let n = String.length sub in
        let rec find i =
          if i + n > String.length s then None
          else if String.sub s i n = sub then Some i
          else find (i + 1)
        in
        match find 0 with
        | Some i ->
            String.sub s 0 i ^ rep
            ^ String.sub s (i + n) (String.length s - i - n)
        | None -> s
      in
      check_string (Printf.sprintf "warm %d byte-identical to cold" i) c
        (subst w))
    (List.combine cold warm)

let test_restart_survives_corruption () =
  let base = tmpdir () in
  let store_dir = Filename.concat base "store" in
  let cold = daemon_round ~store_dir [ step_req ] in
  check_bool "cold computed" true
    (contains ~sub:{|"cached":false|} (List.hd cold));
  (* Simulate kill -9 damage: truncate the step entry on disk. *)
  let entries = Filename.concat store_dir "entries" in
  let step_files =
    Sys.readdir entries |> Array.to_list
    |> List.filter (fun f -> String.starts_with ~prefix:"step-" f)
  in
  check_int "one step entry persisted" 1 (List.length step_files);
  let victim = Filename.concat entries (List.hd step_files) in
  let ic = open_in_bin victim in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin victim in
  output_string oc (String.sub text 0 (String.length text / 2));
  close_out oc;
  (* The damaged entry is rejected, the request recomputed — same
     bytes as the cold run, and the daemon reports the rejection. *)
  let sock = Filename.concat base "d.sock" in
  let d, _stop = spawn_daemon ~store_dir sock in
  let c = connect sock in
  let r = request c step_req in
  check_bool "recomputed, not served from damage" true
    (contains ~sub:{|"cached":false|} r);
  check_string "recomputation byte-identical to cold" (List.hd cold) r;
  let stats = request c {|{"id":9,"op":"stats"}|} in
  check_bool "rejection surfaced in stats" true
    (contains ~sub:{|"rejected_corrupt":1|} stats);
  ignore (request c shutdown_req);
  Client.close c;
  Domain.join d

(* Cold/warm against the store: the period-1 cycle certificate is
   admitted on the cold run, keyed by the cycle state itself (that is
   the problem the certificate proves something about).  A fresh
   daemon serves a request for the cycle state straight from the store
   (re-validating the certificate plus the cycle and hardness
   conditions on load); a request for the original problem repeats the
   search, since the stored entry only witnesses the cycle. *)
let ap_fixed_req =
  {|{"id":"apf","op":"autopilot","problem":"problem Rbar(R(Rbar(R(SO))))\ndelta 3\nnode:\nO,OI OI,O,OI^2\nedge:\nOI,O,OI^2\nO,OI OI,O,OI\n"}|}

let test_autopilot_store_roundtrip () =
  let store_dir = Filename.concat (tmpdir ()) "store" in
  let cold = daemon_round ~store_dir [ ap_req ] in
  check_string "cold run computes and pins the search result" ap_expected
    (List.hd cold);
  let warm = daemon_round ~store_dir [ ap_fixed_req; ap_req ] in
  let on_cycle = List.nth warm 0 and on_request = List.nth warm 1 in
  check_bool "cycle state served from the store" true
    (contains ~sub:{|"cached":true|} on_cycle);
  check_bool "stored verdict is the fixed point" true
    (contains ~sub:{|"verdict":"fixed-point"|} on_cycle);
  check_bool "no search behind the store hit" true
    (contains ~sub:{|"steps":1|} on_cycle);
  check_bool "original request searches again" true
    (contains ~sub:{|"cached":false|} on_request)

(* Within one lifetime, a repeated request is served from memory and
   flagged cached. *)
let test_within_run_dedup () =
  with_daemon @@ fun sock ->
  let c = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let first = request c step_req in
  let second = request c step_req in
  check_bool "first computed" true (contains ~sub:{|"cached":false|} first);
  check_bool "repeat flagged cached" true
    (contains ~sub:{|"cached":true|} second)

let () =
  Alcotest.run "daemon"
    [
      ( "wire",
        [
          Alcotest.test_case "golden transcript" `Quick test_golden_transcript;
          Alcotest.test_case "stats transcript" `Quick test_stats_transcript;
          Alcotest.test_case "budget error transcript" `Quick
            test_budget_error_transcript;
          Alcotest.test_case "zdd budget error transcript" `Quick
            test_zdd_budget_error_transcript;
          Alcotest.test_case "pipelining order" `Quick test_pipelining;
          Alcotest.test_case "concurrent clients" `Quick
            test_concurrent_clients;
        ] );
      ( "autopilot",
        [
          Alcotest.test_case "op + memo + max_steps" `Quick test_autopilot_op;
          Alcotest.test_case "store round-trip" `Quick
            test_autopilot_store_roundtrip;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "oversized line" `Quick test_oversized_line;
          Alcotest.test_case "abrupt disconnect" `Quick test_abrupt_disconnect;
        ] );
      ( "store",
        [
          Alcotest.test_case "restart byte-identity" `Quick
            test_restart_byte_identity;
          Alcotest.test_case "restart survives corruption" `Quick
            test_restart_survives_corruption;
          Alcotest.test_case "within-run dedup" `Quick test_within_run_dedup;
        ] );
    ]
