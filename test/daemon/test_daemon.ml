(* Wire-protocol tests against an in-process [roundelimd]: golden
   request/response transcripts, pipelining and concurrent-client
   interleaving, input hardening (a client that never reads its
   answers included), and warm-restart byte-identity against the
   certificate-gated store. *)

module Daemon = Store.Daemon
module Client = Store.Client

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* [s] with its cache flag reset: a replay must be the computed
   response, byte for byte, apart from this flag. *)
let uncached s =
  let sub = {|"cached":true|} and rep = {|"cached":false|} in
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i ->
      String.sub s 0 i ^ rep ^ String.sub s (i + n) (String.length s - i - n)
  | None -> s

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

let step_req =
  {|{"id":1,"op":"step","problem":"problem MIS\ndelta 3\nnode:\nM^3\nP O^2\nedge:\nO^2\nM [PO]\n"}|}

let fp_req =
  {|{"id":2,"op":"fixed-point","problem":"problem SO\ndelta 3\nnode:\nO [IO]^2\nedge:\nO I\n"}|}

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
  Zdd.reset_stats ();
  Relim.Rounde.reset_stats ();
  with_daemon @@ fun sock ->
  let c = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  check_string "stats shape, pinned bytes"
    ({|{"id":1,"ok":true,"result":{"requests":1,"served_ok":0,|}
   ^ {|"served_error":0,"zdd":{"nodes":0,"cache_hits":0,|}
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

(* Fixed-point detection keeps nothing between requests: a store-less
   daemon answers a relabelled copy of MIS, asked right after MIS, in
   the copy's own labels X/Y/Z, not with MIS's step in M/P/O. *)
let fp1_req id node edge =
  Printf.sprintf
    {|{"id":"%s","op":"fixed-point","problem":"problem MIS\ndelta 3\nnode:\n%s\nedge:\n%s\n","max_steps":1}|}
    id node edge

let test_relabelled_fixed_point () =
  with_daemon @@ fun sock ->
  let c = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let mis = request c (fp1_req "mis" {|M^3\nP O^2|} {|O^2\nM [PO]|}) in
  check_bool "MIS answered in M/P/O" true
    (contains ~sub:{|"cached":false|} mis
    && contains ~sub:{|\nnode:\nM,MO^3\n|} mis);
  check_string "X/Y/Z copy answered in X/Y/Z, pinned bytes"
    ({|{"id":"xyz","ok":true,"cached":false,"result":{"verdict":"none",|}
   ^ {|"last":"problem step(MIS)\ndelta 3\nnode:\nX,XZ^3\nXZ,YZ^3\n|}
   ^ {|XZ^2 X,XZ,YZ\nYZ Z,XZ,YZ^2\nedge:\nX,XZ,YZ^2\nZ,XZ,YZ^2\n|}
   ^ {|XZ Z,XZ,YZ\nX,XZ YZ\nX,XZ XZ,YZ\nX,XZ X,XZ,YZ\nX,XZ Z,XZ,YZ\n|}
   ^ {|YZ X,XZ,YZ\nXZ,YZ X,XZ,YZ\nXZ,YZ Z,XZ,YZ\nX,XZ,YZ Z,XZ,YZ\n"}}|})
    (request c (fp1_req "xyz" {|X^3\nY Z^2|} {|Z^2\nX [YZ]|}))

(* Regression: a budget overrun inside the engine used to surface as a
   generic engine-error Failure; it is now a structured "budget" error
   echoing the tripped budget's name and configured limit.  The
   request is the one speedup step past Pi(5,4,2) — its node
   constraint expansion overruns the default engine budget
   immediately. *)
let budget_req =
  lazy
    (let pi = Core.Family.pi { Core.Family.delta = 5; a = 4; x = 2 } in
     let { Relim.Rounde.problem = s1; _ } = Relim.Rounde.step pi in
     let text = Relim.Serialize.to_string (Relim.Simplify.normalize s1) in
     let escaped = String.concat "\\n" (String.split_on_char '\n' text) in
     {|{"id":7,"op":"step","problem":"|} ^ escaped ^ {|"}|})

let test_budget_error_transcript () =
  with_daemon @@ fun sock ->
  let c = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  check_string "structured budget error, pinned bytes"
    {|{"id":7,"ok":false,"error":{"code":"budget","budget":"Rounde.rbar: node constraint expansion","limit":2000000,"message":"budget exceeded: Rounde.rbar: node constraint expansion (limit 2000000)"}}|}
    (request c (Lazy.force budget_req));
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
(* Canonicalization                                                    *)
(* ------------------------------------------------------------------ *)

let round s = Relim.Serialize.to_string (Relim.Serialize.of_string s)

(* The smallest known text that needs three rounds of print ∘ parse:
   the parser numbers labels by first appearance, and printing reorders
   the lines by those numbers twice over before the text settles.  The
   daemon canonicalizes it and answers it (the engine refuses its step,
   but the request is not a bad one). *)
let three_round_text =
  "problem fuzz\ndelta 1\nnode:\nz2\nedge:\n[z1 z3] [z0 z3]\nz0 z2\n"

let test_canonicalize_three_rounds () =
  let s1 = round three_round_text in
  let s2 = round s1 in
  let s3 = round s2 in
  check_bool "one round is not a fixed point" true (s1 <> s2);
  check_bool "two rounds are not a fixed point" true (s2 <> s3);
  check_string "three rounds are" s3 (round s3);
  let p, canon = Daemon.canonicalize three_round_text in
  check_string "canonicalize returns the fixed point" s3 canon;
  check_string "with its problem" canon (Relim.Serialize.to_string p);
  with_daemon @@ fun sock ->
  let c = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let r =
    request c
      Store.Json.(
        to_string
          (Obj
             [
               ("id", Int 1);
               ("op", String "step");
               ("problem", String three_round_text);
             ]))
  in
  check_bool ("answered, not refused: " ^ r) true
    (contains ~sub:{|{"id":1,|} r && not (contains ~sub:"bad-request" r))

(* A three-round text whose step the engine completes (the first text
   above it refuses). *)
let three_round_step_text =
  "problem fuzz\ndelta 2\nnode:\n[z0 z3 z1] [z0 z2 z1]\nz0 z2\nedge:\nz2 [z0 z3 z1]\n"

(* The memo keys on the problem text as the request spelled it, so a
   text that takes several canonicalization rounds is replayed as
   such: a repeat of the completed step is flagged cached and otherwise
   byte-identical, and a repeat of the refused one gets the same error
   bytes. *)
let test_three_round_replayed () =
  let s1 = round three_round_step_text in
  let s2 = round s1 in
  check_bool "not a fixed point after two rounds" true
    (s1 <> s2 && s2 <> round s2);
  let step text =
    Store.Json.(
      to_string
        (Obj [ ("id", Int 1); ("op", String "step"); ("problem", String text) ]))
  in
  with_daemon @@ fun sock ->
  let c = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let first = request c (step three_round_step_text) in
  let again = request c (step three_round_step_text) in
  check_bool ("computed: " ^ first) true
    (contains ~sub:{|"ok":true,"cached":false|} first);
  check_bool "repeat flagged cached" true (contains ~sub:{|"cached":true|} again);
  check_string "repeat otherwise byte-identical" first (uncached again);
  let refused = request c (step three_round_text) in
  check_bool ("refused by the engine: " ^ refused) true
    (contains ~sub:"engine-error" refused);
  check_string "refusal replayed byte for byte" refused
    (request c (step three_round_text))

let shuffle rng l =
  List.map snd
    (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) l))

(* [p]'s text with its labels renamed by a random permutation of
   z0, z1, ... and its node lines and edge lines shuffled. *)
let shuffled_text rng (p : Relim.Problem.t) =
  let n = Relim.Problem.label_count p in
  let perm = Array.of_list (shuffle rng (List.init n Fun.id)) in
  let q =
    Relim.Iso.apply_renaming p
      (List.init n (fun i ->
           ( Relim.Alphabet.name p.Relim.Problem.alpha i,
             Printf.sprintf "z%d" perm.(i) )))
  in
  match String.split_on_char '\n' (Relim.Serialize.to_string q) with
  | name :: delta :: "node:" :: rest ->
      let rec upto acc = function
        | "edge:" :: tl -> (List.rev acc, List.filter (( <> ) "") tl)
        | l :: tl -> upto (l :: acc) tl
        | [] -> (List.rev acc, [])
      in
      let node, edge = upto [] rest in
      String.concat "\n"
        ([ name; delta; "node:" ] @ shuffle rng node @ ("edge:" :: shuffle rng edge))
      ^ "\n"
  | _ -> Alcotest.fail "unexpected problem text"

(* On random problems, relabelled and shuffled, [canonicalize] returns
   a print ∘ parse fixed point and its problem, isomorphic to the
   canonical form of the unshuffled text. *)
let canonicalize_qcheck =
  [
    QCheck.Test.make ~name:"canonical-text-is-a-fixed-point" ~count:300
      QCheck.(int_range 0 1_000_000)
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let p = Certify.Fuzz.gen_problem ~max_labels:6 ~max_delta:4 rng in
        let q, canon = Daemon.canonicalize (shuffled_text rng p) in
        canon = Relim.Serialize.to_string q
        && round canon = canon
        && Relim.Iso.equal_up_to_renaming q
             (fst (Daemon.canonicalize (Relim.Serialize.to_string p))));
  ]

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

(* [s] with its leading id replaced by [id]: the JSON text up to the
   first comma. *)
let reid id s =
  let i = String.index s ',' in
  {|{"id":|} ^ id ^ String.sub s i (String.length s - i)

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* A raw connection to [sock] whose reads and writes give up after
   10 s, so a daemon that stops answering fails a test instead of
   hanging it. *)
let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.;
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

(* The first [n] lines read from [fd]. *)
let read_lines fd n =
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec go () =
    match String.split_on_char '\n' (Buffer.contents buf) with
    | lines when List.length lines > n -> List.filteri (fun i _ -> i < n) lines
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Alcotest.fail "connection closed"
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            go ())
  in
  go ()

(* The daemon reads every connection through one 64 KiB buffer.  One
   connection sends two request lines of about 150 KB each in four
   pieces, each longer than the buffer; right after each piece a second
   connection sends a short request and reads its answer, so reads of
   the two connections interleave.  Each connection gets its own
   answers, in its own order. *)
let test_long_lines_across_reads () =
  with_daemon @@ fun sock ->
  Client.close (connect sock);
  let long_fd = raw_connect sock and short_fd = raw_connect sock in
  Fun.protect
    ~finally:(fun () ->
      Unix.close long_fd;
      Unix.close short_fd)
  @@ fun () ->
  let padded id req =
    let body = String.sub req 0 (String.length req - 1) in
    reid id body ^ {|,"pad":"|} ^ String.make 150_000 'x' ^ "\"}\n"
  in
  let long = padded {|"long1"|} step_req ^ padded {|"long2"|} fp_req in
  let n = String.length long in
  let short =
    [
      {|{"id":"p","op":"ping"}|};
      step_req;
      fp_req;
      {|{"id":"q","op":"ping"}|};
    ]
  in
  let answers =
    List.mapi
      (fun i req ->
        write_all long_fd
          (String.sub long (i * n / 4) (((i + 1) * n / 4) - (i * n / 4)))
          0;
        write_all short_fd (req ^ "\n") 0;
        List.hd (read_lines short_fd 1))
      short
  in
  check_string "short ping answered" {|{"id":"p","ok":true,"result":{"pong":true}}|}
    (List.nth answers 0);
  check_string "second short ping answered"
    {|{"id":"q","ok":true,"result":{"pong":true}}|} (List.nth answers 3);
  match read_lines long_fd 2 with
  | [ long1; long2 ] ->
      check_string "first long line answered first"
        (reid {|"long1"|} (uncached (List.nth answers 1)))
        (uncached long1);
      check_string "second long line answered second"
        (reid {|"long2"|} (uncached (List.nth answers 2)))
        (uncached long2)
  | _ -> Alcotest.fail "expected two answers"

(* A client that pipelines requests without reading the answers stalls
   only itself.  A second domain sends 20,000 pings on one connection
   and reads nothing, so the daemon's answers fill that socket while
   the requests are still arriving.  A ping on a second connection must
   be answered meanwhile, and the first connection must then read all
   20,000 answers, in order. *)
let test_slow_reader () =
  with_daemon @@ fun sock ->
  Client.close (connect sock);
  let n = 20_000 in
  let ping i = Printf.sprintf {|{"id":%d,"op":"ping"}|} i in
  let pong i = Printf.sprintf {|{"id":%d,"ok":true,"result":{"pong":true}}|} i in
  let slow = raw_connect sock in
  Fun.protect ~finally:(fun () -> Unix.close slow) @@ fun () ->
  let writer =
    Domain.spawn (fun () ->
        let reqs = String.concat "" (List.init n (fun i -> ping i ^ "\n")) in
        match write_all slow reqs 0 with
        | () -> None
        | exception Unix.Unix_error (e, _, _) -> Some (Unix.error_message e))
  in
  Unix.sleepf 0.2;
  let other = raw_connect sock in
  (Fun.protect ~finally:(fun () -> Unix.close other) @@ fun () ->
   write_all other (ping n ^ "\n") 0;
   check_string "the other connection is served" (pong n)
     (List.hd (read_lines other 1)));
  (* Read the answers as they arrive, checking each against its id. *)
  let chunk = Bytes.create 65536 and line = Buffer.create 64 in
  let next = ref 0 in
  while !next < n do
    match Unix.read slow chunk 0 (Bytes.length chunk) with
    | 0 -> Alcotest.failf "connection closed after %d answers" !next
    | k ->
        for j = 0 to k - 1 do
          match Bytes.get chunk j with
          | '\n' ->
              if Buffer.contents line <> pong !next then
                Alcotest.failf "answer %d out of order: %s" !next
                  (Buffer.contents line);
              Buffer.clear line;
              incr next
          | c -> Buffer.add_char line c
        done
  done;
  match Domain.join writer with
  | None -> ()
  | Some m -> Alcotest.failf "pipelined sends failed: %s" m

(* ------------------------------------------------------------------ *)
(* Warm restart against the store                                      *)
(* ------------------------------------------------------------------ *)

let shutdown_req = {|{"id":0,"op":"shutdown"}|}

(* Run one daemon lifetime, over [store_dir] if given, play [reqs],
   return the responses.  The daemon exits through the shutdown
   request. *)
let daemon_round ?store_dir reqs =
  let sock = Filename.concat (tmpdir ()) "d.sock" in
  let d, _stop = spawn_daemon ?store_dir sock in
  let c = connect sock in
  let responses = List.map (request c) reqs in
  let bye = request c shutdown_req in
  check_string "clean shutdown" {|{"id":0,"ok":true,"result":{"stopping":true}}|}
    bye;
  Client.close c;
  Domain.join d;
  responses

(* A warm restart serves the step from the store and computes the
   fixed-point detection again, which the store does not keep: both
   answers byte-identical to the cold ones apart from the flag. *)
let test_restart_byte_identity () =
  let store_dir = Filename.concat (tmpdir ()) "store" in
  let cold = daemon_round ~store_dir [ step_req; fp_req ] in
  let warm = daemon_round ~store_dir [ step_req; fp_req ] in
  List.iteri
    (fun i ((c, w), served) ->
      check_bool (Printf.sprintf "cold %d computed fresh" i) true
        (contains ~sub:{|"cached":false|} c);
      check_bool
        (Printf.sprintf "warm %d %s" i
           (if served then "served from the store" else "computed"))
        true
        (contains ~sub:(Printf.sprintf {|"cached":%b|} served) w);
      check_string (Printf.sprintf "warm %d byte-identical to cold" i) c
        (uncached w))
    (List.combine (List.combine cold warm) [ true; false ])

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

(* The autopilot stores nothing: asked to search from SO and then from
   the cycle state its search closes on, a store-backed daemon answers
   both with the whole report, cold and after a restart, and so does a
   daemon without a store. *)
let ap_fixed_req =
  {|{"id":"apf","op":"autopilot","problem":"problem Rbar(R(SO))\ndelta 3\nnode:\nO OI^2\nedge:\nOI^2\nO OI\n"}|}

let test_autopilot_store_roundtrip () =
  let store_dir = Filename.concat (tmpdir ()) "store" in
  let reqs = [ ap_req; ap_fixed_req ] in
  let cold = daemon_round ~store_dir reqs in
  check_string "cold run computes and pins the search result" ap_expected
    (List.hd cold);
  let on_cycle = List.nth cold 1 in
  check_bool ("cycle state gets the whole report: " ^ on_cycle) true
    (contains ~sub:{|"cached":false|} on_cycle
    && contains ~sub:{|"candidates":1,|} on_cycle
    && contains ~sub:{|"lower_bound"|} on_cycle);
  let warm = daemon_round ~store_dir reqs in
  let storeless = daemon_round reqs in
  List.iteri
    (fun i ((c, w), l) ->
      check_string (Printf.sprintf "warm %d equals cold" i) c w;
      check_string (Printf.sprintf "store-less %d equals cold" i) c l)
    (List.combine (List.combine cold warm) storeless)

(* A 57-label problem whose node diagram is a chain (label i may sit
   next to every label j with i + j >= 56; the edge allows every pair).
   Admitting its step validates the certificate, which decides R
   completeness from the emitted sides instead of visiting 2^57 label
   subsets, so the entry is admitted and the daemon keeps answering. *)
let chain57_step_req =
  let n = 57 in
  let name i = Printf.sprintf "l%d" i in
  let node =
    List.init n (fun i ->
        match List.filter (fun j -> i + j >= n - 1) (List.init n Fun.id) with
        | [ j ] -> Printf.sprintf "%s %s" (name i) (name j)
        | js -> Printf.sprintf "%s [%s]" (name i) (String.concat " " (List.map name js)))
  in
  let all = String.concat " " (List.init n name) in
  let p =
    Relim.Parse.problem ~name:"chain57" ~node:(String.concat "\n" node)
      ~edge:(Printf.sprintf "[%s] [%s]" all all)
  in
  Store.Json.(
    to_string
      (Obj
         [
           ("id", Int 1);
           ("op", String "step");
           ("problem", String (Relim.Serialize.to_string p));
         ]))

let test_wide_step_admitted () =
  let store_dir = Filename.concat (tmpdir ()) "store" in
  with_daemon ~store_dir @@ fun sock ->
  let c = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let step = request c chain57_step_req in
  check_bool ("step computed: " ^ step) true
    (contains ~sub:{|{"id":1,"ok":true,"cached":false,|} step);
  check_string "ping answered after it" {|{"id":2,"ok":true,"result":{"pong":true}}|}
    (request c {|{"id":2,"op":"ping"}|});
  let stats = request c {|{"id":3,"op":"stats"}|} in
  check_bool ("step entry admitted: " ^ stats) true
    (contains ~sub:{|"admitted":1,"rejected_invalid":0|} stats)

(* With a store, a relabelled copy of a stored input is its own key:
   the cold run computes the X/Y/Z copy of MIS and the Z/J copy of SO,
   each asked right after its original, in the copy's own labels.  A
   warm restart serves each step its own stored answer and computes
   each fixed-point detection again, every answer byte-identical to the
   cold one apart from the flag. *)
let relabelled_reqs =
  [
    step_req;
    {|{"id":"xyz","op":"step","problem":"problem MIS\ndelta 3\nnode:\nX^3\nY Z^2\nedge:\nZ^2\nX [YZ]\n"}|};
    fp_req;
    {|{"id":"zj","op":"fixed-point","problem":"problem SO\ndelta 3\nnode:\nZ [JZ]^2\nedge:\nZ J\n"}|};
  ]

let test_relabelled_with_store () =
  let store_dir = Filename.concat (tmpdir ()) "store" in
  let cold = daemon_round ~store_dir relabelled_reqs in
  let warm = daemon_round ~store_dir relabelled_reqs in
  let xyz = List.nth cold 1 and zj = List.nth cold 3 in
  check_bool ("X/Y/Z copy computed in X/Y/Z: " ^ xyz) true
    (contains ~sub:{|"cached":false|} xyz
    && contains ~sub:{|\nnode:\nX,XZ^3\n|} xyz
    && not (contains ~sub:"M,MO" xyz));
  check_bool ("Z/J copy computed in Z/J: " ^ zj) true
    (contains ~sub:{|"cached":false|} zj
    && contains ~sub:{|\nnode:\nZ ZJ^2\n|} zj
    && not (contains ~sub:"OI" zj));
  List.iteri
    (fun i ((c, w), served) ->
      check_bool
        (Printf.sprintf "warm %d %s" i
           (if served then "served from the store" else "computed"))
        true
        (contains ~sub:(Printf.sprintf {|"cached":%b|} served) w);
      check_string (Printf.sprintf "warm %d byte-identical to cold" i) c
        (uncached w))
    (List.combine (List.combine cold warm) [ true; true; false; false ])

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

(* One memo serves every op, keyed by the op with its [max_steps] as
   well as by the problem: the same problem as a step, as fixed-point
   detection with and without a step cap, and as an autopilot search
   gets four different answers, and each repeat replays its own. *)
let test_memo_per_op () =
  let so = {|"problem":"problem SO\ndelta 3\nnode:\nO [IO]^2\nedge:\nO I\n"|} in
  let reqs =
    List.map
      (fun (id, rest) -> Printf.sprintf {|{"id":"%s",%s,%s}|} id so rest)
      [
        ("s", {|"op":"step"|});
        ("f", {|"op":"fixed-point"|});
        ("f1", {|"op":"fixed-point","max_steps":1|});
        ("a", {|"op":"autopilot"|});
      ]
  in
  with_daemon @@ fun sock ->
  let c = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let first = List.map (request c) reqs in
  let again = List.map (request c) reqs in
  List.iteri
    (fun i (f, a) ->
      check_bool (Printf.sprintf "answer %d computed" i) true
        (contains ~sub:{|"cached":false|} f);
      check_bool (Printf.sprintf "repeat %d flagged cached" i) true
        (contains ~sub:{|"cached":true|} a);
      check_string (Printf.sprintf "repeat %d replays answer %d" i i) f
        (uncached a))
    (List.combine first again);
  (* Distinct past the echoed id. *)
  let results =
    List.map
      (fun r ->
        let i = String.index r ',' in
        String.sub r i (String.length r - i))
      first
  in
  check_int "four distinct answers" 4
    (List.length (List.sort_uniq compare results))

(* A capped fixed-point detection gets the answer detection under its
   cap gives, whatever was asked before.  SO Δ=3 reaches its fixed
   point in 2 steps: after an uncapped request, a cap of 1 step answers
   "none" and a cap of 2 the 2-step verdict, computed, in a cold
   store-backed daemon and again after a restart. *)
let fp_capped k =
  Printf.sprintf
    {|{"id":"c%d","op":"fixed-point","problem":"problem SO\ndelta 3\nnode:\nO [IO]^2\nedge:\nO I\n","max_steps":%d}|}
    k k

let test_capped_fixed_point_after_store () =
  let store_dir = Filename.concat (tmpdir ()) "store" in
  let reqs = [ fp_req; fp_capped 1; fp_capped 2 ] in
  match (daemon_round ~store_dir reqs, daemon_round ~store_dir reqs) with
  | [ uncapped; cap1; cap2 ], warm ->
      check_bool ("uncapped verdict: " ^ uncapped) true
        (contains ~sub:{|"verdict":"reaches-fixed-point","steps":2,|} uncapped);
      check_bool ("cap 1 answer is none: " ^ cap1) true
        (contains ~sub:{|"cached":false,"result":{"verdict":"none",|} cap1);
      check_string "cap 2 gets the 2-step verdict" (reid {|"c2"|} uncapped) cap2;
      List.iteri
        (fun i (c, w) -> check_string (Printf.sprintf "warm %d equals cold" i) c w)
        (List.combine [ uncapped; cap1; cap2 ] warm)
  | _ -> Alcotest.fail "expected three answers"

(* Every op's answer is the same whether a daemon runs with a store,
   restarts over that store, or runs without one: one request matrix
   goes through the three lifetimes, and every answer, error replies
   included, must be byte-identical across them apart from "cached".
   The problems are MIS Δ=3, its X/Y/Z copy, SO Δ=3 and then the cycle
   state its autopilot search closes on, and 20 random problems.  Each
   gets a step and a fixed-point detection with and without a cap of 1
   step.  The named ones also get an autopilot search capped at 1
   accepted step, and SO and its cycle state one without a cap (MIS's
   uncapped search takes about 1.5 s, too long to run six times
   here). *)
let every_op_matrix () =
  let mis =
    [
      "problem MIS\ndelta 3\nnode:\nM^3\nP O^2\nedge:\nO^2\nM [PO]\n";
      "problem MIS\ndelta 3\nnode:\nX^3\nY Z^2\nedge:\nZ^2\nX [YZ]\n";
    ]
  and so =
    [
      "problem SO\ndelta 3\nnode:\nO [IO]^2\nedge:\nO I\n";
      "problem Rbar(R(SO))\ndelta 3\nnode:\nO OI^2\nedge:\nOI^2\nO OI\n";
    ]
  and random =
    let rng = Random.State.make [| 27 |] in
    List.init 20 (fun _ ->
        Relim.Serialize.to_string
          (Certify.Fuzz.gen_problem ~max_labels:4 ~max_delta:3 rng))
  in
  let steps = [ ("step", None); ("fixed-point", None); ("fixed-point", Some 1) ] in
  let ops =
    List.map (fun p -> (p, steps @ [ ("autopilot", Some 1) ])) mis
    @ List.map
        (fun p -> (p, steps @ [ ("autopilot", Some 1); ("autopilot", None) ]))
        so
    @ List.map (fun p -> (p, steps)) random
  in
  List.concat
    (List.mapi
       (fun i (text, ops) ->
         List.map
           (fun (op, cap) ->
             Store.Json.(
               to_string
                 (Obj
                    ([
                       ("id", String (Printf.sprintf "%d %s" i op));
                       ("op", String op);
                       ("problem", String text);
                     ]
                    @
                    match cap with
                    | None -> []
                    | Some k -> [ ("max_steps", Int k) ]))))
           ops)
       ops)

let test_warm_equals_cold () =
  let reqs = every_op_matrix () in
  let store_dir = Filename.concat (tmpdir ()) "store" in
  let cold = daemon_round ~store_dir reqs in
  let warm = daemon_round ~store_dir reqs in
  let storeless = daemon_round reqs in
  List.iter
    (fun (((c, w), l), r) ->
      check_string ("warm equals cold on " ^ r) (uncached c) (uncached w);
      check_string ("store-less equals cold on " ^ r) (uncached c) (uncached l))
    (List.combine (List.combine (List.combine cold warm) storeless) reqs)

(* The memo keeps error replies too: a repeated request whose engine
   run tripped a budget gets the same reply under its own id, and runs
   no R̄ step again. *)
let test_engine_error_replayed () =
  with_daemon @@ fun sock ->
  let c = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let before = Relim.Rounde.stats.Relim.Rounde.rbar_calls in
  let first = request c (Lazy.force budget_req) in
  let after_first = Relim.Rounde.stats.Relim.Rounde.rbar_calls in
  check_bool ("budget error: " ^ first) true (contains ~sub:{|"code":"budget"|} first);
  check_bool "the first request ran R-bar" true (after_first > before);
  let again = request c (reid "8" (Lazy.force budget_req)) in
  check_string "same reply under its own id" (reid "8" first) again;
  check_int "the repeat runs no R-bar step" after_first
    Relim.Rounde.stats.Relim.Rounde.rbar_calls

(* The memo keys on the problem text as the request spelled it: a copy
   of MIS with its node lines in another order, whose canonical text is
   MIS's, is computed again by a store-less daemon (same bytes,
   "cached":false) and served from the store by a store-backed one. *)
let respelled_step_req =
  {|{"id":1,"op":"step","problem":"problem MIS\ndelta 3\nnode:\nP O^2\nM^3\nedge:\nO^2\nM [PO]\n"}|}

let test_respelled_copy () =
  check_string "same canonical text"
    (snd (Daemon.canonicalize "problem MIS\ndelta 3\nnode:\nM^3\nP O^2\nedge:\nO^2\nM [PO]\n"))
    (snd (Daemon.canonicalize "problem MIS\ndelta 3\nnode:\nP O^2\nM^3\nedge:\nO^2\nM [PO]\n"));
  (with_daemon @@ fun sock ->
   let c = connect sock in
   Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
   let first = request c step_req in
   check_string "store-less: computed again, same bytes" first
     (request c respelled_step_req));
  let store_dir = Filename.concat (tmpdir ()) "store" in
  match daemon_round ~store_dir [ step_req; respelled_step_req ] with
  | [ first; copy ] ->
      check_bool "with a store: served from the store" true
        (contains ~sub:{|"cached":true|} copy);
      check_string "with a store: same bytes otherwise" first (uncached copy)
  | _ -> Alcotest.fail "expected two answers"

(* The stats op's request and outcome counts after mixed traffic: a
   ping and a step (ok), a parse error, a budget error, and an oversized
   line, which ends its connection without reaching the request count. *)
let test_stats_counts () =
  with_daemon ~max_line:8192 @@ fun sock ->
  let c = connect sock in
  ignore (request c {|{"id":1,"op":"ping"}|});
  ignore (request c step_req);
  ignore (request c "not json");
  ignore (request c (Lazy.force budget_req));
  ignore
    (request c
       ({|{"id":2,"op":"ping","pad":"|} ^ String.make 10_000 'x' ^ {|"}|}));
  Client.close c;
  let c2 = connect sock in
  Fun.protect ~finally:(fun () -> Client.close c2) @@ fun () ->
  let stats = request c2 {|{"id":3,"op":"stats"}|} in
  check_bool ("request and outcome counts: " ^ stats) true
    (contains
       ~sub:{|"result":{"requests":5,"served_ok":2,"served_error":3,|}
       stats)

let () =
  (* The RELIM_CERTIFY and RELIM_TRACE test legs cover this suite too. *)
  Certify.Hooks.install_if_env ();
  Trace.setup_from_env ();
  Alcotest.run "daemon"
    [
      ( "wire",
        [
          Alcotest.test_case "golden transcript" `Quick test_golden_transcript;
          Alcotest.test_case "stats transcript" `Quick test_stats_transcript;
          Alcotest.test_case "relabelled fixed-point" `Quick
            test_relabelled_fixed_point;
          Alcotest.test_case "budget error transcript" `Quick
            test_budget_error_transcript;
          Alcotest.test_case "zdd budget error transcript" `Quick
            test_zdd_budget_error_transcript;
          Alcotest.test_case "pipelining order" `Quick test_pipelining;
          Alcotest.test_case "concurrent clients" `Quick
            test_concurrent_clients;
        ] );
      ( "canonical",
        Alcotest.test_case "three-round text answered" `Quick
          test_canonicalize_three_rounds
        :: Alcotest.test_case "three-round texts replayed" `Quick
             test_three_round_replayed
        :: List.map Qseed.to_alcotest canonicalize_qcheck );
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
          Alcotest.test_case "long lines across reads" `Quick
            test_long_lines_across_reads;
          Alcotest.test_case "slow reader" `Quick test_slow_reader;
        ] );
      ( "store",
        [
          Alcotest.test_case "restart byte-identity" `Quick
            test_restart_byte_identity;
          Alcotest.test_case "restart survives corruption" `Quick
            test_restart_survives_corruption;
          Alcotest.test_case "relabelled copies with a store" `Quick
            test_relabelled_with_store;
          Alcotest.test_case "within-run dedup" `Quick test_within_run_dedup;
          Alcotest.test_case "one memo keyed by op" `Quick test_memo_per_op;
          Alcotest.test_case "capped fixed-point after a stored verdict" `Quick
            test_capped_fixed_point_after_store;
          Alcotest.test_case "warm equals cold for every op" `Quick
            test_warm_equals_cold;
          Alcotest.test_case "engine error replayed" `Quick
            test_engine_error_replayed;
          Alcotest.test_case "respelled copy" `Quick test_respelled_copy;
          Alcotest.test_case "stats counts after mixed traffic" `Quick
            test_stats_counts;
          Alcotest.test_case "57-label step admitted" `Quick
            test_wide_step_admitted;
        ] );
    ]
