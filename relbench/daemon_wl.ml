(* The [daemon] workload: the real [roundelimd serve --domains 1] as its
   own process on a Unix socket, driven by a single-process load
   generator in a closed loop (one connection per core, one outstanding
   request each).  One pass has two phases over the same seeded request
   stream: [cold] starts a daemon on an empty store, [warm] starts a
   fresh daemon over the store [cold] filled. *)

open Relim
open Common

let daemon_exe = "_build/default/bin/roundelimd.exe"

(* ---- daemon processes ---- *)

let live : int list ref = ref []

(* Kill and reap any daemon still running when the benchmark exits. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live;
      live := [])

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

type daemon = { pid : int; sock : string }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off = if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off)) in
  go 0

(* A complete response line already buffered, if any. *)
let take_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear c.buf;
      Buffer.add_substring c.buf s (i + 1) (String.length s - i - 1);
      Some (String.sub s 0 i)

let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> failwith "relbench: daemon closed the connection"
  | n -> Buffer.add_subbytes c.buf c.chunk 0 n

let rec recv c =
  match take_line c with
  | Some l -> l
  | None ->
      fill c;
      recv c

let request c line =
  send c line;
  recv c

let close c = Unix.close c.fd

(* Spawn [roundelimd serve] on [store] and wait until it answers a
   ping. *)
let start ?trace ~store ~sock () =
  let args =
    [ daemon_exe; "serve"; "--domains"; "1"; "--store"; store; "--socket"; sock ]
    @ match trace with Some p -> [ "--trace"; p ] | None -> []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (Filename.concat out_dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid = Unix.create_process daemon_exe (Array.of_list args) null null log in
  Unix.close null;
  Unix.close log;
  live := pid :: !live;
  let deadline = now () +. 30. in
  let rec ping () =
    match connect sock with
    | Some c ->
        ignore (request c {|{"id":0,"op":"ping"}|});
        close c
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (( <> ) pid) !live;
            failwith ("relbench: roundelimd exited at start-up; see " ^ Filename.concat out_dir "daemon.log"));
        if now () > deadline then failwith "relbench: roundelimd did not start";
        Unix.sleepf 0.002;
        ping ()
  in
  ping ();
  { pid; sock }

let stop d =
  (match connect d.sock with
  | Some c ->
      ignore (request c {|{"id":0,"op":"shutdown"}|});
      close c
  | None -> ());
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live

let stats d =
  match connect d.sock with
  | None -> failwith "relbench: stats: cannot connect"
  | Some c -> (
      let line = request c {|{"id":0,"op":"stats"}|} in
      close c;
      match Json.of_string line with Ok j -> j | Error e -> failwith ("relbench: stats: " ^ e))

(* ---- the closed loop ---- *)

(* Send every line of [lines] over [nconn] connections, one outstanding
   request per connection; the next request on a connection goes out
   as soon as its response arrives.  Returns the responses and the
   latencies (seconds), in stream order, and the wall time. *)
let closed_loop ~nconn sock lines =
  let n = Array.length lines in
  let conns =
    Array.init nconn (fun _ -> match connect sock with Some c -> c | None -> failwith "relbench: connect")
  in
  let responses = Array.make n "" and latency = Array.make n 0. in
  let pending = Array.make nconn (-1) and sent_at = Array.make nconn 0. in
  let next = ref 0 and remaining = ref n in
  let issue k =
    if !next < n then begin
      pending.(k) <- !next;
      sent_at.(k) <- now ();
      send conns.(k) lines.(!next);
      incr next
    end
    else pending.(k) <- -1
  in
  let t0 = now () in
  Array.iteri (fun k _ -> issue k) conns;
  while !remaining > 0 do
    let fds = List.filter_map (fun k -> if pending.(k) >= 0 then Some conns.(k).fd else None) (List.init nconn Fun.id) in
    let readable, _, _ = try Unix.select fds [] [] 60. with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], []) in
    Array.iteri
      (fun k c ->
        if List.mem c.fd readable then begin
          fill c;
          match take_line c with
          | Some line ->
              let i = pending.(k) in
              latency.(i) <- now () -. sent_at.(k);
              responses.(i) <- line;
              decr remaining;
              issue k
          | None -> ()
        end)
      conns
  done;
  let wall = now () -. t0 in
  Array.iter close conns;
  (responses, latency, wall)

(* ---- the seeded stream ---- *)

type entry = { key : string; op : string; text : string }

(* A response without its per-request fields ([id], [cached]): warm
   responses must equal cold ones on this, byte for byte. *)
let strip line =
  match Json.of_string line with
  | Ok (Json.Obj fields) -> Json.to_string (Json.Obj (List.filter (fun (k, _) -> k <> "id" && k <> "cached") fields))
  | Ok _ | Error _ -> "unparseable: " ^ line

let request_line i e =
  Json.to_string (Json.Obj [ ("id", Json.Int i); ("op", Json.String e.op); ("problem", Json.String e.text) ])

(* The daemon's canonical form of a request problem. *)
let canonical text = Serialize.of_string (Serialize.to_string (Serialize.of_string text))

let step_completes p = match Rounde.step p with _ -> true | exception (Budget.Budget_exceeded _ | Failure _) -> false

(* [distinct_filter ()] is a predicate that accepts a problem unless an
   isomorphic one was accepted before.  The store serves isomorphic
   problems from one entry, so the answer to a problem would otherwise
   depend on which of its isomorphic siblings the stream sent first. *)
let distinct_filter () =
  let seen = Hashtbl.create 256 in
  fun p ->
    (* Compare the daemon's canonical forms: serializing drops unused
       labels, which can make non-isomorphic inputs isomorphic. *)
    let p = canonical (Serialize.to_string p) in
    let h = Iso.invariant_hash p in
    if List.exists (Iso.equal_up_to_renaming p) (Hashtbl.find_all seen h) then false
    else begin
      Hashtbl.add seen h p;
      true
    end

(* Random problems drawn from the universe per seed, before the
   completion and isomorphism filters. *)
let pool_draw = 240

let requests_per_phase = 4000

(* Zipf exponent of the repeat draws. *)
let zipf_s = 1.0

(* Set-up: draw the pool from the seed, keep the random problems whose
   step completes and that are pairwise non-isomorphic, and build the
   stream — every pool entry once, then
   Zipf-skewed repeats, shuffled.  Returns the pool, the stream (pool
   indices) and the keys whose completion disagrees with the
   reference. *)
let make_stream ~seed ~expected =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let universe = Inputs.universe () in
  let picked = Array.sub (shuffle rng (Array.init (Array.length universe) Fun.id)) 0 pool_draw in
  let disagree = ref [] in
  let distinct = distinct_filter () in
  let randoms =
    Array.to_list picked
    |> List.filter_map (fun u ->
           let p = universe.(u) in
           let key = Printf.sprintf "step/u%d" u in
           let ok = step_completes p in
           if ok = (expected key = Some "fails") then disagree := key :: !disagree;
           if ok && distinct p then Some { key; op = "step"; text = Serialize.to_string p } else None)
  in
  let presets =
    List.map (fun (op, name, p) -> { key = op ^ "/" ^ name; op; text = Serialize.to_string p }) (Inputs.daemon_presets ())
  in
  let pool = shuffle rng (Array.of_list (randoms @ presets)) in
  let k = Array.length pool in
  let weights = Array.init k (fun r -> 1. /. (float_of_int (r + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let draw () =
    let x = Random.State.float rng total in
    let rec go r acc = if r = k - 1 || acc +. weights.(r) > x then r else go (r + 1) (acc +. weights.(r)) in
    go 0 0.
  in
  let repeats = Array.init (requests_per_phase - k) (fun _ -> draw ()) in
  (pool, shuffle rng (Array.append (Array.init k Fun.id) repeats), !disagree)

(* ---- one phase ---- *)

type phase = { responses : string array; latency : float array; wall : float; rss_mb : float; store : Json.t option }

let run_phase ?trace ~store ~sock lines =
  let d = start ?trace ~store ~sock () in
  let responses, latency, wall = closed_loop ~nconn:(Domain.recommended_domain_count ()) sock lines in
  let st = stats d in
  let rss_mb = peak_rss_mb (string_of_int d.pid) in
  stop d;
  { responses; latency; wall; rss_mb; store = Option.bind (Json.member "result" st) (Json.member "store") }

(* ---- per-layer probes ---- *)

(* Per-layer probes of a traced pass, outside the timed phases: admit
   every distinct step problem into a scratch store and load it back
   from a freshly opened one (load = read + certificate revalidation),
   validate the certificates alone, and decode the pass's requests and
   responses with the wire codecs. *)
let probe layers ~work pool lines responses =
  let path = Filename.concat work "probe.jsonl" in
  let scratch = Filename.concat work "probe-store" in
  let certs =
    Array.to_list pool
    |> List.filter_map (fun e ->
           if e.op <> "step" then None
           else
             let p = canonical e.text in
             match
               let rd = Rounde.r p in
               (rd, Rounde.rbar rd.Rounde.problem)
             with
             | rd, rb -> Some (p, Certify.Certificate.of_step_parts ~source:p ~r:rd ~result:rb)
             | exception (Budget.Budget_exceeded _ | Failure _) -> None)
  in
  let per_item_us f items name =
    let t0 = now () in
    Array.iter (fun x -> ignore (f x)) items;
    Layers.add layers name ((now () -. t0) *. 1e6 /. float_of_int (max 1 (Array.length items)))
  in
  with_trace_file path (fun () ->
      let store = Store.Disk.open_dir scratch in
      List.iter
        (fun (p, c) -> ignore (call "relbench.store.admit" (fun () -> Store.Disk.add_step store ~source:p c)))
        certs;
      let fresh = Store.Disk.open_dir scratch in
      List.iter (fun (p, _) -> ignore (call "relbench.store.load" (fun () -> Store.Disk.find_step fresh p))) certs;
      List.iter (fun (_, c) -> ignore (call "relbench.certify" (fun () -> Certify.Certificate.validate c))) certs);
  per_item_us Json.of_string responses "json.decode_us";
  per_item_us Store.Protocol.decode lines "protocol.decode_us";
  summarize_trace layers.Layers.summary path;
  Sys.remove path;
  rm_rf scratch

(* ---- the workload ---- *)

let store_count (s : Json.t option) k =
  match Option.bind s (fun s -> Option.bind (Json.member k s) Json.int_opt) with
  | Some v -> float_of_int v
  | None -> 0.

(* Fold a traced phase into [layers]: the daemon's own trace, its store
   counters and the cached share of its compute responses. *)
let add_traced_phase layers ~cached ~computed trace ph =
  Option.iter
    (fun p ->
      summarize_trace layers.Layers.summary p;
      Sys.remove p)
    trace;
  List.iter
    (fun (f, name) -> Layers.add layers name (store_count ph.store f))
    [ ("hits", "store.hits"); ("misses", "store.misses"); ("admitted", "store.admitted") ];
  Layers.add layers "store.rejected" (store_count ph.store "rejected_invalid" +. store_count ph.store "rejected_corrupt");
  Array.iter
    (fun line ->
      if contains {|"cached":true|} line then cached := !cached +. 1.;
      if contains {|"cached":|} line then computed := !computed +. 1.)
    ph.responses

let run ~seed ~seconds ~traced ~expected =
  let work = Filename.concat out_dir (Printf.sprintf "daemon-%d" (Unix.getpid ())) in
  rm_rf work;
  mkdir_p work;
  let sock = Filename.concat work "d.sock" in
  let setup () =
    let t0 = now () in
    let pool, stream, disagree = make_stream ~seed ~expected in
    let store = Filename.concat work "setup-store" in
    let d = start ~store ~sock () in
    let dt = now () -. t0 in
    stop d;
    rm_rf store;
    (dt, pool, stream, disagree)
  in
  let setup_time, pool, stream, disagree = setup () in
  (* Set-up is timed once more after every untraced pass, so that its
     median, like the passes', spans the whole run. *)
  let setup_times = ref [ setup_time ] in
  let lines = Array.mapi (fun i e -> request_line i pool.(e)) stream in
  (* First sight of a pool entry in the stream, classified from the
     stream itself, never from the responses. *)
  let first =
    let seen = Hashtbl.create 256 in
    Array.map
      (fun e ->
        let f = not (Hashtbl.mem seen e) in
        Hashtbl.replace seen e ();
        f)
      stream
  in
  let attempted = ref (List.length disagree) and failed = ref (List.length disagree) in
  let mismatches = ref (List.map (fun k -> Json.String ("setup filter: " ^ k)) disagree) in
  let check ph =
    Array.iteri
      (fun i line ->
        incr attempted;
        let key = pool.(stream.(i)).key in
        let id = Option.bind (Result.to_option (Json.of_string line)) (Json.member "id") in
        if id <> Some (Json.Int i) || expected key <> Some (digest (strip line)) then begin
          incr failed;
          if List.length !mismatches < 20 then
            mismatches := Json.Obj [ ("op", Json.String key); ("response", Json.String line) ] :: !mismatches
        end)
      ph.responses
  in
  let layers = Layers.create () in
  let passes = ref [] and traced_passes = ref [] and rss = ref [] and rates = ref [] in
  let cold_first = ref [] and warm_first = ref [] and repeat = ref [] and all = ref [] in
  let cached = ref 0. and computed = ref 0. in
  let k = ref 0 and last = ref 0. in
  let t_start = now () in
  (* As in the engine workloads: a pass starts only while at least half
     a pass's time is left. *)
  while !k < (if traced then 2 else 1) || now () -. t_start +. (!last /. 2.) < seconds do
    let t0 = now () in
    let traced_pass = traced && !k mod 2 = 1 in
    let store = Filename.concat work (Printf.sprintf "store-%d" !k) in
    let trace_of phase =
      if traced_pass then Some (Filename.concat work (Printf.sprintf "trace-%d-%s.jsonl" !k phase)) else None
    in
    let cold = run_phase ?trace:(trace_of "cold") ~store ~sock lines in
    let warm = run_phase ?trace:(trace_of "warm") ~store ~sock lines in
    check cold;
    check warm;
    let pass_s = cold.wall +. warm.wall in
    if traced_pass then begin
      traced_passes := pass_s :: !traced_passes;
      add_traced_phase layers ~cached ~computed (trace_of "cold") cold;
      add_traced_phase layers ~cached ~computed (trace_of "warm") warm;
      probe layers ~work pool lines (Array.append cold.responses warm.responses);
      layers.Layers.passes <- layers.Layers.passes + 1
    end
    else begin
      passes := pass_s :: !passes;
      (let t, _, _, _ = setup () in
       setup_times := t :: !setup_times);
      rss := Float.max cold.rss_mb warm.rss_mb :: !rss;
      rates := (float_of_int (2 * Array.length lines) /. pass_s) :: !rates;
      Array.iteri
        (fun i f ->
          let c = cold.latency.(i) *. 1e3 and w = warm.latency.(i) *. 1e3 in
          all := c :: w :: !all;
          if f then begin
            cold_first := c :: !cold_first;
            warm_first := w :: !warm_first
          end
          else repeat := c :: w :: !repeat)
        first
    end;
    rm_rf store;
    last := now () -. t0;
    incr k
  done;
  rm_rf work;
  let split =
    [
      ("daemon.cold_first_p50_ms", median !cold_first);
      ("daemon.warm_first_p50_ms", median !warm_first);
      ("daemon.repeat_p50_ms", median !repeat);
      ("daemon.latency_p99_ms", quantile 0.99 !all);
      ("daemon.req_per_s", median !rates);
    ]
  in
  let metrics =
    if traced then
      Layers.metrics layers
        ~extra:
          ([
             ("trace.overhead_ratio", median !traced_passes /. median !passes);
             ("daemon.cached_ratio", ratio !cached !computed);
           ]
          @ split)
    else
      [
        metric "setup_s" "s" (median !setup_times);
        metric "pass_s" "s" (median !passes);
        metric "peak_rss_mb" "MB" (median !rss);
      ]
  in
  let distinct = Array.length pool and n = Array.length lines in
  {
    attempted = !attempted;
    failed = !failed;
    metrics;
    detail =
      [
        ("pool", Json.Int distinct);
        ("requests_per_phase", Json.Int n);
        ("repeat_share", Json.Float (float_of_int (n - distinct) /. float_of_int n));
        ("latency_samples", Json.Int (List.length !all));
        ("split", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) split));
        ("passes", Json.List (List.rev_map (fun s -> Json.Float s) !passes));
        ("traced_passes", Json.List (List.rev_map (fun s -> Json.Float s) !traced_passes));
        ("setup_s", Json.List (List.rev_map (fun s -> Json.Float s) !setup_times));
        ("mismatches", Json.List (List.rev !mismatches));
      ]
      @ if traced then [ ("layers", Layers.detail layers) ] else [];
  }
