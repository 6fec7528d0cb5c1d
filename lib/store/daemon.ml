open Relim

type listen = Unix_socket of string | Tcp of int

type config = {
  listen : listen list;
  store_dir : string option;
  pool : Parallel.Pool.t option;
  max_line : int;
}

let default_config =
  { listen = []; store_dir = None; pool = None; max_line = 8 * 1024 * 1024 }

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)
(* ------------------------------------------------------------------ *)

(* Iterate parse ∘ serialize to a textual fixed point.  The parser
   numbers labels by first appearance and the printer orders lines by
   those numbers, which can move a label's first appearance, so a text
   can take more than one round (up to four on 600,000 shuffled random
   texts).  The store keys on the result, so the loop checks
   convergence and gives up after five rounds. *)
let canonicalize text =
  let rec go s n =
    if n > 4 then failwith "canonicalization did not converge"
    else
      let p = Serialize.of_string s in
      let s' = Serialize.to_string p in
      if String.equal s s' then (p, s) else go s' (n + 1)
  in
  go (Serialize.to_string (Serialize.of_string text)) 0

(* ------------------------------------------------------------------ *)
(* Serving a request (sequential; the engine parallelizes internally)  *)
(* ------------------------------------------------------------------ *)

type state = {
  store : Disk.t option;
  pool : Parallel.Pool.t;
  (* (op, problem text as the request spelled it) ↦ what the first such
     request came to: its result fields, or its error line for a given
     id.  So n identical requests in one lifetime cost one
     canonicalization and at most one engine run.  [op] carries
     [max_steps]. *)
  memo :
    (Protocol.op * string, ((string * Json.t) list, Json.t -> string) result)
    Hashtbl.t;
  mutable requests : int;
  mutable served_ok : int;
  mutable served_error : int;
  mutable stopping : bool;
}

let problem_fields text (p : Problem.t) =
  [
    ("problem", Json.String text);
    ("labels", Json.Int (Problem.label_count p));
    ("delta", Json.Int (Problem.delta p));
  ]

let sample_store_counters st =
  match st.store with
  | None -> ()
  | Some store ->
      let s = Disk.stats store in
      Trace.counters
        [
          ("daemon.store_hits", s.Disk.hits);
          ("daemon.store_misses", s.Disk.misses);
          ("daemon.store_admitted", s.Disk.admitted);
          ("daemon.store_rejected",
           s.Disk.rejected_invalid + s.Disk.rejected_corrupt);
        ]

let fp_fields ~steps (fixed : Problem.t) =
  let verdict = if steps = 1 then "fixed-point" else "reaches-fixed-point" in
  let lb =
    match
      Fixedpoint.lower_bound_statement
        (Fixedpoint.Reaches_fixed_point (steps, fixed))
    with
    | Some s -> [ ("lower_bound", Json.String s) ]
    | None -> []
  in
  [
    ("verdict", Json.String verdict);
    ("steps", Json.Int steps);
    ("fixed", Json.String (Serialize.to_string fixed));
  ]
  @ lb

let autopilot_fields (p : Problem.t) (report : Autopilot.report) =
  let base =
    [
      ( "verdict",
        Json.String
          (match report.Autopilot.verdict with
          | Autopilot.Fixed_point _ -> "fixed-point"
          | Autopilot.Upper_bound _ -> "upper-bound"
          | Autopilot.Exhausted _ -> "exhausted") );
      ("steps", Json.Int (List.length report.Autopilot.steps));
      ("candidates", Json.Int report.Autopilot.candidates_explored);
      ("budget_skips", Json.Int report.Autopilot.budget_skips);
      ("certified", Json.Int report.Autopilot.certified_steps);
    ]
  in
  let extra =
    match report.Autopilot.verdict with
    | Autopilot.Fixed_point { problem; period } ->
        [
          ("period", Json.Int period);
          ("fixed", Json.String (Serialize.to_string problem));
          ( "lower_bound",
            Json.String
              (Printf.sprintf
                 "problem %s admits a certified relaxed fixed point: \
                  Omega(log n) deterministic and Omega(log log n) \
                  randomized LOCAL lower bounds"
                 p.Problem.name) );
        ]
    | Autopilot.Upper_bound { steps } ->
        [
          ( "upper_bound",
            Json.String
              (Printf.sprintf
                 "solvable in %d round(s) in the PN model on high-girth \
                  Delta-regular instances"
                 steps) );
        ]
    | Autopilot.Exhausted { last } ->
        [ ("last", Json.String (Serialize.to_string last)) ]
  in
  base @ extra

(* Answer [op] on [p]: the result fields and whether the store served
   them.  Only a step is served from the store, and a computed step is
   admitted to it with its certificate; fixed-point detection and the
   autopilot search always run. *)
let compute st (op : Protocol.op) (p : Problem.t) =
  match op with
  | Protocol.Step -> (
      match Option.bind st.store (fun store -> Disk.find_step store p) with
      | Some text -> (problem_fields text (Serialize.of_string text), true)
      | None ->
          let rd = Rounde.r p in
          let rbd = Rounde.rbar ~pool:st.pool rd.Rounde.problem in
          let result =
            {
              rbd.Rounde.problem with
              Problem.name = Printf.sprintf "step(%s)" p.Problem.name;
            }
          in
          Option.iter
            (fun store ->
              (* A refused certificate of the daemon's own is a bug
                 worth surfacing, but must not fail the request. *)
              match
                Disk.add_step store ~source:p
                  (Certify.Certificate.of_step_parts ~source:p ~r:rd
                     ~result:{ rbd with Rounde.problem = result })
              with
              | Ok () -> ()
              | Error msg ->
                  Trace.instant "daemon.store_admission_failed"
                    ~attrs:[ ("error", msg) ])
            st.store;
          (problem_fields (Serialize.to_string result) result, false))
  | Protocol.Fixed_point max_steps -> (
      (* [steps] is 1 when the input itself is the fixed point. *)
      match Fixedpoint.detect ?max_steps ~pool:st.pool p with
      | Fixedpoint.Fixed_point (q, _) -> (fp_fields ~steps:1 q, false)
      | Fixedpoint.Reaches_fixed_point (steps, q) -> (fp_fields ~steps q, false)
      | Fixedpoint.No_fixed_point_found last ->
          ( [
              ("verdict", Json.String "none");
              ("last", Json.String (Serialize.to_string last));
            ],
            false ))
  | Protocol.Autopilot max_steps ->
      let limits =
        match max_steps with
        | None -> Autopilot.default_limits
        | Some k -> { Autopilot.default_limits with Autopilot.max_steps = k }
      in
      (autopilot_fields p (Autopilot.search ~limits ~pool:st.pool p), false)

let stats_fields st =
  let store_fields =
    match st.store with
    | None -> [ ("store", Json.Null) ]
    | Some store ->
        let s = Disk.stats store in
        [
          ( "store",
            Json.Obj
              [
                ("hits", Json.Int s.Disk.hits);
                ("misses", Json.Int s.Disk.misses);
                ("admitted", Json.Int s.Disk.admitted);
                ("rejected_invalid", Json.Int s.Disk.rejected_invalid);
                ("rejected_corrupt", Json.Int s.Disk.rejected_corrupt);
              ] );
        ]
  in
  [
    ("requests", Json.Int st.requests);
    ("served_ok", Json.Int st.served_ok);
    ("served_error", Json.Int st.served_error);
    ( "zdd",
      Json.Obj
        [
          ("nodes", Json.Int Zdd.stats.Zdd.nodes);
          ("cache_hits", Json.Int Zdd.stats.Zdd.cache_hits);
          ("peak_unique", Json.Int Zdd.stats.Zdd.peak_unique);
          (* Symbolic R̄ output side (PR 10): the slotted maximal-box
             family cardinalities, 0 unless that path ran. *)
          ("maxbox_tuples", Json.Int Rounde.stats.Rounde.maxbox_tuples);
          ("maxbox_cubes", Json.Int Rounde.stats.Rounde.maxbox_cubes);
          ("maxbox_maximal", Json.Int Rounde.stats.Rounde.maxbox_maximal);
          ( "maxbox_enumerated",
            Json.Int Rounde.stats.Rounde.maxbox_enumerated );
        ] );
  ]
  @ store_fields

(* A response line, as [Ok] or [Error] by whether it reports an error,
   counted as served where it is produced. *)
let count st = function
  | Ok line ->
      st.served_ok <- st.served_ok + 1;
      line
  | Error line ->
      st.served_error <- st.served_error + 1;
      line

(* What a memo miss comes to: [op] on the canonical form of [text],
   served from the store or the engine, as result fields and whether the
   store served them, or as the error line for a request id.  The
   outcome depends on [op] and [text] alone (budget trips are
   deterministic for every domain count), so the memo keeps errors as
   well as answers. *)
let solve st op text =
  let error code msg = Error (fun id -> Protocol.error_line ~id code msg) in
  match canonicalize text with
  | exception Failure msg ->
      (error Protocol.Bad_request ("problem text: " ^ msg), false)
  | p, _ -> (
      match compute st op p with
      | fields, cached -> (Ok fields, cached)
      | exception Budget.Budget_exceeded { budget; limit } ->
          (* The autopilot absorbs per-candidate overruns itself; for it
             this only fires outside its candidate loop. *)
          (Error (fun id -> Protocol.budget_error_line ~id ~budget ~limit), false)
      | exception Failure msg -> (error Protocol.Engine_error msg, false))

(* Answer one request line. *)
let answer st line =
  st.requests <- st.requests + 1;
  count st
    (match Protocol.decode line with
    | Error (id, code, msg) -> Error (Protocol.error_line ~id code msg)
    | Ok (Protocol.Ping { id }) ->
        Ok (Protocol.ok_line ~id [ ("pong", Json.Bool true) ])
    | Ok (Protocol.Stats { id }) -> Ok (Protocol.ok_line ~id (stats_fields st))
    | Ok (Protocol.Shutdown { id }) ->
        st.stopping <- true;
        Ok (Protocol.ok_line ~id [ ("stopping", Json.Bool true) ])
    | Ok (Protocol.Compute { id; op; problem }) -> (
        Trace.with_span "daemon.request" ~attrs:[ ("op", Protocol.op_name op) ]
        @@ fun () ->
        let outcome, cached =
          match Hashtbl.find_opt st.memo (op, problem) with
          (* A memo replay is a cache hit whatever the first response
             said — it skipped the engine. *)
          | Some outcome -> (outcome, true)
          | None ->
              let outcome, cached = solve st op problem in
              Hashtbl.replace st.memo (op, problem) outcome;
              (outcome, cached)
        in
        match outcome with
        | Ok fields -> Ok (Protocol.ok_line ~id ~cached fields)
        | Error line -> Error (line id)))

(* ------------------------------------------------------------------ *)
(* Connections and event loop                                          *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  outbuf : Buffer.t;  (* response bytes the socket has not taken yet *)
  mutable overflowed : bool;
  mutable eof : bool;
  mutable closed : bool;
}

let listen_socket = function
  | Unix_socket path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 64;
      fd

(* Write [s] to a non-blocking socket as far as it takes it now: the
   number of bytes written. *)
let write_nonblocking fd s =
  let rec go off =
    if off >= String.length s then off
    else
      match Unix.write_substring fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> off
  in
  go 0

let pending conn = Buffer.length conn.outbuf > 0

(* Extract complete lines from a connection buffer, leaving the last
   partial line in place. *)
let drain_lines conn =
  let data = Buffer.contents conn.inbuf in
  let lines = ref [] in
  let start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        lines := String.sub data !start (i - !start) :: !lines;
        start := i + 1
      end)
    data;
  Buffer.clear conn.inbuf;
  Buffer.add_substring conn.inbuf data !start (String.length data - !start);
  List.rev !lines

let serve ?(stop = fun () -> false) (config : config) =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> () (* no SIGPIPE on this platform *));
  let pool = Parctl.resolve config.pool in
  let st =
    {
      store = Option.map Disk.open_dir config.store_dir;
      pool;
      memo = Hashtbl.create 64;
      requests = 0;
      served_ok = 0;
      served_error = 0;
      stopping = false;
    }
  in
  let listeners = List.map (fun l -> (l, listen_socket l)) config.listen in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  (* One read buffer for every connection: the loop runs on one domain
     and copies each read into its connection's [inbuf] at once. *)
  let chunk = Bytes.create 65536 in
  let close_conn conn =
    if not conn.closed then begin
      conn.closed <- true;
      Hashtbl.remove conns conn.fd;
      try Unix.close conn.fd with Unix.Unix_error _ -> ()
    end
  in
  (* Write [s] to [conn] now and keep what the socket does not take. *)
  let write_or_keep conn s =
    match write_nonblocking conn.fd s with
    | n -> Buffer.add_substring conn.outbuf s n (String.length s - n)
    | exception
        Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        close_conn conn
  in
  (* A response goes out in one write unless output is already pending,
     which it then queues behind. *)
  let send conn line =
    if conn.closed then ()
    else if pending conn then begin
      Buffer.add_string conn.outbuf line;
      Buffer.add_char conn.outbuf '\n'
    end
    else write_or_keep conn (line ^ "\n")
  in
  let flush conn =
    let s = Buffer.contents conn.outbuf in
    Buffer.clear conn.outbuf;
    write_or_keep conn s
  in
  let process_batch batch =
    (* batch : (conn, line) list in arrival order *)
    Trace.with_span "daemon.batch"
      ~attrs:[ ("requests", string_of_int (List.length batch)) ]
    @@ fun () ->
    List.iter (fun (conn, line) -> send conn (answer st line)) batch;
    sample_store_counters st
  in
  let handle_readable conn =
    (match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 -> conn.eof <- true
    | n -> Buffer.add_subbytes conn.inbuf chunk 0 n
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        conn.eof <- true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    let lines = drain_lines conn in
    (* Oversized line: answer with a structured error and drop the
       connection — the daemon never buffers unboundedly. *)
    let overflow () =
      conn.overflowed <- true;
      send conn
        (count st
           (Error
              (Protocol.error_line ~id:Json.Null Protocol.Parse_error
                 (Printf.sprintf "request line exceeds %d bytes"
                    config.max_line))))
    in
    if Buffer.length conn.inbuf > config.max_line then overflow ();
    List.filter_map
      (fun line ->
        if String.length line > config.max_line then (
          overflow ();
          None)
        else Some (conn, line))
      lines
  in
  let rec loop () =
    if st.stopping || stop () then ()
    else begin
      let listen_fds = List.map snd listeners in
      let all = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
      (* A connection with pending output is not read until that output
         is flushed, so it holds the answers to one read at most, and a
         client that does not read its answers stalls only itself. *)
      let to_read =
        List.filter_map
          (fun c ->
            if pending c || c.eof || c.overflowed then None else Some c.fd)
          all
      and to_write =
        List.filter_map (fun c -> if pending c then Some c.fd else None) all
      in
      match Unix.select (listen_fds @ to_read) to_write [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | readable, writable, _ ->
          List.iter
            (fun fd -> Option.iter flush (Hashtbl.find_opt conns fd))
            writable;
          let batch = ref [] in
          List.iter
            (fun fd ->
              if List.mem fd listen_fds then begin
                match Unix.accept fd with
                | client, _ ->
                    Unix.set_nonblock client;
                    Hashtbl.replace conns client
                      {
                        fd = client;
                        inbuf = Buffer.create 256;
                        outbuf = Buffer.create 0;
                        overflowed = false;
                        eof = false;
                        closed = false;
                      }
                | exception Unix.Unix_error _ -> ()
              end
              else
                match Hashtbl.find_opt conns fd with
                | None -> ()
                | Some conn -> batch := !batch @ handle_readable conn)
            readable;
          if !batch <> [] then process_batch !batch;
          (* Close connections after their last buffered requests were
             answered and the answers written. *)
          Hashtbl.fold (fun _ c acc -> c :: acc) conns []
          |> List.iter (fun c ->
                 if (c.eof || c.overflowed) && not (pending c) then
                   close_conn c);
          loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Hashtbl.fold (fun _ c acc -> c :: acc) conns []
      |> List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ());
      List.iter
        (fun (l, fd) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          match l with
          | Unix_socket path -> (
              try Unix.unlink path with Unix.Unix_error _ -> ())
          | Tcp _ -> ())
        listeners)
    loop
