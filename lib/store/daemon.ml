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

(* Iterate parse ∘ serialize to a textual fixed point.  One round
   suffices (the parser numbers labels by first appearance in the
   text, an order re-serialization preserves), but we verify instead
   of assuming, with a small bound as a safety net. *)
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
(* Request preparation (pure, parallelizable)                          *)
(* ------------------------------------------------------------------ *)

(* A response line, as [Ok] or [Error] by whether it reports an error:
   the served_ok/served_error counters read this tag. *)
type reply = (string, string) result

type prepared =
  | Ready of reply  (* fully determined at preparation *)
  | Compute of {
      id : Json.t;
      op : Protocol.op;
      problem : Problem.t;
      canon : string;
    }
  | Stats of Json.t
  | Shutdown of Json.t

let prepare line =
  Trace.with_span "daemon.prepare" @@ fun () ->
  match Protocol.decode line with
  | Error (id, code, msg) -> Ready (Error (Protocol.error_line ~id code msg))
  | Ok (Protocol.Ping { id }) ->
      Ready (Ok (Protocol.ok_line ~id [ ("pong", Json.Bool true) ]))
  | Ok (Protocol.Stats { id }) -> Stats id
  | Ok (Protocol.Shutdown { id }) -> Shutdown id
  | Ok (Protocol.Compute { id; op; problem }) -> (
      match canonicalize problem with
      | problem, canon -> Compute { id; op; problem; canon }
      | exception Failure msg ->
          Ready
            (Error
               (Protocol.error_line ~id Protocol.Bad_request
                  ("problem text: " ^ msg))))

(* ------------------------------------------------------------------ *)
(* Compute phase (sequential; the engine parallelizes internally)      *)
(* ------------------------------------------------------------------ *)

type state = {
  store : Disk.t option;
  pool : Parallel.Pool.t;
  (* (op, canonical text) ↦ result fields, so n identical requests in
     one lifetime cost one engine run.  [op] carries [max_steps]. *)
  memo : (Protocol.op * string, (string * Json.t) list) Hashtbl.t;
  mutable requests : int;
  mutable served_ok : int;
  mutable served_error : int;
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

(* Land a self-produced certificate in the store.  An inadmissible one
   is a bug worth surfacing, but must not fail the request. *)
let admit st add =
  match st.store with
  | None -> ()
  | Some store -> (
      match add store with
      | Ok () -> ()
      | Error msg ->
          Trace.instant "daemon.store_admission_failed"
            ~attrs:[ ("error", msg) ])

let fp_fields ~steps ~fixed_text (fixed : Problem.t) =
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
    ("fixed", Json.String fixed_text);
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

(* Serve [op] on [p] from the store, or run the engine and admit what
   it certifies: the result fields and whether the store served them. *)
let compute st (op : Protocol.op) (p : Problem.t) =
  let stored find =
    match st.store with Some s -> find s p | None -> None
  in
  match op with
  | Protocol.Step -> (
      match stored Disk.find_step with
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
          admit st (fun store ->
              Disk.add_step store ~source:p
                (Certify.Certificate.of_step_parts ~source:p ~r:rd
                   ~result:{ rbd with Rounde.problem = result }));
          (problem_fields (Serialize.to_string result) result, false))
  | Protocol.Fixed_point max_steps -> (
      match stored Disk.find_fixed_point with
      | Some (steps, fixed_text) ->
          (fp_fields ~steps ~fixed_text (Serialize.of_string fixed_text), true)
      | None -> (
          (* [steps] is 1 when the input itself is the fixed point. *)
          let found steps q =
            admit st (fun store ->
                Disk.add_fixed_point store ~source:p ~steps
                  (Certify.Certificate.of_fixed_point q));
            (fp_fields ~steps ~fixed_text:(Serialize.to_string q) q, false)
          in
          match Fixedpoint.detect ?max_steps ~pool:st.pool p with
          | Fixedpoint.Fixed_point (q, _) -> found 1 q
          | Fixedpoint.Reaches_fixed_point (steps, q) -> found steps q
          | Fixedpoint.No_fixed_point_found last ->
              (* Budget-dependent, hence never persisted: a larger
                 [max_steps] could still find a fixed point. *)
              ( [
                  ("verdict", Json.String "none");
                  ("last", Json.String (Serialize.to_string last));
                ],
                false )))
  | Protocol.Autopilot max_steps -> (
      match stored Disk.find_autopilot with
      | Some fixed_text ->
          (* A stored period-1 cycle on (a problem isomorphic to) the
             canonicalized input: serve it without searching. *)
          ( [
              ("verdict", Json.String "fixed-point");
              ("period", Json.Int 1);
              ("steps", Json.Int 1);
              ("fixed", Json.String fixed_text);
            ],
            true )
      | None ->
          let limits =
            match max_steps with
            | None -> Autopilot.default_limits
            | Some k -> { Autopilot.default_limits with Autopilot.max_steps = k }
          in
          let report = Autopilot.search ~limits ~pool:st.pool p in
          (* Land every period-1 cycle certificate: the last accepted
             step is the one that closed the cycle, and its own source
             problem (not the request's) keys the entry. *)
          (match (report.Autopilot.verdict, List.rev report.Autopilot.steps) with
          | ( Autopilot.Fixed_point { period = 1; _ },
              {
                Autopilot.certificate =
                  Certify.Certificate.Relaxed_step rs as cert;
                _;
              }
              :: _ ) ->
              admit st (fun store ->
                  match Serialize.of_string rs.Certify.Certificate.rs_source with
                  | source -> Disk.add_autopilot store ~source cert
                  | exception Failure msg -> Error msg)
          | _ -> ());
          (autopilot_fields p report, false))

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
                ("hash_conflicts", Json.Int s.Disk.hash_conflicts);
              ] );
        ]
  in
  [
    ("requests", Json.Int st.requests);
    ("served_ok", Json.Int st.served_ok);
    ("served_error", Json.Int st.served_error);
    ( "fixedpoint_cache",
      Json.Obj
        [
          ("hits", Json.Int Fixedpoint.stats.Fixedpoint.cache_hits);
          ("misses", Json.Int Fixedpoint.stats.Fixedpoint.cache_misses);
          ("hash_conflicts", Json.Int Fixedpoint.stats.Fixedpoint.hash_conflicts);
        ] );
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

(* A reply's line, counted as served where the reply is produced. *)
let count st = function
  | Ok line ->
      st.served_ok <- st.served_ok + 1;
      line
  | Error line ->
      st.served_error <- st.served_error + 1;
      line

(* Serve one prepared request. *)
let answer st prepared =
  st.requests <- st.requests + 1;
  count st
    (match prepared with
    | Ready reply -> reply
    | Compute { id; op; problem; canon } -> (
        Trace.with_span "daemon.request" ~attrs:[ ("op", Protocol.op_name op) ]
        @@ fun () ->
        match
          match Hashtbl.find_opt st.memo (op, canon) with
          (* A memo replay is a cache hit whatever the first response
             said — it skipped the engine. *)
          | Some fields -> (fields, true)
          | None ->
              let fields, cached = compute st op problem in
              Hashtbl.replace st.memo (op, canon) fields;
              (fields, cached)
        with
        | fields, cached -> Ok (Protocol.ok_line ~id ~cached fields)
        | exception Budget.Budget_exceeded { budget; limit } ->
            (* The autopilot absorbs per-candidate overruns itself; for
               it this only fires outside its candidate loop. *)
            Error (Protocol.budget_error_line ~id ~budget ~limit)
        | exception Failure msg ->
            Error (Protocol.error_line ~id Protocol.Engine_error msg))
    | Stats id -> Ok (Protocol.ok_line ~id (stats_fields st))
    | Shutdown id -> Ok (Protocol.ok_line ~id [ ("stopping", Json.Bool true) ]))

(* ------------------------------------------------------------------ *)
(* Connections and event loop                                          *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
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

let write_all fd s =
  let len = String.length s in
  let bytes = Bytes.of_string s in
  let rec go off =
    if off < len then
      let n = Unix.write fd bytes off (len - off) in
      go (off + n)
  in
  go 0

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
    }
  in
  let listeners = List.map (fun l -> (l, listen_socket l)) config.listen in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let stopping = ref false in
  let close_conn conn =
    if not conn.closed then begin
      conn.closed <- true;
      Hashtbl.remove conns conn.fd;
      try Unix.close conn.fd with Unix.Unix_error _ -> ()
    end
  in
  let send conn line =
    if not conn.closed then
      match write_all conn.fd (line ^ "\n") with
      | () -> ()
      | exception
          Unix.Unix_error
            ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
          close_conn conn
  in
  let process_batch batch =
    (* batch : (conn, line) list in arrival order *)
    let n = List.length batch in
    Trace.with_span "daemon.batch"
      ~attrs:[ ("requests", string_of_int n) ]
    @@ fun () ->
    let lines = Array.of_list (List.map snd batch) in
    let prepared =
      if n > 1 && Parallel.Pool.domains pool > 1 then
        Parallel.Pool.map pool prepare lines
      else Array.map prepare lines
    in
    List.iteri
      (fun i (conn, _) ->
        send conn (answer st prepared.(i));
        match prepared.(i) with Shutdown _ -> stopping := true | _ -> ())
      batch;
    sample_store_counters st
  in
  let handle_readable conn =
    let chunk = Bytes.create 65536 in
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
    if !stopping || stop () then ()
    else begin
      let listen_fds = List.map snd listeners in
      let conn_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
      match Unix.select (listen_fds @ conn_fds) [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | readable, _, _ ->
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
             answered. *)
          Hashtbl.fold (fun _ c acc -> c :: acc) conns []
          |> List.iter (fun c ->
                 if c.eof || c.overflowed then close_conn c);
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
