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

type prepared =
  | Ready of string  (* response line, fully determined *)
  | Do_step of { id : Json.t; problem : Problem.t; canon : string }
  | Do_fp of {
      id : Json.t;
      problem : Problem.t;
      canon : string;
      max_steps : int option;
    }
  | Do_autopilot of {
      id : Json.t;
      problem : Problem.t;
      canon : string;
      max_steps : int option;
    }
  | Do_ctl of Protocol.request

let prepare line =
  Trace.with_span "daemon.prepare" @@ fun () ->
  match Protocol.decode line with
  | Error (id, code, msg) -> Ready (Protocol.error_line ~id code msg)
  | Ok (Protocol.Ping { id }) ->
      Ready (Protocol.ok_line ~id [ ("pong", Json.Bool true) ])
  | Ok ((Protocol.Stats _ | Protocol.Shutdown _) as req) -> Do_ctl req
  | Ok (Protocol.Step { id; problem }) -> (
      match canonicalize problem with
      | problem, canon -> Do_step { id; problem; canon }
      | exception Failure msg ->
          Ready (Protocol.error_line ~id Protocol.Bad_request
                   ("problem text: " ^ msg)))
  | Ok (Protocol.Fixed_point { id; problem; max_steps }) -> (
      match canonicalize problem with
      | problem, canon -> Do_fp { id; problem; canon; max_steps }
      | exception Failure msg ->
          Ready (Protocol.error_line ~id Protocol.Bad_request
                   ("problem text: " ^ msg)))
  | Ok (Protocol.Autopilot { id; problem; max_steps }) -> (
      match canonicalize problem with
      | problem, canon -> Do_autopilot { id; problem; canon; max_steps }
      | exception Failure msg ->
          Ready (Protocol.error_line ~id Protocol.Bad_request
                   ("problem text: " ^ msg)))

(* ------------------------------------------------------------------ *)
(* Compute phase (sequential; the engine parallelizes internally)      *)
(* ------------------------------------------------------------------ *)

type state = {
  store : Disk.t option;
  pool : Parallel.Pool.t;
  (* Within-batch dedup: canonical text ↦ computed result fields, so n
     identical requests in one batch cost one engine run. *)
  step_memo : (string, (string * Json.t) list * bool) Hashtbl.t;
  fp_memo : (string * int option, (string * Json.t) list * bool) Hashtbl.t;
  ap_memo : (string * int option, (string * Json.t) list * bool) Hashtbl.t;
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

let compute_step st (p : Problem.t) canon =
  match
    match st.store with Some s -> Disk.find_step s p | None -> None
  with
  | Some stored ->
      let parsed = Serialize.of_string stored in
      (problem_fields stored parsed, true)
  | None ->
      let rd = Rounde.r p in
      let rbd = Rounde.rbar ~pool:st.pool rd.Rounde.problem in
      let result =
        {
          rbd.Rounde.problem with
          Problem.name = Printf.sprintf "step(%s)" p.Problem.name;
        }
      in
      let result_text = Serialize.to_string result in
      (match st.store with
      | None -> ()
      | Some store ->
          let cert =
            Certify.Certificate.of_step_parts ~source:p ~r:rd
              ~result:{ rbd with Rounde.problem = result }
          in
          (match Disk.add_step store ~source:p cert with
          | Ok () -> ()
          | Error msg ->
              (* An inadmissible self-produced certificate is a bug
                 worth surfacing, but must not fail the request. *)
              Trace.instant "daemon.store_admission_failed"
                ~attrs:[ ("error", msg) ]));
      ignore canon;
      (problem_fields result_text result, false)

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

let compute_fp st (p : Problem.t) canon max_steps =
  ignore canon;
  match
    match st.store with Some s -> Disk.find_fixed_point s p | None -> None
  with
  | Some (steps, fixed_text) ->
      (fp_fields ~steps ~fixed_text (Serialize.of_string fixed_text), true)
  | None -> (
      match Fixedpoint.detect ?max_steps ~pool:st.pool p with
      | Fixedpoint.Fixed_point (q, _) ->
          let fixed_text = Serialize.to_string q in
          (match st.store with
          | None -> ()
          | Some store -> (
              match
                Disk.add_fixed_point store ~source:p ~steps:1
                  (Certify.Certificate.of_fixed_point q)
              with
              | Ok () -> ()
              | Error msg ->
                  Trace.instant "daemon.store_admission_failed"
                    ~attrs:[ ("error", msg) ]));
          (fp_fields ~steps:1 ~fixed_text q, false)
      | Fixedpoint.Reaches_fixed_point (i, q) ->
          let fixed_text = Serialize.to_string q in
          (match st.store with
          | None -> ()
          | Some store -> (
              match
                Disk.add_fixed_point store ~source:p ~steps:i
                  (Certify.Certificate.of_fixed_point q)
              with
              | Ok () -> ()
              | Error msg ->
                  Trace.instant "daemon.store_admission_failed"
                    ~attrs:[ ("error", msg) ]));
          (fp_fields ~steps:i ~fixed_text q, false)
      | Fixedpoint.No_fixed_point_found last ->
          (* Budget-dependent, hence never persisted: a larger
             [max_steps] could still find a fixed point. *)
          ( [
              ("verdict", Json.String "none");
              ("last", Json.String (Serialize.to_string last));
            ],
            false ))

let compute_autopilot st (p : Problem.t) canon max_steps =
  ignore canon;
  match
    match st.store with Some s -> Disk.find_autopilot s p | None -> None
  with
  | Some result_text ->
      (* A stored period-1 cycle on (a problem isomorphic to) the
         canonicalized input: serve it without searching. *)
      ( [
          ("verdict", Json.String "fixed-point");
          ("period", Json.Int 1);
          ("steps", Json.Int 1);
          ("fixed", Json.String result_text);
        ],
        true )
  | None ->
      let limits =
        match max_steps with
        | None -> Autopilot.default_limits
        | Some k -> { Autopilot.default_limits with Autopilot.max_steps = k }
      in
      let report = Autopilot.search ~limits ~pool:st.pool p in
      (* Land every period-1 cycle certificate: the last accepted step
         is the one that closed the cycle, and its own source problem
         (not the request's) keys the entry. *)
      (match (st.store, report.Autopilot.verdict) with
      | Some store, Autopilot.Fixed_point { period = 1; _ } -> (
          match List.rev report.Autopilot.steps with
          | { Autopilot.certificate =
                Certify.Certificate.Relaxed_step rs as cert;
              _;
            }
            :: _ -> (
              match Serialize.of_string rs.Certify.Certificate.rs_source with
              | source -> (
                  match Disk.add_autopilot store ~source cert with
                  | Ok () -> ()
                  | Error msg ->
                      Trace.instant "daemon.store_admission_failed"
                        ~attrs:[ ("error", msg) ])
              | exception Failure msg ->
                  Trace.instant "daemon.store_admission_failed"
                    ~attrs:[ ("error", msg) ])
          | _ -> ())
      | _ -> ());
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
      (base @ extra, false)

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

(* Serve one prepared request; [`Stop] after a shutdown request. *)
let answer st prepared =
  st.requests <- st.requests + 1;
  let ok line = (line, `Continue) in
  match prepared with
  | Ready line -> ok line
  | Do_step { id; problem; canon } -> (
      Trace.with_span "daemon.request" ~attrs:[ ("op", "step") ] @@ fun () ->
      match
        match Hashtbl.find_opt st.step_memo canon with
        (* A memo replay is a cache hit whatever the first response
           said — it skipped the engine. *)
        | Some (fields, _) -> (fields, true)
        | None ->
            let result = compute_step st problem canon in
            Hashtbl.replace st.step_memo canon result;
            result
      with
      | fields, cached -> ok (Protocol.ok_line ~id ~cached fields)
      | exception Budget.Budget_exceeded { budget; limit } ->
          ok (Protocol.budget_error_line ~id ~budget ~limit)
      | exception Failure msg ->
          ok (Protocol.error_line ~id Protocol.Engine_error msg))
  | Do_fp { id; problem; canon; max_steps } -> (
      Trace.with_span "daemon.request" ~attrs:[ ("op", "fixed-point") ]
      @@ fun () ->
      match
        match Hashtbl.find_opt st.fp_memo (canon, max_steps) with
        | Some (fields, _) -> (fields, true)
        | None ->
            let result = compute_fp st problem canon max_steps in
            Hashtbl.replace st.fp_memo (canon, max_steps) result;
            result
      with
      | fields, cached -> ok (Protocol.ok_line ~id ~cached fields)
      | exception Budget.Budget_exceeded { budget; limit } ->
          ok (Protocol.budget_error_line ~id ~budget ~limit)
      | exception Failure msg ->
          ok (Protocol.error_line ~id Protocol.Engine_error msg))
  | Do_autopilot { id; problem; canon; max_steps } -> (
      Trace.with_span "daemon.request" ~attrs:[ ("op", "autopilot") ]
      @@ fun () ->
      match
        match Hashtbl.find_opt st.ap_memo (canon, max_steps) with
        | Some (fields, _) -> (fields, true)
        | None ->
            let result = compute_autopilot st problem canon max_steps in
            Hashtbl.replace st.ap_memo (canon, max_steps) result;
            result
      with
      | fields, cached -> ok (Protocol.ok_line ~id ~cached fields)
      | exception Budget.Budget_exceeded { budget; limit } ->
          (* The search absorbs per-candidate overruns itself; this
             only fires for overruns outside the candidate loop. *)
          ok (Protocol.budget_error_line ~id ~budget ~limit)
      | exception Failure msg ->
          ok (Protocol.error_line ~id Protocol.Engine_error msg))
  | Do_ctl (Protocol.Stats { id }) -> ok (Protocol.ok_line ~id (stats_fields st))
  | Do_ctl (Protocol.Shutdown { id }) ->
      (Protocol.ok_line ~id [ ("stopping", Json.Bool true) ], `Stop)
  | Do_ctl _ -> ok (Protocol.error_line ~id:Json.Null Protocol.Internal_error
                      "unroutable request")

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
      step_memo = Hashtbl.create 64;
      fp_memo = Hashtbl.create 64;
      ap_memo = Hashtbl.create 64;
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
  (* The error marker is safe to grep for: inside JSON string values
     every quote is escaped, so a literal ["ok":false] can only be the
     response's own status field. *)
  let is_error_line line =
    let marker = "\"ok\":false" in
    let m = String.length marker and n = String.length line in
    let rec find i = i + m <= n && (String.sub line i m = marker || find (i + 1)) in
    find 0
  in
  let send conn line =
    if is_error_line line then st.served_error <- st.served_error + 1
    else st.served_ok <- st.served_ok + 1;
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
    let stop_requested = ref false in
    List.iteri
      (fun i (conn, _) ->
        let line, verdict = answer st prepared.(i) in
        send conn line;
        if verdict = `Stop then stop_requested := true)
      batch;
    sample_store_counters st;
    if !stop_requested then stopping := true
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
    (* Oversized partial line: answer with a structured error and drop
       the connection — the daemon never buffers unboundedly. *)
    if Buffer.length conn.inbuf > config.max_line then begin
      conn.overflowed <- true;
      send conn
        (Protocol.error_line ~id:Json.Null Protocol.Parse_error
           (Printf.sprintf "request line exceeds %d bytes" config.max_line))
    end;
    List.filter_map
      (fun line ->
        if String.length line > config.max_line then begin
          conn.overflowed <- true;
          send conn
            (Protocol.error_line ~id:Json.Null Protocol.Parse_error
               (Printf.sprintf "request line exceeds %d bytes" config.max_line));
          None
        end
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
