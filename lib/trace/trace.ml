type format = Jsonl | Chrome

let env_var = "RELIM_TRACE"

let format_env_var = "RELIM_TRACE_FORMAT"

(* One recorded event.  [ts] is microseconds since the sink's [t0],
   clamped monotone non-decreasing per domain. *)
type kind =
  | Begin of (string * string) list
  | End
  | Instant of (string * string) list
  | Counters of (string * int) list

type event = { kind : kind; name : string; ts : int }

(* Per-domain event buffer.  Written only by its own domain (append to
   [revents], newest first), read by the main domain at [close] — after
   every parallel section has joined, so there is no concurrent
   access by then. *)
type buffer = {
  dom : int;
  mutable revents : event list;
  mutable last_ts : int;
}

type sink = {
  fmt : format;
  oc : out_channel;
  t0 : float;
  gen : int;  (* invalidates domain-local buffers of older sinks *)
  lock : Mutex.t;  (* guards [buffers] registration only *)
  mutable buffers : buffer list;
}

(* The hot-path gate: a single atomic load when tracing is off. *)
let enabled_flag = Atomic.make false

let current : sink option ref = ref None

let generation = ref 0

(* Domain-local buffer, tagged with the sink generation it belongs to
   so a buffer left over from a closed sink is never written into a
   new one. *)
let dls_key : (int * buffer) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let enabled () = Atomic.get enabled_flag

let buffer_of sink =
  match Domain.DLS.get dls_key with
  | Some (gen, buf) when gen = sink.gen -> buf
  | _ ->
      let buf =
        { dom = (Domain.self () :> int); revents = []; last_ts = 0 }
      in
      Mutex.lock sink.lock;
      sink.buffers <- buf :: sink.buffers;
      Mutex.unlock sink.lock;
      Domain.DLS.set dls_key (Some (sink.gen, buf));
      buf

let emit kind name =
  match !current with
  | None -> ()
  | Some sink ->
      let buf = buffer_of sink in
      let raw = int_of_float ((Unix.gettimeofday () -. sink.t0) *. 1e6) in
      let ts = if raw > buf.last_ts then raw else buf.last_ts in
      buf.last_ts <- ts;
      buf.revents <- { kind; name; ts } :: buf.revents

(* ---- JSON writing (hand-rolled: the repo has no JSON library) ---- *)

let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_string_dict buf pairs =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_json_string buf k;
      Buffer.add_char buf ':';
      add_json_string buf v)
    pairs;
  Buffer.add_char buf '}'

let add_int_dict buf pairs =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_json_string buf k;
      Buffer.add_string buf (Printf.sprintf ":%d" v))
    pairs;
  Buffer.add_char buf '}'

let jsonl_line buf dom (e : event) =
  Buffer.clear buf;
  let head ev =
    Buffer.add_string buf
      (Printf.sprintf "{\"ev\":\"%s\",\"dom\":%d,\"ts\":%d" ev dom e.ts)
  in
  (match e.kind with
  | Begin attrs ->
      head "b";
      Buffer.add_string buf ",\"name\":";
      add_json_string buf e.name;
      if attrs <> [] then begin
        Buffer.add_string buf ",\"attrs\":";
        add_string_dict buf attrs
      end
  | End ->
      head "e";
      Buffer.add_string buf ",\"name\":";
      add_json_string buf e.name
  | Instant attrs ->
      head "i";
      Buffer.add_string buf ",\"name\":";
      add_json_string buf e.name;
      if attrs <> [] then begin
        Buffer.add_string buf ",\"attrs\":";
        add_string_dict buf attrs
      end
  | Counters kvs ->
      head "c";
      Buffer.add_string buf ",\"counters\":";
      add_int_dict buf kvs);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Chrome trace_event phases: one line per emitted object, inside a
   {"traceEvents": [...]} wrapper so about://tracing and Perfetto both
   accept the file.  Domains map to tids; there is a single pid. *)
let chrome_event buf dom (e : event) k =
  let item ~ph ~name ~args ~extra =
    Buffer.clear buf;
    Buffer.add_string buf (if k = 0 then "" else ",\n");
    Buffer.add_string buf "{\"name\":";
    add_json_string buf name;
    Buffer.add_string buf
      (Printf.sprintf ",\"ph\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":%d" ph dom
         e.ts);
    (match args with
    | None -> ()
    | Some add ->
        Buffer.add_string buf ",\"args\":";
        add buf);
    Buffer.add_string buf extra;
    Buffer.add_char buf '}';
    [ Buffer.contents buf ]
  in
  match e.kind with
  | Begin attrs ->
      item ~ph:"B" ~name:e.name
        ~args:(if attrs = [] then None else Some (fun b -> add_string_dict b attrs))
        ~extra:""
  | End -> item ~ph:"E" ~name:e.name ~args:None ~extra:""
  | Instant attrs ->
      item ~ph:"i" ~name:e.name
        ~args:(if attrs = [] then None else Some (fun b -> add_string_dict b attrs))
        ~extra:",\"s\":\"t\""
  | Counters kvs ->
      (* One C event per series, so each counter gets its own track. *)
      List.concat_map
        (fun (name, v) ->
          item ~ph:"C" ~name
            ~args:(Some (fun b -> add_int_dict b [ ("value", v) ]))
            ~extra:"")
        kvs

let write_out sink =
  (* Deterministic merge: buffers in increasing domain id, each
     buffer's events in emission order. *)
  let buffers =
    List.sort (fun a b -> compare a.dom b.dom) sink.buffers
  in
  let buf = Buffer.create 256 in
  (match sink.fmt with
  | Jsonl ->
      List.iter
        (fun b ->
          List.iter
            (fun e -> output_string sink.oc (jsonl_line buf b.dom e))
            (List.rev b.revents))
        buffers
  | Chrome ->
      output_string sink.oc "{\"traceEvents\":[\n";
      let k = ref 0 in
      List.iter
        (fun b ->
          List.iter
            (fun e ->
              List.iter
                (fun line ->
                  output_string sink.oc line;
                  incr k)
                (chrome_event buf b.dom e !k))
            (List.rev b.revents))
        buffers;
      output_string sink.oc "\n],\"displayTimeUnit\":\"ms\"}\n");
  flush sink.oc

let close () =
  match !current with
  | None -> ()
  | Some sink ->
      Atomic.set enabled_flag false;
      current := None;
      write_out sink;
      close_out sink.oc

let at_exit_registered = ref false

let enable ~path ~format =
  close ();
  let oc = open_out path in
  incr generation;
  let sink =
    {
      fmt = format;
      oc;
      t0 = Unix.gettimeofday ();
      gen = !generation;
      lock = Mutex.create ();
      buffers = [];
    }
  in
  current := Some sink;
  Atomic.set enabled_flag true;
  if not !at_exit_registered then begin
    at_exit_registered := true;
    at_exit close
  end

(* "%p" in an env-provided path becomes the pid, so concurrent
   processes (e.g. the test binaries under one `dune runtest`) can
   share a single RELIM_TRACE setting without clobbering each other. *)
let substitute_pid path =
  match String.index_opt path '%' with
  | None -> path
  | Some _ ->
      let buf = Buffer.create (String.length path + 8) in
      let i = ref 0 in
      let n = String.length path in
      while !i < n do
        if !i + 1 < n && path.[!i] = '%' && path.[!i + 1] = 'p' then begin
          Buffer.add_string buf (string_of_int (Unix.getpid ()));
          i := !i + 2
        end
        else begin
          Buffer.add_char buf path.[!i];
          incr i
        end
      done;
      Buffer.contents buf

let setup_from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> ()
  | Some path ->
      let format =
        match Sys.getenv_opt format_env_var with
        | Some "chrome" -> Chrome
        | Some _ | None -> Jsonl
      in
      enable ~path:(substitute_pid path) ~format

(* ---- emitting API ---- *)

let with_span ?(attrs = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    emit (Begin attrs) name;
    match f () with
    | v ->
        emit End name;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        emit End name;
        Printexc.raise_with_backtrace e bt
  end

let instant ?(attrs = []) name =
  if Atomic.get enabled_flag then emit (Instant attrs) name

let counters kvs =
  if Atomic.get enabled_flag && kvs <> [] then emit (Counters kvs) "counters"
