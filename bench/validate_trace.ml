(* Schema validator for the execution traces emitted by lib/trace, read
   through lib/store's JSON parser.  Used by `make trace-smoke`, the CI
   trace leg and test/cli to guarantee that the traces roundelim writes
   stay well-formed and internally consistent:

   - every line (JSONL) / traceEvents element (--chrome) parses as JSON
     with the expected fields;
   - span begin/end events nest properly per domain (an end always
     closes the innermost open span of its domain, and every span
     opened is closed by end of trace);
   - timestamps are monotone non-decreasing per domain;
   - counter series are non-decreasing per domain (they sample
     cumulative engine statistics);
   - counter totals reconcile with the span structure: the final value
     of rounde.r_calls must equal the number of closed rounde.r spans
     (likewise rounde.rbar_calls / rounde.rbar and
     zeroround.clique_calls / zeroround.arbitrary_ports), and
     fixedpoint.steps_applied = cache_hits + cache_misses = number of
     closed fixedpoint.step spans.

   Exit code 0 iff every file passes; 1 on a validation failure; 2 on
   usage errors.  Failure messages name the file, the line (JSONL) or
   event index (--chrome), and the violated property. *)

module Json = Store.Json

let member = Json.member

(* One normalized event, whichever format it came from. *)
type ev =
  | Span_begin of string
  | Span_end of string
  | Instant of string
  | Counter of (string * int) list

type norm = { where : string; dom : int; ts : int; ev : ev }

exception Invalid of string

let failf where fmt =
  Printf.ksprintf (fun msg -> raise (Invalid (where ^ ": " ^ msg))) fmt

let need_str where what v =
  match Option.bind v Json.string_opt with
  | Some s -> s
  | None -> failf where "missing or non-string %s" what

let need_int where what v =
  match Option.bind v Json.int_opt with
  | Some i -> i
  | None -> failf where "missing or non-integer %s" what

let norm_jsonl ~where line =
  let j =
    match Json.of_string line with
    | Ok j -> j
    | Error msg -> failf where "invalid JSON: %s" msg
  in
  let dom = need_int where "\"dom\"" (member "dom" j) in
  let ts = need_int where "\"ts\"" (member "ts" j) in
  let name () = need_str where "\"name\"" (member "name" j) in
  let ev =
    match need_str where "\"ev\"" (member "ev" j) with
    | "b" -> Span_begin (name ())
    | "e" -> Span_end (name ())
    | "i" -> Instant (name ())
    | "c" -> (
        match member "counters" j with
        | Some (Json.Obj kvs) ->
            Counter
              (List.map
                 (fun (k, v) ->
                   (k, need_int where (Printf.sprintf "counter %S" k) (Some v)))
                 kvs)
        | _ -> failf where "counter event without \"counters\" object")
    | other -> failf where "unknown event kind %S" other
  in
  { where; dom; ts; ev }

let norm_chrome ~where j =
  let dom = need_int where "\"tid\"" (member "tid" j) in
  let ts = need_int where "\"ts\"" (member "ts" j) in
  let name = need_str where "\"name\"" (member "name" j) in
  let ev =
    match need_str where "\"ph\"" (member "ph" j) with
    | "B" -> Span_begin name
    | "E" -> Span_end name
    | "i" -> Instant name
    | "C" -> (
        match member "args" j with
        | Some args -> (
            match Option.bind (member "value" args) Json.int_opt with
            | Some v -> Counter [ (name, v) ]
            | None -> failf where "counter event without args.value")
        | None -> failf where "counter event without args")
    | "M" -> Instant name  (* metadata: tolerated, not checked *)
    | other -> failf where "unknown phase %S" other
  in
  { where; dom; ts; ev }

(* Counter series whose final value must equal the number of closed
   spans of a given name. *)
let span_counts =
  [
    ("rounde.r_calls", "rounde.r");
    ("rounde.rbar_calls", "rounde.rbar");
    ("zeroround.clique_calls", "zeroround.arbitrary_ports");
    ("fixedpoint.steps_applied", "fixedpoint.step");
  ]

type dom_state = {
  mutable stack : string list;
  mutable last_ts : int;
  mutable spans_closed : int;
}

let validate_events ~path ~check_counters (events : norm list) =
  let doms : (int, dom_state) Hashtbl.t = Hashtbl.create 8 in
  let dom_state d =
    match Hashtbl.find_opt doms d with
    | Some st -> st
    | None ->
        let st = { stack = []; last_ts = min_int; spans_closed = 0 } in
        Hashtbl.add doms d st;
        st
  in
  (* Final value per counter series, and per-(dom, series) last value
     for the monotonicity check. *)
  let final : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let last : (int * string, int) Hashtbl.t = Hashtbl.create 32 in
  let closed_spans : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let n_events = ref 0 in
  List.iter
    (fun e ->
      incr n_events;
      let st = dom_state e.dom in
      if e.ts < st.last_ts then
        failf e.where "timestamp %d goes backwards on domain %d (previous %d)"
          e.ts e.dom st.last_ts;
      st.last_ts <- e.ts;
      match e.ev with
      | Span_begin name -> st.stack <- name :: st.stack
      | Span_end name -> (
          match st.stack with
          | top :: rest when String.equal top name ->
              st.stack <- rest;
              st.spans_closed <- st.spans_closed + 1;
              Hashtbl.replace closed_spans name
                (1 + Option.value ~default:0 (Hashtbl.find_opt closed_spans name))
          | top :: _ ->
              failf e.where
                "span end %S does not match innermost open span %S on domain %d"
                name top e.dom
          | [] ->
              failf e.where "span end %S with no open span on domain %d" name
                e.dom)
      | Instant _ -> ()
      | Counter kvs ->
          List.iter
            (fun (k, v) ->
              (match Hashtbl.find_opt last (e.dom, k) with
              | Some prev when check_counters && v < prev ->
                  failf e.where
                    "counter %S decreases on domain %d (%d after %d)" k e.dom v
                    prev
              | _ -> ());
              Hashtbl.replace last (e.dom, k) v;
              Hashtbl.replace final k v)
            kvs)
    events;
  Hashtbl.iter
    (fun d st ->
      match st.stack with
      | [] -> ()
      | names ->
          raise
            (Invalid
               (Printf.sprintf
                  "%s: domain %d: %d span(s) left open at end of trace: %s"
                  path d (List.length names)
                  (String.concat ", " names))))
    doms;
  (* Counter/span reconciliation, for the series present in the trace. *)
  List.iter
    (fun (series, span) ->
      if not check_counters then ()
      else
      match Hashtbl.find_opt final series with
      | None -> ()
      | Some v ->
          let c = Option.value ~default:0 (Hashtbl.find_opt closed_spans span) in
          if v <> c then
            raise
              (Invalid
                 (Printf.sprintf
                    "%s: final %s = %d but the trace closes %d %S span(s)"
                    path series v c span)))
    span_counts;
  (match
     ( (if check_counters then Hashtbl.find_opt final "fixedpoint.steps_applied"
        else None),
       Hashtbl.find_opt final "fixedpoint.cache_hits",
       Hashtbl.find_opt final "fixedpoint.cache_misses" )
   with
  | Some steps, Some hits, Some misses when steps <> hits + misses ->
      raise
        (Invalid
           (Printf.sprintf
              "%s: fixedpoint.steps_applied = %d but cache_hits + cache_misses \
               = %d"
              path steps (hits + misses)))
  | _ -> ());
  (!n_events, Hashtbl.length doms, Hashtbl.fold (fun _ st acc -> acc + st.spans_closed) doms 0)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let events_of_jsonl path =
  let contents = read_file path in
  let lines = String.split_on_char '\n' contents in
  List.concat
    (List.mapi
       (fun i line ->
         if String.trim line = "" then []
         else [ norm_jsonl ~where:(Printf.sprintf "%s:%d" path (i + 1)) line ])
       lines)

let events_of_chrome path =
  let j =
    match Json.of_string (read_file path) with
    | Ok j -> j
    | Error msg -> failf path "invalid JSON: %s" msg
  in
  match member "traceEvents" j with
  | Some (Json.List items) ->
      List.mapi
        (fun i item ->
          norm_chrome ~where:(Printf.sprintf "%s: event %d" path i) item)
        items
  | _ ->
      raise (Invalid (path ^ ": top-level object has no \"traceEvents\" array"))

let () =
  let args = match Array.to_list Sys.argv with _ :: a -> a | [] -> [] in
  let chrome = List.mem "--chrome" args in
  (* --skip-counters: structural checks only (nesting + timestamps).
     For traces of runs that reset the engine stats mid-flight — the
     test suites do — where cumulative counter samples legitimately
     jump backwards. *)
  let check_counters = not (List.mem "--skip-counters" args) in
  let files =
    List.filter (fun a -> a <> "--chrome" && a <> "--skip-counters") args
  in
  if files = [] then begin
    prerr_endline "usage: validate_trace [--chrome] [--skip-counters] FILE ...";
    exit 2
  end;
  let failed = ref false in
  List.iter
    (fun path ->
      match
        let events =
          if chrome then events_of_chrome path else events_of_jsonl path
        in
        validate_events ~path ~check_counters events
      with
      | n_events, n_doms, n_spans ->
          Printf.printf "%s: valid trace (%d events, %d spans, %d domains)\n"
            path n_events n_spans n_doms
      | exception Invalid msg ->
          failed := true;
          Printf.eprintf "%s\n" msg
      | exception Sys_error e ->
          failed := true;
          Printf.eprintf "%s\n" e)
    files;
  if !failed then exit 1
