(* Helpers shared by the workloads: clocks, order statistics, memory
   high-water marks, the JSON codec (always Store.Json) and the
   analysis of the span traces written by lib/trace. *)

module Json = Store.Json

let now = Unix.gettimeofday

(* Every file the benchmark writes lives under this directory of the
   checkout (ignored by git). *)
let out_dir = "relbench-out"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Reads to end of file, so it also works on /proc files, whose
   length reads as 0. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () -> output_string oc s

let digest s = Digest.to_hex (Digest.string s)

(* ---- order statistics ---- *)

(* Nearest-rank quantile of a non-empty sample, [q] in [0, 1]. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list (List.sort compare xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio num den = if den = 0. then 0. else num /. den

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---- /proc ---- *)

(* Field [key] of /proc/[who]/status ([who] is "self" or a pid). *)
let proc_status who key =
  match read_file (Printf.sprintf "/proc/%s/status" who) with
  | exception Sys_error _ -> None
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ k; v ] when k = key -> Some (String.trim v)
             | _ -> None)

(* High-water resident set size of a process, in MB; 0 where /proc is
   unavailable. *)
let peak_rss_mb who =
  Option.bind (proc_status who "VmHWM") (fun v -> Scanf.sscanf_opt v "%d kB" (fun kb -> float_of_int kb /. 1024.))
  |> Option.value ~default:0.

(* ---- metrics ---- *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* What a workload run returns: the operations checked against the
   reference, the metrics, and the details for the result file. *)
type result = { attempted : int; failed : int; metrics : metric list; detail : (string * Json.t) list }

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m ->
         (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit) ]))
       ms)

(* ---- seeded shuffles ---- *)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---- span traces ---- *)

(* Per span name: number of spans, total and self microseconds (self
   time = the span's duration minus the part its child spans cover). *)
type span_total = { mutable count : int; mutable total_us : int; mutable self_us : int }

type trace_summary = {
  spans : (string, span_total) Hashtbl.t;
  (* Budget-trip time per budget name: duration of every span that saw
     a [relbench.budget_trip] instant as a direct child. *)
  trips : (string, int * int) Hashtbl.t;  (** name -> trips, microseconds *)
  (* Rung of every [relbench.rbar] span tagged by a [relbench.rung]
     instant: rung -> microseconds. *)
  rungs : (string, int) Hashtbl.t;
  (* The [requests] attribute of every [daemon.batch] span. *)
  mutable batch_sizes : int list;
}

let empty_summary () =
  { spans = Hashtbl.create 32; trips = Hashtbl.create 8; rungs = Hashtbl.create 4; batch_sizes = [] }

type open_span = {
  sname : string;
  start : int;
  mutable child_us : int;
  mutable trip : string option;
  mutable rung : string option;
  mutable ok : bool;
}

let attr k ev =
  Option.bind (Json.member "attrs" ev) (fun a -> Option.bind (Json.member k a) Json.string_opt)

(* Fold one JSONL trace file (lib/trace's format) into [acc].  With
   [unmarked_rbar_as], every library [rounde.rbar] span that ended
   without a [relbench.rbar_ok] instant (fired by the engine's success
   observer) counts as a budget trip under that name: the autopilot
   catches its candidates' overruns itself, so their names are not
   visible from outside. *)
let summarize_trace ?unmarked_rbar_as acc path =
  let stacks : (int, open_span list) Hashtbl.t = Hashtbl.create 4 in
  let bump tbl k f d = Hashtbl.replace tbl k (f (Option.value (Hashtbl.find_opt tbl k) ~default:d)) in
  String.split_on_char '\n' (read_file path)
  |> List.iter (fun line ->
         if line <> "" then
           match Json.of_string line with
           | Error e -> failwith ("relbench: unreadable trace line: " ^ e)
           | Ok ev -> (
               let get k = Option.bind (Json.member k ev) Json.int_opt |> Option.value ~default:0 in
               let dom = get "dom" and ts = get "ts" in
               let name = Option.bind (Json.member "name" ev) Json.string_opt |> Option.value ~default:"" in
               let stack = Option.value (Hashtbl.find_opt stacks dom) ~default:[] in
               match Option.bind (Json.member "ev" ev) Json.string_opt with
               | Some "b" ->
                   if name = "daemon.batch" then
                     Option.iter
                       (fun n -> acc.batch_sizes <- int_of_string n :: acc.batch_sizes)
                       (attr "requests" ev);
                   Hashtbl.replace stacks dom
                     ({ sname = name; start = ts; child_us = 0; trip = None; rung = None; ok = false } :: stack)
               | Some "e" -> (
                   match stack with
                   | top :: rest ->
                       let dur = ts - top.start in
                       bump acc.spans top.sname
                         (fun t ->
                           t.count <- t.count + 1;
                           t.total_us <- t.total_us + dur;
                           t.self_us <- t.self_us + (dur - top.child_us);
                           t)
                         { count = 0; total_us = 0; self_us = 0 };
                       let trip =
                         match unmarked_rbar_as with
                         | Some n when top.sname = "rounde.rbar" && not top.ok -> Some n
                         | _ -> top.trip
                       in
                       Option.iter (fun b -> bump acc.trips b (fun (n, us) -> (n + 1, us + dur)) (0, 0)) trip;
                       Option.iter (fun r -> bump acc.rungs r (fun us -> us + dur) 0) top.rung;
                       (match rest with p :: _ -> p.child_us <- p.child_us + dur | [] -> ());
                       Hashtbl.replace stacks dom rest
                   | [] -> failwith "relbench: unbalanced trace")
               | Some "i" -> (
                   match stack with
                   | top :: _ when name = "relbench.budget_trip" -> top.trip <- attr "budget" ev
                   | top :: _ when name = "relbench.rung" -> top.rung <- attr "rung" ev
                   | top :: _ when name = "relbench.rbar_ok" -> top.ok <- true
                   | _ -> ())
               | _ -> ()))

let span_ms acc name =
  match Hashtbl.find_opt acc.spans name with
  | Some t -> float_of_int t.total_us /. 1e3
  | None -> 0.

let span_count acc name =
  match Hashtbl.find_opt acc.spans name with Some t -> t.count | None -> 0

let spans_json acc =
  Hashtbl.fold (fun k t l -> (k, t) :: l) acc.spans []
  |> List.sort compare
  |> List.map (fun (k, t) ->
         ( k,
           Json.Obj
             [
               ("count", Json.Int t.count);
               ("total_ms", Json.Float (float_of_int t.total_us /. 1e3));
               ("self_ms", Json.Float (float_of_int t.self_us /. 1e3));
             ] ))
  |> fun l -> Json.Obj l

(* Run [f] with a JSONL trace sink on [path]; the trace is closed
   before returning, also on exceptions. *)
let with_trace_file path f =
  Trace.enable ~path ~format:Trace.Jsonl;
  Fun.protect ~finally:Trace.close f

(* A span around a call into a layer.  A budget overrun is marked by an
   instant inside the span, so the trace analysis charges the span's
   whole duration to the budget that tripped. *)
let call name f =
  Trace.with_span name @@ fun () ->
  match f () with
  | v -> v
  | exception (Relim.Budget.Budget_exceeded { budget; _ } as e) ->
      Trace.instant "relbench.budget_trip" ~attrs:[ ("budget", budget) ];
      raise e
