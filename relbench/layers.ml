(* Per-layer metrics of the traced run.  Times come from spans: the
   benchmark's own spans around every call into a layer, and the spans
   the library already emits ([rounde.r], [rounde.rbar], [zeroround.*],
   [daemon.*]), which also cover the calls the autopilot and the daemon
   make internally.  Counts come from the libraries' public
   stats records, reset before and read after each traced pass.  The
   engine's [*_time_s] stats fields are never used: they drop calls
   that end in a budget overrun. *)

open Relim
open Common

(* Every per-layer metric, with its unit; BENCHMARK.json lists the same
   names.  Times and counts are per pass (averaged over the traced
   passes); a metric a workload does not exercise reads 0. *)
let table =
  [
    ("r.ms", "ms"); ("r.closures_visited", "count");
    ("rc.ms", "ms"); ("rc.sets", "count");
    ("rbar.ms", "ms"); ("rbar.self_ms", "ms");
    ("rbar.valid_boxes_ms", "ms"); ("rbar.maximal_boxes_ms", "ms");
    ("rbar.boxes_emitted", "count"); ("rbar.boxes_pruned", "count"); ("rbar.dom_checks", "count");
    ("rbar.cheap_skip_ratio", "ratio"); ("rbar.transport_hit_ratio", "ratio");
    ("budget.trips", "count"); ("budget.trip_ms", "ms");
    ("budget.trip_ms.node_expansion", "ms"); ("budget.trip_ms.box_enum_zdd", "ms");
    ("budget.trip_ms.maxbox_scan_zdd", "ms"); ("budget.trip_ms.other", "ms");
    ("zdd.symbolic_ms", "ms"); ("zdd.streaming_ms", "ms");
    ("zdd.nodes", "count"); ("zdd.peak_unique", "count"); ("zdd.cache_hit_ratio", "ratio");
    ("zdd.maxbox_cubes", "count"); ("zdd.maxbox_maximal", "count");
    ("normalize.ms", "ms"); ("zeroround.ms", "ms"); ("zeroround.bk_expansions", "count");
    ("autopilot.search_ms.so3", "ms"); ("autopilot.search_ms.mm3", "ms"); ("autopilot.search_ms.mis2", "ms");
    ("autopilot.candidates", "count"); ("autopilot.budget_skips", "count"); ("autopilot.accept_ratio", "ratio");
    ("certify.ms", "ms"); ("certify.rbar_certified", "count"); ("certify.skipped_subchecks", "count");
    ("store.hits", "count"); ("store.misses", "count"); ("store.admitted", "count"); ("store.rejected", "count");
    ("store.admit_ms", "ms"); ("store.load_ms", "ms");
    ("json.decode_us", "us"); ("protocol.decode_us", "us");
    ("daemon.request_ms", "ms"); ("daemon.batch_size", "count"); ("daemon.cached_ratio", "ratio");
    ("daemon.cold_first_p50_ms", "ms"); ("daemon.warm_first_p50_ms", "ms"); ("daemon.repeat_p50_ms", "ms");
    ("daemon.latency_p99_ms", "ms"); ("daemon.req_per_s", "1/s");
    ("gc.minor_mwords", "Mwords"); ("gc.major_collections", "count");
    ("trace.overhead_ratio", "ratio");
  ]

(* Budget names as the engine spells them, mapped to metric suffixes. *)
let budget_slug name =
  let has sub = contains sub name in
  if has "maximal box scan work (zdd)" then "maxbox_scan_zdd"
  else if has "box enumeration work (zdd)" then "box_enum_zdd"
  else if has "expansion" then "node_expansion"
  else "other"

type t = {
  summary : trace_summary;
  counts : (string, float) Hashtbl.t;  (** summed over traced passes *)
  mutable passes : int;  (** traced passes folded in *)
}

let create () = { summary = empty_summary (); counts = Hashtbl.create 32; passes = 0 }

let get t k = Option.value (Hashtbl.find_opt t.counts k) ~default:0.

let add t k v = Hashtbl.replace t.counts k (get t k +. v)

let reset_engine_stats () =
  Rounde.reset_stats ();
  Zdd.reset_stats ();
  Zeroround.reset_stats ();
  Certify.Check.reset_stats ()

(* Fold the engine stats records (reset before the pass) into [t]. *)
let add_engine_stats t =
  let s = Rounde.stats and z = Zdd.stats and c = Certify.Check.stats in
  List.iter
    (fun (k, v) -> add t k (float_of_int v))
    [
      ("r.closures_visited", s.Rounde.closures_visited);
      ("rc.sets", s.Rounde.rc_sets);
      ("rbar.boxes_emitted", s.Rounde.boxes_emitted);
      ("rbar.boxes_pruned", s.Rounde.boxes_pruned);
      ("rbar.dom_checks", s.Rounde.box_dom_checks);
      ("rbar.dom_cheap_skips", s.Rounde.box_dom_cheap_skips);
      ("rbar.transport_calls", s.Rounde.box_transport_calls);
      ("rbar.transport_hits", s.Rounde.transport_cache_hits);
      ("zdd.nodes", z.Zdd.nodes);
      ("zdd.peak_unique", z.Zdd.peak_unique);
      ("zdd.cache_hits", z.Zdd.cache_hits);
      ("zdd.cache_lookups", z.Zdd.cache_lookups);
      ("zdd.maxbox_cubes", s.Rounde.maxbox_cubes);
      ("zdd.maxbox_maximal", s.Rounde.maxbox_maximal);
      ("zeroround.bk_expansions", Zeroround.stats.Zeroround.bk_expansions);
      ("certify.rbar_certified", c.Certify.Check.rbar_certified);
      ("certify.skipped_subchecks", c.Certify.Check.skipped_subchecks);
    ]

(* The per-layer metrics, in [table] order.  [extra] supplies values
   computed by the workload itself (already per pass). *)
let metrics ?(extra = []) t =
  let per_pass v = v /. float_of_int (max 1 t.passes) in
  let ms name = per_pass (span_ms t.summary name) in
  let trips = Hashtbl.fold (fun _ (n, _) acc -> acc + n) t.summary.trips 0 in
  let trip_us slug =
    Hashtbl.fold
      (fun name (_, us) acc -> if slug = "" || budget_slug name = slug then acc + us else acc)
      t.summary.trips 0
  in
  let rung r = per_pass (float_of_int (Option.value (Hashtbl.find_opt t.summary.rungs r) ~default:0) /. 1e3) in
  let value name =
    match List.assoc_opt name extra with
    | Some v -> v
    | None -> (
        match name with
        | "r.ms" -> ms "rounde.r"
        | "rc.ms" -> ms "relbench.rc"
        | "rbar.ms" -> ms "rounde.rbar"
        | "rbar.self_ms" ->
            per_pass
              (match Hashtbl.find_opt t.summary.spans "rounde.rbar" with
              | Some s -> float_of_int s.self_us /. 1e3
              | None -> 0.)
        | "rbar.valid_boxes_ms" -> ms "rounde.valid_boxes"
        | "rbar.maximal_boxes_ms" -> ms "rounde.maximal_boxes"
        | "rbar.cheap_skip_ratio" -> ratio (get t "rbar.dom_cheap_skips") (get t "rbar.dom_checks")
        | "rbar.transport_hit_ratio" -> ratio (get t "rbar.transport_hits") (get t "rbar.transport_calls")
        | "budget.trips" -> per_pass (float_of_int trips)
        | "budget.trip_ms" -> per_pass (float_of_int (trip_us "") /. 1e3)
        | "budget.trip_ms.node_expansion" | "budget.trip_ms.box_enum_zdd"
        | "budget.trip_ms.maxbox_scan_zdd" | "budget.trip_ms.other" ->
            let slug = String.sub name 15 (String.length name - 15) in
            per_pass (float_of_int (trip_us slug) /. 1e3)
        | "zdd.symbolic_ms" -> rung "symbolic"
        | "zdd.streaming_ms" -> rung "streaming"
        | "zdd.cache_hit_ratio" -> ratio (get t "zdd.cache_hits") (get t "zdd.cache_lookups")
        | "zdd.peak_unique" -> per_pass (get t name)
        | "normalize.ms" -> ms "relbench.normalize"
        | "zeroround.ms" -> ms "zeroround.mirrored" +. ms "zeroround.arbitrary_ports"
        | "certify.ms" -> ms "relbench.certify"
        | "store.admit_ms" -> ms "relbench.store.admit"
        | "store.load_ms" -> ms "relbench.store.load"
        | "daemon.request_ms" ->
            ratio (span_ms t.summary "daemon.request") (float_of_int (span_count t.summary "daemon.request"))
        | "daemon.batch_size" -> (
            match t.summary.batch_sizes with
            | [] -> 0.
            | l -> float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l))
        | _ -> per_pass (get t name))
  in
  List.map (fun (name, unit) -> metric name unit (value name)) table

(* Everything the traced passes recorded, for the result file. *)
let detail t =
  Json.Obj
    [
      ("traced_passes", Json.Int t.passes);
      ("spans", spans_json t.summary);
      ( "budget_trips",
        Json.Obj
          (Hashtbl.fold
             (fun name (n, us) l ->
               (name, Json.Obj [ ("trips", Json.Int n); ("ms", Json.Float (float_of_int us /. 1e3)) ]) :: l)
             t.summary.trips []
          |> List.sort compare) );
      ( "counts",
        Json.Obj (Hashtbl.fold (fun k v l -> (k, Json.Float v) :: l) t.counts [] |> List.sort compare) );
    ]
