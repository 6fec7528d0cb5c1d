(* The fixed problem inputs of the steps and autopilot workloads, and
   the daemon workload's universe of random problems. *)

open Relim

let pi delta a x = Core.Family.pi { Core.Family.delta; a; x }

let mis delta = Lcl.Encodings.mis ~delta

let so delta = Lcl.Encodings.sinkless_orientation ~delta

let mm delta = Lcl.Encodings.maximal_matching ~delta

(* Complete-graph k-coloring: the node diagram is a k-antichain, so R̄
   sees 2^k - 1 right-closed sets, and R̄(col_k) = col_k. *)
let col k =
  let name i = Printf.sprintf "c%d" i in
  let node = String.concat "\n" (List.init k (fun i -> Printf.sprintf "%s %s %s" (name i) (name i) (name i))) in
  let edge =
    List.concat_map
      (fun i -> List.filter_map (fun j -> if i < j then Some (name i ^ " " ^ name j) else None) (List.init k Fun.id))
      (List.init k Fun.id)
  in
  Parse.problem ~name:(Printf.sprintf "col%d" k) ~node ~edge:(String.concat "\n" edge)

(* An n-label problem whose node diagram is a chain: n right-closed
   sets, far beyond any fixed label cap. *)
let chain n =
  let name i = Printf.sprintf "l%d" i in
  let names = List.init n name in
  let node =
    List.init n (fun i ->
        match List.filteri (fun j _ -> i + j >= n - 1) names with
        | [ only ] -> Printf.sprintf "%s %s" (name i) only
        | partners -> Printf.sprintf "%s [%s]" (name i) (String.concat " " partners))
  in
  let all = String.concat " " names in
  Parse.problem ~name:(Printf.sprintf "chain%d" n) ~node:(String.concat "\n" node)
    ~edge:(Printf.sprintf "[%s] [%s]" all all)

(* ---- steps ---- *)

type engine = Default | Zdd

type kind = Steps of int | Rbar_only

type step_job = { id : string; input : Problem.t; kind : kind; engine : engine }

(* Narrow presets run under the default engine, so a change of the
   default is measured; wide inputs need the ZDD rungs to get through. *)
let step_jobs () =
  let job id input kind engine = { id; input; kind; engine } in
  [
    job "pi542" (pi 5 4 2) (Steps 2) Default;
    job "pi861" (pi 8 6 1) (Steps 1) Default;
    job "mis3" (mis 3) (Steps 2) Default;
    job "mis4" (mis 4) (Steps 2) Default;
    job "so3" (so 3) (Steps 2) Default;
    job "col10" (col 10) Rbar_only Default;
    job "chain30" (chain 30) Rbar_only Default;
    job "col20-zdd" (col 20) Rbar_only Zdd;
    job "col21-zdd" (col 21) Rbar_only Zdd;
    job "mis3-zdd" (mis 3) (Steps 3) Zdd;
    job "pi542-zdd" (pi 5 4 2) (Steps 1) Zdd;
  ]

(* ---- autopilot ---- *)

type search_job = { sid : string; sinput : Problem.t; limits : Autopilot.limits }

(* The CI limits of the autopilot section of bench/main.ml. *)
let ci_limits =
  { Autopilot.default_limits with Autopilot.expand_limit = 50_000.; rc_limit = 4_000; beam = 12; max_steps = 4 }

(* One fixed-point path (SO), one exhausted path (MM) and one
   upper-bound path through a budget-skipped candidate (mis Δ=2). *)
let search_jobs () =
  [
    { sid = "so3"; sinput = so 3; limits = Autopilot.default_limits };
    { sid = "mm3"; sinput = mm 3; limits = Autopilot.default_limits };
    { sid = "mis2"; sinput = mis 2; limits = ci_limits };
  ]

(* ---- daemon ---- *)

(* The random problems the daemon pool is drawn from: a fixed universe,
   so that the committed reference covers every problem any workload
   seed can pick. *)
let universe_seed = 2026

let universe_size = 600

let universe () =
  let rng = Random.State.make [| universe_seed |] in
  Array.init universe_size (fun _ -> Certify.Fuzz.gen_problem rng)

(* Requests beside the random step problems: heavy step presets, and
   fixed-point and autopilot requests on sinkless orientation. *)
let daemon_presets () =
  [
    ("step", "pi542", pi 5 4 2);
    ("step", "pi431", pi 4 3 1);
    ("fixed-point", "so3", so 3);
    ("fixed-point", "so4", so 4);
    ("autopilot", "so3", so 3);
  ]
