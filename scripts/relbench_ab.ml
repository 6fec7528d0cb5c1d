(* A/B comparison of the repository benchmark (relbench/) between two
   checkouts, for example the parent commit and a change:

     git worktree add ../parent HEAD~1
     dune exec scripts/relbench_ab.exe -- --parent ../parent --change . \
       --workload steps

   It runs 10 pairs.  Each pair runs `sh relbench/run.sh --workload W
   --seed S --seconds T --trace 0` once in each checkout, where T is the
   "run_seconds" of the change's BENCHMARK.json.  Pairs alternate which
   side runs first, and pair k (from 0) uses seed 21 + k.  The last line
   a run prints is its JSON result.  For every end-to-end metric that
   the change's BENCHMARK.json declares, the script prints each side's
   median and quartiles, the change's wins out of the pairs (ties count
   for neither), whether the medians differ by more than the parent's
   interquartile range, and whether the change stays within the
   metric's bound.  Every run is printed as well.  It stops and exits 1
   as soon as a run reports "correct": false or prints no result. *)

open Store

let pairs = 10

let first_seed = 21

type metric = { name : string; lower_is_better : bool; bound : float }

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("relbench_ab: " ^ msg); exit 1) fmt

let number = function Json.Int i -> Some (float_of_int i) | Json.Float f -> Some f | _ -> None

(* The run length and the end-to-end metrics of [dir]/BENCHMARK.json. *)
let benchmark dir =
  let path = Filename.concat dir "BENCHMARK.json" in
  let text = try In_channel.with_open_bin path In_channel.input_all with Sys_error e -> fail "%s" e in
  match Json.of_string text with
  | Error e -> fail "%s: %s" path e
  | Ok j ->
      let seconds =
        match Option.bind (Json.member "run_seconds" j) number with
        | Some s -> s
        | None -> fail "%s: no run_seconds" path
      in
      let metrics =
        match Json.member "end_to_end" j with
        | Some (Json.List ms) ->
            List.map
              (fun m ->
                match
                  ( Option.bind (Json.member "name" m) Json.string_opt,
                    Option.bind (Json.member "better" m) Json.string_opt,
                    Option.bind (Json.member "bound" m) number )
                with
                | Some name, Some better, Some bound -> { name; lower_is_better = better = "lower"; bound }
                | _ -> fail "%s: malformed end_to_end entry" path)
              ms
        | _ -> fail "%s: no end_to_end list" path
      in
      (seconds, metrics)

(* One benchmark run in [dir]; returns the metric values it reports. *)
let run_once ~side dir ~workload ~seed ~seconds =
  let cmd =
    Printf.sprintf "cd %s && sh relbench/run.sh --workload %s --seed %d --seconds %g --trace 0"
      (Filename.quote dir) (Filename.quote workload) seed seconds
  in
  let ic = Unix.open_process_in cmd in
  let last = ref "" in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then last := line
     done
   with End_of_file -> ());
  ignore (Unix.close_process_in ic);
  match Json.of_string !last with
  | Error _ -> fail "%s (seed %d) printed no result; last line: %S" side seed !last
  | Ok j ->
      if Option.bind (Json.member "correct" j) Json.bool_opt <> Some true then
        fail "%s (seed %d) is not correct: %s" side seed !last;
      fun name ->
        match Option.bind (Json.member "metrics" j) (Json.member name) with
        | Some m -> (
            match Option.bind (Json.member "value" m) number with
            | Some v -> v
            | None -> fail "%s (seed %d): metric %s has no value" side seed name)
        | None -> fail "%s (seed %d): metric %s missing" side seed name

(* Linear interpolation between order statistics; [quantile 0.5] is the
   median relbench itself reports. *)
let quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let pos = q *. float_of_int (Array.length a - 1) in
  let lo = truncate pos in
  let hi = min (lo + 1) (Array.length a - 1) in
  a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let () =
  let parent = ref "" and change = ref "" and workload = ref "steps" in
  Arg.parse
    [
      ("--parent", Arg.Set_string parent, "DIR checkout of the parent commit");
      ("--change", Arg.Set_string change, "DIR checkout of the change");
      ("--workload", Arg.Set_string workload, "NAME workload (default steps)");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "relbench_ab --parent DIR --change DIR [--workload NAME]";
  if !parent = "" || !change = "" then fail "--parent and --change are required";
  let seconds, metrics = benchmark !change in
  Printf.printf "relbench A/B: workload %s, %d pairs of %g s, seeds %d..%d\n%!" !workload pairs seconds first_seed
    (first_seed + pairs - 1);
  let runs =
    List.init pairs (fun k ->
        let seed = first_seed + k in
        let run side dir = run_once ~side dir ~workload:!workload ~seed ~seconds in
        let p, c =
          if k mod 2 = 0 then
            let p = run "parent" !parent in
            (p, run "change" !change)
          else
            let c = run "change" !change in
            (run "parent" !parent, c)
        in
        Printf.printf "pair %d seed %d (%s first):" (k + 1) seed (if k mod 2 = 0 then "parent" else "change");
        List.iter (fun m -> Printf.printf " %s %g -> %g" m.name (p m.name) (c m.name)) metrics;
        print_newline ();
        (p, c))
  in
  Printf.printf
    "\n| metric | parent median [q1, q3] | change median [q1, q3] | change/parent | change wins | gap > parent IQR | within bound |\n";
  Printf.printf "|---|---|---|---|---|---|---|\n";
  List.iter
    (fun m ->
      let ps = List.map (fun (p, _) -> p m.name) runs and cs = List.map (fun (_, c) -> c m.name) runs in
      let better a b = if m.lower_is_better then a < b else a > b in
      let wins = List.length (List.filter (fun (p, c) -> better (c m.name) (p m.name)) runs) in
      let pm = quantile 0.5 ps and cm = quantile 0.5 cs in
      let iqr = quantile 0.75 ps -. quantile 0.25 ps in
      let within =
        if m.lower_is_better then cm <= pm *. (1. +. m.bound) else cm >= pm *. (1. -. m.bound)
      in
      Printf.printf "| %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.3f | %d/%d | %b | %b (bound %g) |\n" m.name pm
        (quantile 0.25 ps) (quantile 0.75 ps) cm (quantile 0.25 cs) (quantile 0.75 cs) (cm /. pm) wins pairs
        (Float.abs (cm -. pm) > iqr) within m.bound)
    metrics
