(* The committed outcome reference (relbench/reference.json): the
   expected outcome of every operation any workload seed can issue.
   [generate] recomputes it and validates every engine result once with
   the independent checkers of lib/certify before writing it. *)

open Relim
open Common

let path = "relbench/reference.json"

let load () =
  match Json.of_string (read_file path) with
  | Ok j -> j
  | Error e -> failwith ("relbench: " ^ path ^ ": " ^ e)

(* The expected outcome of operation [key] in [section]. *)
let expected ref_json section key =
  Option.bind (Json.member section ref_json) (fun s -> Option.bind (Json.member key s) Json.string_opt)

let ok_or_die what = function
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "relbench: reference: %s fails validation: %s" what e)

let validated = ref 0

let validate what cert =
  ok_or_die what (Certify.Certificate.validate cert);
  incr validated

let steps_section () =
  List.map
    (fun (j : Inputs.step_job) ->
      let check ~source ~r rb =
        match r with
        | Some rd -> validate j.Inputs.id (Certify.Certificate.of_step_parts ~source ~r:rd ~result:rb)
        | None ->
            (* R̄ alone has no step certificate; run its checker directly. *)
            Certify.Check.check_rbar ~source rb;
            incr validated
      in
      let outcome = Engine_wl.run_step_job ~check j in
      Printf.eprintf "reference: steps %s: %s\n%!" j.Inputs.id outcome;
      (j.Inputs.id, Json.String outcome))
    (Inputs.step_jobs ())

let autopilot_section () =
  List.map
    (fun (j : Inputs.search_job) ->
      let r = Autopilot.search ~limits:j.Inputs.limits j.Inputs.sinput in
      List.iter (fun a -> validate j.Inputs.sid a.Autopilot.certificate) r.Autopilot.steps;
      let outcome = Engine_wl.search_outcome r in
      Printf.eprintf "reference: autopilot %s: %s\n%!" j.Inputs.sid outcome;
      (j.Inputs.sid, Json.String outcome))
    (Inputs.search_jobs ())

(* Every universe problem and preset, through a cold and then a warm
   daemon; each response must succeed, agree with the in-process
   engine, and read the same warm as cold. *)
let daemon_section () =
  let work = Filename.concat out_dir "reference" in
  rm_rf work;
  mkdir_p work;
  let outcomes = ref [] and entries = ref [] in
  (* In-process expectations, checked against the daemon's answers. *)
  let checks = Hashtbl.create 64 in
  let field k line =
    Option.bind (Result.to_option (Json.of_string line)) (fun j ->
        Option.bind (Json.member "result" j) (fun r -> Option.bind (Json.member k r) Json.string_opt))
  in
  let add_step key p =
    let c = Daemon_wl.canonical (Serialize.to_string p) in
    let rd = Rounde.r c in
    let rb = Rounde.rbar rd.Rounde.problem in
    validate key (Certify.Certificate.of_step_parts ~source:c ~r:rd ~result:rb);
    (* The daemon runs the same step on the same canonical input. *)
    let text =
      Serialize.to_string { rb.Rounde.problem with Problem.name = Printf.sprintf "step(%s)" c.Problem.name }
    in
    Hashtbl.replace checks key (fun line -> field "problem" line = Some text);
    entries := { Daemon_wl.key; op = "step"; text = Serialize.to_string p } :: !entries
  in
  Array.iteri
    (fun u p ->
      let key = Printf.sprintf "step/u%d" u in
      if Daemon_wl.step_completes p then add_step key p else outcomes := (key, Json.String "fails") :: !outcomes)
    (Inputs.universe ());
  List.iter
    (fun (op, name, p) ->
      let key = op ^ "/" ^ name in
      match op with
      | "step" -> add_step key p
      | "fixed-point" ->
          let c = Daemon_wl.canonical (Serialize.to_string p) in
          let q =
            match Fixedpoint.detect c with
            | Fixedpoint.Fixed_point (q, _) | Fixedpoint.Reaches_fixed_point (_, q) -> q
            | Fixedpoint.No_fixed_point_found _ -> failwith ("relbench: reference: no fixed point for " ^ key)
          in
          validate key (Certify.Certificate.of_fixed_point q);
          Hashtbl.replace checks key (fun line ->
              match field "fixed" line with
              | Some t -> Iso.equal_up_to_renaming (Serialize.of_string t) q
              | None -> false);
          entries := { Daemon_wl.key; op; text = Serialize.to_string p } :: !entries
      | _ ->
          let r = Autopilot.search (Daemon_wl.canonical (Serialize.to_string p)) in
          List.iter (fun a -> validate key a.Autopilot.certificate) r.Autopilot.steps;
          let kind =
            match r.Autopilot.verdict with
            | Autopilot.Fixed_point _ -> "fixed-point"
            | Autopilot.Upper_bound _ -> "upper-bound"
            | Autopilot.Exhausted _ -> "exhausted"
          in
          Hashtbl.replace checks key (fun line -> field "verdict" line = Some kind);
          entries := { Daemon_wl.key; op; text = Serialize.to_string p } :: !entries)
    (Inputs.daemon_presets ());
  (* Isomorphic problems share a store entry, so each round of
     requests holds pairwise non-isomorphic problems and runs on a fresh
     store: every problem gets its own answer. *)
  let rec rounds pending i =
    if pending <> [] then begin
      let distinct = Daemon_wl.distinct_filter () in
      let now_, later =
        List.partition (fun (e : Daemon_wl.entry) -> e.op <> "step" || distinct (Serialize.of_string e.text)) pending
      in
      let round = Array.of_list now_ in
      let store = Filename.concat work (Printf.sprintf "store-%d" i) and sock = Filename.concat work "d.sock" in
      let lines = Array.mapi Daemon_wl.request_line round in
      let phase () = (Daemon_wl.run_phase ~store ~sock lines).Daemon_wl.responses in
      Printf.eprintf "reference: daemon round %d: %d requests, cold then warm\n%!" i (Array.length lines);
      let cold = phase () in
      let warm = phase () in
      Array.iteri
        (fun i (e : Daemon_wl.entry) ->
          let line = cold.(i) in
          if not (contains {|"ok":true|} line && (Hashtbl.find checks e.key) line) then
            failwith (Printf.sprintf "relbench: reference: daemon answer for %s disagrees: %s" e.key line);
          if Daemon_wl.strip line <> Daemon_wl.strip warm.(i) then
            failwith (Printf.sprintf "relbench: reference: warm answer for %s differs from cold" e.key);
          outcomes := (e.key, Json.String (digest (Daemon_wl.strip line))) :: !outcomes)
        round;
      rounds later (i + 1)
    end
  in
  rounds (List.rev !entries) 0;
  rm_rf work;
  Printf.eprintf "reference: daemon: %d operations\n%!" (List.length !outcomes);
  List.sort compare !outcomes

let generate () =
  mkdir_p out_dir;
  let steps = steps_section () in
  let autopilot = autopilot_section () in
  let daemon = daemon_section () in
  let doc =
    Json.Obj
      [
        ( "about",
          Json.String
            "Expected outcome of every benchmark operation; regenerate with \
             sh relbench/run.sh --make-reference (validates every engine result \
             with lib/certify first)." );
        ("validated_results", Json.Int !validated);
        ("steps", Json.Obj steps);
        ("autopilot", Json.Obj autopilot);
        ("daemon", Json.Obj daemon);
      ]
  in
  write_file path (Json.to_string doc ^ "\n");
  Printf.eprintf "reference: wrote %s (%d results validated)\n%!" path !validated
