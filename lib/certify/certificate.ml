open Relim

type step = {
  source : string;
  r : string;
  r_denotations : (string * string list) list;
  result : string;
  result_denotations : (string * string list) list;
}

type relaxed_step = {
  rs_source : string;
  rs_r : string;
  rs_r_denotations : (string * string list) list;
  rs_relaxed : string;
  rs_relaxed_denotations : (string * string list) list;
  rs_result : string;
  rs_result_denotations : (string * string list) list;
}

type t =
  | Step of step
  | Relaxed_step of relaxed_step
  | Fixed_point of { problem : string }

(* ------------------------------------------------------------------ *)
(* Construction from engine outputs                                    *)
(* ------------------------------------------------------------------ *)

(* Denotations, made index-free: label names of [d.problem] paired with
   the names (in [source_alpha]) of the labels they denote.  Label
   names never contain tabs or newlines (Alphabet forbids whitespace),
   so the serialization below can tab-separate them. *)
let named_denotations ~source_alpha (d : Rounde.denoted) =
  List.map
    (fun l ->
      let name = Alphabet.name d.Rounde.problem.Problem.alpha l in
      let members =
        List.map (Alphabet.name source_alpha)
          (Labelset.elements d.Rounde.denotations.(l))
      in
      (name, members))
    (Alphabet.labels d.Rounde.problem.Problem.alpha)

let of_step_parts ~(source : Problem.t) ~(r : Rounde.denoted)
    ~(result : Rounde.denoted) =
  Step
    {
      source = Serialize.to_string source;
      r = Serialize.to_string r.Rounde.problem;
      r_denotations = named_denotations ~source_alpha:source.Problem.alpha r;
      result = Serialize.to_string result.Rounde.problem;
      result_denotations =
        named_denotations ~source_alpha:r.Rounde.problem.Problem.alpha result;
    }

let of_relaxed_step_parts ~(source : Problem.t) ~(r : Rounde.denoted)
    ~(relaxed : Rounde.denoted) ~(result : Rounde.denoted) =
  Relaxed_step
    {
      rs_source = Serialize.to_string source;
      rs_r = Serialize.to_string r.Rounde.problem;
      rs_r_denotations = named_denotations ~source_alpha:source.Problem.alpha r;
      rs_relaxed = Serialize.to_string relaxed.Rounde.problem;
      rs_relaxed_denotations =
        named_denotations ~source_alpha:r.Rounde.problem.Problem.alpha relaxed;
      rs_result = Serialize.to_string result.Rounde.problem;
      rs_result_denotations =
        named_denotations ~source_alpha:relaxed.Rounde.problem.Problem.alpha
          result;
    }

let of_fixed_point (p : Problem.t) =
  Fixed_point { problem = Serialize.to_string p }

let result_text = function
  | Step s -> s.result
  | Relaxed_step rs -> rs.rs_result
  | Fixed_point { problem } -> problem

(* ------------------------------------------------------------------ *)
(* Text format                                                         *)
(* ------------------------------------------------------------------ *)

let add_block buf tag s =
  Buffer.add_string buf (Printf.sprintf "%s %d\n" tag (String.length s));
  Buffer.add_string buf s;
  Buffer.add_char buf '\n'

let add_denots buf tag denots =
  Buffer.add_string buf (Printf.sprintf "%s %d\n" tag (List.length denots));
  List.iter
    (fun (name, members) ->
      Buffer.add_string buf (String.concat "\t" (name :: members));
      Buffer.add_char buf '\n')
    denots

let to_text = function
  | Step s ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "certificate v1 step\n";
      add_block buf "source" s.source;
      add_block buf "r" s.r;
      add_denots buf "r-denotations" s.r_denotations;
      add_block buf "result" s.result;
      add_denots buf "result-denotations" s.result_denotations;
      Buffer.add_string buf "end\n";
      Buffer.contents buf
  | Relaxed_step rs ->
      let buf = Buffer.create 2048 in
      Buffer.add_string buf "certificate v1 relaxed-step\n";
      add_block buf "source" rs.rs_source;
      add_block buf "r" rs.rs_r;
      add_denots buf "r-denotations" rs.rs_r_denotations;
      add_block buf "relaxed" rs.rs_relaxed;
      add_denots buf "relaxed-denotations" rs.rs_relaxed_denotations;
      add_block buf "result" rs.rs_result;
      add_denots buf "result-denotations" rs.rs_result_denotations;
      Buffer.add_string buf "end\n";
      Buffer.contents buf
  | Fixed_point { problem } ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf "certificate v1 fixed-point\n";
      add_block buf "problem" problem;
      Buffer.add_string buf "end\n";
      Buffer.contents buf

exception Malformed of string

let of_text text =
  let pos = ref 0 in
  let len = String.length text in
  let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt in
  let read_line () =
    if !pos >= len then fail "unexpected end of certificate";
    let stop =
      match String.index_from_opt text !pos '\n' with
      | Some i -> i
      | None -> fail "certificate line without terminating newline"
    in
    let line = String.sub text !pos (stop - !pos) in
    pos := stop + 1;
    line
  in
  let read_block tag =
    let line = read_line () in
    match String.split_on_char ' ' line with
    | [ t; n ] when t = tag -> (
        match int_of_string_opt n with
        | Some n when n >= 0 && !pos + n <= len ->
            let body = String.sub text !pos n in
            pos := !pos + n;
            if !pos >= len || text.[!pos] <> '\n' then
              fail "block %S is not newline-terminated (truncated?)" tag;
            incr pos;
            body
        | _ -> fail "bad length in block header %S" line)
    | _ -> fail "expected block %S, got %S" tag line
  in
  let read_denots tag =
    let line = read_line () in
    match String.split_on_char ' ' line with
    | [ t; n ] when t = tag -> (
        match int_of_string_opt n with
        | Some n when n >= 0 ->
            List.init n (fun _ ->
                match String.split_on_char '\t' (read_line ()) with
                | name :: (_ :: _ as members) -> (name, members)
                | _ -> fail "denotation line with no members under %S" tag)
        | _ -> fail "bad count in header %S" line)
    | _ -> fail "expected section %S, got %S" tag line
  in
  match
    let header = read_line () in
    match header with
    | "certificate v1 step" ->
        let source = read_block "source" in
        let r = read_block "r" in
        let r_denotations = read_denots "r-denotations" in
        let result = read_block "result" in
        let result_denotations = read_denots "result-denotations" in
        if read_line () <> "end" then fail "missing end marker";
        Step { source; r; r_denotations; result; result_denotations }
    | "certificate v1 relaxed-step" ->
        let rs_source = read_block "source" in
        let rs_r = read_block "r" in
        let rs_r_denotations = read_denots "r-denotations" in
        let rs_relaxed = read_block "relaxed" in
        let rs_relaxed_denotations = read_denots "relaxed-denotations" in
        let rs_result = read_block "result" in
        let rs_result_denotations = read_denots "result-denotations" in
        if read_line () <> "end" then fail "missing end marker";
        Relaxed_step
          {
            rs_source;
            rs_r;
            rs_r_denotations;
            rs_relaxed;
            rs_relaxed_denotations;
            rs_result;
            rs_result_denotations;
          }
    | "certificate v1 fixed-point" ->
        let problem = read_block "problem" in
        if read_line () <> "end" then fail "missing end marker";
        Fixed_point { problem }
    | _ -> fail "unknown certificate header %S" header
  with
  | cert -> Ok cert
  | exception Malformed msg -> Error ("certificate: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Re-validation                                                       *)
(* ------------------------------------------------------------------ *)

let parse_problem ~what text =
  match Serialize.of_string text with
  | p -> p
  | exception Failure msg -> raise (Malformed (what ^ ": " ^ msg))

(* Rebuild the [Rounde.denoted] array from the name-keyed pairs: entry
   order must match the (re)parsed alphabet's label order, and every
   member must name a source label. *)
let rebuild_denoted ~what ~(source : Problem.t) ~(problem : Problem.t) denots =
  let n = Alphabet.size problem.Problem.alpha in
  if List.length denots <> n then
    raise
      (Malformed
         (Printf.sprintf "%s: %d denotations for %d labels" what
            (List.length denots) n));
  let tbl = Hashtbl.create n in
  List.iter
    (fun (name, members) ->
      if Hashtbl.mem tbl name then
        raise (Malformed (what ^ ": duplicate denotation for " ^ name));
      Hashtbl.add tbl name members)
    denots;
  let denotations =
    Array.init n (fun l ->
        let name = Alphabet.name problem.Problem.alpha l in
        let members =
          match Hashtbl.find_opt tbl name with
          | Some m -> m
          | None -> raise (Malformed (what ^ ": no denotation for " ^ name))
        in
        List.fold_left
          (fun acc m ->
            match Alphabet.find source.Problem.alpha m with
            | l -> Labelset.add l acc
            | exception Not_found ->
                raise
                  (Malformed
                     (Printf.sprintf "%s: denotation member %S is not a \
                                      source label"
                        what m)))
          Labelset.empty members)
  in
  { Rounde.problem; denotations }

let validate cert =
  Trace.with_span "certify.validate" @@ fun () ->
  match
    match cert with
    | Step s ->
        let source = parse_problem ~what:"step source" s.source in
        let r = parse_problem ~what:"step r" s.r in
        let result = parse_problem ~what:"step result" s.result in
        let r_denoted =
          rebuild_denoted ~what:"r denotations" ~source ~problem:r
            s.r_denotations
        in
        let result_denoted =
          rebuild_denoted ~what:"result denotations" ~source:r ~problem:result
            s.result_denotations
        in
        Check.check_r ~source r_denoted;
        Check.check_rbar ~source:r result_denoted
    | Relaxed_step rs ->
        let source = parse_problem ~what:"relaxed-step source" rs.rs_source in
        let r = parse_problem ~what:"relaxed-step r" rs.rs_r in
        let relaxed = parse_problem ~what:"relaxed-step relaxed" rs.rs_relaxed in
        let result = parse_problem ~what:"relaxed-step result" rs.rs_result in
        let r_denoted =
          rebuild_denoted ~what:"r denotations" ~source ~problem:r
            rs.rs_r_denotations
        in
        let relaxed_denoted =
          rebuild_denoted ~what:"relaxed denotations" ~source:r ~problem:relaxed
            rs.rs_relaxed_denotations
        in
        let result_denoted =
          rebuild_denoted ~what:"result denotations" ~source:relaxed
            ~problem:result rs.rs_result_denotations
        in
        Check.check_r ~source r_denoted;
        Check.check_relaxation ~source:r relaxed_denoted;
        Check.check_rbar ~source:relaxed result_denoted
    | Fixed_point { problem } ->
        Check.check_fixed_point (parse_problem ~what:"fixed point" problem)
  with
  | () -> Ok ()
  | exception Malformed msg -> Error msg
  | exception Check.Violation msg -> Error msg
  | exception Budget.Budget_exceeded { budget; limit } ->
      Error (Budget.message ~budget ~limit)
  | exception Failure msg -> Error msg
