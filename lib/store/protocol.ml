type op = Step | Fixed_point of int option | Autopilot of int option

let op_name = function
  | Step -> "step"
  | Fixed_point _ -> "fixed-point"
  | Autopilot _ -> "autopilot"

type request =
  | Compute of { id : Json.t; op : op; problem : string }
  | Ping of { id : Json.t }
  | Stats of { id : Json.t }
  | Shutdown of { id : Json.t }

type error_code = Parse_error | Bad_request | Engine_error

let code_string = function
  | Parse_error -> "parse-error"
  | Bad_request -> "bad-request"
  | Engine_error -> "engine-error"

let decode line =
  match Json.of_string line with
  | Error msg -> Error (Json.Null, Parse_error, "not valid JSON: " ^ msg)
  | Ok json -> (
      let id = Option.value ~default:Json.Null (Json.member "id" json) in
      match json with
      | Json.Obj _ -> (
          let ( let* ) = Result.bind in
          (* The problem is checked before [max_steps], and a step
             ignores [max_steps] altogether. *)
          let compute name =
            let* problem =
              match Option.bind (Json.member "problem" json) Json.string_opt with
              | Some p when String.trim p <> "" -> Ok p
              | Some _ -> Error "empty \"problem\" field"
              | None -> Error "missing string field \"problem\""
            in
            let* op =
              if name = "step" then Ok Step
              else
                let* max_steps =
                  match Json.member "max_steps" json with
                  | None -> Ok None
                  | Some v -> (
                      match Json.int_opt v with
                      | Some k when k >= 1 -> Ok (Some k)
                      | _ -> Error "\"max_steps\" must be an integer >= 1")
                in
                Ok
                  (if name = "autopilot" then Autopilot max_steps
                   else Fixed_point max_steps)
            in
            Ok (Compute { id; op; problem })
          in
          match Option.bind (Json.member "op" json) Json.string_opt with
          | Some (("step" | "fixed-point" | "autopilot") as name) ->
              Result.map_error (fun m -> (id, Bad_request, m)) (compute name)
          | Some "ping" -> Ok (Ping { id })
          | Some "stats" -> Ok (Stats { id })
          | Some "shutdown" -> Ok (Shutdown { id })
          | Some op -> Error (id, Bad_request, Printf.sprintf "unknown op %S" op)
          | None -> Error (id, Bad_request, "missing string field \"op\""))
      | _ -> Error (id, Bad_request, "request must be a JSON object"))

let error_line ~id code message =
  Json.to_string
    (Json.Obj
       [
         ("id", id);
         ("ok", Json.Bool false);
         ( "error",
           Json.Obj
             [
               ("code", Json.String (code_string code));
               ("message", Json.String message);
             ] );
       ])

(* Budget overruns get their own error shape: the code is "budget" and
   the budget's name and numeric limit travel as structured fields, so
   a client can retry with a larger limit without parsing the message. *)
let budget_error_line ~id ~budget ~limit =
  Json.to_string
    (Json.Obj
       [
         ("id", id);
         ("ok", Json.Bool false);
         ( "error",
           Json.Obj
             [
               ("code", Json.String "budget");
               ("budget", Json.String budget);
               ( "limit",
                 if Float.is_integer limit && Float.abs limit < 1e15 then
                   Json.Int (int_of_float limit)
                 else Json.Float limit );
               ("message", Json.String (Relim.Budget.message ~budget ~limit));
             ] );
       ])

let ok_line ~id ?cached fields =
  let cached_field =
    match cached with Some b -> [ ("cached", Json.Bool b) ] | None -> []
  in
  Json.to_string
    (Json.Obj
       ([ ("id", id); ("ok", Json.Bool true) ]
       @ cached_field
       @ [ ("result", Json.Obj fields) ]))
