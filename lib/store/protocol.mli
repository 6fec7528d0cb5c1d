(** JSON-lines wire protocol of [roundelimd].

    One request per line, one response line per request, in request
    order per connection.  Requests are JSON objects:

    {v
    {"id": <any>, "op": "step",        "problem": "<Serialize text>"}
    {"id": <any>, "op": "fixed-point", "problem": "<text>", "max_steps": 5}
    {"id": <any>, "op": "autopilot",   "problem": "<text>", "max_steps": 5}
    {"id": <any>, "op": "ping"}
    {"id": <any>, "op": "stats"}
    {"id": <any>, "op": "shutdown"}
    v}

    [id] is echoed verbatim in the response (clients use it to match
    pipelined requests); it may be any JSON value and defaults to
    [null].  Responses are single-line objects:

    {v
    {"id":…,"ok":true,"cached":…,"result":{…}}
    {"id":…,"ok":false,"error":{"code":"…","message":"…"}}
    v}

    Decoding is total: garbage, truncated or non-object lines produce
    a structured [parse-error]/[bad-request] response, never an
    exception. *)

(** The three uses of round elimination the daemon serves: one
    speedup step, fixed-point detection, and the certified autopilot
    search.  The [int option] is the request's [max_steps]. *)
type op = Step | Fixed_point of int option | Autopilot of int option

(** The op's wire name: ["step"], ["fixed-point"] or ["autopilot"]. *)
val op_name : op -> string

(** A decoded request.  Every op that runs the engine decodes to one
    [Compute]: its [problem] is a non-empty text, and [max_steps],
    when present, is an integer [>= 1] (a [step] request ignores
    it). *)
type request =
  | Compute of { id : Json.t; op : op; problem : string }
  | Ping of { id : Json.t }
  | Stats of { id : Json.t }
  | Shutdown of { id : Json.t }

type error_code = Parse_error | Bad_request | Engine_error

val code_string : error_code -> string

(** Decode one request line.  [Error] carries the best-effort request
    id (the [id] field if the line parsed as an object, else [null])
    together with the structured error. *)
val decode : string -> (request, Json.t * error_code * string) result

(** Render an error response line (no trailing newline). *)
val error_line : id:Json.t -> error_code -> string -> string

(** Render the structured budget-overrun error line: code ["budget"]
    with the budget's name and numeric limit as their own fields
    (integral limits as JSON integers), plus the human-readable
    {!Relim.Budget.message}.  Clients can retry with a larger limit
    without parsing prose. *)
val budget_error_line : id:Json.t -> budget:string -> limit:float -> string

(** Render a success response line; [cached] is included only when
    given (compute ops set it, control ops don't). *)
val ok_line : id:Json.t -> ?cached:bool -> (string * Json.t) list -> string
