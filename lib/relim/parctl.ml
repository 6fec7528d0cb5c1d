let env_var = "RELIM_DOMAINS"

(* A value is either absent, a well-formed positive domain count, or
   malformed (non-integer, zero or negative) — malformed values fall
   back to 1 but, unlike absence, deserve a warning: the user tried to
   configure parallelism and got silent sequential execution instead. *)
type parsed = Unset | Domains of int | Malformed of string

let parse_env = function
  | None -> Unset
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> Domains d
      | Some _ | None -> Malformed s)

(* Warnings are routed through a hook so tests can capture them without
   scraping the process's own stderr.  The default prints to stderr. *)
let warn_hook : (string -> unit) ref =
  ref (fun msg -> Printf.eprintf "%s\n%!" msg)

(* Variables whose malformed value has already been reported. *)
let warned : string list ref = ref []

let warn_once var msg =
  if not (List.mem var !warned) then begin
    warned := var :: !warned;
    !warn_hook msg
  end

let reset_warned () = warned := []

(* --- Boolean toggles (RELIM_ZDD, RELIM_CERTIFY) ------------------- *)

(* Same shape as the domain count: absent means off, a recognized
   boolean means what it says, anything else warns once and falls back
   to off (the user asked for the toggle and is silently not getting
   it). *)
type flag_parsed = Flag_unset | Flag_set of bool | Flag_malformed of string

let parse_flag_env = function
  | None -> Flag_unset
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "1" | "true" | "yes" | "on" -> Flag_set true
      | "0" | "false" | "no" | "off" | "" -> Flag_set false
      | _ -> Flag_malformed s)

let flag_from_env var ~fallback =
  match parse_flag_env (Sys.getenv_opt var) with
  | Flag_unset -> false
  | Flag_set b -> b
  | Flag_malformed s ->
      warn_once var
        (Printf.sprintf
           "relim: warning: %s=%S is not a boolean (1/0, true/false, yes/no, \
            on/off); %s"
           var s fallback);
      false

let zdd_env_var = "RELIM_ZDD"

let zdd_from_env () =
  flag_from_env zdd_env_var ~fallback:"running on the explicit-list path"

(* [Some b] forces; [None] defers to the environment. *)
let resolve_zdd = function Some b -> b | None -> zdd_from_env ()

let domains_from_env () =
  match parse_env (Sys.getenv_opt env_var) with
  | Unset -> 1
  | Domains d -> d
  | Malformed s ->
      warn_once env_var
        (Printf.sprintf
           "relim: warning: %s=%S is not a positive integer; running with 1 \
            domain"
           env_var s);
      1

let default_pool =
  lazy (Parallel.Pool.create ~domains:(domains_from_env ()))

let default () = Lazy.force default_pool

let resolve = function Some pool -> pool | None -> default ()
