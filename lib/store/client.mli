(** Minimal blocking JSON-lines client for [roundelimd], shared by the
    tests and the CLI client mode. *)

type t

(** Connect to a listening daemon.  [retries] (default 0) spaces
    [Unix.sleepf 0.05] attempts — handy right after spawning a server
    that may not be accepting yet. *)
val connect :
  ?retries:int -> [ `Unix of string | `Tcp of int ] -> (t, string) result

(** [request t line] sends one request line and blocks for the
    matching response line.  [Error] on a closed or broken
    connection. *)
val request : t -> string -> (string, string) result

val send_line : t -> string -> (unit, string) result

val recv_line : t -> (string, string) result

val close : t -> unit
