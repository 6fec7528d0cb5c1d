(* roundelimd — the persistent round-elimination daemon.

   Serves speedup-step, fixed-point-detection and autopilot requests
   over a JSON-lines protocol (Unix socket, optionally TCP on loopback).
   Step results are kept in the certificate-gated on-disk store in
   lib/store; fixed-point and autopilot answers are computed for every
   request the daemon's memo has not seen, with or without a store.

   Examples:
     roundelimd serve --socket /tmp/relim.sock --store /var/tmp/relim-store
     roundelimd serve --socket s.sock --tcp 7437 --domains 4 --trace d.jsonl
     echo '{"id":1,"op":"step","problem":"..."}' | roundelimd client --socket s.sock
     roundelimd validate-store --store /var/tmp/relim-store *)

open Cmdliner

let prog = "roundelimd"

let socket_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:"Unix socket path to listen on (unlinked and rebound).")

let tcp_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT"
        ~doc:"Also listen on TCP $(docv), loopback only.")

let store_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Directory of the on-disk store of speedup-step results.  Every \
           entry is admitted with an independently re-validated certificate \
           and re-validated again on load; omitting the flag runs without \
           persistence.")

(* ---- serve ---- *)

let serve socket tcp store domains trace trace_format =
  let listen =
    (match socket with Some p -> [ Store.Daemon.Unix_socket p ] | None -> [])
    @ match tcp with Some p -> [ Store.Daemon.Tcp p ] | None -> []
  in
  if listen = [] then
    Frontend.usage_error ~prog "provide --socket PATH and/or --tcp PORT";
  let pool = Frontend.pool_of_domains ~prog domains in
  (* [serve] is the one command that honours RELIM_TRACE, and only
     without --trace. *)
  if trace = None then Frontend.trace_from_env ~prog;
  Frontend.with_trace ~prog trace trace_format @@ fun () ->
  let config =
    {
      Store.Daemon.default_config with
      Store.Daemon.listen;
      store_dir = store;
      pool;
    }
  in
  (match socket with
  | Some p -> Format.printf "roundelimd: listening on %s@." p
  | None -> ());
  (match tcp with
  | Some p -> Format.printf "roundelimd: listening on tcp:%d@." p
  | None -> ());
  Store.Daemon.serve config

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the daemon until a shutdown request arrives.")
    Term.(
      const serve $ socket_t $ tcp_t $ store_t $ Frontend.domains_t
      $ Frontend.trace_t $ Frontend.trace_format_t)

(* ---- client ---- *)

(* Pipe mode: forward JSONL request lines from stdin, print response
   lines to stdout.  Exit 0 if every response was ok, 1 otherwise —
   which is what the smoke tests key on. *)
let client socket tcp =
  let target =
    match (socket, tcp) with
    | Some p, _ -> `Unix p
    | None, Some p -> `Tcp p
    | None, None ->
        Frontend.usage_error ~prog "provide --socket PATH or --tcp PORT"
  in
  match Store.Client.connect ~retries:40 target with
  | Error msg -> Frontend.usage_error ~prog "cannot connect: %s" msg
  | Ok conn ->
      let failures = ref 0 in
      (try
         while true do
           let line = input_line stdin in
           if String.trim line <> "" then
             match Store.Client.request conn line with
             | Ok response ->
                 print_endline response;
                 (match Store.Json.of_string response with
                 | Ok j
                   when Option.bind (Store.Json.member "ok" j)
                          Store.Json.bool_opt
                        = Some true ->
                     ()
                 | _ -> incr failures)
             | Error msg ->
                 Format.eprintf "roundelimd: %s@." msg;
                 incr failures;
                 raise Exit
         done
       with End_of_file | Exit -> ());
      Store.Client.close conn;
      exit (if !failures = 0 then 0 else 1)

let client_cmd =
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Forward JSONL requests from stdin to a running daemon and print \
          the responses; exits non-zero if any response was an error.")
    Term.(const client $ socket_t $ tcp_t)

(* ---- validate-store ---- *)

let strict_t =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:"Exit non-zero when any entry is rejected.")

let validate_store store strict =
  match store with
  | None -> Frontend.usage_error ~prog "provide --store DIR"
  | Some dir ->
      let t = Store.Disk.open_dir dir in
      let total, ok, rejects = Store.Disk.validate_all t in
      Format.printf "store %s: %d entries, %d valid, %d rejected@." dir total
        ok (List.length rejects);
      List.iter
        (fun (file, reason) -> Format.printf "  rejected %s: %s@." file reason)
        rejects;
      if strict && rejects <> [] then exit 1

let validate_store_cmd =
  Cmd.v
    (Cmd.info "validate-store"
       ~doc:
         "Re-validate every entry of an on-disk result store from scratch \
          (framing, checksum, certificate replay) and report rejects.  The \
          store keeps step entries only: an earlier store's fixed-point or \
          autopilot entry is rejected as invalid, with a reason naming its \
          kind.")
    Term.(const validate_store $ store_t $ strict_t)

let () =
  let info =
    Cmd.info "roundelimd" ~version:"%%VERSION%%"
      ~doc:
        "Persistent round-elimination daemon with a certificate-gated result \
         store."
  in
  exit (Cmd.eval (Cmd.group info [ serve_cmd; client_cmd; validate_store_cmd ]))
