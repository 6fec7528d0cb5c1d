open Relim
module Cert = Certify.Certificate

let ( let* ) = Result.bind

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable admitted : int;
  mutable rejected_invalid : int;
  mutable rejected_corrupt : int;
}

type t = { root : string; entries_dir : string; stats : stats }

let entries_subdir = "entries"

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let open_dir root =
  let entries_dir = Filename.concat root entries_subdir in
  mkdir_p entries_dir;
  {
    root;
    entries_dir;
    stats =
      {
        hits = 0;
        misses = 0;
        admitted = 0;
        rejected_invalid = 0;
        rejected_corrupt = 0;
      };
  }

let dir t = t.root

let stats t = t.stats

(* ------------------------------------------------------------------ *)
(* Entry file format                                                   *)
(* ------------------------------------------------------------------ *)

let magic = "roundelim-store v2"

(* The one kind of entry: a certified speedup step. *)
let kind = "step"

(* The one file that may hold the entry keyed by [key_text]. *)
let file_name key_text =
  Printf.sprintf "%s-%s.ent" kind (Digest.to_hex (Digest.string key_text))

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
             0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

exception Corrupt of string

exception Invalid of string

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The claim an entry makes beyond its certificate's own validity,
   checked at admission and again on load: the certificate is a step
   whose source is the key text.  [Ok] carries the result text the
   entry serves. *)
let claim ~key_text (cert : Cert.t) =
  match cert with
  | Cert.Step s when s.Cert.source = key_text -> Ok s.Cert.result
  | Cert.Step _ -> Error "certificate source differs from entry key"
  | _ -> Error (Printf.sprintf "kind %S does not match its certificate" kind)

(* Parse and fully re-validate the entry file [name]: its key text and
   the result text it serves.  @raise Corrupt on framing/checksum
   damage, Invalid when structurally intact but written in format v1,
   of a kind other than [step], filed under another key's name, or
   failing the claim check or certificate re-validation. *)
let load_entry t name =
  let text =
    try read_file (Filename.concat t.entries_dir name)
    with Sys_error m -> raise (Corrupt m)
  in
  let pos = ref 0 in
  let len = String.length text in
  let failc fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt in
  let faili fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt in
  let read_line () =
    if !pos >= len then failc "truncated entry";
    match String.index_from_opt text !pos '\n' with
    | None -> failc "unterminated line (truncated entry)"
    | Some stop ->
        let line = String.sub text !pos (stop - !pos) in
        pos := stop + 1;
        line
  in
  let read_block tag =
    let line = read_line () in
    match String.split_on_char ' ' line with
    | [ t; n ] when t = tag -> (
        match int_of_string_opt n with
        | Some n when n >= 0 && !pos + n < len ->
            let body = String.sub text !pos n in
            pos := !pos + n;
            if text.[!pos] <> '\n' then failc "block %S overruns (truncated)" tag;
            incr pos;
            body
        | _ -> failc "bad block header %S" line)
    | _ -> failc "expected block %S, got %S" tag line
  in
  (match read_line () with
  | l when l = magic -> ()
  | "roundelim-store v1" ->
      faili "store format v1, whose entries were keyed up to isomorphism"
  | _ -> failc "bad magic");
  (* An earlier store's [fixed-point] or [autopilot] entry is refused
     here, before the header lines of its own kind are read. *)
  (match String.split_on_char ' ' (read_line ()) with
  | [ "kind"; k ] when k = kind -> ()
  | [ "kind"; k ] -> faili "entry kind %S: the store keeps only %s entries" k kind
  | _ -> failc "missing kind");
  let key_text = read_block "key" in
  let cert_text = read_block "cert" in
  let body_end = !pos in
  (match String.split_on_char ' ' (read_line ()) with
  | [ "checksum"; given ] ->
      if given <> fnv1a64 (String.sub text 0 body_end) then
        failc "checksum mismatch (corrupted entry)"
  | _ -> failc "missing checksum");
  (* Structurally sound: now re-validate content.  Validation parses the
     certificate's source, which the claim check holds to the key. *)
  if name <> file_name key_text then
    faili "filed as %s, but its key's file is %s" name (file_name key_text);
  let cert =
    match Cert.of_text cert_text with
    | Ok c -> c
    | Error m -> faili "%s" m
  in
  let result =
    match claim ~key_text cert with Ok r -> r | Error m -> faili "%s" m
  in
  match Cert.validate cert with
  | Ok () -> (key_text, result)
  | Error m -> faili "certificate rejected: %s" m

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)
(* ------------------------------------------------------------------ *)

(* The result text stored for [key_text], if its file exists, loads,
   and holds that very key.  A rejection is counted only when [count]:
   admission asks again after a lookup that counted it. *)
let stored ~count t key_text =
  let name = file_name key_text in
  if not (Sys.file_exists (Filename.concat t.entries_dir name)) then None
  else
    match load_entry t name with
    | k, result -> if String.equal k key_text then Some result else None
    | exception Corrupt _ ->
        if count then t.stats.rejected_corrupt <- t.stats.rejected_corrupt + 1;
        None
    | exception Invalid _ ->
        if count then t.stats.rejected_invalid <- t.stats.rejected_invalid + 1;
        None

let find_step t (p : Problem.t) =
  match stored ~count:true t (Serialize.to_string p) with
  | Some result ->
      t.stats.hits <- t.stats.hits + 1;
      Some result
  | None ->
      t.stats.misses <- t.stats.misses + 1;
      None

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

(* Atomic write: a temp file in the same directory, then [rename] — a
   crash mid-write leaves only a [.tmp] file, which no reader ever
   considers an entry, and a rejected file under the same name is
   replaced whole. *)
let write_atomically t filename content =
  let final = Filename.concat t.entries_dir filename in
  let tmp =
    Filename.concat t.entries_dir
      (Printf.sprintf ".tmp-%d-%s" (Unix.getpid ()) filename)
  in
  let oc = open_out_bin tmp in
  (try
     output_string oc content;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Unix.rename tmp final

let render ~key_text ~cert_text =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (magic ^ "\n");
  Buffer.add_string buf (Printf.sprintf "kind %s\n" kind);
  let add_block tag s =
    Buffer.add_string buf (Printf.sprintf "%s %d\n" tag (String.length s));
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  add_block "key" key_text;
  add_block "cert" cert_text;
  Buffer.add_string buf
    (Printf.sprintf "checksum %s\n" (fnv1a64 (Buffer.contents buf)));
  Buffer.contents buf

let add_step t ~(source : Problem.t) cert =
  let key_text = Serialize.to_string source in
  (* The checks come before the presence check, also for a stored key:
     looking the key up first would answer [Ok] to a forged certificate
     for it (test/store "admission gate"). *)
  let* _ = claim ~key_text cert in
  let* () =
    Result.map_error
      (fun m -> "refusing to admit entry: " ^ m)
      (Cert.validate cert)
  in
  if Option.is_some (stored ~count:false t key_text) then
    Ok () (* already admitted *)
  else begin
    write_atomically t (file_name key_text)
      (render ~key_text ~cert_text:(Cert.to_text cert));
    t.stats.admitted <- t.stats.admitted + 1;
    Ok ()
  end

let entry_files t =
  match Sys.readdir t.entries_dir with
  | files ->
      Array.sort compare files;
      Array.to_list files
      |> List.filter (fun f ->
             Filename.check_suffix f ".ent"
             (* Leftover [.tmp-*] files from an interrupted write are
                never entries. *)
             && not (String.starts_with ~prefix:"." f))
  | exception Sys_error _ -> []

let validate_all t =
  let files = entry_files t in
  let total = List.length files in
  let ok = ref 0 in
  let rejects = ref [] in
  List.iter
    (fun f ->
      match load_entry t f with
      | _ -> incr ok
      | exception Corrupt m -> rejects := (f, "corrupt: " ^ m) :: !rejects
      | exception Invalid m -> rejects := (f, "invalid: " ^ m) :: !rejects)
    files;
  (total, !ok, List.rev !rejects)
