open Relim
module Cert = Certify.Certificate

let ( let* ) = Result.bind

type payload =
  | Step_result of string
  | Fixed_point of int * string
  | Autopilot_cycle of string

type entry = { key_text : string; key_problem : Problem.t; payload : payload }

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable admitted : int;
  mutable rejected_invalid : int;
  mutable rejected_corrupt : int;
  mutable hash_conflicts : int;
}

type t = {
  root : string;
  entries_dir : string;
  (* (kind, invariant hash) ↦ entries of every admitted file of that
     bucket; populated on first lookup, extended on admission. *)
  buckets : (string * int, entry list) Hashtbl.t;
  stats : stats;
}

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
    buckets = Hashtbl.create 64;
    stats =
      {
        hits = 0;
        misses = 0;
        admitted = 0;
        rejected_invalid = 0;
        rejected_corrupt = 0;
        hash_conflicts = 0;
      };
  }

let dir t = t.root

let stats t = t.stats

(* ------------------------------------------------------------------ *)
(* Entry file format                                                   *)
(* ------------------------------------------------------------------ *)

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
   checked at admission and again on load; [Ok] carries the payload the
   entry serves.  The certificate's kind must match the entry's, and
   its source must be the key text.  A fixed-point entry records
   [steps >= 1] detection steps.  An autopilot entry claims a lower
   bound: its relaxed step must close a period-1 cycle on the key, and
   the key must not be 0-round solvable. *)
let claim ~kind ~key_text ~(key_problem : Problem.t) ~steps (cert : Cert.t) =
  let source_is_key source =
    if source = key_text then Ok ()
    else Error "certificate source differs from entry key"
  in
  match (kind, cert) with
  | "step", Cert.Step s ->
      let* () = source_is_key s.Cert.source in
      Ok (Step_result s.Cert.result)
  | "fixed-point", Cert.Fixed_point { problem } ->
      if steps >= 1 then Ok (Fixed_point (steps, problem))
      else Error "bad steps field"
  | "autopilot", Cert.Relaxed_step rs -> (
      let* () = source_is_key rs.Cert.rs_source in
      let* result =
        match Serialize.of_string rs.Cert.rs_result with
        | p -> Ok p
        | exception Failure m -> Error ("result problem does not parse: " ^ m)
      in
      if
        not
          (Iso.equal_up_to_renaming
             (Simplify.normalize key_problem)
             (Simplify.normalize result))
      then Error "autopilot entry does not close a round-elimination cycle"
      else
        match Zeroround.solvable_arbitrary_ports key_problem with
        | Some _ -> Error "autopilot entry key is 0-round solvable"
        | None -> Ok (Autopilot_cycle rs.Cert.rs_result)
        | exception Budget.Budget_exceeded { budget; limit } ->
            Error ("cannot confirm hardness: " ^ Budget.message ~budget ~limit))
  | k, _ -> Error (Printf.sprintf "kind %S does not match its certificate" k)

(* Parse and fully re-validate one entry file.  @raise Corrupt on
   framing/checksum damage, Invalid when structurally intact but the
   certificate (or key binding) fails re-validation. *)
let load_entry path =
  let text = try read_file path with Sys_error m -> raise (Corrupt m) in
  let pos = ref 0 in
  let len = String.length text in
  let failc fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt in
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
  if read_line () <> "roundelim-store v1" then failc "bad magic";
  let kind =
    match String.split_on_char ' ' (read_line ()) with
    | [ "kind"; k ] -> k
    | _ -> failc "missing kind"
  in
  let hash =
    match String.split_on_char ' ' (read_line ()) with
    | [ "hash"; h ] -> (
        match int_of_string_opt ("0x" ^ h) with
        | Some h -> h
        | None -> failc "bad hash field")
    | _ -> failc "missing hash"
  in
  let steps =
    if kind = "fixed-point" then
      match String.split_on_char ' ' (read_line ()) with
      | [ "steps"; k ] -> (
          match int_of_string_opt k with
          | Some k when k >= 1 -> k
          | _ -> failc "bad steps field")
      | _ -> failc "missing steps"
    else 0
  in
  let key_text = read_block "key" in
  let cert_text = read_block "cert" in
  let body_end = !pos in
  (match String.split_on_char ' ' (read_line ()) with
  | [ "checksum"; given ] ->
      if given <> fnv1a64 (String.sub text 0 body_end) then
        failc "checksum mismatch (corrupted entry)"
  | _ -> failc "missing checksum");
  (* Structurally sound: now re-validate content. *)
  let faili fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt in
  let key_problem =
    match Serialize.of_string key_text with
    | p -> p
    | exception Failure m -> faili "key problem does not parse: %s" m
  in
  if Iso.invariant_hash key_problem <> hash then
    faili "key problem hashes outside its bucket";
  let cert =
    match Cert.of_text cert_text with
    | Ok c -> c
    | Error m -> faili "%s" m
  in
  (match Cert.validate cert with
  | Ok () -> ()
  | Error m -> faili "certificate rejected: %s" m);
  let payload =
    match claim ~kind ~key_text ~key_problem ~steps cert with
    | Ok payload -> payload
    | Error m -> faili "%s" m
  in
  { key_text; key_problem; payload }

(* ------------------------------------------------------------------ *)
(* Buckets                                                             *)
(* ------------------------------------------------------------------ *)

let bucket_prefix kind hash = Printf.sprintf "%s-%x-" kind hash

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

let bucket_files t kind hash =
  let prefix = bucket_prefix kind hash in
  List.filter (fun f -> String.starts_with ~prefix f) (entry_files t)

let load_bucket t kind hash =
  match Hashtbl.find_opt t.buckets (kind, hash) with
  | Some entries -> entries
  | None ->
      let entries =
        List.filter_map
          (fun f ->
            let path = Filename.concat t.entries_dir f in
            match load_entry path with
            | e -> Some e
            | exception Corrupt _ ->
                t.stats.rejected_corrupt <- t.stats.rejected_corrupt + 1;
                None
            | exception Invalid _ ->
                t.stats.rejected_invalid <- t.stats.rejected_invalid + 1;
                None)
          (bucket_files t kind hash)
      in
      Hashtbl.replace t.buckets (kind, hash) entries;
      entries

let same_problem key_text (e : entry) (p : Problem.t) =
  String.equal e.key_text key_text || Iso.equal_up_to_renaming e.key_problem p

let find t kind (p : Problem.t) =
  let hash = Iso.invariant_hash p in
  let key_text = Serialize.to_string p in
  let rec scan skipped = function
    | [] ->
        t.stats.hash_conflicts <- t.stats.hash_conflicts + skipped;
        t.stats.misses <- t.stats.misses + 1;
        None
    | e :: rest ->
        if same_problem key_text e p then begin
          t.stats.hash_conflicts <- t.stats.hash_conflicts + skipped;
          t.stats.hits <- t.stats.hits + 1;
          Some e
        end
        else scan (skipped + 1) rest
  in
  scan 0 (load_bucket t kind hash)

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

(* Atomic write: a temp file in the same directory, then [rename] — a
   crash mid-write leaves only a [.tmp] file, which no reader ever
   considers an entry. *)
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

let free_slot t kind hash =
  let rec go slot =
    let f = Printf.sprintf "%s%d.ent" (bucket_prefix kind hash) slot in
    if Sys.file_exists (Filename.concat t.entries_dir f) then go (slot + 1)
    else f
  in
  go 0

let render ~kind ~hash ~steps ~key_text ~cert_text =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "roundelim-store v1\n";
  Buffer.add_string buf (Printf.sprintf "kind %s\n" kind);
  Buffer.add_string buf (Printf.sprintf "hash %x\n" hash);
  if kind = "fixed-point" then
    Buffer.add_string buf (Printf.sprintf "steps %d\n" steps);
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

let admit t kind ?(steps = 0) ~(source : Problem.t) cert =
  let key_text = Serialize.to_string source in
  let hash = Iso.invariant_hash source in
  let* payload = claim ~kind ~key_text ~key_problem:source ~steps cert in
  let* () =
    Result.map_error
      (fun m -> "refusing to admit entry: " ^ m)
      (Cert.validate cert)
  in
  let entries = load_bucket t kind hash in
  if List.exists (fun e -> same_problem key_text e source) entries then
    Ok () (* already admitted *)
  else begin
    let content =
      render ~kind ~hash ~steps ~key_text ~cert_text:(Cert.to_text cert)
    in
    write_atomically t (free_slot t kind hash) content;
    Hashtbl.replace t.buckets (kind, hash)
      (entries @ [ { key_text; key_problem = source; payload } ]);
    t.stats.admitted <- t.stats.admitted + 1;
    Ok ()
  end

let find_step t p =
  match find t "step" p with
  | Some { payload = Step_result text; _ } -> Some text
  | _ -> None

let add_step t ~source cert = admit t "step" ~source cert

let find_fixed_point t p =
  match find t "fixed-point" p with
  | Some { payload = Fixed_point (steps, text); _ } -> Some (steps, text)
  | _ -> None

let add_fixed_point t ~source ~steps cert =
  admit t "fixed-point" ~steps ~source cert

let find_autopilot t p =
  match find t "autopilot" p with
  | Some { payload = Autopilot_cycle text; _ } -> Some text
  | _ -> None

let add_autopilot t ~source cert = admit t "autopilot" ~source cert

let validate_all t =
  let files = entry_files t in
  let total = List.length files in
  let ok = ref 0 in
  let rejects = ref [] in
  List.iter
    (fun f ->
      let path = Filename.concat t.entries_dir f in
      match load_entry path with
      | _ -> incr ok
      | exception Corrupt m -> rejects := (f, "corrupt: " ^ m) :: !rejects
      | exception Invalid m -> rejects := (f, "invalid: " ^ m) :: !rejects)
    files;
  (total, !ok, List.rev !rejects)
