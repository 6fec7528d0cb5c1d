(* Tests for lib/store: the JSON codec, the wire-protocol codec, the
   certificate text format, and the certificate-gated on-disk result
   store (admission gating, warm reload, tamper/truncation rejection,
   entries served only to their own key, refusal of format v1, of
   misfiled entries and of the retired fixed-point and autopilot entry
   kinds, atomic-write leftovers). *)

open Relim
module Json = Store.Json
module Protocol = Store.Protocol
module Disk = Store.Disk
module Certificate = Certify.Certificate

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Fresh scratch directory per test. *)
let counter = ref 0
let tmpdir () =
  incr counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "relim-store-test-%d-%d" (Unix.getpid ()) !counter)
  in
  (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("id", Json.Int 42);
        ("name", Json.String "a\nb\t\"c\"\\d");
        ("pi", Json.Float 3.5);
        ("flags", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("nested", Json.Obj [ ("x", Json.Int (-7)) ]);
      ]
  in
  let s = Json.to_string v in
  check_bool "printer emits one line" false (String.contains s '\n');
  (match Json.of_string s with
  | Ok v' -> check_bool "roundtrip" true (v = v')
  | Error m -> Alcotest.failf "reparse failed: %s" m);
  (* Field order is construction order: printing is deterministic. *)
  check_string "deterministic print" s
    (Json.to_string
       (match Json.of_string s with Ok v -> v | Error m -> failwith m))

let test_json_unicode () =
  match Json.of_string {|"café 😀"|} with
  | Ok (Json.String s) ->
      check_string "escape decoding to UTF-8" "caf\xc3\xa9 \xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error m -> Alcotest.failf "parse failed: %s" m

let test_json_garbage () =
  let bad =
    [
      "";
      "{";
      "[1,2";
      "{\"a\":}";
      "\"unterminated";
      "{\"a\":1} trailing";
      "nul";
      "{\"a\" 1}";
      "\"bad \\q escape\"";
      String.concat "" (List.init 600 (fun _ -> "[")) (* depth bomb *);
    ]
  in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted garbage %S" s
      | Error _ -> ())
    bad

let test_json_numbers () =
  (match Json.of_string "[0,-12,1e3,2.5,-0.125]" with
  | Ok
      (Json.List
        [ Json.Int 0; Json.Int (-12); Json.Float 1000.; Json.Float 2.5; Json.Float f ])
    ->
      check_bool "negative fraction" true (f = -0.125)
  | Ok j -> Alcotest.failf "unexpected parse: %s" (Json.to_string j)
  | Error m -> Alcotest.failf "parse failed: %s" m);
  (* Non-finite floats must not corrupt the JSONL stream. *)
  check_string "nan prints as null" "null" (Json.to_string (Json.Float nan))

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_decode () =
  (match Protocol.decode {|{"id":7,"op":"step","problem":"text"}|} with
  | Ok
      (Protocol.Compute
        { id = Json.Int 7; op = Protocol.Step; problem = "text" }) ->
      ()
  | _ -> Alcotest.fail "step decode");
  (match
     Protocol.decode {|{"id":"x","op":"fixed-point","problem":"t","max_steps":5}|}
   with
  | Ok
      (Protocol.Compute
        {
          id = Json.String "x";
          op = Protocol.Fixed_point (Some 5);
          problem = "t";
        }) ->
      ()
  | _ -> Alcotest.fail "fixed-point decode");
  (match Protocol.decode {|{"id":1,"op":"autopilot","problem":"t"}|} with
  | Ok (Protocol.Compute { op = Protocol.Autopilot None; _ }) -> ()
  | _ -> Alcotest.fail "autopilot decode");
  (* A step ignores max_steps, even a malformed one. *)
  (match
     Protocol.decode {|{"id":1,"op":"step","problem":"t","max_steps":"many"}|}
   with
  | Ok (Protocol.Compute { op = Protocol.Step; _ }) -> ()
  | _ -> Alcotest.fail "step ignores max_steps");
  (match Protocol.decode {|{"op":"ping"}|} with
  | Ok (Protocol.Ping { id = Json.Null }) -> ()
  | _ -> Alcotest.fail "ping decode, id defaults to null")

let test_protocol_decode_errors () =
  (* Garbage: parse-error, id unknown. *)
  (match Protocol.decode "not json at all" with
  | Error (Json.Null, Protocol.Parse_error, _) -> ()
  | _ -> Alcotest.fail "garbage line");
  (* Well-formed JSON, bad request: the id must still be echoed. *)
  (match Protocol.decode {|{"id":9,"op":"launch-missiles"}|} with
  | Error (Json.Int 9, Protocol.Bad_request, _) -> ()
  | _ -> Alcotest.fail "unknown op keeps id");
  (match Protocol.decode {|{"id":1,"op":"step"}|} with
  | Error (Json.Int 1, Protocol.Bad_request, _) -> ()
  | _ -> Alcotest.fail "step without problem");
  (match Protocol.decode {|{"id":1,"op":"fixed-point","problem":"p","max_steps":"many"}|} with
  | Error (Json.Int 1, Protocol.Bad_request, _) -> ()
  | _ -> Alcotest.fail "non-integer max_steps");
  match Protocol.decode "[1,2,3]" with
  | Error (Json.Null, Protocol.Bad_request, _) -> ()
  | _ -> Alcotest.fail "non-object request"

let test_protocol_render () =
  check_string "error line" {|{"id":3,"ok":false,"error":{"code":"parse-error","message":"bad"}}|}
    (Protocol.error_line ~id:(Json.Int 3) Protocol.Parse_error "bad");
  check_string "ok line with cache flag"
    {|{"id":null,"ok":true,"cached":true,"result":{"n":1}}|}
    (Protocol.ok_line ~id:Json.Null ~cached:true [ ("n", Json.Int 1) ]);
  check_string "ok line without cache flag" {|{"id":1,"ok":true,"result":{}}|}
    (Protocol.ok_line ~id:(Json.Int 1) [])

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)
(* ------------------------------------------------------------------ *)

let mis () =
  Parse.problem ~name:"MIS" ~node:"M^3\nP O^2" ~edge:"O^2\nM [PO]"

let step_certificate p =
  let rd = Rounde.r p in
  let rbd = Rounde.rbar rd.Rounde.problem in
  let result =
    {
      rbd with
      Rounde.problem =
        { rbd.Rounde.problem with Problem.name = "step(" ^ p.Problem.name ^ ")" };
    }
  in
  Certificate.of_step_parts ~source:p ~r:rd ~result

let test_certificate_roundtrip () =
  let cert = step_certificate (mis ()) in
  let text = Certificate.to_text cert in
  (match Certificate.of_text text with
  | Ok cert' -> check_bool "to_text/of_text roundtrip" true (cert = cert')
  | Error m -> Alcotest.failf "of_text failed: %s" m);
  (match Certificate.validate cert with
  | Ok () -> ()
  | Error m -> Alcotest.failf "honest certificate rejected: %s" m);
  match cert with
  | Certificate.Step s ->
      check_bool "result_text is the step result" true
        (Certificate.result_text cert = s.Certificate.result)
  | _ -> Alcotest.fail "expected a Step certificate"

let test_certificate_tamper () =
  let cert = step_certificate (mis ()) in
  (* Forge: claim the step result is the (unstepped) source problem. *)
  let forged =
    match cert with
    | Certificate.Step s -> Certificate.Step { s with Certificate.result = s.Certificate.source }
    | c -> c
  in
  (match Certificate.validate forged with
  | Ok () -> Alcotest.fail "validate accepted a forged result"
  | Error _ -> ());
  (* A problem text with a name or a label count the alphabet refuses
     is an [Error], not an escaping exception. *)
  List.iter
    (fun (node, edge) ->
      let problem = Printf.sprintf "problem x\nnode:\n%s\nedge:\n%s\n" node edge in
      match Certificate.validate (Certificate.Fixed_point { problem }) with
      | Ok () -> Alcotest.failf "validate accepted %S" problem
      | Error _ -> ())
    [
      ("A( A( A(", "A( A(");
      (String.concat " " (List.init 61 (Printf.sprintf "l%d")), "l0 l0");
    ];
  (* Truncated serializations must fail structurally, never raise. *)
  let text = Certificate.to_text cert in
  List.iter
    (fun cut ->
      match Certificate.of_text (String.sub text 0 cut) with
      | Ok _ -> Alcotest.failf "accepted truncation at %d" cut
      | Error _ -> ())
    [ 0; 5; String.length text / 2; String.length text - 2 ];
  match Certificate.of_text "certificate v1 step\ngarbage" with
  | Ok _ -> Alcotest.fail "accepted garbage body"
  | Error _ -> ()

let test_certificate_fixed_point () =
  let so = Parse.problem ~name:"SO" ~node:"O [IO]^2" ~edge:"O I" in
  (match Fixedpoint.detect so with
  | Fixedpoint.Reaches_fixed_point (_, fixed) -> (
      let cert = Certificate.of_fixed_point fixed in
      match Certificate.validate cert with
      | Ok () -> ()
      | Error m -> Alcotest.failf "honest fixed-point rejected: %s" m)
  | _ -> Alcotest.fail "SO should reach a fixed point");
  (* MIS is not a fixed point: a certificate claiming so must fail the
     independent replay. *)
  match Certificate.validate (Certificate.of_fixed_point (mis ())) with
  | Ok () -> Alcotest.fail "validate accepted a false fixed-point claim"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Disk store                                                          *)
(* ------------------------------------------------------------------ *)

let entry_files dir =
  Sys.readdir (Filename.concat dir "entries")
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ent")

let entry_path dir f = Filename.concat (Filename.concat dir "entries") f

let read_entry dir f =
  In_channel.with_open_bin (entry_path dir f) In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let admit_mis t =
  let p = mis () in
  let cert = step_certificate p in
  (match Disk.add_step t ~source:p cert with
  | Ok () -> ()
  | Error m -> Alcotest.failf "admission failed: %s" m);
  (p, Certificate.result_text cert)

let test_disk_roundtrip () =
  let dir = tmpdir () in
  let t = Disk.open_dir dir in
  let p, expect = admit_mis t in
  (match Disk.find_step t p with
  | Some got -> check_string "served text" expect got
  | None -> Alcotest.fail "admitted entry not found");
  check_int "one admission" 1 (Disk.stats t).Disk.admitted;
  check_int "one file" 1 (List.length (entry_files dir));
  (* Re-admitting the same problem is a no-op. *)
  (match Disk.add_step t ~source:p (step_certificate p) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "re-admission failed: %s" m);
  check_int "still one file" 1 (List.length (entry_files dir));
  check_int "still one admission" 1 (Disk.stats t).Disk.admitted;
  (* A renamed-label variant is another key: it misses, and admitting
     it writes a second file.  Each key is served its own text. *)
  let renamed = Iso.apply_renaming p [ ("M", "Z"); ("P", "Q") ] in
  check_bool "renamed variant misses" true (Disk.find_step t renamed = None);
  let renamed_cert = step_certificate renamed in
  let renamed_expect = Certificate.result_text renamed_cert in
  check_bool "renamed result in its own labels" true (renamed_expect <> expect);
  (match Disk.add_step t ~source:renamed renamed_cert with
  | Ok () -> ()
  | Error m -> Alcotest.failf "renamed admission failed: %s" m);
  check_int "second file" 2 (List.length (entry_files dir));
  (match Disk.find_step t renamed with
  | Some got -> check_string "renamed key served its own text" renamed_expect got
  | None -> Alcotest.fail "renamed entry not found");
  match Disk.find_step t p with
  | Some got -> check_string "original key served its own text" expect got
  | None -> Alcotest.fail "original entry not found"

let test_disk_warm_reload () =
  let dir = tmpdir () in
  let p, expect =
    let t = Disk.open_dir dir in
    admit_mis t
  in
  (* A fresh handle = a restarted process: the entry must revalidate
     and serve byte-identical text. *)
  let t2 = Disk.open_dir dir in
  (match Disk.find_step t2 p with
  | Some got -> check_string "warm text byte-identical" expect got
  | None -> Alcotest.fail "warm reload missed");
  let s = Disk.stats t2 in
  check_int "warm hit" 1 s.Disk.hits;
  check_int "no rejects on clean store" 0
    (s.Disk.rejected_corrupt + s.Disk.rejected_invalid)

let corrupt_file path f =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let text' = f text in
  let oc = open_out_bin path in
  output_string oc text';
  close_out oc

let test_disk_tamper_rejected () =
  let dir = tmpdir () in
  let p, _ =
    let t = Disk.open_dir dir in
    admit_mis t
  in
  let file = List.hd (entry_files dir) in
  (* Flip one byte in the middle of the entry body. *)
  corrupt_file (entry_path dir file) (fun text ->
      let i = String.length text / 2 in
      let b = Bytes.of_string text in
      Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
      Bytes.to_string b);
  let t = Disk.open_dir dir in
  (match Disk.find_step t p with
  | None -> ()
  | Some _ -> Alcotest.fail "tampered entry was served");
  check_bool "tamper counted as corrupt" true
    ((Disk.stats t).Disk.rejected_corrupt >= 1);
  let total, ok, rejects = Disk.validate_all t in
  check_int "validate_all sees the file" 1 total;
  check_int "validate_all rejects it" 0 ok;
  match rejects with
  | [ (f, reason) ] ->
      check_string "rejected file name" file f;
      check_bool "reason mentions corruption" true (contains ~sub:"corrupt" reason)
  | _ -> Alcotest.fail "expected exactly one reject"

let test_disk_truncation_rejected () =
  let dir = tmpdir () in
  let p, _ =
    let t = Disk.open_dir dir in
    admit_mis t
  in
  let file = List.hd (entry_files dir) in
  (* Simulate kill -9 mid-write (a partially written file). *)
  corrupt_file (entry_path dir file) (fun text ->
      String.sub text 0 (String.length text / 3));
  let t = Disk.open_dir dir in
  (match Disk.find_step t p with
  | None -> ()
  | Some _ -> Alcotest.fail "truncated entry was served");
  check_bool "truncation counted as corrupt" true
    ((Disk.stats t).Disk.rejected_corrupt >= 1)

(* Checksum-valid but semantically forged entries: recompute the
   checksum over a tampered body with an independent FNV-1a
   implementation, so the file is structurally perfect and rejection
   can only come from certificate re-validation. *)
let refresh_checksum text' =
  let body_end =
    (* The checksum line is the last line of the file. *)
    let rec last_line_start i =
      if i <= 0 then 0
      else if text'.[i - 1] = '\n' then i
      else last_line_start (i - 1)
    in
    last_line_start (String.length text' - 1)
  in
  let body = String.sub text' 0 body_end in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    body;
  Printf.sprintf "%schecksum %016Lx\n" body !h

let test_disk_forged_cert_rejected () =
  let dir = tmpdir () in
  let p, _ =
    let t = Disk.open_dir dir in
    admit_mis t
  in
  let file = List.hd (entry_files dir) in
  (* Corrupt the certificate payload (swap a label name inside it) and
     re-seal the checksum: framing passes, validation must not. *)
  corrupt_file (entry_path dir file) (fun text ->
      let b = Bytes.of_string text in
      let rec patch i patched =
        if i + 2 > Bytes.length b then patched
        else if Bytes.get b i = '^' && Bytes.get b (i + 1) = '3' then begin
          Bytes.set b (i + 1) '2';
          true
        end
        else patch (i + 1) patched
      in
      if not (patch 0 false) then Alcotest.fail "no patch point found";
      refresh_checksum (Bytes.to_string b));
  let t = Disk.open_dir dir in
  (match Disk.find_step t p with
  | None -> ()
  | Some _ -> Alcotest.fail "forged entry was served");
  let s = Disk.stats t in
  check_int "not a framing reject" 0 s.Disk.rejected_corrupt;
  check_bool "rejected by re-validation" true (s.Disk.rejected_invalid >= 1)

let test_disk_tmp_leftover_ignored () =
  let dir = tmpdir () in
  let t = Disk.open_dir dir in
  let p, expect = admit_mis t in
  (* A crash between open and rename leaves a .tmp file behind;
     readers must never consider it. *)
  let oc =
    open_out_bin
      (Filename.concat (Filename.concat dir "entries") ".tmp-999-step-0.ent")
  in
  output_string oc "roundelim-store v2\nkind step\nhalf-writ";
  close_out oc;
  let t2 = Disk.open_dir dir in
  (match Disk.find_step t2 p with
  | Some got -> check_string "real entry still served" expect got
  | None -> Alcotest.fail "real entry lost");
  let total, ok, _ = Disk.validate_all t2 in
  check_int "tmp file not an entry" 1 total;
  check_int "real entry valid" 1 ok

(* The 5-label engineered hash-collision pair from the relim suite:
   the two problems share their [Iso.invariant_hash], and each must be
   served its own result. *)
let collision_pair () =
  let mk name self_loop =
    let k = 5 in
    let names = List.init k (fun i -> Printf.sprintf "l%d" i) in
    let node =
      String.concat "\n"
        (List.mapi
           (fun i n ->
             Printf.sprintf "%s %s" n (List.nth names ((i + 1) mod k)))
           names)
    in
    let edge =
      String.concat "\n"
        (List.mapi
           (fun i n ->
             if self_loop && i = 0 then Printf.sprintf "%s %s" n n
             else Printf.sprintf "%s [%s]" n (String.concat " " names))
           names)
    in
    Parse.problem ~name ~node ~edge
  in
  (mk "collA" false, mk "collB" true)

let test_disk_colliding_pair () =
  let a, b = collision_pair () in
  check_int "pair still collides" (Iso.invariant_hash a) (Iso.invariant_hash b);
  check_bool "pair still non-isomorphic" false (Iso.equal_up_to_renaming a b);
  let dir = tmpdir () in
  let t = Disk.open_dir dir in
  let cert_a = step_certificate a and cert_b = step_certificate b in
  (match Disk.add_step t ~source:a cert_a with
  | Ok () -> ()
  | Error m -> Alcotest.failf "admit a: %s" m);
  (match Disk.add_step t ~source:b cert_b with
  | Ok () -> ()
  | Error m -> Alcotest.failf "admit b: %s" m);
  (* Cold handle: each colliding problem gets its own result. *)
  let t2 = Disk.open_dir dir in
  (match Disk.find_step t2 b with
  | Some got ->
      check_string "B served B's result" (Certificate.result_text cert_b) got
  | None -> Alcotest.fail "B missed");
  match Disk.find_step t2 a with
  | Some got ->
      check_string "A served A's result" (Certificate.result_text cert_a) got
  | None -> Alcotest.fail "A missed"

(* A store file in format v1 (filed under an [Iso.invariant_hash]
   bucket name, with a [hash] header line) is refused as invalid, with
   a reason naming v1, and never served: neither under its v1 name nor
   under its key's v2 name.  Admitting the key again writes the v2
   entry over the refused file. *)
let test_disk_v1_refused () =
  let dir = tmpdir () in
  let p, expect =
    let t = Disk.open_dir dir in
    admit_mis t
  in
  let v2_file = List.hd (entry_files dir) in
  let hash = Iso.invariant_hash p in
  let v1_text =
    match String.split_on_char '\n' (read_entry dir v2_file) with
    | "roundelim-store v2" :: kind :: rest ->
        refresh_checksum
          (String.concat "\n"
             ("roundelim-store v1" :: kind :: Printf.sprintf "hash %x" hash
             :: rest))
    | _ -> Alcotest.fail "unexpected entry header"
  in
  let v1_file = Printf.sprintf "step-%x-0.ent" hash in
  write_file (entry_path dir v1_file) v1_text;
  Sys.remove (entry_path dir v2_file);
  let t = Disk.open_dir dir in
  (match Disk.validate_all t with
  | 1, 0, [ (f, reason) ] ->
      check_string "the v1 file" v1_file f;
      check_bool ("invalid, naming v1: " ^ reason) true
        (String.starts_with ~prefix:"invalid: " reason
        && contains ~sub:"v1" reason)
  | _ -> Alcotest.fail "expected the v1 file as the one reject");
  check_bool "v1 store not served" true (Disk.find_step t p = None);
  (* The same bytes under the key's v2 name are refused on lookup. *)
  write_file (entry_path dir v2_file) v1_text;
  let t = Disk.open_dir dir in
  check_bool "v1 bytes under the v2 name not served" true
    (Disk.find_step t p = None);
  check_int "refused as invalid" 1 (Disk.stats t).Disk.rejected_invalid;
  check_int "not as corrupt" 0 (Disk.stats t).Disk.rejected_corrupt;
  (* The recomputed key replaces the refused file; the lookup above
     counted the rejection, admission does not count it again. *)
  ignore (admit_mis t);
  check_int "admitted over the refused file" 1 (Disk.stats t).Disk.admitted;
  check_int "rejection counted once" 1 (Disk.stats t).Disk.rejected_invalid;
  (match Disk.find_step t p with
  | Some got -> check_string "v2 entry served" expect got
  | None -> Alcotest.fail "v2 entry not served");
  match Disk.validate_all t with
  | 2, 1, [ (f, _) ] -> check_string "only the v1-named file left refused" v1_file f
  | _ -> Alcotest.fail "expected the v2 entry valid and the v1 file refused"

(* A valid entry copied under the file name of another key is rejected:
   an entry's file name must be the one of its own kind and key. *)
let test_disk_misfiled_rejected () =
  let dir = tmpdir () in
  let t = Disk.open_dir dir in
  let p, expect = admit_mis t in
  let mis_file = List.hd (entry_files dir) in
  let so = Parse.problem ~name:"SO" ~node:"O [IO]^2" ~edge:"O I" in
  (match Disk.add_step t ~source:so (step_certificate so) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "admit SO: %s" m);
  let so_file = List.find (fun f -> f <> mis_file) (entry_files dir) in
  write_file (entry_path dir so_file) (read_entry dir mis_file);
  let t = Disk.open_dir dir in
  check_bool "misfiled entry not served" true (Disk.find_step t so = None);
  check_int "rejected as invalid" 1 (Disk.stats t).Disk.rejected_invalid;
  (match Disk.find_step t p with
  | Some got -> check_string "original still served" expect got
  | None -> Alcotest.fail "original entry lost");
  match Disk.validate_all t with
  | 2, 1, [ (f, reason) ] ->
      check_string "the misfiled copy" so_file f;
      check_bool ("reason names the key's own file: " ^ reason) true
        (String.starts_with ~prefix:"invalid: " reason
        && contains ~sub:mis_file reason)
  | _ -> Alcotest.fail "expected exactly the misfiled copy rejected"

let test_disk_admission_gate () =
  let dir = tmpdir () in
  let t = Disk.open_dir dir in
  let p = mis () in
  (* A forged certificate must be refused before anything is written. *)
  let forged =
    match step_certificate p with
    | Certificate.Step s ->
        Certificate.Step { s with Certificate.result = s.Certificate.source }
    | c -> c
  in
  (match Disk.add_step t ~source:p forged with
  | Ok () -> Alcotest.fail "admitted a forged certificate"
  | Error _ -> ());
  check_int "nothing written" 0 (List.length (entry_files dir));
  (* A valid certificate for a *different* problem must not be
     admissible under this key. *)
  let other = Parse.problem ~name:"other" ~node:"A^3" ~edge:"A^2" in
  (match Disk.add_step t ~source:other (step_certificate p) with
  | Ok () -> Alcotest.fail "admitted a certificate for another problem"
  | Error _ -> ());
  check_int "still nothing written" 0 (List.length (entry_files dir));
  (* Admission validates before it looks the key up, so once the key is
     stored the forged certificate is still refused, not waved through
     as a re-admission, and the stored entry keeps serving. *)
  let p, expect = admit_mis t in
  let files = entry_files dir in
  let contents = List.map (read_entry dir) files in
  (match Disk.add_step t ~source:p forged with
  | Ok () -> Alcotest.fail "re-admission accepted a forged certificate"
  | Error _ -> ());
  check_bool "no file written on forged re-admission" true
    (entry_files dir = files && List.map (read_entry dir) files = contents);
  check_int "admitted unchanged" 1 (Disk.stats t).Disk.admitted;
  match Disk.find_step t p with
  | Some got -> check_string "original still served" expect got
  | None -> Alcotest.fail "stored entry no longer served"

(* An entry in the format of a store that also kept fixed-point and
   autopilot verdicts: [kind], an optional [steps] header line, the key
   and certificate blocks, and the checksum. *)
let retired_entry ~kind ?steps ~key_text cert =
  let block tag body = Printf.sprintf "%s %d\n%s\n" tag (String.length body) body in
  refresh_checksum
    (String.concat ""
       [
         "roundelim-store v2\n";
         Printf.sprintf "kind %s\n" kind;
         (match steps with Some k -> Printf.sprintf "steps %d\n" k | None -> "");
         block "key" key_text;
         block "cert" (Certificate.to_text cert);
         "checksum 0\n";
       ])

let retired_file ~kind key_text =
  Printf.sprintf "%s-%s.ent" kind (Digest.to_hex (Digest.string key_text))

(* The store keeps only step entries.  An earlier store's fixed-point
   and autopilot entries are refused as invalid, each with a reason that
   names its kind, and never served.  The fixed-point entry is a forged
   one: SO Δ=3's fixed point filed under MIS's key, which nothing in
   such an entry could tell apart from an honest one.  The autopilot
   entry is an honest one: the period-1 cycle the search closes on SO,
   keyed by the cycle state. *)
let test_disk_retired_kinds_refused () =
  let so = Parse.problem ~name:"SO" ~node:"O [IO]^2" ~edge:"O I" in
  let p = mis () in
  let mis_text = Serialize.to_string p in
  let fixed =
    match Fixedpoint.detect so with
    | Fixedpoint.Reaches_fixed_point (_, fixed) -> fixed
    | _ -> Alcotest.fail "SO should reach a fixed point"
  in
  let cycle =
    match List.rev (Autopilot.search so).Autopilot.steps with
    | { Autopilot.certificate = Certificate.Relaxed_step rs as cert; _ } :: _ ->
        (rs.Certificate.rs_source, cert)
    | _ -> Alcotest.fail "the SO search closes no relaxed cycle"
  in
  let dir = tmpdir () in
  let t = Disk.open_dir dir in
  let fp_file = retired_file ~kind:"fixed-point" mis_text in
  write_file (entry_path dir fp_file)
    (retired_entry ~kind:"fixed-point" ~steps:2 ~key_text:mis_text
       (Certificate.of_fixed_point fixed));
  let ap_file = retired_file ~kind:"autopilot" (fst cycle) in
  write_file (entry_path dir ap_file)
    (retired_entry ~kind:"autopilot" ~key_text:(fst cycle) (snd cycle));
  let refused_by_kind rejects =
    List.iter
      (fun (file, kind) ->
        match List.assoc_opt file rejects with
        | Some reason ->
            check_bool
              (Printf.sprintf "%s refused as invalid, naming %s: %s" file kind reason)
              true
              (String.starts_with ~prefix:"invalid: " reason
              && contains ~sub:(Printf.sprintf "%S" kind) reason)
        | None -> Alcotest.failf "%s was not refused" file)
      [ (fp_file, "fixed-point"); (ap_file, "autopilot") ]
  in
  (match Disk.validate_all t with
  | total, ok, rejects ->
      check_int "both files seen" 2 total;
      check_int "neither valid" 0 ok;
      refused_by_kind rejects);
  check_bool "MIS's step misses" true (Disk.find_step t p = None);
  let p, expect = admit_mis t in
  (match Disk.find_step t p with
  | Some got -> check_string "MIS's own step served" expect got
  | None -> Alcotest.fail "MIS's own step not served");
  match Disk.validate_all t with
  | total, ok, rejects ->
      check_int "three files seen" 3 total;
      check_int "the step entry valid" 1 ok;
      refused_by_kind rejects

let () =
  (* The RELIM_CERTIFY and RELIM_TRACE test legs cover this suite too. *)
  Certify.Hooks.install_if_env ();
  Trace.setup_from_env ();
  Alcotest.run "store"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode;
          Alcotest.test_case "garbage rejected" `Quick test_json_garbage;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "decode" `Quick test_protocol_decode;
          Alcotest.test_case "decode errors" `Quick test_protocol_decode_errors;
          Alcotest.test_case "render" `Quick test_protocol_render;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "roundtrip + validate" `Quick
            test_certificate_roundtrip;
          Alcotest.test_case "tamper rejected" `Quick test_certificate_tamper;
          Alcotest.test_case "fixed point" `Quick test_certificate_fixed_point;
        ] );
      ( "disk",
        [
          Alcotest.test_case "admit/find roundtrip" `Quick test_disk_roundtrip;
          Alcotest.test_case "warm reload byte-identical" `Quick
            test_disk_warm_reload;
          Alcotest.test_case "tamper rejected" `Quick test_disk_tamper_rejected;
          Alcotest.test_case "truncation rejected" `Quick
            test_disk_truncation_rejected;
          Alcotest.test_case "forged cert rejected" `Quick
            test_disk_forged_cert_rejected;
          Alcotest.test_case "tmp leftover ignored" `Quick
            test_disk_tmp_leftover_ignored;
          Alcotest.test_case "colliding pair served separately" `Quick
            test_disk_colliding_pair;
          Alcotest.test_case "v1 file refused" `Quick test_disk_v1_refused;
          Alcotest.test_case "misfiled entry rejected" `Quick
            test_disk_misfiled_rejected;
          Alcotest.test_case "admission gate" `Quick test_disk_admission_gate;
          Alcotest.test_case "retired kinds refused" `Quick
            test_disk_retired_kinds_refused;
        ] );
    ]
