(* Golden-file snapshots shared by the test suites.

   A suite keeps its snapshots in test/<suite>/golden/ and declares
   them as test deps, so dune copies them next to the test binary.
   Under `dune runtest` the cwd is _build/default/test/<suite>, four
   levels below the project root; under `dune exec` it is the project
   root.  DUNE_GOLDEN_UPDATE=1 writes the current output back to the
   source tree instead of comparing. *)

let source_dir suite =
  let rel = Printf.sprintf "test/%s/golden" suite in
  match List.find_opt Sys.file_exists [ Filename.concat "../../../.." rel; rel ] with
  | Some dir -> dir
  | None -> Alcotest.failf "cannot locate the source %s directory for DUNE_GOLDEN_UPDATE" rel

(* Every differing line, prefixed with its 1-based line number, capped
   so a totally rewritten snapshot stays reviewable. *)
let diff expected actual =
  let lines s = Array.of_list (String.split_on_char '\n' s) in
  let e = lines expected and a = lines actual in
  let line arr i = if i < Array.length arr then Some arr.(i) else None in
  let buf = Buffer.create 256 in
  let shown = ref 0 in
  for i = 0 to max (Array.length e) (Array.length a) - 1 do
    let ei = line e i and ai = line a i in
    if ei <> ai && !shown < 20 then begin
      incr shown;
      Option.iter (Printf.bprintf buf "  line %d: - %s\n" (i + 1)) ei;
      Option.iter (Printf.bprintf buf "  line %d: + %s\n" (i + 1)) ai
    end
  done;
  if !shown >= 20 then Buffer.add_string buf "  ... (more differences)\n";
  Buffer.contents buf

(* [check ~suite name actual] compares [actual] with
   test/<suite>/golden/<name>.golden, or rewrites that file under
   DUNE_GOLDEN_UPDATE=1. *)
let check ~suite name actual =
  let file = name ^ ".golden" in
  let rel = Printf.sprintf "test/%s/golden/%s" suite file in
  if Sys.getenv_opt "DUNE_GOLDEN_UPDATE" = Some "1" then begin
    Out_channel.with_open_bin (Filename.concat (source_dir suite) file) (fun oc ->
        output_string oc actual);
    Printf.printf "golden: regenerated %s\n" rel
  end
  else
    match List.find_opt Sys.file_exists [ Filename.concat "golden" file; rel ] with
    | None ->
        Alcotest.failf "missing golden file %s — generate it with DUNE_GOLDEN_UPDATE=1 dune runtest"
          rel
    | Some path ->
        let expected = In_channel.with_open_bin path In_channel.input_all in
        if not (String.equal expected actual) then
          Alcotest.failf
            "%s differs from %s (- expected, + actual):\n\
             %s\n\
             if the change is intended, refresh with DUNE_GOLDEN_UPDATE=1 dune runtest"
            name rel (diff expected actual)
