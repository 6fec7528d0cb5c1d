(* Edge-case tests for the domain pool (lib/parallel): degenerate
   domain counts, exception propagation from either end of the index
   range, stopped-pool and nested-run fallbacks, and a property pinning
   [run] with per-index result slots to its sequential reference. *)

module Pool = Parallel.Pool

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* A pool with real workers when the machine allows it; the tests are
   written to pass (as sequential degradations) even on 1 core. *)
let parallel_domains = max 2 (min 4 (Domain.recommended_domain_count ()))

(* [run] with each index writing [f i arr.(i)] into its own slot. *)
let slot_map ?chunk pool f arr =
  let res = Array.make (Array.length arr) None in
  Pool.run ?chunk pool ~n:(Array.length arr)
    ~init:(fun () -> ())
    ~body:(fun () i -> res.(i) <- f i arr.(i))
    ~merge:ignore;
  res

let map pool f arr = Array.map Option.get (slot_map pool (fun _ x -> Some (f x)) arr)

let test_domains_clamped () =
  (* domains <= 1 clamps to 1 and never spawns; [run] still runs every
     index, in order. *)
  List.iter
    (fun d ->
      let pool = Pool.create ~domains:d in
      check_int "clamped to 1" 1 (Pool.domains pool);
      let order = ref [] in
      Pool.run pool ~n:5
        ~init:(fun () -> ())
        ~body:(fun () i -> order := i :: !order)
        ~merge:ignore;
      Alcotest.(check (list int)) "sequential order" [ 0; 1; 2; 3; 4 ]
        (List.rev !order);
      Pool.shutdown pool)
    [ 0; 1; -3 ]

let test_run_empty_and_singleton () =
  let pool = Pool.create ~domains:parallel_domains in
  let merged = ref 0 in
  Pool.run pool ~n:0
    ~init:(fun () -> ref 0)
    ~body:(fun l _ -> incr l)
    ~merge:(fun l -> merged := !merged + !l);
  check_int "n = 0 runs nothing" 0 !merged;
  (* n = 1 takes the sequential fast path even on a parallel pool. *)
  Pool.run pool ~n:1
    ~init:(fun () -> ref 0)
    ~body:(fun l i -> l := !l + i + 7)
    ~merge:(fun l -> merged := !merged + !l);
  check_int "n = 1 body ran once" 7 !merged;
  Pool.shutdown pool

exception Boom of int

let test_exception_first_and_last_chunk () =
  let pool = Pool.create ~domains:parallel_domains in
  let attempt where =
    match
      Pool.run ~chunk:2 pool ~n:64
        ~init:(fun () -> ())
        ~body:(fun () i -> if i = where then raise (Boom i))
        ~merge:ignore
    with
    | () -> Alcotest.failf "exception at index %d was swallowed" where
    | exception Boom i -> check_int "offending index" where i
  in
  (* First chunk: raised by the calling domain almost immediately;
     last chunk: raised after every other index was claimed. *)
  attempt 0;
  attempt 63;
  (* The pool survives a failed job and still merges exactly. *)
  let total = ref 0 in
  Pool.run pool ~n:100
    ~init:(fun () -> ref 0)
    ~body:(fun l i -> l := !l + i)
    ~merge:(fun l -> total := !total + !l);
  check_int "sum after failure" 4950 !total;
  Pool.shutdown pool

(* A failed loop still merges every worker's state, so the work done
   before the failure is counted: on one worker exactly the indices
   before the failing one, on several whatever the schedule ran. *)
let test_merge_runs_on_failure () =
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains in
      let merges = ref 0 and counted = ref 0 in
      (match
         Pool.run pool ~n:32
           ~init:(fun () -> ref 0)
           ~body:(fun l i -> if i = 5 then failwith "boom" else incr l)
           ~merge:(fun l ->
             incr merges;
             counted := !counted + !l)
       with
      | () -> Alcotest.fail "expected failure"
      | exception Failure _ -> ());
      check_bool "every local merged" true (!merges >= 1 && !merges <= domains);
      if domains = 1 then check_int "indices before the failure counted" 5 !counted
      else check_bool "work before the failure counted" true (!counted <= 31);
      Pool.shutdown pool)
    [ 1; parallel_domains ]

let test_stopped_pool_degrades () =
  let pool = Pool.create ~domains:parallel_domains in
  ignore (map pool (fun x -> x + 1) [| 1; 2; 3 |]);
  Pool.shutdown pool;
  (* After shutdown [run] must still work, sequentially. *)
  let total = ref 0 in
  Pool.run pool ~n:10
    ~init:(fun () -> ref 0)
    ~body:(fun l i -> l := !l + i)
    ~merge:(fun l -> total := !total + !l);
  check_int "run on stopped pool" 45 !total;
  Alcotest.(check (array int)) "slots on stopped pool" [| 2; 4; 6 |]
    (map pool (fun x -> 2 * x) [| 1; 2; 3 |])

let test_nested_run_falls_back () =
  let pool = Pool.create ~domains:parallel_domains in
  (* A body that itself calls the pool: the inner run must degrade to a
     sequential loop instead of deadlocking on busy workers. *)
  let results =
    map pool
      (fun x ->
        let inner = ref 0 in
        Pool.run pool ~n:4
          ~init:(fun () -> ref 0)
          ~body:(fun l i -> l := !l + (x * i))
          ~merge:(fun l -> inner := !inner + !l);
        !inner)
      (Array.init 8 (fun i -> i + 1))
  in
  Alcotest.(check (array int)) "nested totals"
    (Array.init 8 (fun i -> 6 * (i + 1)))
    results;
  Pool.shutdown pool

let test_worker_ids_partition () =
  let pool = Pool.create ~domains:parallel_domains in
  (* Each local state counts its items; the merged counts must add up
     to n regardless of how the schedule splits the range. *)
  let merged = ref 0 and locals = ref 0 in
  Pool.run ~chunk:3 pool ~n:1000
    ~init:(fun () -> ref 0)
    ~body:(fun l _ -> incr l)
    ~merge:(fun l ->
      incr locals;
      merged := !merged + !l);
  check_int "every index exactly once" 1000 !merged;
  check_bool "at most one local per domain" true
    (!locals <= Pool.domains pool);
  Pool.shutdown pool

(* Property: per-index result slots, read as a filter_mapi and as a
   mapi, agree with the sequential reference for arbitrary inputs and
   chunk sizes (including chunk > n). *)
let combinators_qcheck =
  let gen =
    QCheck2.Gen.(
      triple
        (list_size (int_bound 200) (int_bound 1000))
        (int_range 1 64) (int_range 1 4))
  in
  [
    QCheck2.Test.make ~count:100
      ~name:"filter_mapi/mapi agree with the sequential reference" gen
      (fun (items, chunk, domains) ->
        let arr = Array.of_list items in
        let f i x = if (x + i) mod 3 = 0 then Some ((2 * x) + i) else None in
        let g i x = (x * x) - i in
        let pool = Pool.create ~domains in
        let got_filter =
          List.filter_map Fun.id (Array.to_list (slot_map ~chunk pool f arr))
        in
        let got_map =
          Array.map Option.get (slot_map ~chunk pool (fun i x -> Some (g i x)) arr)
        in
        Pool.shutdown pool;
        let want_filter = List.mapi f items |> List.filter_map Fun.id in
        let want_map = Array.mapi g arr in
        got_filter = want_filter && got_map = want_map);
  ]

let () =
  Trace.setup_from_env ();
  Alcotest.run "parallel"
    [
      ( "pool-edges",
        [
          Alcotest.test_case "domains clamped" `Quick test_domains_clamped;
          Alcotest.test_case "empty and singleton runs" `Quick
            test_run_empty_and_singleton;
          Alcotest.test_case "exception in first and last chunk" `Quick
            test_exception_first_and_last_chunk;
          Alcotest.test_case "merge runs on failure" `Quick
            test_merge_runs_on_failure;
          Alcotest.test_case "stopped pool degrades" `Quick
            test_stopped_pool_degrades;
          Alcotest.test_case "nested run falls back" `Quick
            test_nested_run_falls_back;
          Alcotest.test_case "locals partition the range" `Quick
            test_worker_ids_partition;
        ] );
      ("pool-props", List.map Qseed.to_alcotest combinators_qcheck);
    ]
