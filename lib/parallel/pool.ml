type t = {
  domains : int;
  mutable workers : unit Domain.t array;  (* spawned lazily; length domains-1 *)
  lock : Mutex.t;
  has_job : Condition.t;  (* a new job was published (or shutdown) *)
  job_done : Condition.t;  (* a worker finished the current job *)
  mutable job : (int -> unit) option;  (* worker id -> unit; must not raise *)
  mutable seq : int;  (* job generation, so sleeping workers never rerun one *)
  mutable running : int;  (* workers still inside the current job *)
  mutable stopped : bool;
}

(* True while the current domain is executing a pool job: nested
   parallel calls (a body that itself calls [run]) would self-deadlock
   waiting for workers that are busy running their caller, so they
   degrade to sequential loops instead. *)
let busy_key = Domain.DLS.new_key (fun () -> false)

let create ~domains =
  let domains = max 1 (min 128 domains) in
  {
    domains;
    workers = [||];
    lock = Mutex.create ();
    has_job = Condition.create ();
    job_done = Condition.create ();
    job = None;
    seq = 0;
    running = 0;
    stopped = false;
  }

let sequential = create ~domains:1

let domains t = t.domains

let worker_loop t wid =
  (* Everything a worker executes is a pool job. *)
  Domain.DLS.set busy_key true;
  let last = ref 0 and live = ref true in
  while !live do
    Mutex.lock t.lock;
    while t.seq = !last && not t.stopped do
      Condition.wait t.has_job t.lock
    done;
    if t.stopped then begin
      Mutex.unlock t.lock;
      live := false
    end
    else begin
      last := t.seq;
      let job = Option.get t.job in
      Mutex.unlock t.lock;
      job wid;
      Mutex.lock t.lock;
      t.running <- t.running - 1;
      if t.running = 0 then Condition.signal t.job_done;
      Mutex.unlock t.lock
    end
  done

let ensure_workers t =
  if Array.length t.workers = 0 && not t.stopped then
    t.workers <-
      Array.init (t.domains - 1) (fun k ->
          Domain.spawn (fun () -> worker_loop t (k + 1)))

let shutdown t =
  Mutex.lock t.lock;
  t.stopped <- true;
  Condition.broadcast t.has_job;
  Mutex.unlock t.lock;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

(* [merge] runs also when a body raises, before the exception goes on:
   a budget trip keeps the work its call counted. *)
let run_seq ~n ~init ~body ~merge =
  let local = init () in
  match
    for i = 0 to n - 1 do
      body local i
    done
  with
  | () -> merge local
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      merge local;
      Printexc.raise_with_backtrace e bt

let run ?(chunk = 1) t ~n ~init ~body ~merge =
  let chunk = max 1 chunk in
  if n <= 0 then ()
  else if t.domains <= 1 || t.stopped || n = 1 || Domain.DLS.get busy_key then
    run_seq ~n ~init ~body ~merge
  else
    Trace.with_span "pool.run"
      ~attrs:
        [
          ("n", string_of_int n);
          ("chunk", string_of_int chunk);
          ("domains", string_of_int t.domains);
        ]
    @@ fun () ->
    ensure_workers t;
    let locals = Array.init t.domains (fun _ -> init ()) in
    let next = Atomic.make 0 in
    let failed = Atomic.make false in
    let err : (exn * Printexc.raw_backtrace) option Atomic.t =
      Atomic.make None
    in
    let work wid =
      (* One span per participating worker, recorded on the worker's
         own domain timeline — this is what attributes parallel-section
         time to domains in the trace.  [Trace.with_span] is a plain
         call of its body when tracing is off. *)
      Trace.with_span "pool.worker"
        ~attrs:[ ("worker", string_of_int wid) ]
        (fun () ->
          let local = locals.(wid) in
          let continue = ref true in
          while !continue do
            let lo = Atomic.fetch_and_add next chunk in
            if lo >= n then continue := false
            else if not (Atomic.get failed) then (
              try
                for i = lo to min n (lo + chunk) - 1 do
                  body local i
                done
              with e ->
                let bt = Printexc.get_raw_backtrace () in
                ignore (Atomic.compare_and_set err None (Some (e, bt)));
                Atomic.set failed true)
          done)
    in
    Mutex.lock t.lock;
    t.job <- Some work;
    t.seq <- t.seq + 1;
    t.running <- Array.length t.workers;
    Condition.broadcast t.has_job;
    Mutex.unlock t.lock;
    (* The caller participates like any worker, as worker 0. *)
    Domain.DLS.set busy_key true;
    work 0;
    Domain.DLS.set busy_key false;
    Mutex.lock t.lock;
    while t.running > 0 do
      Condition.wait t.job_done t.lock
    done;
    t.job <- None;
    Mutex.unlock t.lock;
    Array.iter merge locals;
    match Atomic.get err with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
