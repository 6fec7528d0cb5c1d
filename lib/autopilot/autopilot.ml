open Relim

type limits = {
  max_steps : int;
  beam : int;
  expand_limit : float;
  rc_limit : int;
  max_labels : int;
}

let default_limits =
  {
    max_steps = 6;
    beam = 24;
    expand_limit = 200_000.;
    rc_limit = 20_000;
    max_labels = 48;
  }

type verdict =
  | Fixed_point of { problem : Problem.t; period : int }
  | Upper_bound of { steps : int }
  | Exhausted of { last : Problem.t }

type accepted = {
  step_index : int;
  cover : int option;
  result_labels : int;
  certificate : Certify.Certificate.t;
}

type report = {
  verdict : verdict;
  steps : accepted list;
  candidates_explored : int;
  budget_skips : int;
  certified_steps : int;
  wall_s : float;
}

let verdict_string = function
  | Fixed_point { period; _ } ->
      Printf.sprintf "fixed-point (period %d)" period
  | Upper_bound { steps } -> Printf.sprintf "upper-bound (%d steps)" steps
  | Exhausted _ -> "exhausted"

(* ------------------------------------------------------------------ *)
(* Candidate relaxations                                               *)
(* ------------------------------------------------------------------ *)

type candidate = Identity | Cover of Labelset.t list

(* Quotient of [rp] by a cover 𝒮 of its labels: one new label per
   cover set, every occurrence of [y] replaced by the disjunction of
   the sets containing it.  Cover set [i] gets the fresh name [q<i>],
   as the paper gives its relaxed problem Π⁺ fresh letters: joining
   the members' names would nest one level per step.  The denotations
   are the cover sets themselves — exactly the shape
   [Certify.Check.check_relaxation] validates. *)
let quotient (rp : Problem.t) (cover : Labelset.t list) : Rounde.denoted =
  let sets = Array.of_list cover in
  let phi = Array.make (Alphabet.size rp.Problem.alpha) Labelset.empty in
  Array.iteri
    (fun i s -> Labelset.iter (fun y -> phi.(y) <- Labelset.add i phi.(y)) s)
    sets;
  let map_group g =
    Labelset.fold (fun y acc -> Labelset.union phi.(y) acc) g Labelset.empty
  in
  let alpha =
    Alphabet.create (List.init (Array.length sets) (Printf.sprintf "q%d"))
  in
  let problem =
    Problem.make
      ~name:(rp.Problem.name ^ "/q")
      ~alpha
      ~node:(Constr.map_lines (Line.map_syms map_group) rp.Problem.node)
      ~edge:(Constr.map_lines (Line.map_syms map_group) rp.Problem.edge)
  in
  { Rounde.problem; denotations = sets }

let identity_relaxed (rp : Problem.t) : Rounde.denoted =
  {
    Rounde.problem = rp;
    denotations = Array.init (Alphabet.size rp.Problem.alpha) Labelset.singleton;
  }

let popcount bits =
  let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
  go bits 0

let drop k xs = List.filteri (fun i _ -> i >= k) xs

let dedup_covers covers =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun cover ->
      let key = List.map Labelset.to_bits cover in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    covers

(* Candidate covers over the labels of [rp], finest first: every cover
   is a set of principal filters of the node diagram (a label plus
   everything strictly stronger) with the universe always included —
   each filter is right-closed, so the quotient keeps the strength
   structure the next R step feeds on.  Few distinct filters: all
   subsets.  Many: the drop-k-strongest ladder (remove the filters of
   the k strongest labels), which is where the interesting collapses
   live — strong labels are the ones the plain step multiplies. *)
let covers_of ~limits (rp : Problem.t) =
  match Diagram.node_diagram ~expand_limit:limits.expand_limit rp with
  | exception Budget.Budget_exceeded _ -> []
  | d ->
      let universe = Alphabet.universe rp.Problem.alpha in
      let filter y = Labelset.add y (Diagram.above d y) in
      let filters =
        List.sort_uniq Labelset.compare
          (List.map filter (Alphabet.labels rp.Problem.alpha))
      in
      let arr = Array.of_list filters in
      let n = Array.length arr in
      let mk subset = List.sort_uniq Labelset.compare (universe :: subset) in
      let covers =
        if n <= 12 then
          List.init (1 lsl n) (fun bits ->
              let rec collect i acc =
                if i = n then acc
                else
                  collect (i + 1)
                    (if bits land (1 lsl i) <> 0 then arr.(i) :: acc else acc)
              in
              (popcount bits, mk (collect 0 [])))
          |> List.sort (fun (a, _) (b, _) -> compare b a)
          |> List.map snd
        else begin
          let by_size =
            List.sort
              (fun a b -> compare (Labelset.cardinal a) (Labelset.cardinal b))
              filters
          in
          List.init n (fun k -> mk (drop k by_size))
        end
      in
      dedup_covers covers

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

type viable = {
  cand : candidate;
  relaxed : Rounde.denoted;
  rbd : Rounde.denoted;
  norm : Problem.t;
  hash : int;
  labels : int;
  solvable : bool option;  (* [None]: the 0-round decider tripped *)
}

let search ?(limits = default_limits) ?pool ?zdd (p0 : Problem.t) =
  let t0 = Unix.gettimeofday () in
  let explored = ref 0 and skips = ref 0 and certified = ref 0 in
  let accepted = ref [] in
  Trace.with_span "autopilot.search"
    ~attrs:
      [
        ("problem", p0.Problem.name);
        ("max_steps", string_of_int limits.max_steps);
      ]
  @@ fun () ->
  let finish verdict =
    Trace.counters
      [
        ("autopilot.candidates", !explored);
        ("autopilot.budget_skips", !skips);
        ("autopilot.certified", !certified);
      ];
    {
      verdict;
      steps = List.rev !accepted;
      candidates_explored = !explored;
      budget_skips = !skips;
      certified_steps = !certified;
      wall_s = Unix.gettimeofday () -. t0;
    }
  in
  let solvable p = Zeroround.solvable_arbitrary_ports ?pool p <> None in
  (* A candidate's answer ranks it, a decider trip ([None]) as "not
     solvable", and is kept for the state the search accepts.  There a
     trip must raise, since searching on past an unknown answer would
     misreport it, so only a tripped answer is asked again. *)
  let decide p = try Some (solvable p) with Budget.Budget_exceeded _ -> None in
  let s0 = Simplify.normalize p0 in
  (* Normalized states on the path, newest first, each next to its
     [Iso.invariant_hash]; cycle detection prefilters by hash before the
     exact isomorphism check. *)
  let states = ref [ (Iso.invariant_hash s0, s0) ] in
  let cycle_of v =
    let rec scan k = function
      | [] -> None
      | (h, st) :: rest ->
          if h = v.hash && Iso.equal_up_to_renaming v.norm st then Some k
          else scan (k + 1) rest
    in
    scan 1 !states
  in
  let rec go s s_solvable i =
    if s_solvable then finish (Upper_bound { steps = i - 1 })
    else if i > limits.max_steps then finish (Exhausted { last = s })
    else
      Trace.with_span "autopilot.step"
        ~attrs:
          [
            ("index", string_of_int i);
            ("labels", string_of_int (Problem.label_count s));
          ]
      @@ fun () ->
      match Rounde.r s with
      | exception Budget.Budget_exceeded _ -> finish (Exhausted { last = s })
      | rd -> (
          let rp = rd.Rounde.problem in
          let try_cand cand =
            incr explored;
            let relaxed =
              match cand with
              | Identity -> identity_relaxed rp
              | Cover c -> quotient rp c
            in
            let q = relaxed.Rounde.problem in
            let lc = Problem.label_count q in
            if lc < 2 || lc > limits.max_labels then None
            else
              match
                Rounde.rbar ~expand_limit:limits.expand_limit
                  ~rc_limit:limits.rc_limit ?pool ?zdd q
              with
              | exception Budget.Budget_exceeded _ ->
                  incr skips;
                  None
              | rbd ->
                  let norm = Simplify.normalize rbd.Rounde.problem in
                  Some
                    {
                      cand;
                      relaxed;
                      rbd;
                      norm;
                      hash = Iso.invariant_hash norm;
                      labels = Problem.label_count norm;
                      solvable = decide norm;
                    }
          in
          let accept v =
            let cert =
              Certify.Certificate.of_relaxed_step_parts ~source:s ~r:rd
                ~relaxed:v.relaxed ~result:v.rbd
            in
            match Certify.Certificate.validate cert with
            | Error msg ->
                Trace.instant "autopilot.certificate_rejected"
                  ~attrs:[ ("error", msg) ];
                false
            | Ok () ->
                incr certified;
                let cover =
                  match v.cand with
                  | Identity -> None
                  | Cover c -> Some (List.length c)
                in
                accepted :=
                  {
                    step_index = i;
                    cover;
                    result_labels = v.labels;
                    certificate = cert;
                  }
                  :: !accepted;
                Trace.instant "autopilot.accepted"
                  ~attrs:
                    [
                      ("index", string_of_int i);
                      ( "cover",
                        match cover with
                        | None -> "identity"
                        | Some n -> string_of_int n );
                      ("labels", string_of_int v.labels);
                    ];
                true
          in
          (* The identity relaxation is the lossless exact step; when it
             fits the budgets there is nothing to search.  Covers are
             walked only when it trips, and never built with a beam of
             0. *)
          let viables =
            match try_cand Identity with
            | Some v -> [ v ]
            | None when limits.beam = 0 -> []
            | None ->
                let covers = covers_of ~limits rp in
                let rec walk acc tried = function
                  | [] -> List.rev acc
                  | _ when tried >= limits.beam || List.length acc >= 4 ->
                      List.rev acc
                  | c :: rest -> (
                      match try_cand (Cover c) with
                      | Some v -> walk (v :: acc) (tried + 1) rest
                      | None -> walk acc (tried + 1) rest)
                in
                walk [] 0 covers
          in
          (* Rank by one key, ties in cover order: [(0, period)] closes a
             cycle, shortest first; [(1, labels)] is a hard state and
             [(2, labels)] a 0-round-solvable one (the next iteration
             turns it into an upper bound), fewest labels first. *)
          let rank v =
            match cycle_of v with
            | Some period -> (0, period)
            | None -> ((if v.solvable = Some true then 2 else 1), v.labels)
          in
          match
            List.stable_sort
              (fun (a, _) (b, _) -> compare (a : int * int) b)
              (List.map (fun v -> (rank v, v)) viables)
          with
          | [] -> finish (Exhausted { last = s })
          | (key, v) :: _ -> (
              match (accept v, key) with
              | false, _ -> finish (Exhausted { last = s })
              | true, (0, period) ->
                  finish (Fixed_point { problem = v.norm; period })
              | true, _ ->
                  states := (v.hash, v.norm) :: !states;
                  let s_solvable =
                    match v.solvable with Some b -> b | None -> solvable v.norm
                  in
                  go v.norm s_solvable (i + 1)))
  in
  go s0 (solvable s0) 1
