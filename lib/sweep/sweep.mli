(** Resumable parametric sweeps over the lemma pipeline.

    A sweep runs the full verification pipeline — one speedup step
    [R̄ ∘ R], the 0-round deciders, fixed-point detection and the
    autopilot relaxation search — over a parameter grid
    (family × Δ × a × x × label-count) crossed with an engine
    configuration (explicit vs ZDD families, domain count, certifier
    on/off), under per-cell budgets.  Each cell produces one JSON
    record (see {!run_cell}) that is appended to a JSON-lines
    {e journal}; completed cells are {e served} from the journal on the
    next run instead of being recomputed.

    {2 Determinism contract}

    Cell records are deterministic: for a fixed cell and fixed budgets
    the record is byte-identical on every run, on every machine, with
    the single exception of the ["wall_s"] member, which is measured by
    the [clock] argument ([Unix.gettimeofday] by default; pass a
    constant clock for byte-determinism, as [relimsweep --fixed-clock]
    and the resume tests do).  To make this hold the runner resets all
    engine statistics {e and} the fixed-point memo cache before every
    cell, pins the worker pool and the ZDD toggle to the cell's own
    engine configuration (the [RELIM_DOMAINS] / [RELIM_ZDD]
    environment is overridden for the cell's duration), and records
    [transport_cache_hits] — the one counter that depends on worker
    scheduling — only for single-domain cells ([null] otherwise).

    Consequences, both enforced by [test/sweep]:
    {ul
    {- re-running a completed sweep appends nothing: the journal is a
       byte-identical no-op;}
    {- killing a sweep after [k] cells and resuming yields a journal
       byte-identical (under a fixed clock) to an uninterrupted run —
       cells are journaled in grid order, and a trailing line truncated
       by the kill is detected and re-run, never served.}}

    {2 Cross-engine identity}

    For a grid cell where several engine configurations complete
    ([status = "ok"] with no internal budget skips), the records agree
    on everything outside ["cell"], ["config"], ["wall_s"] and the
    documented per-engine exceptions: the ["engine_counters"] object
    (the explicit-vs-ZDD paths count dominance work differently, the
    fully symbolic path emits only surviving boxes ([boxes_emitted])
    and moves the [maxbox_*] family counters — see [Rounde.rbar]) and,
    across domain counts, [transport_cache_hits].  This is the PR 3
    (domains) / PR 8 (ZDD) / PR 10 (symbolic output side) byte-identity
    contract surfaced at the sweep level. *)

type family = Mis | So | Mm | Col | Pi | Pi_plus

val family_name : family -> string

(** Inverse of {!family_name}; accepts the CLI spellings
    [mis|so|mm|col|pi|pi-plus]. *)
val family_of_string : string -> (family, string) result

(** One engine configuration: which R̄ representation, how many worker
    domains (1 = sequential), and whether the independent certifier
    hooks are installed for the cell. *)
type engine = { zdd : bool; domains : int; certify : bool }

(** One grid cell.  Dimensions a family does not consume are
    canonicalized to 0 ([a]/[x] for everything but Π/Π⁺, [labels] for
    everything but [Col]), so the cross product of a {!grid} dedupes
    cleanly. *)
type cell = {
  family : family;
  delta : int;
  a : int;
  x : int;
  labels : int;
  engine : engine;
}

(** Unique, human-readable journal key, e.g.
    ["pi d5 a4 x2 l0 | explicit dom1 plain"]. *)
val cell_id : cell -> string

(** The part of {!cell_id} before the engine configuration — equal for
    the same problem cell across engine configurations. *)
val cell_base_id : cell -> string

(** Per-cell budgets for the pipeline phases. *)
type budgets = {
  expand_limit : float;  (** Node-constraint expansion guard. *)
  rc_limit : int;  (** Right-closed-set guard (explicit path). *)
  fp_steps : int;  (** Fixed-point detection step budget. *)
  ap_steps : int;  (** Autopilot accepted-step budget. *)
  ap_beam : int;  (** Autopilot candidate covers per step. *)
}

(** [{ expand_limit = 5e5; rc_limit = 20_000; fp_steps = 2;
      ap_steps = 2; ap_beam = 4 }] — sized so a smoke grid finishes in
    seconds while Π(5,4,2)-scale cells still complete. *)
val default_budgets : budgets

type grid = {
  families : family list;
  deltas : int list;
  a_values : int list;  (** Consumed by Π / Π⁺ cells only. *)
  x_values : int list;  (** Consumed by Π / Π⁺ cells only. *)
  label_counts : int list;  (** Consumed by coloring cells only. *)
  engines : engine list;
}

(** The grid's cells in canonical order (families, then Δ, then a, x,
    label-count, then engines), canonicalized and deduplicated.  This
    order is the journal order. *)
val cells : grid -> cell list

(** The problem a cell denotes, or [Error reason] when the parameters
    are invalid for the family (e.g. Π⁺ without [x + 2 ≤ a], a
    coloring with fewer than 2 colors) — such cells are journaled with
    [status = "skipped"]. *)
val problem_of_cell : cell -> (Relim.Problem.t, string) result

(** [run_cell ~budgets cell] executes the pipeline for one cell and
    returns its journal record, a JSON object with members (in order):
    ["cell"], ["family"], ["delta"], ["a"], ["x"], ["labels"],
    ["config"] (the engine configuration), ["status"]
    ([ok|budget|skipped]), ["budget"] (name of the first tripped
    budget, else [null]), ["budget_phase"], ["skip_reason"],
    ["problem"] (canonical serialized text), ["hash"]
    ([Iso.invariant_hash]), ["step"], ["zero_round"], ["fixed_point"],
    ["autopilot"] (phase results, [null] for a phase that tripped its
    budget), ["certified"] (certifier counts when the cell certifies),
    ["counters"] (engine-independent counters, one sub-object per
    phase, each snapshotted the moment its phase completes — so the
    certifier's fixed-point replay and the autopilot's exploration
    never taint them; [null] for a budget-tripped phase), ["engine_counters"]
    (the per-engine exceptions) and ["wall_s"].  A budget overrun in a
    phase is caught and recorded; genuine engine errors propagate. *)
val run_cell :
  ?clock:(unit -> float) -> budgets:budgets -> cell -> Store.Json.t

(** The journal header record carried on the first line, key
    ["@grid"]: the grid dimensions and the expected cell count.  A
    resumed sweep refuses a journal whose header does not match its
    grid. *)
val header_json : grid -> Store.Json.t

val grid_of_json : Store.Json.t -> (grid, string) result

(** Result of scanning an existing journal: whether a matching header
    is present, the journaled (cell id, status) pairs in file order,
    the number of leading bytes that form complete valid lines, and
    whether a damaged tail (a line without its newline, or an
    unparseable line) was found after them. *)
type scan = {
  header : Store.Json.t option;
  completed : (string * string) list;
  keep_bytes : int;
  dropped_tail : bool;
}

(** [scan_journal path] never raises on damaged content — damage is
    reported via [keep_bytes] / [dropped_tail].  A missing file scans
    as empty. *)
val scan_journal : string -> scan

type summary = {
  total : int;  (** Cells in the grid. *)
  served : int;  (** Cells already journaled, not recomputed. *)
  ran : int;  (** Cells executed by this run. *)
  ok : int;
  budgeted : int;
  skipped : int;  (** Status tallies over the whole journal. *)
  recovered_tail : bool;
      (** A damaged trailing line was truncated and its cell re-run. *)
  complete : bool;  (** Every grid cell is journaled at exit. *)
  wall_s : float;
}

(** Raised by {!run} when [out] holds a journal for a different grid.
    The message names [out]; the journal is left untouched. *)
exception Foreign_journal of string

(** [run ~budgets ~out grid] scans [out], truncates a damaged tail,
    verifies (or writes) the header, then runs every not-yet-journaled
    cell in {!cells} order, appending and flushing one record per cell.
    [max_cells] bounds the number of cells {e executed} (served cells
    are free) — the hook the crash/resume tests use to stop a sweep
    mid-grid deterministically.  [log] receives one progress line per
    cell.  Emits [sweep.cell] trace spans and a [sweep.done] instant
    when tracing is enabled.
    @raise Foreign_journal if [out] holds a journal for a different
    grid. *)
val run :
  ?clock:(unit -> float) ->
  ?max_cells:int ->
  ?log:(string -> unit) ->
  budgets:budgets ->
  out:string ->
  grid ->
  summary
