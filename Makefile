.PHONY: all build test check bench relbench-smoke relbench-ab fuzz-smoke \
	examples-smoke trace-smoke daemond-smoke autopilot-smoke zdd-smoke \
	sweep-smoke certify-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate: everything must compile and every test suite must pass.
check:
	dune build
	dune runtest

bench:
	dune exec bench/main.exe

# One pass of each workload of the repository benchmark (relbench/):
# the engine steps, the certified autopilot searches, and roundelimd
# over a cold then a warm store.  relbench exits non-zero when any
# operation's outcome differs from relbench/reference.json.  It refuses
# to start with a RELIM_* engine variable set, so run it without one.
relbench-smoke:
	sh relbench/run.sh --workload steps --seed 1 --seconds 0 --trace 0
	sh relbench/run.sh --workload autopilot --seed 1 --seconds 0 --trace 0
	sh relbench/run.sh --workload daemon --seed 1 --seconds 0 --trace 0

# A/B comparison against a checkout of the parent commit, for a perf
# claim: 10 alternating pairs of runs of WORKLOAD, each as long as
# BENCHMARK.json's run_seconds, a new seed per pair; prints every run,
# then each end-to-end metric's medians, quartiles and wins, then, from
# each run's relbench-out/result-*.json, each operation's median time
# per side with change/parent and wins (steps jobs and autopilot
# searches; daemon results have no operations)
# (scripts/relbench_ab.ml).  Not in CI: a 30-s pair takes over a
# minute.  Example:
#   git worktree add ../parent HEAD~1 && make relbench-ab PARENT=../parent
PARENT ?=
WORKLOAD ?= steps
relbench-ab:
	@test -n "$(PARENT)" || { echo "usage: make relbench-ab PARENT=<parent checkout>"; exit 2; }
	dune build scripts/relbench_ab.exe
	./_build/default/scripts/relbench_ab.exe --parent $(PARENT) --change . \
	  --workload $(WORKLOAD)

# End-to-end smoke of the round-elimination daemon and its
# certificate-gated result store: cold batch (including a step and a
# one-step fixed-point request for a relabelled X/Y/Z copy of MIS, each
# sent right after MIS, which must be answered in X/Y/Z, since the
# store is keyed by the request's own canonical text, and autopilot
# searches on SO and then on the cycle state it closes on, which must
# get the whole search report, since the store keeps only step
# results), the same batch again, answered from the memo (cached,
# otherwise byte-identical), garbage rejection (bad JSON, a cut-off
# request, a step with a label name the alphabet refuses) with the
# daemon still answering a ping, kill -9, on-disk corruption caught by
# validate-store in a store of two step entries (--strict exits
# non-zero), a warm restart whose responses are byte-identical to the
# cold run, the copy's step served from its own entry, and SO capped
# at one step, computed ("none").
daemond-smoke:
	dune build bin
	sh scripts/daemond_smoke.sh

# Tracing smoke: run the pipeline under both sinks (the --trace flag
# and the RELIM_TRACE env var) and validate the emitted traces against
# the schema checker (span nesting, per-domain monotone timestamps,
# counter/span reconciliation).
trace-smoke:
	dune build bin bench
	dune exec bin/roundelim.exe -- step -p mis -d 3 --trace trace_smoke.jsonl > /dev/null
	dune exec bench/validate_trace.exe -- trace_smoke.jsonl
	dune exec bin/roundelim.exe -- step -p mis -d 3 --trace trace_smoke.json --trace-format chrome > /dev/null
	dune exec bench/validate_trace.exe -- --chrome trace_smoke.json
	RELIM_TRACE=trace_smoke_env.jsonl dune exec bin/roundelim.exe -- fixed-point -p pi -d 5 -a 4 -x 2 --max-steps 1 --domains 2 > /dev/null
	dune exec bench/validate_trace.exe -- trace_smoke_env.jsonl

# Autopilot smoke, through the CLI with the certifier hooks on: the
# certified relaxation search rediscovers the sinkless-orientation fixed
# point, then proves the mis Delta=2 upper bound in 3 steps, the last
# through a quotient by a 47-set cover (the path whose relaxed labels
# get the short names q0, q1, ...), and exhausts mm Delta=3 after 3
# certified identity steps, normalizing a third state of 599 edge
# lines.  Each run must print its pinned verdict line, counters
# included, so a changed decision fails here.  mm's stdout carries
# 3.4 MB of nested label names, so grep reads all of it (no -q, which
# would stop at the first match) and prints only the verdict line.
# Then the identity-only search behind upper-bound: SO Delta=3 closes a
# certified cycle and prints the fixed-point line, and mis Delta=2 (no
# cover to get past its third step's budget) reaches no 0-round
# problem within 2 steps.
autopilot-smoke:
	dune build bin
	dune exec bin/roundelim.exe -- autopilot -p so -d 3 --certify \
	  | grep 'verdict: fixed-point (period 1)  (2 candidates explored, 0 budget-skipped, 2 certified steps'
	dune exec bin/roundelim.exe -- autopilot -p mis -d 2 --certify \
	  | grep 'verdict: upper-bound (3 steps)  (7 candidates explored, 1 budget-skipped, 3 certified steps'
	dune exec bin/roundelim.exe -- autopilot -p mm -d 3 --certify \
	  | grep 'verdict: exhausted  (3 candidates explored, 0 budget-skipped, 3 certified steps'
	dune exec bin/roundelim.exe -- upper-bound -p so -d 3 --certify \
	  | grep 'no 0-round problem is ever reached: the speedup step closes a certified cycle of period 1'
	dune exec bin/roundelim.exe -- upper-bound -p mis -d 2 \
	  | grep 'no 0-round problem reached within 2 step(s)'

# Certifier smoke through the CLI (scripts/certify_smoke.sh): the
# certified step of Pi(8,6,1) must print its pinned summary line (both
# steps certified, one sub-check skipped on budget; about 1.5 s), and
# the certified step of a 57-label chain must finish under
# `timeout 60` with both steps certified and no sub-check skipped (R
# completeness is decided from the emitted sides, not over 2^57
# subsets).
certify-smoke:
	dune build bin
	sh scripts/certify_smoke.sh

# Differential fuzzing smoke, pinned and CI-sized (well under 30s): 500
# random problems through the optimized pipeline with every output
# re-checked by the independent certifiers in lib/certify (including the
# sequential-vs-2-domain step comparison and the simulator cross-check
# of 0-round verdicts), plus the harness self-test, which injects an
# engine fault and requires it to be caught and shrunk.
fuzz-smoke:
	dune build bin
	dune exec bin/certify_fuzz.exe -- --count 500 --seed 2026
	dune exec bin/certify_fuzz.exe -- --count 25 --self-test --domains 1

# ZDD-path smoke: the equivalence suite (engine ops and the multi-slot
# box layer vs brute force, right-closed families vs the order-ideal
# enumeration, rbar and full-step byte-identity on all presets, and
# the beyond-the-wall instances — col_18..20 trip the explicit path's
# budgets but complete on the fully symbolic rung, col_21 falls past
# the slot envelope to the streaming rung), then the CLI on both
# opt-in routes (--zdd flag and RELIM_ZDD env var); the mis step here
# exercises the symbolic maximal-box filter end to end.
zdd-smoke:
	dune build bin test/zdd
	dune exec test/zdd/test_zdd.exe
	dune exec bin/roundelim.exe -- step -p mis -d 3 -s 2 --zdd --stats > /dev/null
	RELIM_ZDD=1 dune exec bin/roundelim.exe -- step -p mis -d 3 -s 2 > /dev/null

# Sweep-harness smoke: a fixed-clock reference sweep over a small grid
# crossing both engines and the certifier, then every recovery path —
# deterministic interruption, a real kill -9, and a torn trailing
# record — each resumed to a byte-identical journal; finally a
# real-clock sweep whose analysis must find its grid fully covered
# (analyze_sweep exits 1 otherwise).  The journal is kept as
# sweep_smoke.jsonl for the CI artifact upload.
sweep-smoke:
	dune build bin scripts
	sh scripts/sweep_smoke.sh
	dune exec bin/relimsweep.exe -- --out sweep_smoke.jsonl -q \
	  --families mis,so,col --deltas 2 --label-counts 2 \
	  --engine-zdd both --certify both --ap-steps 1 --ap-beam 2
	dune exec scripts/analyze_sweep.exe -- sweep_smoke.jsonl --md > /dev/null

# Compile and run the examples (they also run under `dune runtest`; this
# target gives CI an explicit, separately-reported leg).
examples-smoke:
	dune build examples
	dune exec examples/quickstart.exe > /dev/null
	dune exec examples/problem_zoo.exe > /dev/null

clean:
	dune clean
