#!/bin/sh
# End-to-end smoke for roundelimd and its certificate-gated result
# store, driving the real binary over a Unix socket:
#
#   1. cold mixed batch against an empty store: a step of MIS and then
#      of its relabelled X/Y/Z copy, a fixed-point detection, one-step
#      fixed-point detections of MIS and then of the copy, and autopilot
#      searches on SO and then on the cycle state that search closes
#      on.  The store is keyed by the request's own canonical text, so
#      both of the copy's answers must be computed in X/Y/Z; it keeps
#      only step results, so the cycle state gets the whole search
#      report.  The same batch sent again is answered from the daemon's
#      memo: every answer "cached":true and otherwise byte-identical to
#      the first;
#   2. garbage input (bad JSON, a cut-off request, a step whose label
#      name the alphabet refuses) answered with structured errors,
#      daemon survives;
#   3. kill -9 the daemon, truncate a persisted entry on disk;
#   4. validate-store reports the damage (--strict exits non-zero) in a
#      store that holds the two step entries and nothing else;
#   5. restart over the damaged store: the X/Y/Z copy's step is served
#      warm from its own entry (MIS's step file sorts first by key
#      digest, so it is the damaged one); the damaged step, the
#      fixed-point detections and the autopilot searches are computed
#      again — responses byte-identical to the cold run modulo the
#      "cached" flag.  Then a fixed-point detection of SO capped at one
#      step, after the cold batch's uncapped 2-step verdict, must be
#      computed ("cached":false) and find none;
#   6. clean shutdown through the protocol.
set -eu

ROUNDELIMD=${ROUNDELIMD:-_build/default/bin/roundelimd.exe}
WORK=$(mktemp -d)
DPID=""
trap 'if [ -n "$DPID" ]; then kill -9 "$DPID" 2>/dev/null || true; fi; rm -rf "$WORK"' EXIT
SOCK="$WORK/d.sock"
STORE="$WORK/store"

say() { echo "daemond-smoke: $*"; }

REQ_STEP='{"id":1,"op":"step","problem":"problem MIS\ndelta 3\nnode:\nM^3\nP O^2\nedge:\nO^2\nM [PO]\n"}'
REQ_STEP_XYZ='{"id":8,"op":"step","problem":"problem MIS\ndelta 3\nnode:\nX^3\nY Z^2\nedge:\nZ^2\nX [YZ]\n"}'
REQ_FP='{"id":2,"op":"fixed-point","problem":"problem SO\ndelta 3\nnode:\nO [IO]^2\nedge:\nO I\n"}'
REQ_FP1_MIS='{"id":6,"op":"fixed-point","problem":"problem MIS\ndelta 3\nnode:\nM^3\nP O^2\nedge:\nO^2\nM [PO]\n","max_steps":1}'
REQ_FP1_XYZ='{"id":7,"op":"fixed-point","problem":"problem MIS\ndelta 3\nnode:\nX^3\nY Z^2\nedge:\nZ^2\nX [YZ]\n","max_steps":1}'
REQ_FP1_SO='{"id":10,"op":"fixed-point","problem":"problem SO\ndelta 3\nnode:\nO [IO]^2\nedge:\nO I\n","max_steps":1}'
REQ_AP_SO='{"id":11,"op":"autopilot","problem":"problem SO\ndelta 3\nnode:\nO [IO]^2\nedge:\nO I\n"}'
REQ_AP_CYCLE='{"id":12,"op":"autopilot","problem":"problem Rbar(R(SO))\ndelta 3\nnode:\nO OI^2\nedge:\nOI^2\nO OI\n"}'
REQ_BAD_LABEL='{"id":5,"op":"step","problem":"problem x\nnode:\nA( A( A(\nedge:\nA( A(\n"}'

"$ROUNDELIMD" serve --socket "$SOCK" --store "$STORE" > "$WORK/serve1.log" &
DPID=$!

# 1. Cold batch (the client retries while the daemon binds).  The
#    X/Y/Z copy of MIS, asked right after MIS, must get its own step
#    and its own one-step detection, not MIS's written in M/P/O: from
#    the store as well as without it.
BATCH="$WORK/batch.jsonl"
printf '%s\n' "$REQ_STEP" "$REQ_STEP_XYZ" "$REQ_FP" "$REQ_FP1_MIS" "$REQ_FP1_XYZ" \
  "$REQ_AP_SO" "$REQ_AP_CYCLE" > "$BATCH"
"$ROUNDELIMD" client --socket "$SOCK" < "$BATCH" > "$WORK/cold.out"
grep -q '"cached":false' "$WORK/cold.out"
for id in 8 7; do
  grep "\"id\":$id," "$WORK/cold.out" > "$WORK/xyz.out"
  if ! grep -q 'X,XZ' "$WORK/xyz.out" || grep -q 'M,MO' "$WORK/xyz.out"; then
    echo "daemond-smoke: FAIL: request $id, on the X/Y/Z copy of MIS, was not answered in X/Y/Z" >&2
    exit 1
  fi
done
say "cold batch served ($(wc -l < "$WORK/cold.out") responses); X/Y/Z copy answered in X/Y/Z"

# The search from SO stored nothing, so the cycle state it closes on
# gets the whole report, as a daemon without a store gives it.
grep '"id":12,' "$WORK/cold.out" > "$WORK/cycle.out"
if ! grep -q '"candidates":1,' "$WORK/cycle.out" || ! grep -q '"lower_bound"' "$WORK/cycle.out"; then
  echo "daemond-smoke: FAIL: the autopilot on SO's cycle state did not get the whole search report" >&2
  exit 1
fi
say "autopilot on SO's cycle state answered with the whole search report"

# The same batch again, to the same daemon: every answer comes from the
# memo, flagged cached, and is otherwise the first pass's bytes.
"$ROUNDELIMD" client --socket "$SOCK" < "$BATCH" > "$WORK/repeat.out"
test "$(grep -c '"cached":true' "$WORK/repeat.out")" = "$(wc -l < "$WORK/cold.out")"
sed 's/"cached":true/"cached":false/' "$WORK/repeat.out" > "$WORK/repeat.norm"
cmp "$WORK/cold.out" "$WORK/repeat.norm"
say "repeated batch served from the memo, byte-identical modulo the cache flag"

# 2. Garbage comes back as structured errors (client exits non-zero),
#    and the daemon keeps serving.
if printf 'this is not json\n%s\n{"id":3,"op":\n' "$REQ_BAD_LABEL" \
  | "$ROUNDELIMD" client --socket "$SOCK" > "$WORK/garbage.out"; then
  echo "daemond-smoke: FAIL: garbage reported as success" >&2
  exit 1
fi
test "$(grep -c '"ok":false' "$WORK/garbage.out")" = 3
printf '{"id":4,"op":"ping"}\n' \
  | "$ROUNDELIMD" client --socket "$SOCK" | grep -q '"pong":true'
say "garbage rejected with structured errors; daemon still alive"

# 3. Crash without cleanup, then damage the persisted step entry the
#    way an interrupted write would.
kill -9 "$DPID"
wait "$DPID" 2>/dev/null || true
DPID=""
ENT=$(ls "$STORE"/entries/step-*.ent | head -n 1)
SZ=$(wc -c < "$ENT")
dd if="$ENT" of="$ENT.half" bs=1 "count=$((SZ / 2))" 2>/dev/null
mv "$ENT.half" "$ENT"
say "killed the daemon and truncated $(basename "$ENT")"

# 4. The damage is visible to the offline validator, and --strict turns
#    it into a non-zero exit.  The store holds the two step entries
#    only: no fixed-point or autopilot verdict.
"$ROUNDELIMD" validate-store --store "$STORE" > "$WORK/validate.out"
grep -q '2 entries, 1 valid, 1 rejected' "$WORK/validate.out"
if "$ROUNDELIMD" validate-store --store "$STORE" --strict > /dev/null; then
  echo "daemond-smoke: FAIL: --strict passed a corrupted store" >&2
  exit 1
fi
say "validate-store rejects the damaged entry (--strict exits non-zero)"

# 5. Restart over the damaged store: rejected step recomputed, intact
#    step served warm, fixed-point and autopilot answers (never stored)
#    recomputed; bytes equal to the cold run modulo the flag.
"$ROUNDELIMD" serve --socket "$SOCK" --store "$STORE" > "$WORK/serve2.log" &
DPID=$!
"$ROUNDELIMD" client --socket "$SOCK" < "$BATCH" > "$WORK/warm.out"
grep '"id":8,' "$WORK/warm.out" | grep -q '"cached":true'
sed 's/"cached":true/"cached":false/' "$WORK/warm.out" > "$WORK/warm.norm"
cmp "$WORK/cold.out" "$WORK/warm.norm"
say "warm responses byte-identical to cold (modulo the cache flag)"

# A capped detection gets the answer its own cap gives, whatever
# verdict an uncapped request came to before.
printf '%s\n' "$REQ_FP1_SO" | "$ROUNDELIMD" client --socket "$SOCK" > "$WORK/capped.out"
if ! grep -q '"cached":false,"result":{"verdict":"none",' "$WORK/capped.out"; then
  echo "daemond-smoke: FAIL: SO capped at one step did not compute \"none\"" >&2
  exit 1
fi
say "SO capped at one step computed: none within its cap"

# 6. Clean shutdown through the protocol.
printf '{"id":9,"op":"shutdown"}\n' \
  | "$ROUNDELIMD" client --socket "$SOCK" | grep -q '"stopping":true'
wait "$DPID" 2>/dev/null || true
DPID=""
say "OK"
