#!/bin/sh
# End-to-end smoke for roundelimd and its certificate-gated result
# store, driving the real binary over a Unix socket:
#
#   1. cold mixed batch (step + fixed-point) against an empty store;
#   2. garbage input (bad JSON, a cut-off request, a step whose label
#      name the alphabet refuses) answered with structured errors,
#      daemon survives;
#   3. kill -9 the daemon, truncate a persisted entry on disk;
#   4. validate-store reports the damage (--strict exits non-zero);
#   5. restart over the damaged store: the intact entry is served warm,
#      the damaged one is recomputed — responses byte-identical to the
#      cold run modulo the "cached" flag;
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
REQ_FP='{"id":2,"op":"fixed-point","problem":"problem SO\ndelta 3\nnode:\nO [IO]^2\nedge:\nO I\n"}'
REQ_BAD_LABEL='{"id":5,"op":"step","problem":"problem x\nnode:\nA( A( A(\nedge:\nA( A(\n"}'

"$ROUNDELIMD" serve --socket "$SOCK" --store "$STORE" > "$WORK/serve1.log" &
DPID=$!

# 1. Cold batch (the client retries while the daemon binds).
printf '%s\n%s\n' "$REQ_STEP" "$REQ_FP" \
  | "$ROUNDELIMD" client --socket "$SOCK" > "$WORK/cold.out"
grep -q '"cached":false' "$WORK/cold.out"
say "cold batch served ($(wc -l < "$WORK/cold.out") responses)"

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
#    it into a non-zero exit.
"$ROUNDELIMD" validate-store --store "$STORE" > "$WORK/validate.out"
grep -q '2 entries, 1 valid, 1 rejected' "$WORK/validate.out"
if "$ROUNDELIMD" validate-store --store "$STORE" --strict > /dev/null; then
  echo "daemond-smoke: FAIL: --strict passed a corrupted store" >&2
  exit 1
fi
say "validate-store rejects the damaged entry (--strict exits non-zero)"

# 5. Restart over the damaged store: rejected entry recomputed, intact
#    entry served warm; bytes equal to the cold run modulo the flag.
"$ROUNDELIMD" serve --socket "$SOCK" --store "$STORE" > "$WORK/serve2.log" &
DPID=$!
printf '%s\n%s\n' "$REQ_STEP" "$REQ_FP" \
  | "$ROUNDELIMD" client --socket "$SOCK" > "$WORK/warm.out"
grep -q '"cached":true' "$WORK/warm.out"
sed 's/"cached":true/"cached":false/' "$WORK/warm.out" > "$WORK/warm.norm"
cmp "$WORK/cold.out" "$WORK/warm.norm"
say "warm responses byte-identical to cold (modulo the cache flag)"

# 6. Clean shutdown through the protocol.
printf '{"id":9,"op":"shutdown"}\n' \
  | "$ROUNDELIMD" client --socket "$SOCK" | grep -q '"stopping":true'
wait "$DPID" 2>/dev/null || true
DPID=""
say "OK"
