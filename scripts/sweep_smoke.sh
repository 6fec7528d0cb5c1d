#!/bin/sh
# End-to-end smoke for the sweep harness, driving the real binaries:
#
#   1. fixed-clock reference run over a small grid crossing both
#      engines and the certifier;
#   2. deterministic interruption (--max-cells) + resume: journal
#      byte-identical to the reference;
#   3. real kill -9 mid-sweep + resume: byte-identical (if the sweep
#      finished before the kill landed, the resume is a no-op — the
#      check holds either way, so the step is not timing-sensitive);
#   4. torn trailing line (truncated mid-record) + resume:
#      byte-identical;
#   5. re-running the completed sweep appends nothing;
#   6. real-clock run -> analyze_sweep finds its grid fully covered.
set -eu

RELIMSWEEP=${RELIMSWEEP:-_build/default/bin/relimsweep.exe}
ANALYZE=${ANALYZE:-_build/default/scripts/analyze_sweep.exe}
WORK=$(mktemp -d)
SPID=""
trap 'if [ -n "$SPID" ]; then kill -9 "$SPID" 2>/dev/null || true; fi; rm -rf "$WORK"' EXIT

say() { echo "sweep-smoke: $*"; }

# Small but representative: three families, both engines, certifier on
# and off, one autopilot step so every cell is cheap.
GRID="--families mis,so,col --deltas 2 --label-counts 2 \
  --engine-zdd both --certify both --ap-steps 1 --ap-beam 2"
REF="$WORK/ref.jsonl"
JRN="$WORK/sweep.jsonl"

# 1. Reference run under a fixed clock (byte-determinism baseline).
"$RELIMSWEEP" --out "$REF" --fixed-clock -q $GRID
CELLS=$(($(wc -l < "$REF") - 1))
say "reference: $CELLS cells journaled"

# 2. Interrupt deterministically after 3 cells, then resume.
if "$RELIMSWEEP" --out "$JRN" --fixed-clock -q --max-cells 3 $GRID; then
  echo "sweep-smoke: FAIL: interrupted sweep exited 0" >&2
  exit 1
fi
"$RELIMSWEEP" --out "$JRN" --fixed-clock -q $GRID
cmp "$REF" "$JRN"
say "interrupt after 3 cells + resume: byte-identical"

# 3. Real mid-sweep kill: start fresh, kill -9 shortly after launch,
#    resume.  Whether the kill lands between cells, mid-write, or
#    after completion, the resumed journal must equal the reference.
rm -f "$JRN"
"$RELIMSWEEP" --out "$JRN" --fixed-clock -q $GRID &
SPID=$!
sleep 0.4
kill -9 "$SPID" 2>/dev/null || true
wait "$SPID" 2>/dev/null || true
SPID=""
"$RELIMSWEEP" --out "$JRN" --fixed-clock -q $GRID
cmp "$REF" "$JRN"
say "kill -9 mid-sweep + resume: byte-identical"

# 4. Tear the trailing record mid-line, as an interrupted write would.
SZ=$(wc -c < "$JRN")
dd if="$JRN" of="$JRN.torn" bs=1 "count=$((SZ - 37))" 2>/dev/null
mv "$JRN.torn" "$JRN"
"$RELIMSWEEP" --out "$JRN" --fixed-clock -q $GRID | tee "$WORK/resume.out"
grep -q "recovered damaged tail" "$WORK/resume.out"
cmp "$REF" "$JRN"
say "torn trailing line detected, re-run, byte-identical"

# 5. Completed sweep re-run is a no-op.
"$RELIMSWEEP" --out "$JRN" --fixed-clock -q $GRID | grep -q "(${CELLS} served, 0 ran)"
cmp "$REF" "$JRN"
say "completed sweep re-run appends nothing"

# 6. Real clock -> analysis; analyze_sweep exits 1 on a coverage gap.
rm -f "$JRN"
"$RELIMSWEEP" --out "$JRN" -q $GRID
"$ANALYZE" "$JRN" --md > /dev/null
say "analyze_sweep: grid fully covered"

say "OK"
