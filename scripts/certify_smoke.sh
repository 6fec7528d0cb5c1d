#!/bin/sh
# Certifier smoke through the roundelim CLI, with the certificate
# checkers of lib/certify on (--certify):
#
#   1. the step of Pi(8,6,1), the paper's Fig. 5 instance: its summary
#      line on stderr must read both steps certified and one sub-check
#      (R's node recomputation) skipped on budget;
#   2. the step of a 57-label problem whose node diagram is a chain
#      (label i may sit next to every label j with i + j >= 56; the
#      edge allows every pair), under `timeout 60`: R completeness is
#      decided from the emitted sides, not by a scan of all 2^57 label
#      subsets, so both steps are certified with no sub-check skipped.
set -eu

ROUNDELIM=${ROUNDELIM:-_build/default/bin/roundelim.exe}

say() { echo "certify-smoke: $*"; }

SUMMARY='certified: 1 R steps, 1 Rbar steps, 0 zero-round verdicts, 0 fixed points'

say "Pi(8,6,1) step"
"$ROUNDELIM" step -p pi -d 8 -a 6 -x 1 --certify 2>&1 >/dev/null \
  | grep "$SUMMARY (1 sub-checks skipped on budget"

N=57
NODE=$(awk -v n=$N 'BEGIN {
  for (i = 0; i < n; i++) {
    group = ""; size = 0
    for (j = n - 1 - i; j < n; j++) { group = group (size ? " " : "") "l" j; size++ }
    line = (size == 1) ? "l" i " " group : "l" i " [" group "]"
    printf "%s%s", (i ? ";" : ""), line
  }
}')
ALL=$(awk -v n=$N 'BEGIN { for (i = 0; i < n; i++) printf "%sl%d", (i ? " " : ""), i }')

say "$N-label chain step"
timeout 60 "$ROUNDELIM" step --node "$NODE" --edge "[$ALL] [$ALL]" --certify 2>&1 >/dev/null \
  | grep "$SUMMARY (0 sub-checks skipped on budget"

say "ok"
