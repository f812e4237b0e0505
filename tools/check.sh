#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite, rerun
# the shard- and transport-labeled tests three times, then repeat the
# build+tests in a separate tree with ASan+UBSan enabled
# (-DSHS_SANITIZE=ON). Pass --no-sanitize to skip the second pass.
#
# Pass --conformance to additionally sweep the security-invariant
# conformance suite (ctest -L conformance) under three extra published
# seeds on top of the default seed 1 — the schedule every release is
# expected to hold on. Deterministic: a seed that fails here fails
# everywhere.
#
# Pass --tsan to additionally run the concurrent suites in a
# ThreadSanitizer tree (build-tsan/, -DSHS_TSAN=ON); --tsan=label,...
# picks a subset of the default labels:
#   service    pump/feed/expire paths and the stress-labeled soak
#   transport  event loop, pump worker and client threads racing
#   obs        trace-ring writers against scrape-time readers, and the
#              redaction-invariant conformance sweep
#   batch      cross-thread enqueue/flush, the precomp cache's ensure()
#   shard      cross-shard egress, remote-frame queues, merged metric folds
#   channel    relay fan-out across shard event loops
#   authority  churn calls racing shard loops through the engine mutex
#   health     heartbeat atomics raced against the watchdog checker
# Only the test binaries carrying those labels are built (CMake target
# shs_label_<label>, see tests/CMakeLists.txt): the rest of the suite is
# single-threaded and already covered by the ASan tree. Race coverage
# comes from thread interleaving, not volume, so three sizes are trimmed
# under TSan unless the caller already set them: SHS_STRESS_SESSIONS=250,
# SHS_SHARD_STRESS_SESSIONS=200 and SHS_REDACTION_M=2,4.
set -euo pipefail
cd "$(dirname "$0")/.."

# Extra seeds the conformance sweep publishes (comma-separated, appended
# to the built-in seed 1 by tests/net/conformance_harness.cpp).
CONFORMANCE_SEEDS="271828,314159,141421"

run_suite() {
  local dir=$1; shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
}

TSAN_LABELS="service,transport,obs,batch,shard,channel,authority,health"

want_conformance=0
want_sanitize=1
tsan_labels=""
for arg in "$@"; do
  case "$arg" in
    --conformance) want_conformance=1 ;;
    --no-sanitize) want_sanitize=0 ;;
    --tsan) tsan_labels=$TSAN_LABELS ;;
    --tsan=?*) tsan_labels=${arg#--tsan=} ;;
    *) echo "check.sh: unknown option '$arg'" >&2; exit 2 ;;
  esac
done

echo "== tier-1: build + tests =="
run_suite build

# Timing races on the served path (accept dealing, cross-shard egress,
# client relays) show up in one run in several, so the shard and
# transport labels run three times over before a change can pass.
echo "== shard|transport repeated x3 =="
ctest --test-dir build --output-on-failure -L 'shard|transport' \
  --repeat until-fail:3 -j "$(nproc)"

if [[ "$want_conformance" == 1 ]]; then
  echo "== conformance sweep (seeds 1,$CONFORMANCE_SEEDS) =="
  SHS_CONFORMANCE_SEEDS="$CONFORMANCE_SEEDS" \
    ctest --test-dir build --output-on-failure -L conformance
fi

if [[ "$want_sanitize" == 1 ]]; then
  echo "== tier-1 under ASan/UBSan =="
  run_suite build-sanitize -DSHS_SANITIZE=ON
  if [[ "$want_conformance" == 1 ]]; then
    echo "== conformance sweep under ASan/UBSan =="
    SHS_CONFORMANCE_SEEDS="$CONFORMANCE_SEEDS" \
      ctest --test-dir build-sanitize --output-on-failure -L conformance
  fi
fi

if [[ -n "$tsan_labels" ]]; then
  echo "== $tsan_labels under TSan =="
  IFS=, read -ra labels <<< "$tsan_labels"
  cmake -B build-tsan -S . -DSHS_TSAN=ON >/dev/null
  cmake --build build-tsan -j "$(nproc)" --target "${labels[@]/#/shs_label_}"
  SHS_STRESS_SESSIONS="${SHS_STRESS_SESSIONS:-250}" \
  SHS_SHARD_STRESS_SESSIONS="${SHS_SHARD_STRESS_SESSIONS:-200}" \
  SHS_REDACTION_M="${SHS_REDACTION_M:-2,4}" \
    ctest --test-dir build-tsan --output-on-failure \
      -L "^($(IFS='|'; echo "${labels[*]}"))\$"
fi

echo "check.sh: all suites passed"
