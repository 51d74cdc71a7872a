#!/usr/bin/env bash
# Tier-1 verification plus AddressSanitizer, UndefinedBehaviorSanitizer
# and ThreadSanitizer passes, a
# perf gate, the observability gates (obs tests, obs_overhead A/B,
# bench-JSON schemas), the Release kernel gate (calendar-vs-heap
# bit-identity across the full matrix + a scheduler events/sec floor), the
# campaign gates (100k-client Release throughput floor, O(shards)
# aggregation memory, shard-count and kill/resume report byte-identity) and
# the passive gates (TSval-matcher packets/sec floor + offline-pcap report
# byte-identity vs the live tap).
#
#   scripts/check.sh          # full: plain build + ctest, ASan build + ctest,
#                             # UBSan build + the tier1/kernel/obs suites,
#                             # TSan build + the threaded suites, then
#                             # Release perf_matrix (arena A/B gate) and
#                             # obs_overhead (overhead/determinism gates) runs
#                             # plus schema validation of every BENCH_*.json
#   scripts/check.sh --fast   # plain build + ctest only (skip sanitizers/perf/obs)
#
# Exits non-zero on the first failing step. Build trees: build/ (plain),
# build-asan/ (ASan), build-ubsan/ (UBSan), build-tsan/ (TSan) and
# build-release/ (perf); all incremental across invocations.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *) echo "usage: scripts/check.sh [--fast]" >&2; exit 2 ;;
  esac
done

step() { printf '\n== %s ==\n' "$*"; }

# Prefer Ninja, but never fight an already-configured tree's generator.
gen_for() {
  if [[ ! -f "$1/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
    echo "-G Ninja"
  fi
}

step "tier-1: configure"
# shellcheck disable=SC2046
cmake -B build -S . $(gen_for build)

step "tier-1: build"
cmake --build build -j

step "tier-1: ctest (-L tier1)"
ctest --test-dir build -L tier1 --output-on-failure

step "faults: ctest (-L faults)"
ctest --test-dir build -L faults --output-on-failure

step "perf: ctest (-L perf)"
ctest --test-dir build -L perf --output-on-failure

step "obs: ctest (-L obs)"
ctest --test-dir build -L obs --output-on-failure

step "kernel: ctest (-L kernel)"
ctest --test-dir build -L kernel --output-on-failure

step "resilience: ctest (-L resilience)"
ctest --test-dir build -L resilience --output-on-failure

step "campaign: ctest (-L campaign)"
ctest --test-dir build -L campaign --output-on-failure

step "passive: ctest (-L passive)"
ctest --test-dir build -L passive --output-on-failure

if [[ "$FAST" == 1 ]]; then
  echo
  echo "check.sh: tier-1 OK (ASan and perf passes skipped with --fast)"
  exit 0
fi

step "asan: configure (BNM_SANITIZE=address)"
# shellcheck disable=SC2046
cmake -B build-asan -S . $(gen_for build-asan) -DBNM_SANITIZE=address

step "asan: build tests"
cmake --build build-asan -j --target bnm_tests bnm_fault_tests bnm_perf_tests bnm_obs_tests bnm_kernel_tests bnm_resilience_tests bnm_campaign_tests bnm_passive_tests

step "asan: ctest"
ctest --test-dir build-asan --output-on-failure

step "ubsan: configure (BNM_SANITIZE=undefined)"
# shellcheck disable=SC2046
cmake -B build-ubsan -S . $(gen_for build-ubsan) -DBNM_SANITIZE=undefined

step "ubsan: build tests"
cmake --build build-ubsan -j --target bnm_tests bnm_kernel_tests bnm_obs_tests

step "ubsan: ctest (tier1, kernel, obs)"
# Placement-new and launder in SmallCallback::emplace, the scheduler's
# pooled cells and the registry's shard cells, plus everything tier-1
# drives through them. -fno-sanitize-recover: a report fails the test.
ctest --test-dir build-ubsan --output-on-failure -L 'tier1|kernel|obs'

step "tsan: configure (BNM_SANITIZE=thread)"
# shellcheck disable=SC2046
cmake -B build-tsan -S . $(gen_for build-tsan) -DBNM_SANITIZE=thread

step "tsan: build tests"
cmake --build build-tsan -j --target bnm_tests bnm_resilience_tests bnm_campaign_tests bnm_obs_tests bnm_kernel_tests

step "tsan: ctest (job runner, pool, watchdog thread, campaign, registry)"
# The runner's lock, its pool and the watchdog thread race for real on a
# multi-core host; these suites drive all three at jobs > 1. The obs and
# kernel suites cover the registry's single-writer cells read by
# concurrent snapshots, and the per-thread scheduler storage. No
# suppressions: a report fails the step.
ctest --test-dir build-tsan --output-on-failure -L 'resilience|campaign|obs|kernel'
ctest --test-dir build-tsan --output-on-failure \
  -R 'ParallelRunner|ThreadPool|CheckedRunner'

step "perf: configure (Release)"
# shellcheck disable=SC2046
cmake -B build-release -S . $(gen_for build-release) -DCMAKE_BUILD_TYPE=Release

step "perf: build bench"
cmake --build build-release -j --target perf_matrix obs_overhead bench_schema_check chaos_matrix campaign_scale campaign passive_scale passive_pcap

step "perf: bench/perf_matrix --runs=4 (arena A/B gate)"
# perf_matrix itself exits non-zero when the arena-off reference pass is not
# bit-identical to the arena-on pass; double-check the emitted JSON anyway.
# (The bench writes BENCH_perf_matrix.json into its working directory.)
(cd build-release && ./bench/perf_matrix --runs=4)
if ! grep -q '"identical_on_off": true' build-release/BENCH_perf_matrix.json; then
  echo "check.sh: FAIL — arena on/off results are not identical" >&2
  exit 1
fi
if ! grep -q '"identical": true' build-release/BENCH_perf_matrix.json; then
  echo "check.sh: FAIL — serial/parallel results are not identical" >&2
  exit 1
fi

step "resilience: checkpoint disabled-overhead gate (<1% or sub-ms noise)"
# The job runner with every feature off must not tax healthy runs: under
# 1% over a bare loop of run_experiment calls (one arena, reset per cell),
# with a sub-millisecond absolute slack because the full-matrix baseline is
# only ~30-60 ms and percentages of it sit inside single-core VM jitter.
# perf_matrix already hard-fails when the checked engine's results are not
# bit-identical to the bare loop's.
CK_PCT=$(sed -n 's/.*"disabled_overhead_percent": *\(-\{0,1\}[0-9][0-9.]*\).*/\1/p' \
  build-release/BENCH_perf_matrix.json | head -n1)
CK_DELTA=$(sed -n 's/.*"disabled_delta_ms": *\(-\{0,1\}[0-9][0-9.]*\).*/\1/p' \
  build-release/BENCH_perf_matrix.json | head -n1)
if [[ -z "$CK_PCT" || -z "$CK_DELTA" ]]; then
  echo "check.sh: FAIL — checkpoint overhead fields missing from BENCH_perf_matrix.json" >&2
  exit 1
fi
if ! awk -v pct="$CK_PCT" -v delta="$CK_DELTA" \
    'BEGIN { exit (pct + 0 < 1.0 || delta + 0 < 1.0) ? 0 : 1 }'; then
  echo "check.sh: FAIL — disabled crash-safe engine costs ${CK_PCT}% (${CK_DELTA} ms) over the bare loop" >&2
  exit 1
fi
echo "checkpoint overhead gate OK: disabled engine ${CK_PCT}% (${CK_DELTA} ms) vs the bare loop"

step "resilience: checkpoint enabled-overhead gate (<10% or sub-ms noise)"
# Checkpointing at flush_every = 1 (the chaos gate's setting) appends one
# journal record per cell; it must cost under 10% over the bare loop, with
# the same sub-millisecond absolute slack as the disabled gate.
CK_ON_PCT=$(sed -n 's/.*"enabled_overhead_percent": *\(-\{0,1\}[0-9][0-9.]*\).*/\1/p' \
  build-release/BENCH_perf_matrix.json | head -n1)
CK_ON_DELTA=$(sed -n 's/.*"enabled_delta_ms": *\(-\{0,1\}[0-9][0-9.]*\).*/\1/p' \
  build-release/BENCH_perf_matrix.json | head -n1)
if [[ -z "$CK_ON_PCT" || -z "$CK_ON_DELTA" ]]; then
  echo "check.sh: FAIL — enabled checkpoint overhead fields missing from BENCH_perf_matrix.json" >&2
  exit 1
fi
if ! awk -v pct="$CK_ON_PCT" -v delta="$CK_ON_DELTA" \
    'BEGIN { exit (pct + 0 < 10.0 || delta + 0 < 1.0) ? 0 : 1 }'; then
  echo "check.sh: FAIL — checkpointing at flush_every=1 costs ${CK_ON_PCT}% (${CK_ON_DELTA} ms) over the bare loop" >&2
  exit 1
fi
echo "checkpoint overhead gate OK: enabled engine ${CK_ON_PCT}% (${CK_ON_DELTA} ms) vs the bare loop"

step "kernel: Release gate (calendar/heap identity + throughput floor)"
# The calendar queue must reproduce the binary-heap reference bit-for-bit
# across the full 88-cell matrix, and the cancellable schedule_after path
# must hold a Release-mode throughput floor (the PR-5 heap measured
# ~4.2M events/s; the calendar queue should stay comfortably above 3x that
# on any host this runs on).
if ! grep -q '"identical_calendar_heap": true' build-release/BENCH_perf_matrix.json; then
  echo "check.sh: FAIL — calendar-queue results differ from the heap reference" >&2
  exit 1
fi
EV_FLOOR=12000000
EV_PER_SEC=$(sed -n 's/.*"events_per_sec": *\([0-9][0-9.]*\).*/\1/p' \
  build-release/BENCH_perf_matrix.json | head -n1)
if [[ -z "$EV_PER_SEC" ]]; then
  echo "check.sh: FAIL — events_per_sec missing from BENCH_perf_matrix.json" >&2
  exit 1
fi
if ! awk -v v="$EV_PER_SEC" -v floor="$EV_FLOOR" \
    'BEGIN { exit (v + 0 >= floor) ? 0 : 1 }'; then
  echo "check.sh: FAIL — scheduler throughput ${EV_PER_SEC} ev/s below floor ${EV_FLOOR}" >&2
  exit 1
fi
echo "kernel gate OK: ${EV_PER_SEC} events/s (floor ${EV_FLOOR}), calendar == heap"

step "obs: bench/obs_overhead --runs=8 (overhead + determinism gates)"
# obs_overhead exits non-zero itself when the disabled-path overhead
# estimate reaches 1%, when the profiled pass is not bit-identical to the
# unprofiled one, or when serial and parallel registry snapshots differ.
(cd build-release && ./bench/obs_overhead --runs=8)
if ! grep -q '"identical": true' build-release/BENCH_obs_overhead.json; then
  echo "check.sh: FAIL — profiled run is not bit-identical" >&2
  exit 1
fi
if ! grep -q '"snapshot_identical": true' build-release/BENCH_obs_overhead.json; then
  echo "check.sh: FAIL — serial/parallel metrics snapshots differ" >&2
  exit 1
fi

step "campaign: bench/campaign_scale --clients=100000 (scale + memory gates)"
# The campaign engine must push a 100k-client population through the full
# simulator at a Release throughput floor, aggregate in O(shards) memory
# (doubling the population must not grow the aggregation state by a byte),
# and produce a byte-identical report whether it runs as 1 shard serially
# or as 8 shards. campaign_scale exits non-zero itself on an identity or
# shape failure; the greps double-check the emitted JSON.
(cd build-release && ./bench/campaign_scale --clients=100000 --runs=1)
if ! grep -q '"identical_shards": true' build-release/BENCH_campaign_scale.json; then
  echo "check.sh: FAIL — campaign reports differ across shard counts" >&2
  exit 1
fi
if ! grep -q '"independent_of_clients": true' build-release/BENCH_campaign_scale.json; then
  echo "check.sh: FAIL — campaign aggregation memory grows with client count" >&2
  exit 1
fi
# Floor far below the ~21k clients/s this box measures in Release, but far
# above anything a per-client-accumulation regression would leave standing.
CPS_FLOOR=5000
CPS=$(sed -n 's/.*"clients_per_sec": *\([0-9][0-9.]*\).*/\1/p' \
  build-release/BENCH_campaign_scale.json | head -n1)
if [[ -z "$CPS" ]]; then
  echo "check.sh: FAIL — clients_per_sec missing from BENCH_campaign_scale.json" >&2
  exit 1
fi
if ! awk -v v="$CPS" -v floor="$CPS_FLOOR" \
    'BEGIN { exit (v + 0 >= floor) ? 0 : 1 }'; then
  echo "check.sh: FAIL — campaign throughput ${CPS} clients/s below floor ${CPS_FLOOR}" >&2
  exit 1
fi
echo "campaign scale gate OK: ${CPS} clients/s (floor ${CPS_FLOOR}), O(shards) memory"

step "passive: bench/passive_scale (matcher throughput floor)"
# The TSval matcher must sustain a Release throughput floor on a synthetic
# trunk capture (64 flows x 8k packets). passive_scale exits non-zero
# itself when two replays of the stream serialize different reports.
(cd build-release && ./bench/passive_scale)
if ! grep -q '"identical_reports": true' build-release/BENCH_passive_scale.json; then
  echo "check.sh: FAIL — passive reports differ across replays" >&2
  exit 1
fi
# Floor far below the millions of packets/s a hash-map matcher manages in
# Release, but far above anything a per-packet-allocation regression or an
# accidental O(flows) scan would leave standing.
PPS_FLOOR=200000
PPS=$(sed -n 's/.*"packets_per_sec": *\([0-9][0-9.]*\).*/\1/p' \
  build-release/BENCH_passive_scale.json | head -n1)
if [[ -z "$PPS" ]]; then
  echo "check.sh: FAIL — packets_per_sec missing from BENCH_passive_scale.json" >&2
  exit 1
fi
if ! awk -v v="$PPS" -v floor="$PPS_FLOOR" \
    'BEGIN { exit (v + 0 >= floor) ? 0 : 1 }'; then
  echo "check.sh: FAIL — passive matcher ${PPS} packets/s below floor ${PPS_FLOOR}" >&2
  exit 1
fi
echo "passive scale gate OK: ${PPS} packets/s (floor ${PPS_FLOOR})"

step "passive: pcap round-trip gate (offline report == live tap report)"
# A faulted run's client tap written to a classic pcap file, re-read
# offline and fed to a fresh estimator must reproduce the live tap's
# report byte for byte. passive_pcap exits non-zero itself on a mismatch
# (or when the faults failed to exercise the Karn-suppression path); the
# cmp double-checks the emitted files.
PASSIVE_DIR=build-release/passive_roundtrip
rm -rf "$PASSIVE_DIR"
mkdir -p "$PASSIVE_DIR"
./build-release/tools/passive_pcap \
  --pcap="$PASSIVE_DIR/capture.pcap" \
  --live-report="$PASSIVE_DIR/REPORT_passive_live.json" \
  --offline-report="$PASSIVE_DIR/REPORT_passive_offline.json"
if ! cmp -s "$PASSIVE_DIR/REPORT_passive_live.json" \
    "$PASSIVE_DIR/REPORT_passive_offline.json"; then
  echo "check.sh: FAIL — offline pcap report differs from the live tap" >&2
  exit 1
fi
echo "passive pcap gate OK: offline report byte-identical to the live tap"
./build-release/tools/bench_schema_check \
  "$PASSIVE_DIR"/REPORT_passive_*.json

step "obs: validate BENCH_*.json against docs/BENCH_SCHEMAS.md"
# Every bench JSON present in the release tree must match its documented
# schema exactly (unknown or missing fields fail).
BENCH_JSON=$(find build-release -maxdepth 2 -name 'BENCH_*.json' | sort)
if [[ -z "$BENCH_JSON" ]]; then
  echo "check.sh: FAIL — no BENCH_*.json produced" >&2
  exit 1
fi
# shellcheck disable=SC2086
./build-release/tools/bench_schema_check $BENCH_JSON

step "resilience: chaos gate (kill after K cells -> resume -> byte-identity)"
# A run hard-killed mid-matrix (std::_Exit inside the progress callback,
# i.e. after the checkpoint flush but before any cleanup) and resumed from
# its checkpoint must produce a final report byte-identical to a clean
# uninterrupted run's — with and without active fault plans.
CHAOS=./build-release/tools/chaos_matrix
CHAOS_DIR=build-release/chaos
rm -rf "$CHAOS_DIR"
mkdir -p "$CHAOS_DIR"
chaos_cycle() {  # $1: extra flags ("" or --faults), $2: scenario tag
  local flags=$1 tag=$2 rc=0
  # shellcheck disable=SC2086
  "$CHAOS" $flags --checkpoint="$CHAOS_DIR/CHECKPOINT_${tag}_clean.json" \
    --report="$CHAOS_DIR/REPORT_matrix_${tag}_clean.json" >/dev/null
  # shellcheck disable=SC2086
  "$CHAOS" $flags --checkpoint="$CHAOS_DIR/CHECKPOINT_${tag}.json" \
    --kill-after=3 >/dev/null || rc=$?
  if [[ "$rc" != 42 ]]; then
    echo "check.sh: FAIL — chaos kill ($tag) exited $rc, expected 42" >&2
    exit 1
  fi
  # shellcheck disable=SC2086
  "$CHAOS" $flags --checkpoint="$CHAOS_DIR/CHECKPOINT_${tag}.json" --resume \
    --report="$CHAOS_DIR/REPORT_matrix_${tag}_resumed.json" >/dev/null
  if ! cmp -s "$CHAOS_DIR/REPORT_matrix_${tag}_clean.json" \
      "$CHAOS_DIR/REPORT_matrix_${tag}_resumed.json"; then
    echo "check.sh: FAIL — resumed report ($tag) differs from the clean run" >&2
    exit 1
  fi
  echo "chaos gate OK ($tag): killed after 3 cells, resumed byte-identical"
}
chaos_cycle ""       healthy
chaos_cycle --faults faulty
./build-release/tools/bench_schema_check \
  "$CHAOS_DIR"/CHECKPOINT_*.json "$CHAOS_DIR"/REPORT_matrix_*.json

step "campaign: chaos gate (kill after K shards -> resume -> byte-identity)"
# Same discipline for the campaign engine: a run hard-killed mid-campaign
# (std::_Exit inside the progress callback, after the shard's checkpoint
# flush) and resumed must write a report byte-identical to a clean run's.
CAMPAIGN=./build-release/tools/campaign
CAMP_DIR=build-release/campaign_chaos
rm -rf "$CAMP_DIR"
mkdir -p "$CAMP_DIR"
CAMP_FLAGS=(--clients=2000 --shards=8 --runs=1 --jobs=1 --quiet)
"$CAMPAIGN" "${CAMP_FLAGS[@]}" \
  --report="$CAMP_DIR/REPORT_campaign_clean.json" 2>/dev/null
camp_rc=0
"$CAMPAIGN" "${CAMP_FLAGS[@]}" \
  --checkpoint="$CAMP_DIR/CHECKPOINT_campaign.json" \
  --kill-after=3 2>/dev/null || camp_rc=$?
if [[ "$camp_rc" != 42 ]]; then
  echo "check.sh: FAIL — campaign kill exited $camp_rc, expected 42" >&2
  exit 1
fi
"$CAMPAIGN" "${CAMP_FLAGS[@]}" \
  --checkpoint="$CAMP_DIR/CHECKPOINT_campaign.json" --resume \
  --report="$CAMP_DIR/REPORT_campaign_resumed.json" 2>/dev/null
if ! cmp -s "$CAMP_DIR/REPORT_campaign_clean.json" \
    "$CAMP_DIR/REPORT_campaign_resumed.json"; then
  echo "check.sh: FAIL — resumed campaign report differs from the clean run" >&2
  exit 1
fi
echo "campaign chaos gate OK: killed after 3 shards, resumed byte-identical"
./build-release/tools/bench_schema_check \
  "$CAMP_DIR"/CHECKPOINT_campaign.json "$CAMP_DIR"/REPORT_campaign_*.json

echo
echo "check.sh: tier-1 + ASan + UBSan + TSan + perf + obs + resilience + campaign + passive OK"
