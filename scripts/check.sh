#!/usr/bin/env bash
# Tier-1 verification plus AddressSanitizer, UndefinedBehaviorSanitizer
# and ThreadSanitizer passes, then the Release bench gates and the
# crash-safety and round-trip gates. Every bench declares its own hard
# gates and exits non-zero when one fails (docs/BENCH_SCHEMAS.md lists
# them: byte-identity across serial/parallel, engine, profiling, shard
# and replay variants; engine, checkpoint and
# observability overhead bounds; events/s, clients/s and packets/s floors;
# payload copy reduction). check.sh only runs the binaries, then
# validates the BENCH_*.json files this run wrote against their tables in
# docs/BENCH_SCHEMAS.md. The chaos gates (kill/resume report
# byte-identity for the matrix and campaign engines) and the passive pcap
# gate (offline report byte-identical to the live tap) cmp the reports,
# and validate every checkpoint and report they wrote against the same
# document.
#
#   scripts/check.sh          # full: plain build + ctest, ASan build + ctest,
#                             # UBSan build + ctest,
#                             # TSan build + the threaded suites, then the
#                             # six Release benches, schema validation and
#                             # the chaos/round-trip gates
#   scripts/check.sh --fast   # plain build + ctest only (skip the sanitizer
#                             # builds, Release benches and gates)
#
# Each ctest call runs every registered test (all eleven labels: tier1
# faults perf obs kernel resilience campaign passive fingerprint paper
# examples); only the TSan step picks the threaded subset. The `paper`
# tests run the ten paper benches and the `examples` tests the eight
# examples, so the ASan and UBSan steps build them too (the
# `paper_benches` target in bench/CMakeLists.txt and `example_programs`
# in examples/CMakeLists.txt).
#
# Exits non-zero on the first failing step. Build trees: build/ (plain),
# build-asan/ (ASan), build-ubsan/ (UBSan), build-tsan/ (TSan) and
# build-release/ (perf, compiled with warnings as errors:
# CMAKE_COMPILE_WARNING_AS_ERROR, CMake >= 3.24); all incremental across
# invocations.
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

step "ctest (every label: tier1 faults perf obs kernel resilience campaign passive fingerprint paper examples)"
ctest --test-dir build --output-on-failure

if [[ "$FAST" == 1 ]]; then
  echo
  echo "check.sh: ctest OK (sanitizers, benches and gates skipped with --fast)"
  exit 0
fi

step "asan: configure (BNM_SANITIZE=address)"
# shellcheck disable=SC2046
cmake -B build-asan -S . $(gen_for build-asan) -DBNM_SANITIZE=address

step "asan: build tests"
cmake --build build-asan -j --target bnm_tests bnm_fault_tests bnm_perf_tests bnm_obs_tests bnm_kernel_tests bnm_resilience_tests bnm_campaign_tests bnm_passive_tests bnm_fingerprint_tests \
  paper_benches example_programs

step "asan: ctest"
# Arena chunks are poisoned on reset() in this build, so a use of arena
# memory after its cell or client ended aborts here.
ctest --test-dir build-asan --output-on-failure

step "ubsan: configure (BNM_SANITIZE=undefined)"
# shellcheck disable=SC2046
cmake -B build-ubsan -S . $(gen_for build-ubsan) -DBNM_SANITIZE=undefined

step "ubsan: build tests"
cmake --build build-ubsan -j --target bnm_tests bnm_kernel_tests bnm_obs_tests \
  bnm_fault_tests bnm_resilience_tests bnm_campaign_tests bnm_passive_tests \
  bnm_perf_tests bnm_fingerprint_tests paper_benches example_programs

step "ubsan: ctest"
# Placement-new and launder in SmallCallback::emplace, the scheduler's
# pooled cells and the registry's shard cells, the arena's aligned bump
# allocation (perf), plus everything the suites drive through them: fault
# injection, the job runner and its journal, campaign sketches, the
# passive matcher and pcap reader. No suppressions; -fno-sanitize-recover:
# a report fails the test.
ctest --test-dir build-ubsan --output-on-failure

step "tsan: configure (BNM_SANITIZE=thread)"
# shellcheck disable=SC2046
cmake -B build-tsan -S . $(gen_for build-tsan) -DBNM_SANITIZE=thread

step "tsan: build tests"
cmake --build build-tsan -j --target bnm_tests bnm_resilience_tests bnm_campaign_tests bnm_obs_tests bnm_kernel_tests bnm_fingerprint_tests

step "tsan: ctest (job runner, pool, watchdog thread, campaign, registry, fingerprints)"
# The runner's lock, its pool and the watchdog thread race for real on a
# multi-core host; these suites drive all three at jobs > 1. The obs and
# kernel suites cover the registry's single-writer cells read by
# concurrent snapshots, and the per-thread scheduler storage; the
# fingerprint suite runs the paper matrix at jobs 4. No suppressions: a
# report fails the step.
ctest --test-dir build-tsan --output-on-failure -L 'resilience|campaign|obs|kernel|fingerprint'
ctest --test-dir build-tsan --output-on-failure \
  -R 'ParallelRunner|ThreadPool|CheckedRunner'

step "perf: configure (Release, warnings as errors)"
# -O3 inlines more than the plain build and so warns where it does not
# (GCC's -Wrestrict on inlined std::string code); a new warning fails here.
# shellcheck disable=SC2046
cmake -B build-release -S . $(gen_for build-release) -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_COMPILE_WARNING_AS_ERROR=ON

step "perf: build bench"
cmake --build build-release -j --target perf_matrix obs_overhead \
  campaign_scale passive_scale payload_copy fault_overhead bench_schema_check \
  chaos_matrix campaign passive_pcap

# Each bench writes BENCH_<name>.json into its working directory and exits
# non-zero when one of its declared gates fails (docs/BENCH_SCHEMAS.md
# lists them); check.sh only runs them. Stale files from an earlier run
# must not stand in for a bench that failed to write.
rm -f build-release/BENCH_*.json

step "perf: bench/perf_matrix --runs=4 (identity, engine-overhead and kernel gates)"
# Serial == parallel across the full matrix; the crash-safe engine within
# 1% (disabled) and 10% (checkpointing on) of a bare run_experiment loop,
# or within 1 ms; a scheduler events/sec floor.
(cd build-release && ./bench/perf_matrix --runs=4)

step "obs: bench/obs_overhead --runs=8 (overhead + determinism gates)"
(cd build-release && ./bench/obs_overhead --runs=8)

step "campaign: bench/campaign_scale --clients=100000 (scale + memory gates)"
# A clients/s floor, O(shards) aggregation memory, and 1-shard == 8-shard
# report bytes.
(cd build-release && ./bench/campaign_scale --clients=100000 --runs=1)

step "passive: bench/passive_scale (matcher throughput floor)"
(cd build-release && ./bench/passive_scale)

step "net: bench/payload_copy (bulk echo complete, copy reduction >= 5x)"
(cd build-release && ./bench/payload_copy)

step "faults: bench/fault_overhead (disabled injectors leave results identical)"
(cd build-release && ./bench/fault_overhead)

step "obs: validate this run's BENCH_*.json against docs/BENCH_SCHEMAS.md"
# Strict: unknown, missing or mistyped fields fail, and so does a failed gate.
(cd build-release && ./tools/bench_schema_check BENCH_perf_matrix.json \
  BENCH_obs_overhead.json BENCH_campaign_scale.json BENCH_passive_scale.json \
  BENCH_payload_copy.json BENCH_fault_overhead.json)

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
  "$CHAOS" $flags --checkpoint="$CHAOS_DIR/CHECKPOINT_matrix_${tag}_clean.json" \
    --report="$CHAOS_DIR/REPORT_matrix_${tag}_clean.json" >/dev/null
  # shellcheck disable=SC2086
  "$CHAOS" $flags --checkpoint="$CHAOS_DIR/CHECKPOINT_matrix_${tag}.json" \
    --kill-after=3 >/dev/null || rc=$?
  if [[ "$rc" != 42 ]]; then
    echo "check.sh: FAIL — chaos kill ($tag) exited $rc, expected 42" >&2
    exit 1
  fi
  # shellcheck disable=SC2086
  "$CHAOS" $flags --checkpoint="$CHAOS_DIR/CHECKPOINT_matrix_${tag}.json" --resume \
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
  "$CHAOS_DIR"/CHECKPOINT_matrix_*.json "$CHAOS_DIR"/REPORT_matrix_*.json

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
