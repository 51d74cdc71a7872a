#!/usr/bin/env bash
# Build and run the end-to-end benchmark (bash + python3 stdlib only).
#
#   bench/e2e/run.sh --workload NAME [--seed N] [--trace [0|1]] [--jobs N]
#                    [--repeat N] [--out DIR]
#   bench/e2e/run.sh --compare DIR_A DIR_B
#   bench/e2e/run.sh --smoke
#   bench/e2e/run.sh --golden
#
# One run prints every metric as "name value unit" and, as its last line,
# {"correct", "attempted", "failed", "metrics"}; it also writes a result file
# under build-bench/results/. --repeat N runs seeds N, N+1, ... into one
# result set and prints per-metric medians and quartiles; --compare checks
# set B against set A with the bounds in BENCHMARK.json. --smoke runs every
# workload at tiny sizes at --jobs 1 and at the default jobs and requires
# identical digests. --golden rewrites golden.json from --jobs 1 runs at the
# default seed. The first run configures and builds bench/e2e (Release) into
# build-bench/; see bench/e2e/README.md.
#
# Every run does a fixed amount of work (12-25 s timed on a 4-core host;
# run_seconds in BENCHMARK.json is the typical length). A --seconds S
# argument is accepted for callers that pass a run length and does not
# change the work.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build_dir="$root/build-bench"
bin="$build_dir/e2e_bench"
workloads=(paper_matrix matrix_crashsafe campaign_population passive_offline)

nproc_=$(nproc 2>/dev/null || echo 1)
default_jobs=$((nproc_ < 4 ? nproc_ : 4))

workload="" seed=42 trace=0 jobs=$default_jobs repeat=0 out=""
mode=run compare_a="" compare_b=""
while (($#)); do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --jobs) jobs="$2"; shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --compare) mode=compare; compare_a="$2"; compare_b="$3"; shift 3 ;;
    --smoke) mode=smoke; shift ;;
    --golden) mode=golden; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

if [[ $mode == compare ]]; then
  exec python3 "$here/stats.py" compare "$root/BENCHMARK.json" \
    "$compare_a" "$compare_b"
fi

# Build (configure once). Build output goes to stderr so stdout ends with
# the result line.
if [[ ! -f "$build_dir/Makefile" ]]; then
  cmake -S "$here" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build_dir" --target e2e_bench -j "$default_jobs" >&2

# Never let git look above the checkout (it may not be a repository).
sha=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
  git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
results="$build_dir/results"
mkdir -p "$results"

# run_one WORKLOAD SEED TRACE JOBS OUTFILE [extra e2e_bench args...]
run_one() {
  local w=$1 s=$2 t=$3 j=$4 f=$5
  shift 5
  "$bin" --workload "$w" --seed "$s" --trace "$t" --jobs "$j" \
    --golden "$here/golden.json" --scratch "$build_dir/tmp" \
    --git-sha "$sha" --out "$f" "$@"
}

last_digest() { python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["digest"])' "$1"; }

case $mode in
  smoke)
    dir="$results/smoke-$$"
    mkdir -p "$dir"
    status=0
    for w in "${workloads[@]}"; do
      for t in 0 1; do
        run_one "$w" "$seed" "$t" 1 "$dir/$w-t$t-j1.json" --smoke >/dev/null
        run_one "$w" "$seed" "$t" "$default_jobs" "$dir/$w-t$t-j$default_jobs.json" \
          --smoke | python3 "$here/stats.py" check-line "$root/BENCHMARK.json" "$t" ||
          status=1
      done
      d1=$(last_digest "$dir/$w-t0-j1.json")
      dn=$(last_digest "$dir/$w-t0-j$default_jobs.json")
      if [[ $d1 == "$dn" ]]; then
        echo "smoke $w: digest $d1 identical at jobs=1 and jobs=$default_jobs"
      else
        echo "smoke $w: digest differs: $d1 (jobs=1) vs $dn (jobs=$default_jobs)"
        status=1
      fi
    done
    exit $status
    ;;
  golden)
    dir="$results/golden-$$"
    mkdir -p "$dir"
    for w in "${workloads[@]}"; do
      echo "golden: $w at jobs=1" >&2
      # Digest mismatches against the old file are expected here.
      run_one "$w" 42 0 1 "$dir/$w.json" >/dev/null || true
    done
    python3 - "$dir" "$here/golden.json" "${workloads[@]}" <<'EOF'
import json, sys
dir_, path, *names = sys.argv[1:]
runs = {n: json.load(open(f"{dir_}/{n}.json")) for n in names}
golden = {"seed": runs[names[0]]["seed"], "jobs": 1,
          "digests": {n: r["digest"] for n, r in runs.items()}}
open(path, "w").write(json.dumps(golden, indent=2) + "\n")
print(json.dumps(golden, indent=2))
EOF
    ;;
  run)
    [[ -n $workload ]] || { echo "run.sh: --workload is required" >&2; exit 2; }
    if ((repeat > 0)); then
      dir="${out:-$results/set-$(date +%Y%m%d-%H%M%S)-$workload-t$trace}"
      mkdir -p "$dir"
      for ((i = 0; i < repeat; i++)); do
        s=$((seed + i))
        echo "run $((i + 1))/$repeat: $workload seed=$s" >&2
        run_one "$workload" "$s" "$trace" "$jobs" "$dir/$workload-s$s.json" |
          tail -n 1 >&2
      done
      python3 "$here/stats.py" summary "$dir"
      echo "result set: $dir"
    else
      run_one "$workload" "$seed" "$trace" "$jobs" \
        "$results/$workload-s$seed-t$trace-$(date +%Y%m%d-%H%M%S)-$$.json"
    fi
    ;;
esac
