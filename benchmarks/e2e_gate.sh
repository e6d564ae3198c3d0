#!/bin/sh
# Host-time gate: three pairs of end-to-end benchmark runs, one on a base
# commit and one on this checkout per pair, judged by compare.py (its
# exit status is the verdict).
#
#     sh benchmarks/e2e_gate.sh BASE_REV OUT_DIR
#
# Run from the repository root.  Both sides use this checkout's
# benchmarks/e2e/ and BENCHMARK.json, so only the program under src/
# differs.  The side that runs first alternates from pair to pair, so
# a host that drifts during the gate does not favour one side.  OUT_DIR
# receives base-{1,2,3}.json and change-{1,2,3}.json.  About 10 minutes
# in all on a 2-vCPU host.
set -eu
base_rev=$1
out=$2
mkdir -p "$out"
base_dir=$(mktemp -d)
trap 'rm -rf "$base_dir"' EXIT
git archive "$base_rev" src | tar -x -C "$base_dir"
tar -c --exclude=out --exclude=__pycache__ benchmarks/e2e BENCHMARK.json \
    | tar -x -C "$base_dir"

run() {
    if [ "$1" = base ]; then
        python3 "$base_dir/benchmarks/e2e/run.py" --seed 0 --json "$out/base-$2.json"
    else
        python3 benchmarks/e2e/run.py --seed 0 --json "$out/change-$2.json"
    fi
}

for i in 1 2 3; do
    if [ "$i" = 2 ]; then
        run change "$i"
        run base "$i"
    else
        run base "$i"
        run change "$i"
    fi
done
python3 benchmarks/e2e/compare.py "$out"/base-*.json -- "$out"/change-*.json
