#!/bin/sh
# Host-time gate: five pairs of end-to-end benchmark runs, one on a base
# commit and one on this checkout per pair, judged by compare.py (its
# exit status is the verdict).
#
#     sh benchmarks/e2e_gate.sh BASE_REV OUT_DIR
#
# Run from the repository root.  Both sides use this checkout's
# benchmarks/e2e/ and BENCHMARK.json, so only the program under src/
# differs.  Each side runs from its own fresh tree under $TMPDIR, side
# by side: the base's src/ from git archive, the change's copied from
# this checkout without __pycache__, so neither side starts warm or from
# a different kind of location.  The side that runs first alternates
# from pair to pair, so a host that drifts during the gate does not
# favour one side.  With five runs a side compare.py's quartiles are
# the means of the two outer runs, so one slow reading moves a quartile
# by half its excess, not by all of it.  OUT_DIR receives base-{1..5}.json and change-{1..5}.json.
# About 17 minutes in all on a 2-vCPU host.
set -eu
base_rev=$1
out=$2
mkdir -p "$out"
base_dir=$(mktemp -d)
change_dir=$(mktemp -d)
trap 'rm -rf "$base_dir" "$change_dir"' EXIT
git archive "$base_rev" src | tar -x -C "$base_dir"
tar -c --exclude=__pycache__ src | tar -x -C "$change_dir"
for dir in "$base_dir" "$change_dir"; do
    tar -c --exclude=out --exclude=__pycache__ benchmarks/e2e BENCHMARK.json \
        | tar -x -C "$dir"
done

run() {
    if [ "$1" = base ]; then dir=$base_dir; else dir=$change_dir; fi
    python3 "$dir/benchmarks/e2e/run.py" --seed 0 --json "$out/$1-$2.json"
}

for i in 1 2 3 4 5; do
    if [ $((i % 2)) = 0 ]; then
        run change "$i"
        run base "$i"
    else
        run base "$i"
        run change "$i"
    fi
done
python3 benchmarks/e2e/compare.py "$out"/base-*.json -- "$out"/change-*.json
