#!/bin/sh
# A/B perfbench runs: BASE against the working tree, in alternating
# pairs, with the two sides built from checkouts at equal-length paths.
#
#   devtools/ab.sh BASE [--pairs N] [--seconds S] [--workloads W,...]
#                       [--seeds N,...] [--dir DIR]
#
# BASE is any commit. The other side is the working tree's tracked
# files, staged or not (stage new files first), taken with
# `git stash create`, which changes no ref and no file. Both sides are
# exported with `git archive` to DIR/base and DIR/head, equal-length
# sibling paths: perfbench compiles its manifest path in, and a
# difference in that path's length moves glibc's heap placement and
# with it `setup_s` and `peak_rss_mb`. Each side's perfbench is built
# there with `--offline`, from scratch every time.
#
# For every workload and seed, N pairs run with the order alternating
# (base first in even pairs, head first in odd ones). Each run's final
# JSON line is kept in DIR/runs.tsv. The summary prints, per metric,
# both sides' median with the base's quartiles, the median of the
# per-pair head/base ratios, their min and max, how many pairs the head
# won, and whether the simulated metrics (`ipc_speedup`,
# `dram_traffic`) were bit-identical on every run.
#
# Defaults: 10 pairs, 5 s runs, all three workloads, seed 1, DIR
# ${TMPDIR:-/tmp}/triangel-ab.
set -eu

usage() {
    echo "usage: devtools/ab.sh BASE [--pairs N] [--seconds S] [--workloads W,...] [--seeds N,...] [--dir DIR]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
base=$1
shift
pairs=10
seconds=5
workloads=spec_sweep,irregular_stride,mix4_contended
seeds=1
dir=${TMPDIR:-/tmp}/triangel-ab
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    --workloads) workloads=$2 ;;
    --seeds) seeds=$2 ;;
    --dir) dir=$2 ;;
    *) usage ;;
    esac
    shift 2
done
case $pairs in '' | *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage

repo=$(git rev-parse --show-toplevel)
cd "$repo"
base_rev=$(git rev-parse --verify --quiet "$base^{commit}") || {
    echo "ab: unknown base \`$base\`" >&2
    exit 2
}
# A clean tree makes `git stash create` print nothing; then the head
# side is HEAD itself.
head_rev=$(git stash create)
head_rev=${head_rev:-$(git rev-parse HEAD)}

mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
for side in base head; do
    rm -rf "${dir:?}/$side"
    mkdir "$dir/$side"
done
git archive "$base_rev" | tar -x -C "$dir/base"
git archive "$head_rev" | tar -x -C "$dir/head"
for side in base head; do
    echo "ab: building $side" >&2
    cargo build -q --offline --release --manifest-path "$dir/$side/perfbench/Cargo.toml"
done

runs=$dir/runs.tsv
: >"$runs"
run_one() { # side workload seed pair
    bin=$dir/$1/perfbench/target/release/triangel-perfbench
    # Exit 1 means a cell failed (its fingerprint moved, say); the run
    # still reports, and the summary counts the failed cells. Any other
    # failure (a usage error, a crash) leaves no report to read.
    status=0
    "$bin" --workload "$2" --seed "$3" --seconds "$seconds" >"$dir/last.out" 2>"$dir/last.err" || status=$?
    case $status in
    0) ;;
    1) echo "ab: $1 had failed cells on $2 seed $3" >&2 ;;
    *)
        tail -n 5 "$dir/last.err" >&2
        echo "ab: $1 exited $status on $2 seed $3" >&2
        exit 1
        ;;
    esac
    printf '%s\t%s\t%s\t%s\t%s\n' "$2" "$3" "$4" "$1" "$(tail -n 1 "$dir/last.out")" >>"$runs"
}
for wl in $(echo "$workloads" | tr ',' ' '); do
    for seed in $(echo "$seeds" | tr ',' ' '); do
        i=0
        while [ "$i" -lt "$pairs" ]; do
            echo "ab: $wl seed $seed pair $((i + 1))/$pairs" >&2
            if [ $((i % 2)) -eq 0 ]; then
                run_one base "$wl" "$seed" "$i"
                run_one head "$wl" "$seed" "$i"
            else
                run_one head "$wl" "$seed" "$i"
                run_one base "$wl" "$seed" "$i"
            fi
            i=$((i + 1))
        done
    done
done

echo "base $base_rev, head $head_rev, $pairs pairs of ${seconds} s runs"
python3 - "$runs" "$repo/BENCHMARK.json" <<'EOF'
import json, statistics, sys

runs, bench = sys.argv[1], json.load(open(sys.argv[2]))
better = {m["name"]: m["better"] for m in bench["end_to_end"]}
simulated = ("ipc_speedup", "dram_traffic")
cells = {}
for row in open(runs):
    wl, seed, pair, side, line = row.rstrip("\n").split("\t", 4)
    cells.setdefault((wl, seed), {}).setdefault(int(pair), {})[side] = json.loads(line)

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q[0], q[1], q[2]

for (wl, seed), by_pair in cells.items():
    print(f"\n{wl} seed {seed} ({len(by_pair)} pairs)")
    print(f"  {'metric':<16} {'base q1/median/q3':>34} {'head median':>12} "
          f"{'ratio median':>12} {'min':>7} {'max':>7} {'wins':>6}")
    for name, direction in better.items():
        base = [p["base"]["metrics"][name]["value"] for p in by_pair.values()]
        head = [p["head"]["metrics"][name]["value"] for p in by_pair.values()]
        if name in simulated:
            same = len(set(map(repr, base + head))) == 1
            print(f"  {name:<16} {'bit-identical' if same else 'DIFFERS':>34}")
            continue
        ratios = [h / b for b, h in zip(base, head)]
        wins = sum((h > b) if direction == "higher" else (h < b) for b, h in zip(base, head))
        q1, med, q3 = quartiles(base)
        print(f"  {name:<16} {q1:>11.4g}/{med:>10.4g}/{q3:>10.4g} "
              f"{statistics.median(head):>12.4g} {statistics.median(ratios):>12.4f} "
              f"{min(ratios):>7.4f} {max(ratios):>7.4f} {wins:>3}/{len(ratios)}")
    failed = sum(p[s]["failed"] for p in by_pair.values() for s in ("base", "head"))
    if failed:
        print(f"  failed cells: {failed}")
EOF
