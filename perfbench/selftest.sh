#!/usr/bin/env bash
# Self-test of the benchmark. For every workload:
#   1. a short untraced run and a short traced run must each print every
#      metric BENCHMARK.json names for that mode, with the same unit, and
#      report no failed operation;
#   2. a run with a deliberately wrong reference answer
#      (--corrupt-reference) must report failed > 0 and exit non-zero.
# Run from anywhere: bash perfbench/selftest.sh [workload ...]
# Every run makes at least 5 rounds of its query list even with
# --seconds 1, so an olap-nested run takes about 40 s, and its traced run
# (5 rounds traced and untraced, then the shard leg) about 100 s.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- "$@"
}

check() { # check <trace 0|1> <expect_failed 0|1> <json line>
    python3 - "$1" "$2" "$3" <<'EOF'
import json, sys
trace, expect_failed, line = sys.argv[1] == "1", sys.argv[2] == "1", sys.argv[3]
spec = json.load(open("BENCHMARK.json"))
want = spec["per_layer"] if trace else spec["end_to_end"]
got = json.loads(line)
assert set(got) == {"correct", "attempted", "failed", "metrics"}, sorted(got)
metrics = got["metrics"]
missing = [m["name"] for m in want if m["name"] not in metrics]
wrong_unit = [m["name"] for m in want if m["name"] in metrics and metrics[m["name"]]["unit"] != m["unit"]]
extra = sorted(set(metrics) - {m["name"] for m in want})
assert not missing, f"missing metrics: {missing}"
assert not wrong_unit, f"wrong units: {wrong_unit}"
assert not extra, f"metrics not in BENCHMARK.json: {extra}"
assert got["attempted"] >= 1
if expect_failed:
    assert got["failed"] > 0 and not got["correct"], "corrupted reference was not caught"
else:
    assert got["failed"] == 0 and got["correct"], f"{got['failed']} operations failed"
print(f"  ok: {len(want)} metrics, attempted={got['attempted']} failed={got['failed']}")
EOF
}

workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(olap-flat olap-nested)
fi
for w in "${workloads[@]}"; do
    for t in 0 1; do
        echo "== $w --trace $t"
        line=$(run --workload "$w" --seed 7 --seconds 1 --trace "$t" | tail -n 1)
        check "$t" 0 "$line"
    done
    echo "== $w --corrupt-reference"
    set +e
    line=$(run --workload "$w" --seed 7 --seconds 1 --trace 0 --corrupt-reference 2>/dev/null | tail -n 1)
    code=$?
    set -e
    if [ "$code" -eq 0 ]; then
        echo "  FAIL: exit status 0 with a corrupted reference" >&2
        exit 1
    fi
    check 0 1 "$line"
    echo "  ok: exit status $code"
done
echo "selftest passed"
