#!/usr/bin/env bash
# Full local CI. Every gate here is exact; none times anything:
#   * release build, `cargo test` (which also checks the exact work counters,
#     the work floors and the checkpoint residency gate of
#     tests/integration_fastpath.rs), clippy and rustdoc with warnings
#     denied, and a perfbench type-check;
#   * every example, run once in release with its default arguments;
#   * outcome-table diffs of one short sweep across --jobs counts, with
#     checkpointing, convergence and the fused engine on and off;
#   * the --trace-out file of that sweep: JSON lines, read back by
#     trace-summary, and a failed write exits non-zero;
#   * traced perfbench exact-facts digests against
#     tests/golden/perfbench_digests.txt.
# Wall-clock claims live in perfbench (`python3 perfbench/run.py`, medians
# over rounds), not here.
# All cargo invocations run --offline against the vendored workspace deps.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release"
cargo build --release --offline

echo "== cargo test"
cargo test -q --offline

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc (deny warnings, refine-* crates)"
# Every intra-doc link must resolve, so docs naming a deleted item fail
# here. The vendored stand-ins under vendor/ are not gated.
DOC_PKGS="$(awk -F'"' '/^name/ {print "-p " $2; nextfile}' crates/*/Cargo.toml)"
# shellcheck disable=SC2086 # one word per flag
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline $DOC_PKGS

echo "== perfbench type-check"
# The benchmark harness is a workspace of its own, so the steps above never
# build it; check it here so renaming a public item it uses fails before
# merge. Only builds it (into perfbench/target), never modifies it.
cargo check --offline --quiet --manifest-path perfbench/Cargo.toml

echo "== examples (each run once with its default arguments)"
# `cargo test` only compiles the examples; run each so one that panics or
# exits non-zero fails here.
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    cargo run --release --offline --quiet -p refine-campaign --example "$name" >/dev/null
    echo "   $name exited 0"
done

echo "== cross-jobs determinism (--jobs 1 vs --jobs 4)"
# The outcome tables must be bit-identical at any worker count; diff the
# stdout tables of a short sweep run serially and sharded.
EXP=target/release/refine-experiments
J1="$($EXP table6 --trials 12 --apps HPCCG-1.0,CoMD --seed 7 --jobs 1 --quiet 2>/dev/null)"
TRACE=target/ci-trace.jsonl
J4="$($EXP table6 --trials 12 --apps HPCCG-1.0,CoMD --seed 7 --jobs 4 --quiet \
    --trace-out "$TRACE" 2>/dev/null)"
if [ "$J1" != "$J4" ]; then
    echo "determinism check FAILED: --jobs 1 and --jobs 4 outputs differ" >&2
    diff <(printf '%s\n' "$J1") <(printf '%s\n' "$J4") >&2 || true
    exit 1
fi
echo "   identical tables at both job counts"

echo "== --trace-out (JSON lines, trace-summary, failed write)"
# Tracing must not change the tables (checked above). Every trace line is
# standard JSON, trace-summary reads all 2 apps x 3 tools x 12 trials
# back, and a trace that cannot be written fails the run.
python3 -c '
import json, sys
for n, line in enumerate(open(sys.argv[1]), 1):
    try:
        json.loads(line)
    except ValueError as e:
        sys.exit(f"trace line {n} is not JSON: {e}")
' "$TRACE"
SUMMARY="$($EXP trace-summary "$TRACE")"
if ! printf '%s\n' "$SUMMARY" | grep -q '^72 records total'; then
    echo "trace check FAILED: trace-summary did not report 72 records" >&2
    printf '%s\n' "$SUMMARY" >&2
    exit 1
fi
if $EXP table6 --trials 12 --apps HPCCG-1.0,CoMD --seed 7 --jobs 4 --quiet \
    --trace-out /dev/full >/dev/null 2>&1; then
    echo "trace check FAILED: --trace-out /dev/full exited 0" >&2
    exit 1
fi
echo "   72 JSON lines read back; an unwritable trace exits non-zero"

echo "== --json report (engine work counters vs golden, suite counts, metrics keys, phase calls)"
# The engine's per-campaign rows are the only sums of trial work: at
# --jobs 4 they must equal the `default` work-counter lines pinned (at
# --jobs 2) in tests/golden/fastpath_counters.txt, every suite campaign must
# count all 12 trials, and the metrics snapshot must hold only what
# telemetry alone records. Its phase table must count one optimization and
# one artifact prepare per (app, tool): exact call counts, never timings.
$EXP table6 --trials 12 --apps HPCCG-1.0,CoMD --seed 7 --jobs 4 --quiet --json 2>/dev/null \
    | python3 -c '
import json, sys
report = json.load(sys.stdin)
want = {}
for line in open(sys.argv[1]):
    f = line.split()
    if f and f[0] == "default" and "ckpt_restores=" in line:
        want[(f[1], f[2])] = {k: int(v) for k, v in (x.split("=") for x in f[3:])}
got = {(c["app"], c["tool"]): {k: c[k] for k in want.get((c["app"], c["tool"]), {})}
       for c in report["engine"]["campaigns"]}
if len(want) != 6 or got != want:
    sys.exit(f"engine work counters differ from the golden:\n got  {got}\n want {want}")
suite = report["suite"]
if [a["name"] for a in suite["apps"]] != ["HPCCG-1.0", "CoMD"] or any(
        sum(a[t]["counts"].values()) != suite["trials"] for a in suite["apps"] for t in ("llfi", "refine", "pinfi")):
    sys.exit(f"suite results do not hold 12 trials per campaign: {suite}")
keys = sorted(report["metrics"])
if keys != sorted(["trial_latency_ns", "trial_instrs", "trial_cycles", "traps", "phases"]):
    sys.exit(f"unexpected metrics keys: {keys}")
calls = {p["name"]: p["calls"] for p in report["metrics"]["phases"]["phases"]}
if (calls.get("optimize"), calls.get("prepare-artifact")) != (6, 6):
    sys.exit(f"phases must count 6 optimize and 6 prepare-artifact calls (2 apps x 3 tools): {calls}")
' tests/golden/fastpath_counters.txt
echo "   six campaigns match the golden counters and count every trial; metrics holds five keys;"
echo "   phases count 6 optimize and 6 prepare-artifact calls"

echo "== checkpoint equivalence (default vs --no-checkpoint)"
# Trial fast-forward must be invisible in every output: diff a short sweep
# with checkpointing on (default) against the exact interpreter path.
CK="$($EXP table6 --trials 12 --apps HPCCG-1.0,CoMD --seed 7 --jobs 4 --quiet 2>/dev/null)"
NC="$($EXP table6 --trials 12 --apps HPCCG-1.0,CoMD --seed 7 --jobs 4 --quiet --no-checkpoint 2>/dev/null)"
if [ "$CK" != "$NC" ]; then
    echo "checkpoint equivalence FAILED: default and --no-checkpoint outputs differ" >&2
    diff <(printf '%s\n' "$CK") <(printf '%s\n' "$NC") >&2 || true
    exit 1
fi
echo "   identical tables with checkpointing on and off"

echo "== convergence equivalence (default vs --no-convergence)"
# The golden-convergence early exit must be invisible too: diff the same
# sweep with the detector armed (default) against checkpoint-only trials.
NV="$($EXP table6 --trials 12 --apps HPCCG-1.0,CoMD --seed 7 --jobs 4 --quiet --no-convergence 2>/dev/null)"
if [ "$CK" != "$NV" ]; then
    echo "convergence equivalence FAILED: default and --no-convergence outputs differ" >&2
    diff <(printf '%s\n' "$CK") <(printf '%s\n' "$NV") >&2 || true
    exit 1
fi
echo "   identical tables with convergence on and off"

echo "== engine equivalence (default superblock vs --engine step)"
# The fused engine must be invisible in every output: diff the default
# sweep against `--engine step`, the exact oracle (every trial interpreted
# from the initial state, no checkpoint restore, no convergence splice).
ST="$($EXP table6 --trials 12 --apps HPCCG-1.0,CoMD --seed 7 --jobs 4 --quiet --engine step 2>/dev/null)"
if [ "$CK" != "$ST" ]; then
    echo "engine equivalence FAILED: superblock and step outputs differ" >&2
    diff <(printf '%s\n' "$CK") <(printf '%s\n' "$ST") >&2 || true
    exit 1
fi
echo "   identical tables under both engines"

echo "== perfbench exact-facts digests (traced, vs tests/golden/perfbench_digests.txt)"
# A traced perfbench run replays its reference sweep on the exact oracle and
# prints a digest of the exact facts: population, profile cycles, checkpoint
# facts, outcome tables and work counters. Compare against the committed
# digests, so the oracle cross-check runs here too.
grep -v '^#' tests/golden/perfbench_digests.txt | while read -r workload seed want; do
    got="$(python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds 4 --trace 1 \
        2>&1 >/dev/null | sed -n 's/^perfbench: exact-facts digest //p')"
    if [ "$got" != "$want" ]; then
        echo "perfbench digest FAILED: $workload seed $seed printed '$got', expected $want" >&2
        exit 1
    fi
    echo "   $workload seed $seed: $got"
done

echo "CI OK"
