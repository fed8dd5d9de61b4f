#!/usr/bin/env bash
# Full local CI. Every gate here is exact; none times anything:
#   * release build, `cargo test` (which also checks the exact work counters,
#     the work floors and the checkpoint residency gate of
#     tests/integration_fastpath.rs), clippy and rustdoc with warnings
#     denied, and a perfbench type-check;
#   * the full any-state check (fused against exact over 5,940 corrupted
#     golden states: a register or a memory word each), the `--ignored`
#     test, in release;
#   * every example, run once in release with its default arguments;
#   * outcome-table diffs of one short sweep across --jobs counts, with
#     checkpointing, convergence and the fused engine on and off;
#   * the --trace-out file of that sweep: JSON lines, read back by
#     trace-summary, and a failed write exits non-zero;
#   * the stdout of the paper's whole campaign (`all --trials 1068`) against
#     the hash in tests/golden/paper_campaign_digest.txt;
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

echo "== any-state check (full, --ignored, release)"
# `cargo test` runs a pinned 1,980-state instance; the full one runs here,
# in release, where it takes about 20 s on 2 vCPUs.
cargo test --release --offline -q -p refine-campaign --test integration_engine_equiv \
    -- --ignored --exact any_register_value_fused_equals_exact_full --nocapture

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

echo "== table equivalence (--jobs 1, --no-checkpoint, --no-convergence, --engine step)"
# The outcome tables of a short sweep must be bit-identical at any worker
# count and with every fast path off: checkpoint restore, the
# golden-convergence early exit, and the fused engine itself (`--engine
# step` is the exact oracle: every trial interpreted from the initial
# state). Each variant's stdout table is diffed against the traced
# `--jobs 4` default run, whose trace the next step reads.
EXP=target/release/refine-experiments
SWEEP=(table6 --trials 12 --apps HPCCG-1.0,CoMD --seed 7 --quiet)
TRACE=target/ci-trace.jsonl
BASE="$($EXP "${SWEEP[@]}" --jobs 4 --trace-out "$TRACE" 2>/dev/null)"
for pair in "cross-jobs determinism|--jobs 1" \
    "checkpoint equivalence|--jobs 4 --no-checkpoint" \
    "convergence equivalence|--jobs 4 --no-convergence" \
    "engine equivalence|--jobs 4 --engine step"; do
    label="${pair%%|*}" flags="${pair#*|}"
    # shellcheck disable=SC2086 # one word per flag
    OUT="$($EXP "${SWEEP[@]}" $flags 2>/dev/null)"
    if [ "$BASE" != "$OUT" ]; then
        echo "$label FAILED: default --jobs 4 and $flags outputs differ" >&2
        diff <(printf '%s\n' "$BASE") <(printf '%s\n' "$OUT") >&2 || true
        exit 1
    fi
    echo "   $label: identical tables with $flags"
done

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
if $EXP "${SWEEP[@]}" --jobs 4 --trace-out /dev/full >/dev/null 2>&1; then
    echo "trace check FAILED: --trace-out /dev/full exited 0" >&2
    exit 1
fi
echo "   72 JSON lines read back; an unwritable trace exits non-zero"

echo "== paper campaign stdout (all --trials 1068, vs tests/golden/paper_campaign_digest.txt)"
# Every table of the paper's campaign at EXPERIMENTS.md's seed (about 8 s at
# --jobs 2 on 2 vCPUs) must print byte for byte as pinned: a change to any
# outcome count, cycle total or chi-squared figure moves the hash.
# Regenerate the hash only for a deliberate table change, recorded in
# CHANGES.md.
PAPER=(all --trials 1068 --seed 20171112 --jobs 2 --quiet)
want="$(grep -v '^#' tests/golden/paper_campaign_digest.txt)"
got="$($EXP "${PAPER[@]}" 2>/dev/null | sha256sum | cut -d' ' -f1)"
if [ "$got" != "$want" ]; then
    echo "paper campaign digest FAILED: ${PAPER[*]} stdout hashes to $got, expected $want" >&2
    exit 1
fi
echo "   ${PAPER[*]}: $got"

echo "== --json report (engine work counters vs golden, suite counts, metrics keys, phase calls)"
# The engine's per-campaign rows are the only sums of trial work: at
# --jobs 4 they must equal the `default` work-counter lines pinned (at
# --jobs 2) in tests/golden/fastpath_counters.txt, every suite campaign must
# count all 12 trials, and the metrics snapshot must hold only what
# telemetry alone records. Its phase table must count one optimization and
# one artifact prepare per (app, tool): exact call counts, never timings.
$EXP "${SWEEP[@]}" --jobs 4 --json 2>/dev/null \
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
