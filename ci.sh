#!/usr/bin/env bash
# Full local CI. Every gate here is exact; none times anything:
#   * release build, `cargo test` (which also checks the exact work counters
#     and work floors of tests/integration_fastpath.rs), clippy and rustdoc
#     with warnings denied, and a perfbench type-check;
#   * outcome-table diffs of one short sweep across --jobs counts, with
#     checkpointing, convergence and the fused engine on and off;
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

echo "== cross-jobs determinism (--jobs 1 vs --jobs 4)"
# The outcome tables must be bit-identical at any worker count; diff the
# stdout tables of a short sweep run serially and sharded.
EXP=target/release/refine-experiments
J1="$($EXP table6 --trials 12 --apps HPCCG-1.0,CoMD --seed 7 --jobs 1 --quiet 2>/dev/null)"
J4="$($EXP table6 --trials 12 --apps HPCCG-1.0,CoMD --seed 7 --jobs 4 --quiet 2>/dev/null)"
if [ "$J1" != "$J4" ]; then
    echo "determinism check FAILED: --jobs 1 and --jobs 4 outputs differ" >&2
    diff <(printf '%s\n' "$J1") <(printf '%s\n' "$J4") >&2 || true
    exit 1
fi
echo "   identical tables at both job counts"

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
