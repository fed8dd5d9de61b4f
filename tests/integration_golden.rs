//! Golden-output snapshot tests: the committed fault-free output of every
//! suite program (all 14) plus the extras (matmul), compared line by line
//! against both executable semantics.
//!
//! The snapshots under `tests/golden/` are the repository's record of what
//! "benign" means — a compiler or machine change that alters any of them
//! silently re-labels campaign outcomes, so it must show up as a diff here.
//! Regenerate deliberately with:
//!
//! ```text
//! REFINE_UPDATE_GOLDEN=1 cargo test --test integration_golden
//! ```

use refine_campaign::format_events;
use refine_ir::interp::{Interp, OutEvent as IrEvent};
use refine_ir::passes::OptLevel;
use refine_machine::{Machine, NoFi, OutEvent as MEvent, RunConfig, RunOutcome};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn snapshot_path(name: &str) -> PathBuf {
    golden_dir().join(format!("{name}.txt"))
}

fn programs() -> Vec<refine_benchmarks::BenchProgram> {
    let mut all = refine_benchmarks::all();
    all.extend(refine_benchmarks::extras());
    all
}

/// The program's fault-free output lines from the compiled O2 binary.
fn machine_lines(b: &refine_benchmarks::BenchProgram) -> Vec<String> {
    let bin = refine_mir::compile(&b.module(), OptLevel::O2);
    let r = Machine::run(&bin, &RunConfig::default(), &mut NoFi, None);
    assert_eq!(r.outcome, RunOutcome::Exit(0), "{}", b.name);
    format_events(&r.output)
}

fn ir_events_to_machine(ev: &[IrEvent]) -> Vec<MEvent> {
    ev.iter()
        .map(|e| match e {
            IrEvent::I64(v) => MEvent::I64(*v),
            IrEvent::F64(v) => MEvent::F64(*v),
            IrEvent::Str(s) => MEvent::Str(s.clone()),
        })
        .collect()
}

#[test]
fn golden_outputs_match_snapshots() {
    let update = std::env::var_os("REFINE_UPDATE_GOLDEN").is_some();
    if update {
        std::fs::create_dir_all(golden_dir()).unwrap();
    }
    let mut checked = 0;
    for b in programs() {
        let lines = machine_lines(&b);
        assert!(!lines.is_empty(), "{}: no output", b.name);
        let path = snapshot_path(b.name);
        let rendered = format!("{}\n", lines.join("\n"));
        if update {
            std::fs::write(&path, &rendered).unwrap();
        } else {
            let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "{}: missing snapshot {} ({e}); regenerate with \
                     REFINE_UPDATE_GOLDEN=1",
                    b.name,
                    path.display()
                )
            });
            assert_eq!(
                committed, rendered,
                "{}: golden output drifted from the committed snapshot; if \
                 intentional, regenerate with REFINE_UPDATE_GOLDEN=1",
                b.name
            );
        }
        checked += 1;
    }
    assert_eq!(checked, 15, "14 suite programs + matmul");
}

/// The interpreter reproduces the same snapshots — so a drift in either
/// semantics (not just codegen) is caught against the committed record.
#[test]
fn interpreter_matches_snapshots() {
    for b in programs() {
        let oracle = Interp::new(&b.module(), 100_000_000)
            .run()
            .unwrap_or_else(|e| panic!("{}: interp: {e}", b.name));
        assert_eq!(oracle.exit_code, 0, "{}", b.name);
        let lines = format_events(&ir_events_to_machine(&oracle.output));
        let committed = std::fs::read_to_string(snapshot_path(b.name))
            .unwrap_or_else(|e| panic!("{}: missing snapshot: {e}", b.name));
        assert_eq!(
            committed,
            format!("{}\n", lines.join("\n")),
            "{}: interpreter output drifted from snapshot",
            b.name
        );
    }
}

/// Snapshot hygiene: no stray snapshot files for programs that no longer
/// exist (renames must move their snapshot). The fast-path counter
/// snapshot of `integration_fastpath` is the one non-program file.
#[test]
fn no_orphan_snapshots() {
    let mut known: Vec<String> = programs().iter().map(|b| format!("{}.txt", b.name)).collect();
    known.push("fastpath_counters.txt".to_string());
    for entry in std::fs::read_dir(golden_dir()).expect("tests/golden missing") {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            known.contains(&name),
            "orphan snapshot tests/golden/{name}: no such benchmark"
        );
    }
}
