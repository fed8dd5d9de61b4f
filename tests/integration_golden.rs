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
//!
//! `compile_digests.txt` pins the compiler's output the same way: one
//! digest per (program, tool) over everything a prepared artifact is built
//! from, so a compiler speed-up that changes a single emitted instruction,
//! site id or site table entry fails here.

use refine_campaign::format_events;
use refine_core::{fnv1a, FiOptions};
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

/// FNV-1a over a binary's text (encoded words), data, entry, string
/// literals and symbols, continued over `sites` (one rendered line each).
fn compile_digest(bin: &refine_machine::Binary, sites: &[String]) -> u64 {
    let mut bytes = Vec::new();
    for w in bin.encode_text().iter().chain(&bin.data) {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes.extend_from_slice(&bin.entry.to_le_bytes());
    for s in &bin.strings {
        bytes.extend_from_slice(s.as_bytes());
        bytes.push(0);
    }
    for s in &bin.symbols {
        bytes.extend_from_slice(s.name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&s.entry.to_le_bytes());
        bytes.extend_from_slice(&s.end.to_le_bytes());
    }
    for s in sites {
        bytes.extend_from_slice(s.as_bytes());
        bytes.push(b'\n');
    }
    fnv1a(&bytes)
}

/// The compiled artifact of every program under every tool, exactly as
/// `PreparedTool::prepare` compiles it (REFINE: `FiOptions::all()`, LLFI:
/// default options, PINFI: the uninstrumented O2 binary), is unchanged:
/// the emitted binary and the REFINE (id, function, disassembly, outputs)
/// and LLFI (id, opcode) site tables.
#[test]
fn compile_digests_match_golden() {
    let path = golden_dir().join("compile_digests.txt");
    let mut rendered = String::from(
        "# fnv1a of (text, data, entry, strings, symbols, sites) per program and tool\n",
    );
    for b in programs() {
        let m = b.module();
        let refine = refine_core::compile_with_fi(&m, OptLevel::O2, &FiOptions::all());
        let refine_sites: Vec<String> = refine
            .sites
            .iter()
            .map(|s| format!("{} {} {} {:?}", s.id, s.func, s.asm(), s.outputs))
            .collect();
        let (llfi, llfi_sites) =
            refine_llfi::compile_with_llfi(&m, OptLevel::O2, &refine_llfi::LlfiOptions::default());
        let llfi_sites: Vec<String> =
            llfi_sites.iter().map(|s| format!("{} {}", s.id, s.opcode)).collect();
        let pinfi = refine_core::compile_with_fi(&m, OptLevel::O2, &FiOptions::default());
        for (tool, bin, sites) in [
            ("llfi", &llfi.binary, &llfi_sites),
            ("refine", &refine.binary, &refine_sites),
            ("pinfi", &pinfi.binary, &Vec::new()),
        ] {
            rendered.push_str(&format!("{} {tool} {:016x}\n", b.name, compile_digest(bin, sites)));
        }
    }
    if std::env::var_os("REFINE_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing {} ({e}); regenerate with REFINE_UPDATE_GOLDEN=1", path.display())
    });
    assert_eq!(
        committed, rendered,
        "compiled artifacts drifted from tests/golden/compile_digests.txt; if \
         intentional, regenerate with REFINE_UPDATE_GOLDEN=1"
    );
}

/// Snapshot hygiene: no stray snapshot files for programs that no longer
/// exist (renames must move their snapshot). The non-program files are
/// the fast-path counter snapshot of `integration_fastpath`, the
/// perfbench digests, paper-campaign stdout hash and suite fusion counters
/// ci.sh checks, and the compile digests above.
#[test]
fn no_orphan_snapshots() {
    let mut known: Vec<String> = programs().iter().map(|b| format!("{}.txt", b.name)).collect();
    known.extend(
        [
            "fastpath_counters.txt",
            "perfbench_digests.txt",
            "compile_digests.txt",
            "paper_campaign_digest.txt",
            "suite_fusion_counters.txt",
        ]
        .map(String::from),
    );
    for entry in std::fs::read_dir(golden_dir()).expect("tests/golden missing") {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            known.contains(&name),
            "orphan snapshot tests/golden/{name}: no such benchmark"
        );
    }
}
