//! Exact-work snapshot of the trial fast path.
//!
//! Outcome tables are bit-identical whether or not a trial restores a
//! checkpoint, fuses a block or splices a converged suffix, so they cannot
//! show a change that silently loses fusion or convergence. This test pins
//! the deterministic work counters of a fixed sweep instead: checkpoint
//! restores and skipped instructions, convergence hits and checked/saved
//! instructions, fused dispatches and fused/stepped instructions, per
//! campaign, with the default checkpoint and convergence settings and with
//! checkpointing off. It also pins each campaign's profiling facts
//! (`prof_*`): FI population, profile cycles, and with checkpointing on the
//! golden retired count, checkpoint count and final snapshot interval.
//! Regenerate deliberately with:
//!
//! ```text
//! REFINE_UPDATE_GOLDEN=1 cargo test --test integration_fastpath
//! ```
//!
//! The snapshot catches any drift, but a regeneration can erase it. So the
//! same sweep's counters must first clear work floors, checked before the
//! comparison and before a regeneration writes the file: on every campaign
//! of both sweeps at least 90% of executed instructions run fused, at least
//! 10 per dispatch; with default settings every campaign restores a
//! checkpoint that skips work, every tool converges at least once over its
//! apps, and every (app, tool) executes at most 60% of the instructions it
//! executes with checkpointing off. Nobody can regenerate the snapshot over
//! a build that has lost fusion, checkpoints or convergence.
//!
//! Structural checks couple the fused engine to the instrumentation passes
//! over every suite app: each REFINE site's non-firing path is absorbed by
//! the µop before it or runs as one site-skip µop heading a trace, each
//! LLFI hook triple is one µop, and no no-op µop is dispatched inside a
//! trace. Without them a change in either emission would silently drop
//! trials back to one µop per instruction.

use refine_campaign::campaign::CampaignConfig;
use refine_campaign::engine::CampaignStats;
use refine_campaign::experiments::{run_suite_sharded, SuiteObserver};
use refine_campaign::tools::{PreparedTool, Tool};
use refine_core::{CheckpointOptions, FiOptions};
use refine_ir::passes::OptLevel;
use refine_machine::{Binary, MInstr, RtFunc, SuperblockProgram};
use std::collections::{HashMap, HashSet};
use std::fmt::Write;
use std::path::PathBuf;

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/fastpath_counters.txt")
}

const APPS: [&str; 2] = ["HPCCG-1.0", "CoMD"];

/// HPCCG-1.0 and CoMD x 3 tools x 12 trials, seed 7, two workers: one line
/// of counters per campaign. Hands the campaigns' stats back for the floors.
fn render(label: &str, checkpoint: bool, out: &mut String) -> Vec<CampaignStats> {
    let cfg = CampaignConfig { trials: 12, seed: 7, jobs: 2, checkpoint, ..CampaignConfig::default() };
    let apps = APPS.map(String::from);
    let (_, report) = run_suite_sharded(&cfg, Some(&apps), &SuiteObserver::default(), |_, _| {});
    for s in &report.stats {
        let _ = writeln!(
            out,
            "{label} {} {} ckpt_restores={} ckpt_skipped_instrs={} conv_hits={} \
             conv_checked_instrs={} conv_saved_instrs={} sb_dispatches={} \
             sb_fused_instrs={} sb_stepped_instrs={}",
            s.app,
            s.tool,
            s.ckpt_restores,
            s.ckpt_skipped_instrs,
            s.conv_hits,
            s.conv_checked_instrs,
            s.conv_saved_instrs,
            s.sb_dispatches,
            s.sb_fused_instrs,
            s.sb_stepped_instrs,
        );
    }
    report.stats
}

/// Instructions a campaign's trials executed, fused or stepped.
fn executed(s: &CampaignStats) -> u64 {
    s.sb_fused_instrs + s.sb_stepped_instrs
}

/// The work floors of the module doc, over the default and the
/// checkpoint-off sweep.
fn check_floors(default: &[CampaignStats], cold: &[CampaignStats]) {
    for (label, sweep) in [("default", default), ("no-checkpoint", cold)] {
        for s in sweep {
            let what = format!("{label} {} {}", s.app, s.tool);
            let share = s.sb_fused_instrs as f64 / executed(s).max(1) as f64;
            assert!(share >= 0.9, "{what}: fused share {share:.3} is below 0.9");
            let per = s.sb_fused_instrs as f64 / s.sb_dispatches.max(1) as f64;
            assert!(per >= 10.0, "{what}: {per:.1} fused instructions per dispatch, below 10");
        }
    }
    assert_eq!(default.len(), cold.len());
    for (s, c) in default.iter().zip(cold) {
        assert_eq!((&s.app, &s.tool), (&c.app, &c.tool), "sweeps list campaigns alike");
        let what = format!("default {} {}", s.app, s.tool);
        assert!(
            s.ckpt_restores >= 1 && s.ckpt_skipped_instrs > 0,
            "{what}: no trial skipped work by restoring a checkpoint"
        );
        let ratio = executed(s) as f64 / executed(c).max(1) as f64;
        assert!(ratio <= 0.6, "{what}: executes {ratio:.2} of the checkpoint-off work, above 0.6");
    }
    for tool in Tool::all() {
        let hits: u64 = default.iter().filter(|s| s.tool == tool.name()).map(|s| s.conv_hits).sum();
        assert!(hits >= 1, "default {}: no trial converged on any app", tool.name());
    }
}

/// The same campaigns' profiling runs: one line of facts per campaign.
fn render_profiles(label: &str, ckpt: &CheckpointOptions, out: &mut String) {
    for app in APPS {
        let m = refine_benchmarks::by_name(app).unwrap().module();
        for tool in Tool::all() {
            let p = PreparedTool::prepare_opt(&m, tool, ckpt);
            let _ = write!(
                out,
                "{label} {app} {} prof_population={} prof_cycles={}",
                tool.name(),
                p.population,
                p.profile_cycles
            );
            if let Some(fp) = p.fastpath.as_deref() {
                let _ = write!(
                    out,
                    " prof_golden_retired={} prof_ckpts={} prof_ckpt_interval={}",
                    fp.golden_run.instrs_retired,
                    fp.store.len(),
                    fp.store.interval
                );
            }
            out.push('\n');
        }
    }
}

#[test]
fn fastpath_counters_match_snapshot() {
    let mut rendered = String::new();
    let default = render("default", true, &mut rendered);
    let cold = render("no-checkpoint", false, &mut rendered);
    check_floors(&default, &cold);
    render_profiles("default", &CheckpointOptions::default(), &mut rendered);
    render_profiles("no-checkpoint", &CheckpointOptions::disabled(), &mut rendered);
    let path = snapshot_path();
    if std::env::var_os("REFINE_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing snapshot {} ({e}); regenerate with REFINE_UPDATE_GOLDEN=1", path.display())
    });
    assert_eq!(
        committed, rendered,
        "fast-path work counters drifted from the committed snapshot; if \
         intentional, regenerate with REFINE_UPDATE_GOLDEN=1"
    );
}

/// Every pc some fused µop hands on to: the µops dispatched inside traces,
/// plus the trace ends.
fn linked(sb: &SuperblockProgram) -> HashSet<usize> {
    (0..sb.len()).filter_map(|pc| sb.dispatch(pc)).map(|(_, next)| next).collect()
}

fn llfi_binary(b: &refine_benchmarks::BenchProgram) -> Binary {
    let opts = refine_llfi::LlfiOptions::default();
    refine_llfi::compile_with_llfi(&b.module(), OptLevel::O2, &opts).0.binary
}

/// The site skip matches the exact PreFI/PostFI shape `refine_core::pass`
/// emits; if that emission changes, REFINE trials silently fall back to one
/// µop per instruction. Every site of every suite app must run its
/// non-firing path inside one dispatch: absorbed by the one-instruction µop
/// before it on its trace, or as its own site-skip µop where it heads a
/// trace. No µop may hand on to a site's PreFI, so its skip µop is never
/// dispatched mid-trace.
#[test]
fn every_refine_site_is_a_site_skip() {
    let mut absorbed = 0;
    for b in refine_benchmarks::all() {
        let c = refine_core::compile_with_fi(&b.module(), OptLevel::O2, &FiOptions::all());
        let sb = SuperblockProgram::new(&c.binary);
        // `selInstr(site)` is the fourth instruction of the site's PreFI.
        let pre_fi: HashMap<u64, usize> = c
            .binary
            .text
            .iter()
            .enumerate()
            .filter_map(|(pc, i)| match *i {
                MInstr::CallRt { func: RtFunc::FiSelInstr, imm } => Some((imm, pc.checked_sub(3)?)),
                _ => None,
            })
            .collect();
        let linked = linked(&sb);
        // The first µop handing on to each pc: an absorbing µop hands on
        // where the site it absorbed does, and lies before it.
        let mut first_to: HashMap<usize, usize> = HashMap::new();
        for pc in (0..sb.len()).rev() {
            if let Some((_, next)) = sb.dispatch(pc) {
                first_to.insert(next, pc);
            }
        }
        assert!(!c.sites.is_empty(), "{}: no sites", b.name);
        for site in &c.sites {
            let pc = pre_fi[&site.id];
            let what = format!("{}: site {} ({}) with PreFI at pc {pc}", b.name, site.id, site.asm);
            let Some((len, next)) = sb.dispatch(pc) else {
                panic!("{what} is stepped exactly");
            };
            assert!(len >= 10, "{what} is not a site skip ({len} instructions)");
            assert!(!linked.contains(&pc), "{what} is dispatched inside a trace");
            absorbed += usize::from(first_to[&next] < pc);
        }
    }
    assert!(absorbed > 0, "no suite site is absorbed by the µop before it");
}

/// LLFI's `mov r0 <- x; injectFault; mov y <- r0` plumbing, integer and
/// floating-point, is the identity while the runtime counts: every such
/// triple of every suite app must run as one µop.
#[test]
fn every_llfi_hook_triple_is_one_uop() {
    let mut forms = [0usize; 2];
    for b in refine_benchmarks::all() {
        let binary = llfi_binary(&b);
        let sb = SuperblockProgram::new(&binary);
        for (pc, w) in binary.text.windows(3).enumerate() {
            use MInstr::{CallRt, FMovRR, MovRR};
            use RtFunc::{LlfiInjectF, LlfiInjectI};
            let form = match *w {
                [MovRR { rd: 0, .. }, CallRt { func: LlfiInjectI, .. }, MovRR { ra: 0, .. }] => 0,
                [FMovRR { fd: 0, .. }, CallRt { func: LlfiInjectF, .. }, FMovRR { fa: 0, .. }] => 1,
                _ => continue,
            };
            forms[form] += 1;
            let what = format!("{}: hook triple at pc {pc}", b.name);
            let (len, next) = sb.dispatch(pc).unwrap_or_else(|| panic!("{what} is stepped"));
            assert!(len >= 3 && next >= pc + 3, "{what} is not one µop");
        }
    }
    assert!(forms.iter().all(|&n| n > 0), "suite lacks a hook triple form: {forms:?}");
}

/// A `Nop`, a forward `Jmp` or an LLFI hook does nothing while the runtime
/// counts, so the µop before it links past it: for all three tools' binaries
/// of every suite app, no µop a trace dispatches after another is a no-op.
#[test]
fn no_noop_uop_is_dispatched_inside_a_trace() {
    let noop = |i: &MInstr| {
        matches!(
            i,
            MInstr::Nop
                | MInstr::Jmp { .. }
                | MInstr::CallRt { func: RtFunc::LlfiInjectI | RtFunc::LlfiInjectF, .. }
        )
    };
    let mut linked_past = 0;
    for b in refine_benchmarks::all() {
        let m = b.module();
        let refine = refine_core::compile_with_fi(&m, OptLevel::O2, &FiOptions::all()).binary;
        let plain = refine_core::compile_with_fi(&m, OptLevel::O2, &FiOptions::default()).binary;
        let llfi = llfi_binary(&b);
        let programs = [
            (SuperblockProgram::new(&refine), &refine, "REFINE"),
            (SuperblockProgram::new(&llfi), &llfi, "LLFI"),
            (SuperblockProgram::probed(&plain), &plain, "PINFI"),
        ];
        for (sb, binary, tool) in &programs {
            for next in linked(sb) {
                // A trace end is stepped, not dispatched.
                if sb.dispatch(next).is_some() {
                    let i = &binary.text[next];
                    assert!(!noop(i), "{} {tool}: no-op {i:?} at pc {next} dispatched", b.name);
                }
            }
            linked_past += binary
                .text
                .iter()
                .enumerate()
                .filter(|&(pc, i)| noop(i) && sb.dispatch(pc).is_some())
                .count();
        }
    }
    assert!(linked_past > 0, "the suite has no fused no-op to link past");
}
