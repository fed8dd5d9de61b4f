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
//! A second check couples the fused engine to the REFINE pass: every site
//! the pass emits must run its non-firing path as one site-skip µop.

use refine_campaign::campaign::CampaignConfig;
use refine_campaign::experiments::{run_suite_sharded, SuiteObserver};
use refine_campaign::tools::{PreparedTool, Tool};
use refine_core::{CheckpointOptions, FiOptions};
use refine_ir::passes::OptLevel;
use refine_machine::{MInstr, RtFunc, SuperblockProgram};
use std::collections::HashMap;
use std::fmt::Write;
use std::path::PathBuf;

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/fastpath_counters.txt")
}

const APPS: [&str; 2] = ["HPCCG-1.0", "CoMD"];

/// HPCCG-1.0 and CoMD x 3 tools x 12 trials, seed 7, two workers: one line
/// of counters per campaign.
fn render(label: &str, checkpoint: bool, out: &mut String) {
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
    render("default", true, &mut rendered);
    render("no-checkpoint", false, &mut rendered);
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

/// The site skip matches the exact PreFI/PostFI shape `refine_core::pass`
/// emits; if that emission changes, REFINE trials silently fall back to one
/// µop per instruction. Every site of every suite app must be recognised.
#[test]
fn every_refine_site_is_a_site_skip() {
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
        assert!(!c.sites.is_empty(), "{}: no sites", b.name);
        for site in &c.sites {
            let pc = pre_fi[&site.id];
            assert!(
                sb.is_site_skip(pc),
                "{}: site {} ({}) with PreFI at pc {pc} is not a site skip",
                b.name,
                site.id,
                site.asm
            );
        }
    }
}
