//! The paper's extensibility story (§4.2.4): the compiler only inserts
//! `selInstr`/`setupFI` call sites — the *user* provides the library that
//! decides when and what to flip. This example implements two custom
//! libraries and drives them with `-fi-funcs`/`-fi-instrs` selections from
//! Table 2.
//!
//! Run with: `cargo run --example custom_fi_library`

use refine_core::{compile_with_fi, FiOptions};
use refine_ir::passes::OptLevel;
use refine_machine::{FiRuntime, Machine, RunConfig};

const SOURCE: &str = r#"
fvar field[32];

fn setup() {
    for (i = 0; i < 32; i = i + 1) { field[i] = sin(0.2 * float(i)) + 2.0; }
    return 0;
}

fn relax(sweeps) {
    for (s = 0; s < sweeps; s = s + 1) {
        for (i = 1; i < 31; i = i + 1) {
            field[i] = 0.5 * field[i] + 0.25 * (field[i-1] + field[i+1]);
        }
    }
    return 0;
}

fn main() {
    setup();
    relax(6);
    let sum: float = 0.0;
    for (i = 0; i < 32; i = i + 1) { sum = sum + field[i]; }
    print_f(sum);
    return 0;
}
"#;

/// Custom library #1: a burst injector — flips bit 0 of the first output
/// operand of every 500th target instruction (a multi-fault model the
/// stock single-bit-flip library does not implement).
struct BurstInjector {
    count: u64,
    injections: u64,
}

impl FiRuntime for BurstInjector {
    fn sel_instr(&mut self, _site: u64) -> bool {
        self.count += 1;
        self.count.is_multiple_of(500)
    }
    fn setup_fi(&mut self, _nops: u32, _sizes: &[u32]) -> (u32, u32) {
        self.injections += 1;
        (0, 0)
    }
    fn llfi_inject(&mut self, _site: u64, value: u64, _bits: u32) -> u64 {
        value
    }
}

/// Custom library #2: a site histogrammer — never injects, records which
/// static sites are hottest (useful for targeted campaigns).
struct SiteHistogram {
    hits: std::collections::HashMap<u64, u64>,
}

impl FiRuntime for SiteHistogram {
    fn sel_instr(&mut self, site: u64) -> bool {
        *self.hits.entry(site).or_insert(0) += 1;
        false
    }
    fn setup_fi(&mut self, _nops: u32, _sizes: &[u32]) -> (u32, u32) {
        (0, 0)
    }
    fn llfi_inject(&mut self, _site: u64, value: u64, _bits: u32) -> u64 {
        value
    }
}

fn main() {
    let module = refine_frontend::compile_source(SOURCE).unwrap();

    // Table 2 flag strings drive the instrumentation.
    let opts = FiOptions::parse_flags("-fi=true -fi-funcs=relax -fi-instrs=arithm").unwrap();
    let compiled = compile_with_fi(&module, OptLevel::O2, &opts);
    println!(
        "selective instrumentation: {} sites, all inside: {:?}",
        compiled.sites.len(),
        compiled
            .sites
            .iter()
            .map(|s| s.func.as_str())
            .collect::<std::collections::HashSet<_>>()
    );

    // Drive with the burst injector.
    let mut burst = BurstInjector { count: 0, injections: 0 };
    let r = Machine::run(&compiled.binary, &RunConfig::default(), &mut burst, None);
    println!(
        "burst library: {} dynamic targets, {} injections, outcome {:?}",
        burst.count, burst.injections, r.outcome
    );

    // Drive with the histogrammer on an all-function build.
    let all = compile_with_fi(&module, OptLevel::O2, &FiOptions::all());
    let mut hist = SiteHistogram { hits: Default::default() };
    Machine::run(&all.binary, &RunConfig::default(), &mut hist, None);
    let mut hot: Vec<(u64, u64)> = hist.hits.into_iter().collect();
    hot.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    println!("\nhottest instrumented sites:");
    for (site, n) in hot.iter().take(5) {
        let info = &all.sites[*site as usize];
        println!("  site {:>4} in {:18} `{}` executed {} times", site, info.func, info.asm(), n);
    }
}
