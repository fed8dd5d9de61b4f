//! `minicc` — the toolchain driver (the workspace's `clang`): compile and
//! run MiniLang programs, optionally with fault-injection instrumentation.
//!
//! ```text
//! minicc <file.ml> [options]
//!
//!   --emit ir|ir-opt|asm|sites    print an artifact instead of running
//!   --O0                          disable IR optimization (default -O2)
//!   --fi "<flags>"                REFINE flags, e.g. "-fi=true -fi-funcs=* -fi-instrs=all"
//!   --llfi                        instrument with the LLFI baseline instead
//!   --run                         execute and print the program output (default)
//!   --profile                     run the FI profiling phase (population + golden)
//!   --inject <target> [--seed N]  run one fault-injection trial and classify it
//!   --stats                       print static/dynamic instruction statistics
//!   --times                       print a per-phase compile-time table on stderr
//! ```
//!
//! Examples:
//!
//! ```text
//! minicc kernel.ml --run
//! minicc kernel.ml --emit asm
//! minicc kernel.ml --fi "-fi=true -fi-funcs=solve_* -fi-instrs=arithm" --profile
//! minicc kernel.ml --fi "-fi=true -fi-funcs=* -fi-instrs=all" --inject 5000 --seed 7
//! ```

use refine_campaign::{classify, format_events, Golden};
use refine_core::{compile_with_fi, FiOptions, InjectingRt, ProfilingRt};
use refine_ir::passes::OptLevel;
use refine_machine::{Machine, NoFi, RunConfig, RunOutcome};

fn usage() -> ! {
    eprintln!(
        "usage: minicc <file.ml> [--emit ir|ir-opt|asm|sites] [--O0] \
         [--fi \"<flags>\"] [--llfi] [--run|--profile|--stats] \
         [--inject <target>] [--seed N] [--times]"
    );
    std::process::exit(2);
}

enum Mode {
    Run,
    Profile,
    Stats,
    Inject(u64),
    Emit(String),
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut file = None;
    let mut mode = Mode::Run;
    let mut level = OptLevel::O2;
    let mut fi = FiOptions::default();
    let mut llfi = false;
    let mut seed = 42u64;
    let mut times = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--emit" => {
                i += 1;
                mode = Mode::Emit(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--O0" => level = OptLevel::O0,
            "--fi" => {
                i += 1;
                fi = FiOptions::parse_flags(args.get(i).unwrap_or_else(|| usage()))
                    .unwrap_or_else(|e| {
                        eprintln!("minicc: {e}");
                        std::process::exit(2);
                    });
            }
            "--llfi" => llfi = true,
            "--run" => mode = Mode::Run,
            "--profile" => mode = Mode::Profile,
            "--stats" => mode = Mode::Stats,
            "--inject" => {
                i += 1;
                mode = Mode::Inject(
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()),
                );
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--times" => times = true,
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    let file = file.unwrap_or_else(|| usage());
    if times {
        refine_telemetry::enable();
    }
    let source = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        eprintln!("minicc: cannot read {file}: {e}");
        std::process::exit(1);
    });
    let module = refine_frontend::compile_source(&source).unwrap_or_else(|e| {
        eprintln!("minicc: {file}: {e}");
        std::process::exit(1);
    });

    let print_times = |when: &str| {
        if times {
            eprintln!("minicc: phase times ({when})");
            eprint!(
                "{}",
                refine_telemetry::span::render_phase_table(
                    &refine_telemetry::Phase::snapshot_all()
                )
            );
        }
    };

    // --emit ir / ir-opt print and exit before backend work.
    if let Mode::Emit(what) = &mode {
        match what.as_str() {
            "ir" => {
                print!("{}", refine_ir::printer::print_module(&module));
                print_times("frontend only");
                return;
            }
            "ir-opt" => {
                let mut m = module.clone();
                refine_mir::optimize(&mut m, level);
                print!("{}", refine_ir::printer::print_module(&m));
                print_times("frontend + optimizer");
                return;
            }
            _ => {}
        }
    }

    let compiled = if llfi {
        let (c, sites) =
            refine_llfi::compile_with_llfi(&module, level, &refine_llfi::LlfiOptions::default());
        eprintln!("minicc: LLFI instrumented {} IR sites", sites.len());
        c
    } else {
        compile_with_fi(&module, level, &fi)
    };
    print_times("full compile");

    match mode {
        Mode::Emit(what) => match what.as_str() {
            "asm" => {
                for sym in &compiled.binary.symbols {
                    println!("{}", compiled.binary.disasm(&sym.name).unwrap());
                }
            }
            "sites" => {
                for s in &compiled.sites {
                    println!("site {:>5}  {:20} {}", s.id, s.func, s.asm());
                }
                eprintln!("minicc: {} static sites", compiled.sites.len());
            }
            other => {
                eprintln!("minicc: unknown --emit kind `{other}`");
                std::process::exit(2);
            }
        },
        Mode::Run => {
            let r = Machine::run(&compiled.binary, &RunConfig::default(), &mut NoFi, None);
            for line in format_events(&r.output) {
                println!("{line}");
            }
            match r.outcome {
                RunOutcome::Exit(code) => std::process::exit(code as i32),
                other => {
                    eprintln!("minicc: program did not exit cleanly: {other:?}");
                    std::process::exit(101);
                }
            }
        }
        Mode::Stats => {
            let r = Machine::run(&compiled.binary, &RunConfig::default(), &mut NoFi, None);
            println!("static instructions : {}", compiled.binary.text.len());
            println!("functions           : {}", compiled.binary.symbols.len());
            println!("dynamic instructions: {}", r.instrs_retired);
            println!("cycles              : {}", r.cycles);
            println!("outcome             : {:?}", r.outcome);
        }
        Mode::Profile => {
            let mut rt = ProfilingRt::default();
            let r = Machine::run(&compiled.binary, &RunConfig::default(), &mut rt, None);
            println!("dynamic FI targets : {}", rt.count);
            println!("profile cycles     : {}", r.cycles);
            println!("golden output      :");
            for line in format_events(&r.output) {
                println!("  {line}");
            }
        }
        Mode::Inject(target) => {
            if compiled.sites.is_empty() {
                eprintln!("minicc: --inject requires --fi \"-fi=true ...\"");
                std::process::exit(2);
            }
            let mut prof = ProfilingRt::default();
            let profile = Machine::run(&compiled.binary, &RunConfig::default(), &mut prof, None);
            let golden = Golden::from_run(&profile);
            let cfg = RunConfig {
                max_cycles: profile.cycles.saturating_mul(10),
                stack_words: 1 << 16,
            };
            let mut inj = InjectingRt::new(target, seed);
            let r = Machine::run(&compiled.binary, &cfg, &mut inj, None);
            match inj.log {
                Some(log) => println!(
                    "fault: dynamic instr {} (site {}), operand {}, bit {}",
                    log.dynamic_index, log.site, log.operand, log.bit
                ),
                None => println!("fault: did not fire (target {target} > population {})", prof.count),
            }
            println!("outcome: {} ({:?})", classify(&golden, &r).label(), r.outcome);
            for line in format_events(&r.output) {
                println!("  {line}");
            }
        }
    }
}
