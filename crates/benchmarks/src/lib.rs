#![warn(missing_docs)]

//! `refine-benchmarks` — MiniLang mini-kernels of the paper's 14 HPC
//! benchmark programs (Table 3).
//!
//! Each program is a deterministic, single-threaded reduction of the real
//! application's computational core: the same loop/array/call structure and
//! arithmetic mix, scaled so one run executes tens of thousands of machine
//! instructions (the campaign executes 44,856 runs, as in the paper). Each
//! prints a small set of final results — the golden output used for Silent
//! Output Corruption classification.
//!
//! | name      | kernel reproduced |
//! |-----------|-------------------|
//! | AMG2013   | two-level multigrid V-cycles, Jacobi smoother, 2-D Poisson |
//! | CoMD      | Lennard-Jones molecular dynamics, O(N²) forces, velocity Verlet |
//! | HPCCG-1.0 | conjugate gradient on a 3-D 7-point Laplacian |
//! | lulesh    | 1-D staggered-grid Lagrangian shock hydro (Sod problem) |
//! | XSBench   | unionized-energy-grid macroscopic cross-section lookups |
//! | miniFE    | structured finite-element assembly + CG solve |
//! | BT        | block-tridiagonal ADI: per-line Thomas solves in 3 dims |
//! | CG        | NPB CG: sparse matvec power iteration with shift |
//! | DC        | data-cube group-by aggregation over generated tuples |
//! | EP        | NPB EP: Marsaglia polar acceptance + Gaussian tallies |
//! | FT        | radix-2 complex FFT rows + spectral evolution |
//! | LU        | SSOR sweeps over a coupled 5-equation grid |
//! | SP        | scalar-pentadiagonal ADI sweeps |
//! | UA        | unstructured adaptive proxy: irregular gather/scatter + refinement |

pub mod programs;

use refine_ir::Module;

/// One benchmark program of the suite.
#[derive(Debug, Clone)]
pub struct BenchProgram {
    /// Paper name (Table 3).
    pub name: &'static str,
    /// What the mini-kernel reproduces.
    pub description: &'static str,
    /// The input configuration (our analogue of Table 3's input column).
    pub input: &'static str,
    /// MiniLang source.
    pub source: &'static str,
}

impl BenchProgram {
    /// Compile the program to IR.
    pub fn module(&self) -> Module {
        refine_frontend::compile_source(self.source)
            .unwrap_or_else(|e| panic!("benchmark {} failed to compile: {e}", self.name))
    }
}

/// The full suite, in the paper's presentation order.
pub fn all() -> Vec<BenchProgram> {
    vec![
        programs::amg2013(),
        programs::comd(),
        programs::hpccg(),
        programs::lulesh(),
        programs::xsbench(),
        programs::minife(),
        programs::bt(),
        programs::cg(),
        programs::dc(),
        programs::ep(),
        programs::ft(),
        programs::lu(),
        programs::sp(),
        programs::ua(),
    ]
}

/// Extra demo programs reachable by name but not part of the paper's
/// 14-app suite (so [`all`] keeps the paper's presentation exactly).
pub fn extras() -> Vec<BenchProgram> {
    vec![programs::matmul()]
}

/// Look a benchmark up by name, searching the paper suite and the extras.
pub fn by_name(name: &str) -> Option<BenchProgram> {
    all().into_iter().chain(extras()).find(|b| b.name == name)
}

/// [`by_name`], or for a name it does not know the message naming every
/// name it does.
pub fn lookup(name: &str) -> Result<BenchProgram, String> {
    by_name(name).ok_or_else(|| {
        let valid: Vec<_> = all().iter().chain(&extras()).map(|b| b.name).collect();
        format!("unknown benchmark `{name}` (valid: {})", valid.join(", "))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use refine_ir::interp::Interp;

    #[test]
    fn suite_has_fourteen_programs() {
        let suite = all();
        assert_eq!(suite.len(), 14);
        let mut names: Vec<_> = suite.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 14, "names must be unique");
    }

    #[test]
    fn lookup_of_an_unknown_name_lists_every_valid_one() {
        assert_eq!(lookup("CoMD").map(|b| b.name), Ok("CoMD"));
        let err = lookup("nope").map(|b| b.name).unwrap_err();
        assert!(err.starts_with("unknown benchmark `nope` (valid: AMG2013, CoMD, "), "{err}");
        assert!(err.ends_with(", UA, matmul)"), "{err}");
    }

    #[test]
    fn every_program_compiles_and_runs_clean() {
        for b in all() {
            let m = b.module();
            let r = Interp::new(&m, 80_000_000)
                .run()
                .unwrap_or_else(|e| panic!("{} failed: {e}", b.name));
            assert_eq!(r.exit_code, 0, "{} must exit 0", b.name);
            assert!(
                r.output.len() >= 2,
                "{} must print at least a couple of results",
                b.name
            );
        }
    }

    #[test]
    fn outputs_are_deterministic() {
        for b in all() {
            let m = b.module();
            let r1 = Interp::new(&m, 80_000_000).run().unwrap();
            let r2 = Interp::new(&m, 80_000_000).run().unwrap();
            assert_eq!(r1.output, r2.output, "{} must be deterministic", b.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("HPCCG-1.0").is_some());
        assert!(by_name("UA").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn extras_run_clean_but_stay_out_of_the_suite() {
        for b in extras() {
            assert!(all().iter().all(|s| s.name != b.name), "{} is suite-only", b.name);
            assert!(by_name(b.name).is_some());
            let r = Interp::new(&b.module(), 80_000_000)
                .run()
                .unwrap_or_else(|e| panic!("{} failed: {e}", b.name));
            assert_eq!(r.exit_code, 0, "{} must exit 0", b.name);
            assert!(r.output.len() >= 2);
        }
        assert_eq!(by_name("matmul").unwrap().name, "matmul");
    }
}
