//! # simdram-bench — the unified evaluation pipeline
//!
//! One CLI regenerates the whole SIMDRAM evaluation and serializes it to a versioned,
//! machine-readable JSON report with paper-expected ranges and per-datapoint verdicts:
//!
//! ```sh
//! cargo run --release -p simdram-bench -- --suite all --out BENCH_7.json
//! ```
//!
//! The former one-off `fig_*`/`tab_*` binaries are now [`suites`] (see the table there
//! for the suite ↔ paper-figure mapping). Every value is deterministic, so the committed
//! `baseline.json` is compared exactly: by the golden-file test in tier-1, and by the
//! `bench_diff` companion binary, which fails on any changed, missing or new value
//! ([`report::diff`]).
//!
//! The crate is structured as:
//!
//! * [`json`] — a hand-rolled JSON value/writer/parser (no external dependencies);
//! * [`report`] — the `BENCH_*.json` schema: datapoints, expected ranges, verdicts;
//! * [`suites`] — the ten evaluation suites behind `--suite` (including the `serving`
//!   suite exercising the multi-tenant `simdram-serve` layer);
//! * the table-generation functions below, shared by the suites and the Criterion
//!   micro-benchmarks so they stay unit-testable.
//!
//! ## Example
//!
//! Every suite emits [`report::Datapoint`]s; checked ones carry a paper-expected range
//! and verdict:
//!
//! ```
//! use simdram_bench::report::{Datapoint, Expected, Verdict};
//!
//! let dp = Datapoint::checked(
//!     "demo",
//!     "addition/32b".into(),
//!     vec![("throughput_gops", 2.8)],
//!     Expected { metric: "throughput_gops", min: 1.0, max: 10.0 },
//! );
//! assert_eq!(dp.verdict, Verdict::Pass);
//! assert_eq!(dp.metric("throughput_gops"), Some(2.8));
//! ```

pub mod json;
pub mod report;
pub mod suites;

use simdram_apps::{kernel_comparison, paper_kernels, speedup, KernelPlatformCost};
use simdram_baselines::{platform_performance, Platform};
use simdram_dram::variation::{reliability_sweep, ReliabilityPoint};
use simdram_logic::Operation;
use simdram_uprog::{build_program, CodegenOptions, Target};

/// Widths evaluated in the operation-level tables and figures.
pub const WIDTHS: [usize; 4] = [8, 16, 32, 64];

/// One row of the command-count table (experiment T1).
#[derive(Debug, Clone, PartialEq)]
pub struct CommandRow {
    /// The operation.
    pub op: Operation,
    /// Operand width in bits.
    pub width: usize,
    /// DRAM commands in the SIMDRAM (MAJ/NOT) μProgram.
    pub simdram_commands: usize,
    /// DRAM commands in the Ambit-style (AND/OR/NOT) μProgram.
    pub ambit_commands: usize,
}

impl CommandRow {
    /// Command-count reduction of SIMDRAM over Ambit.
    pub fn reduction(&self) -> f64 {
        self.ambit_commands as f64 / self.simdram_commands as f64
    }
}

/// Generates the command-count table for all 16 operations at the given width.
pub fn command_table(width: usize) -> Vec<CommandRow> {
    Operation::ALL
        .iter()
        .map(|&op| CommandRow {
            op,
            width,
            simdram_commands: build_program(
                Target::Simdram,
                op,
                width,
                CodegenOptions::optimized(),
            )
            .command_count(),
            ambit_commands: build_program(Target::Ambit, op, width, CodegenOptions::optimized())
                .command_count(),
        })
        .collect()
}

/// One row of the throughput / energy figures (experiments F1 and F2).
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformRow {
    /// The operation.
    pub op: Operation,
    /// Operand width in bits.
    pub width: usize,
    /// The platform evaluated.
    pub platform: Platform,
    /// Throughput in GOPS.
    pub throughput_gops: f64,
    /// Energy efficiency in GOPS/W.
    pub gops_per_watt: f64,
}

/// Evaluates every (operation, platform) pair at one width.
pub fn platform_table(width: usize) -> Vec<PlatformRow> {
    let mut rows = Vec::new();
    for &op in &Operation::ALL {
        for platform in Platform::paper_set() {
            let perf = platform_performance(platform, op, width);
            rows.push(PlatformRow {
                op,
                width,
                platform,
                throughput_gops: perf.throughput_gops,
                gops_per_watt: perf.gops_per_watt,
            });
        }
    }
    rows
}

/// One row of the kernel-speedup figure (experiment F3).
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel name.
    pub name: &'static str,
    /// Per-platform execution costs.
    pub costs: Vec<KernelPlatformCost>,
    /// Speedup of SIMDRAM:16 over the CPU.
    pub speedup_vs_cpu: f64,
    /// Speedup of SIMDRAM:16 over the GPU.
    pub speedup_vs_gpu: f64,
    /// Speedup of SIMDRAM:16 over Ambit.
    pub speedup_vs_ambit: f64,
}

/// Generates the kernel comparison for the seven application kernels.
pub fn kernel_table() -> Vec<KernelRow> {
    paper_kernels(2024)
        .into_iter()
        .map(|kernel| {
            let costs = kernel_comparison(kernel.as_ref());
            let simdram = Platform::Simdram { banks: 16 };
            KernelRow {
                name: kernel.name(),
                speedup_vs_cpu: speedup(&costs, Platform::Cpu, simdram),
                speedup_vs_gpu: speedup(&costs, Platform::Gpu, simdram),
                speedup_vs_ambit: speedup(&costs, Platform::Ambit, simdram),
                costs,
            }
        })
        .collect()
}

/// Generates the reliability sweep (experiment F4): per-TRA and per-operation failure
/// behaviour as cell-charge variation grows.
pub fn reliability_table(trials: usize) -> Vec<ReliabilityPoint> {
    let add32 = build_program(
        Target::Simdram,
        Operation::Add,
        32,
        CodegenOptions::optimized(),
    );
    reliability_sweep(0.4, 16, trials, add32.tra_count(), 2024)
}

/// One row of the ablation table (experiment A1).
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// The operation.
    pub op: Operation,
    /// Commands with no optimization.
    pub naive: usize,
    /// Commands with only TRA-row reuse enabled.
    pub reuse_only: usize,
    /// Commands with only direct destination writes enabled.
    pub direct_out_only: usize,
    /// Commands with both optimizations (the SIMDRAM default).
    pub optimized: usize,
}

/// Generates the μProgram-optimization ablation table at one width.
pub fn ablation_table(width: usize) -> Vec<AblationRow> {
    Operation::ALL
        .iter()
        .map(|&op| {
            let count = |reuse, direct| {
                build_program(
                    Target::Simdram,
                    op,
                    width,
                    CodegenOptions {
                        reuse_tra_rows: reuse,
                        direct_output_write: direct,
                    },
                )
                .command_count()
            };
            AblationRow {
                op,
                naive: count(false, false),
                reuse_only: count(true, false),
                direct_out_only: count(false, true),
                optimized: count(true, true),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_table_shows_simdram_advantage() {
        let table = command_table(32);
        assert_eq!(table.len(), 16);
        assert!(table
            .iter()
            .all(|row| row.simdram_commands <= row.ambit_commands));
        assert!(table.iter().any(|row| row.reduction() > 2.0));
    }

    #[test]
    fn platform_table_covers_all_combinations() {
        let table = platform_table(8);
        assert_eq!(table.len(), 16 * 6);
    }

    #[test]
    fn kernel_table_has_seven_rows_with_positive_speedups() {
        let table = kernel_table();
        assert_eq!(table.len(), 7);
        for row in &table {
            assert!(row.speedup_vs_ambit > 1.0, "{}", row.name);
            assert!(row.speedup_vs_cpu > 1.0, "{}", row.name);
            assert_eq!(row.costs.len(), 6);
        }
    }

    #[test]
    fn ablation_table_is_monotonic() {
        for row in ablation_table(16) {
            assert!(row.optimized <= row.reuse_only);
            assert!(row.optimized <= row.direct_out_only);
            assert!(row.reuse_only <= row.naive);
            assert!(row.direct_out_only <= row.naive);
        }
    }

    #[test]
    fn reliability_table_starts_reliable_and_degrades() {
        let table = reliability_table(2_000);
        assert_eq!(table.len(), 17);
        assert!(table[0].add32_success_probability > 0.999);
        assert!(table.last().unwrap().tra_failure_probability >= table[0].tra_failure_probability);
    }
}
