//! Estimate suite (new): functionally executes every bbop on a small machine and
//! cross-checks the **trace-driven** estimation engine (`simdram_core::estimate`)
//! against the analytic performance model.
//!
//! The functional simulator issues exactly the μProgram's command sequence, so the
//! per-operation latency/energy measured from the executed [`simdram_dram::CommandTrace`]s
//! must agree with the analytic `latency_ns`/`energy_nj` to floating-point accuracy.
//! A drift here means either the executor issued commands the model does not account
//! for, or the model charges costs the hardware would not pay — both bugs the paper's
//! figures would silently inherit.

use simdram_core::{SimdramConfig, SimdramMachine};
use simdram_dram::{CommandCosts, DramConfig, Subarray};
use simdram_logic::{word_mask, Operation};
use simdram_uprog::{execute, CompiledProgram, MicroProgramLibrary, RowBinding};

use crate::report::{Datapoint, Expected};

const SUITE: &str = "estimate";

/// Operand width of the functional cross-check (kept narrow so all 16 μPrograms execute
/// in milliseconds).
pub const WIDTH: usize = 8;

/// Elements per operation: spans two of the functional-test machine's subarrays, so the
/// broadcast genuinely fans out and the max-over-chunks latency semantics are exercised.
pub const ELEMENTS: usize = 300;

/// Tolerated relative difference between trace-measured and analytic values. The two
/// sides sum identical per-command costs, only in different groupings, so anything above
/// a few ULPs is a real modelling bug.
pub const REL_TOLERANCE: f64 = 1e-12;

/// Minimum compiled-over-interpreted simulator speedup the report requires (the PR's
/// headline ≥5× target; the measured ratio is recorded in `simspeed_compiled`).
pub const MIN_COMPILED_SPEEDUP: f64 = 5.0;

/// Timed attempts per engine; each engine reports its fastest. Preemption only ever
/// adds time, so the minimum rejects scheduler noise without averaging it in, and
/// many short attempts give it many chances to land in a quiet stretch.
const SIMSPEED_ATTEMPTS: usize = 30;

/// Back-to-back sweeps inside each timed attempt. One sweep is only tens of
/// microseconds — comparable to a single scheduler preemption — so timing it alone
/// makes the ratio noisy under a loaded host (e.g. `cargo test`'s parallel binaries).
/// Repeating the sweep amortizes that noise; the reported time stays per-sweep.
const SIMSPEED_ROUNDS: usize = 4;

fn relative_error(measured: f64, analytic: f64) -> f64 {
    if analytic == 0.0 {
        measured.abs()
    } else {
        ((measured - analytic) / analytic).abs()
    }
}

/// The row binding the simulator-speed sweep executes every μProgram under (same layout
/// as the substrate equivalence tests: operands at the bottom, temporaries clear of the
/// 16-bit multiply output).
const SIMSPEED_BINDING: RowBinding = RowBinding {
    a_base: 0,
    b_base: 8,
    pred_row: 16,
    out_base: 17,
    temp_base: 64,
};

/// Commands one sweep of all 16 [`WIDTH`]-bit μPrograms issues: fixed by code
/// generation, identical on every host.
const SIMSPEED_COMMANDS_PER_SWEEP: f64 = 3_344.0;

/// Host seconds for one sweep of `run_all`, averaged over [`SIMSPEED_ROUNDS`]
/// back-to-back sweeps.
fn timed_sweep(run_all: &mut impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..SIMSPEED_ROUNDS {
        run_all();
    }
    start.elapsed().as_secs_f64() / SIMSPEED_ROUNDS as f64
}

/// Best-of-[`SIMSPEED_ATTEMPTS`] per-sweep host seconds of the interpreted and the
/// compiled engine — one sweep executes all 16 [`WIDTH`]-bit μPrograms on the
/// substrate. The engines are timed alternately, attempt by attempt, so a burst of host
/// load lands on both rather than skewing their ratio. Two measurements in one process
/// (parallel tests both run this suite) take turns instead of loading each other.
fn timed_engine_sweeps(mut interpreted: impl FnMut(), mut compiled: impl FnMut()) -> (f64, f64) {
    static EXCLUSIVE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _turn = EXCLUSIVE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SIMSPEED_ATTEMPTS {
        best.0 = best.0.min(timed_sweep(&mut interpreted));
        best.1 = best.1.min(timed_sweep(&mut compiled));
    }
    best
}

pub fn run() -> Vec<Datapoint> {
    let mut machine =
        SimdramMachine::new(SimdramConfig::functional_test()).expect("functional config");
    let mask = word_mask(WIDTH);
    let a_vals: Vec<u64> = (0..ELEMENTS as u64).map(|i| (i * 37 + 11) & mask).collect();
    let b_vals: Vec<u64> = (0..ELEMENTS as u64).map(|i| (i * 91 + 3) & mask).collect();
    let preds: Vec<bool> = (0..ELEMENTS).map(|i| i % 3 == 0).collect();

    let mut datapoints = Vec::new();
    for op in Operation::ALL {
        let a = machine.alloc_and_write(WIDTH, &a_vals).expect("alloc a");
        let b = machine.alloc_and_write(WIDTH, &b_vals).expect("alloc b");
        let pred = machine.alloc(1, ELEMENTS).expect("alloc pred");
        machine.write_bools(&pred, &preds).expect("write pred");
        let dst = machine
            .alloc(op.output_width(WIDTH), ELEMENTS)
            .expect("alloc dst");
        let report = machine
            .execute(
                op,
                &dst,
                &a,
                op.uses_second_operand().then_some(&b),
                op.uses_predicate().then_some(&pred),
            )
            .expect("functional execution");
        let rel_latency = relative_error(report.measured_latency_ns, report.latency_ns);
        let rel_energy = relative_error(report.measured_energy_nj, report.energy_nj);
        datapoints.push(Datapoint::checked(
            SUITE,
            format!("{}/{WIDTH}b/trace_vs_analytic", op.name()),
            vec![
                ("measured_latency_ns", report.measured_latency_ns),
                ("analytic_latency_ns", report.latency_ns),
                ("measured_energy_nj", report.measured_energy_nj),
                ("analytic_energy_nj", report.energy_nj),
                ("commands", report.commands as f64),
                ("rel_err_max", rel_latency.max(rel_energy)),
            ],
            Expected {
                metric: "rel_err_max",
                min: 0.0,
                max: REL_TOLERANCE,
            },
        ));
        // Free everything so the 16 ops fit in the small machine's rows.
        machine.free(dst);
        machine.free(pred);
        machine.free(b);
        machine.free(a);
    }

    // Simulator-speed measurement, one datapoint per functional-execution mode. The
    // sweep drives the execution engine directly on one substrate subarray — the per-μOp
    // interpreter against the compiled word-level row-op kernels — executing all 16
    // cached [`WIDTH`]-bit μPrograms back to back under [`SIMSPEED_BINDING`]. Program
    // generation and kernel compilation happen once up front, and the machine layers
    // above the engine (planning, allocation, transposed I/O, estimation) are identical
    // in both modes by construction (see the mode-equivalence suite), so timing them
    // would only dilute the ratio with mode-independent work.
    //
    // Both datapoints are **checked** now (PR 4 left simspeed info-only): `bench_diff`
    // fails if either disappears from a fresh report, and the report itself gates the
    // compiled mode on `simspeed_ratio` ≥ [`MIN_COMPILED_SPEEDUP`]. Host-dependent
    // metrics keep the `*_per_host_s`/`host_ms` naming convention so raw host speed
    // stays off `bench_diff`'s regression-gated metric lists; the ratio is
    // host-independent (both sides run on the same host and build) and is what the
    // acceptance criterion pins.
    let speed_config = DramConfig::tiny();
    let costs = CommandCosts::new(&speed_config);
    let mut library = MicroProgramLibrary::new();
    let programs: Vec<_> = Operation::ALL
        .iter()
        .map(|&op| {
            library
                .get_or_build(simdram_uprog::Target::Simdram, op, WIDTH)
                .clone()
        })
        .collect();
    let kernels: Vec<_> = programs
        .iter()
        .map(|p| CompiledProgram::compile(p, &costs).expect("compile kernel"))
        .collect();
    let commands_per_sweep: f64 = programs.iter().map(|p| p.command_count() as f64).sum();
    let lane_bit_ops_per_sweep = commands_per_sweep * speed_config.columns_per_row as f64;
    let mut sa = Subarray::new(&speed_config);
    for (row, val) in a_vals.iter().enumerate().take(17) {
        sa.write_row(
            row,
            &simdram_dram::BitRow::splat_word(*val, speed_config.columns_per_row),
        );
    }
    let mut interp_sa = sa.clone();
    let mut compiled_sa = sa.clone();
    let (interpreted_s, compiled_s) = timed_engine_sweeps(
        || {
            for program in &programs {
                execute(program, &mut interp_sa, &SIMSPEED_BINDING).expect("interpreted sweep");
            }
            interp_sa.drain_trace();
        },
        || {
            for kernel in &kernels {
                kernel
                    .execute_in(&mut compiled_sa, &SIMSPEED_BINDING, false)
                    .expect("compiled sweep");
            }
        },
    );
    let ratio = interpreted_s / compiled_s;
    datapoints.push(Datapoint::checked(
        SUITE,
        "simspeed".to_string(),
        vec![
            (
                "lane_bit_ops_per_host_s",
                lane_bit_ops_per_sweep / interpreted_s,
            ),
            ("commands_per_host_s", commands_per_sweep / interpreted_s),
            ("host_ms", interpreted_s * 1e3),
            ("commands_per_sweep", commands_per_sweep),
        ],
        // Deterministic pin: the sweep issues the same command count on every host,
        // so gate on work performed, not host speed. (The per-host rates above remain
        // informational context.)
        Expected {
            metric: "commands_per_sweep",
            min: SIMSPEED_COMMANDS_PER_SWEEP,
            max: SIMSPEED_COMMANDS_PER_SWEEP,
        },
    ));
    datapoints.push(Datapoint::checked(
        SUITE,
        "simspeed_compiled".to_string(),
        vec![
            (
                "lane_bit_ops_per_host_s",
                lane_bit_ops_per_sweep / compiled_s,
            ),
            ("commands_per_host_s", commands_per_sweep / compiled_s),
            ("host_ms", compiled_s * 1e3),
            ("simspeed_ratio", ratio),
        ],
        Expected {
            metric: "simspeed_ratio",
            min: MIN_COMPILED_SPEEDUP,
            max: 1e4,
        },
    ));

    // Machine-level totals from the cumulative estimation engine: the busy window must
    // reflect bank-parallel overlap — strictly shorter than the sequential-issue sum in
    // DeviceStats (every broadcast above spans 2 subarrays).
    let estimate = machine.estimate();
    let stats = machine.device_stats();
    let parallel_speedup = stats.total_latency_ns() / estimate.busy_latency_ns;
    datapoints.push(Datapoint::checked(
        SUITE,
        "machine_totals".to_string(),
        vec![
            ("broadcasts", estimate.broadcasts as f64),
            ("commands", estimate.commands as f64),
            ("busy_latency_ns", estimate.busy_latency_ns),
            ("cycles", estimate.cycles as f64),
            ("energy_pj", estimate.energy_pj()),
            ("background_nj", estimate.background_nj),
            ("parallel_speedup", parallel_speedup),
        ],
        // 300 elements over 256-column subarrays -> exactly 2 lock-step chunks, so the
        // sequential-issue sum is exactly twice the busy window.
        Expected {
            metric: "parallel_speedup",
            min: 1.5,
            max: 2.5,
        },
    ));
    datapoints
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Verdict;

    #[test]
    fn trace_engine_matches_analytic_model_for_every_op() {
        let datapoints = run();
        assert_eq!(datapoints.len(), 16 + 3);
        for dp in &datapoints {
            assert_eq!(dp.verdict, Verdict::Pass, "{}", dp.name);
        }
        let simspeed = datapoints.iter().find(|d| d.name == "simspeed").unwrap();
        assert!(simspeed.metric("lane_bit_ops_per_host_s").unwrap() > 0.0);
        let compiled = datapoints
            .iter()
            .find(|d| d.name == "simspeed_compiled")
            .unwrap();
        assert!(
            compiled.metric("simspeed_ratio").unwrap() >= MIN_COMPILED_SPEEDUP,
            "compiled mode must simulate at least {MIN_COMPILED_SPEEDUP}x faster, got {}",
            compiled.metric("simspeed_ratio").unwrap()
        );
        let totals = datapoints.last().unwrap();
        assert!(totals.metric("busy_latency_ns").unwrap() > 0.0);
        assert!(totals.metric("cycles").unwrap() > 0.0);
    }
}
