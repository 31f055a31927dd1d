//! Property-based equivalence of the interpreted and compiled functional-execution
//! modes, crossed with the sequential and threaded broadcast policies.
//!
//! The contract under test is the headline guarantee of the fast-functional mode: for
//! any operation, width and operand values, a machine running
//! [`FunctionalMode::Compiled`] produces **bit-identical** simulated outcomes to the
//! interpreted reference — read-back results, [`DeviceStats`] (per-kind command counts
//! and floating-point latency/energy totals) and the cumulative `MachineEstimate` — under
//! either [`ExecutionPolicy`] and either timing backend. Under the bank-state backend
//! the compiled engine keeps per-command history for the replay, so its bank-state
//! totals match the interpreter's too.

use proptest::prelude::*;
use simdram_core::{
    ExecutionPolicy, FaultModel, FunctionalMode, GuardMode, PlanBuilder, SimdramConfig,
    SimdramMachine, TimingBackendKind,
};
use simdram_dram::{BGroupRow, BitRow, CommandCosts, DramConfig, RowAddr, Subarray};
use simdram_logic::Operation;
use simdram_uprog::{build_program, execute, CodegenOptions, CompiledProgram, RowBinding, Target};

fn machine_with(functional: FunctionalMode, execution: ExecutionPolicy) -> SimdramMachine {
    let mut config = SimdramConfig::functional_test();
    config.execution = execution;
    config.functional = functional;
    SimdramMachine::new(config).unwrap()
}

/// The mode × policy grid every case runs over. `(Interpreted, Sequential)` is the
/// reference; the rest must match it exactly.
fn mode_grid() -> [(FunctionalMode, ExecutionPolicy); 3] {
    [
        (FunctionalMode::Interpreted, ExecutionPolicy::Sequential),
        (FunctionalMode::Compiled, ExecutionPolicy::Sequential),
        (
            FunctionalMode::Compiled,
            ExecutionPolicy::Threaded { max_threads: 2 },
        ),
    ]
}

/// A machine under the bank-state backend, every other runtime axis pinned so the
/// comparison holds under any `SIMDRAM_*` override.
fn bankstate_machine(functional: FunctionalMode) -> SimdramMachine {
    SimdramMachine::new(SimdramConfig {
        execution: ExecutionPolicy::Sequential,
        functional,
        timing_backend: TimingBackendKind::BankState,
        faults: FaultModel::Off,
        guard: GuardMode::Off,
        ..SimdramConfig::functional_test()
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // End-to-end machine equivalence: random operation, width, operand values (spanning
    // one or two subarrays), every mode/policy combination.
    #[test]
    fn machines_agree_across_modes_and_policies(
        op_index in 0usize..Operation::ALL.len(),
        width in 2usize..=8,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        len in 1usize..300,
    ) {
        let op = Operation::ALL[op_index];
        let mask = (1u64 << width) - 1;
        let a_vals: Vec<u64> = (0..len as u64).map(|i| (i.wrapping_mul(seed_a | 1) >> 7) & mask).collect();
        let b_vals: Vec<u64> = (0..len as u64).map(|i| (i.wrapping_mul(seed_b | 1) >> 5) & mask).collect();
        let p_vals: Vec<bool> = (0..len as u64).map(|i| (i.wrapping_mul(seed_a | 1) >> 3) & 1 == 1).collect();

        let mut results = Vec::new();
        let mut reports = Vec::new();
        let mut device_stats = Vec::new();
        let mut estimates = Vec::new();
        for (functional, execution) in mode_grid() {
            let mut m = machine_with(functional, execution);
            let a = m.alloc_and_write(width, &a_vals).unwrap();
            let b = op.uses_second_operand().then(|| m.alloc_and_write(width, &b_vals).unwrap());
            let p = op.uses_predicate().then(|| {
                let pred = m.alloc(1, len).unwrap();
                m.write_bools(&pred, &p_vals).unwrap();
                pred
            });
            let dst = m.alloc(op.output_width(width), len).unwrap();
            let report = m.execute(op, &dst, &a, b.as_ref(), p.as_ref()).unwrap();
            results.push(m.read(&dst).unwrap());
            reports.push(report);
            device_stats.push(m.device_stats().clone());
            estimates.push(m.estimate().clone());
        }
        for i in 1..results.len() {
            prop_assert_eq!(&results[i], &results[0], "results diverged in combo {}", i);
            prop_assert_eq!(&reports[i], &reports[0], "reports diverged in combo {}", i);
            prop_assert_eq!(&device_stats[i], &device_stats[0], "device stats diverged in combo {}", i);
            prop_assert_eq!(&estimates[i], &estimates[0], "estimates diverged in combo {}", i);
        }
        // Floating-point totals are bit-identical, not merely approximately equal.
        for stats in &device_stats[1..] {
            prop_assert_eq!(
                stats.total_latency_ns().to_bits(),
                device_stats[0].total_latency_ns().to_bits()
            );
            prop_assert_eq!(
                stats.total_energy_nj().to_bits(),
                device_stats[0].total_energy_nj().to_bits()
            );
        }
        // The reference really did something.
        prop_assert!(device_stats[0].total_commands() > 0);
    }

    // Bank-state replay: the compiled engine keeps per-command history exactly when the
    // machine replays bank state, so under `BankState` it must match the interpreter in
    // results, reports (per-step replay latency included), DeviceStats and the
    // cumulative estimate with its bank-state totals.
    #[test]
    fn compiled_matches_interpreter_under_bank_state_replay(
        op_index in 0usize..Operation::ALL.len(),
        width in 2usize..=8,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        len in 1usize..300,
    ) {
        let op = Operation::ALL[op_index];
        let mask = (1u64 << width) - 1;
        let a_vals: Vec<u64> = (0..len as u64).map(|i| (i.wrapping_mul(seed_a | 1) >> 7) & mask).collect();
        let b_vals: Vec<u64> = (0..len as u64).map(|i| (i.wrapping_mul(seed_b | 1) >> 5) & mask).collect();
        let p_vals: Vec<bool> = (0..len as u64).map(|i| (i.wrapping_mul(seed_b | 1) >> 3) & 1 == 1).collect();

        let mut runs = Vec::new();
        for functional in [FunctionalMode::Interpreted, FunctionalMode::Compiled] {
            let mut m = bankstate_machine(functional);
            let a = m.alloc_and_write(width, &a_vals).unwrap();
            let b = op.uses_second_operand().then(|| m.alloc_and_write(width, &b_vals).unwrap());
            let p = op.uses_predicate().then(|| {
                let pred = m.alloc(1, len).unwrap();
                m.write_bools(&pred, &p_vals).unwrap();
                pred
            });
            let dst = m.alloc(op.output_width(width), len).unwrap();
            let report = m.execute(op, &dst, &a, b.as_ref(), p.as_ref()).unwrap();
            runs.push((m.read(&dst).unwrap(), report, m.device_stats().clone(), m.estimate().clone()));
        }
        let (compiled, interpreted) = (runs.pop().unwrap(), runs.pop().unwrap());
        prop_assert_eq!(&compiled.0, &interpreted.0);
        prop_assert_eq!(&compiled.1, &interpreted.1);
        prop_assert_eq!(&compiled.2, &interpreted.2);
        prop_assert_eq!(&compiled.3, &interpreted.3);
        let replayed = interpreted.1.bank_state_latency_ns.expect("per-step replay");
        prop_assert_eq!(compiled.1.bank_state_latency_ns.map(f64::to_bits), Some(replayed.to_bits()));
        let totals = interpreted.3.bank_state.as_ref().expect("bank-state totals");
        prop_assert_eq!(totals.broadcasts, 1);
        prop_assert!(totals.row_misses > 0);
    }

    // Substrate-level equivalence: one μProgram, one subarray, random operand rows. The
    // compiled kernel must leave identical subarray contents (data rows and B-group
    // state) and return a local trace equal to the interpreter's — including history
    // when sampled, and the same aggregates without it.
    #[test]
    fn compiled_kernel_matches_interpreter_on_the_substrate(
        op_index in 0usize..Operation::ALL.len(),
        width in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let op = Operation::ALL[op_index];
        let program = build_program(Target::Simdram, op, width, CodegenOptions::optimized());
        let config = DramConfig::tiny();
        let compiled = CompiledProgram::compile(&program, &CommandCosts::new(&config)).unwrap();
        // `Mul` at width 8 produces a 16-bit result, so the output region can reach row
        // 33; keep the temporaries clear of it.
        let binding = RowBinding { a_base: 0, b_base: 8, pred_row: 16, out_base: 17, temp_base: 64 };

        let mut interp = Subarray::new(&config);
        let mut with_history = Subarray::new(&config);
        let mut without_history = Subarray::new(&config);
        let columns = config.columns_per_row;
        for base in [binding.a_base, binding.b_base, binding.pred_row] {
            for bit in 0..8 {
                let row = BitRow::from_fn(columns, |lane| {
                    (seed.wrapping_mul(lane as u64 + 3) >> (bit + (base & 7))) & 1 == 1
                });
                interp.write_row(base + bit, &row);
                with_history.write_row(base + bit, &row);
                without_history.write_row(base + bit, &row);
                if base == binding.pred_row {
                    break; // the predicate is a single row
                }
            }
        }

        let reference = execute(&program, &mut interp, &binding).unwrap();
        let sampled = compiled.run(&mut with_history, &binding, true).unwrap();
        let aggregate_only = compiled.run(&mut without_history, &binding, false).unwrap();

        // Identical substrate state in both compiled runs.
        for sa in [&with_history, &without_history] {
            for row in 0..interp.rows() {
                prop_assert_eq!(
                    interp.row(RowAddr::Data(row)).unwrap(),
                    sa.row(RowAddr::Data(row)).unwrap(),
                    "row {} diverged for {}", row, op
                );
            }
            for b in BGroupRow::ALL {
                prop_assert_eq!(
                    interp.peek(RowAddr::BGroup(b)).unwrap(),
                    sa.peek(RowAddr::BGroup(b)).unwrap(),
                    "{:?} diverged for {}", b, op
                );
            }
        }

        // With history sampled the local traces are fully equal (counts, history,
        // bit-identical totals); without it the aggregates still match and the
        // history reads as drained.
        prop_assert_eq!(&sampled, &reference);
        prop_assert_eq!(sampled.total_latency_ns().to_bits(), reference.total_latency_ns().to_bits());
        prop_assert_eq!(sampled.total_energy_nj().to_bits(), reference.total_energy_nj().to_bits());
        prop_assert_eq!(aggregate_only.len(), reference.len());
        prop_assert_eq!(aggregate_only.history_len(), 0);
        prop_assert_eq!(
            aggregate_only.kind_counts().collect::<Vec<_>>(),
            reference.kind_counts().collect::<Vec<_>>()
        );
        prop_assert_eq!(aggregate_only.total_latency_ns().to_bits(), reference.total_latency_ns().to_bits());
        prop_assert_eq!(aggregate_only.total_energy_nj().to_bits(), reference.total_energy_nj().to_bits());
    }
}

/// A pinned bank-state case: every non-predicated op run eagerly over 300 8-bit elements
/// (two chunks), then a three-op plan in two windows. Both engines replay the same 17
/// broadcasts and agree on every total.
#[test]
fn bank_state_totals_agree_across_engines_for_every_op() {
    let a_vals: Vec<u64> = (0..300u64).map(|i| (i * 37 + 11) & 0xFF).collect();
    let b_vals: Vec<u64> = (0..300u64).map(|i| (i * 91 + 3) & 0xFF).collect();
    let mut estimates = Vec::new();
    for functional in [FunctionalMode::Interpreted, FunctionalMode::Compiled] {
        let mut m = bankstate_machine(functional);
        let a = m.alloc_and_write(8, &a_vals).unwrap();
        let b = m.alloc_and_write(8, &b_vals).unwrap();
        for op in Operation::ALL.into_iter().filter(|op| !op.uses_predicate()) {
            let dst = m.alloc(op.output_width(8), a_vals.len()).unwrap();
            m.execute(op, &dst, &a, op.uses_second_operand().then_some(&b), None)
                .unwrap();
            m.free(dst);
        }
        let mut s = PlanBuilder::new();
        let (ae, be) = (s.input(&a), s.input(&b));
        let sum = s.add(ae, be).unwrap();
        let diff = s.sub(ae, be).unwrap();
        let top = s.max(sum, diff).unwrap();
        s.materialize(top).unwrap();
        m.run_plan(&s.compile().unwrap()).unwrap();
        estimates.push((m.estimate().clone(), m.device_stats().clone()));
    }
    assert_eq!(estimates[0], estimates[1]);
    let totals = estimates[0]
        .0
        .bank_state
        .clone()
        .expect("bank-state totals");
    assert_eq!(totals.broadcasts, estimates[0].0.broadcasts);
    assert_eq!(totals.broadcasts, 17);
    assert_eq!(totals.row_misses, 7_182);
}
