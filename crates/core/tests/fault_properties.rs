//! Property-based contracts of the fault-injection and guarded-execution subsystem.
//!
//! Two guarantees are under test:
//!
//! 1. **Seeded injection is part of the deterministic contract.** A fault model is
//!    keyed by (subarray, TRA ordinal, column) — never by execution order — so the
//!    same seed must corrupt the same bits regardless of functional mode
//!    (interpreted vs compiled, where the compiler *elides* some TRAs) or broadcast
//!    policy (sequential vs threaded). Corrupted results are bit-identical across
//!    the whole mode grid, as are the injection counters.
//! 2. **Guarded execution converges bit-identically.** With transient TRA faults at
//!    realistic (small) rates and redundant re-execution armed, every computation
//!    must return exactly the fault-free machine's results — detection and retry are
//!    allowed to cost modeled time, never correctness.

use proptest::prelude::*;
use simdram_core::{
    ExecutionPolicy, FaultModel, FunctionalMode, GuardMode, SimdramConfig, SimdramMachine,
};
use simdram_logic::Operation;

fn machine_with(
    functional: FunctionalMode,
    execution: ExecutionPolicy,
    faults: FaultModel,
    guard: GuardMode,
) -> SimdramMachine {
    let mut config = SimdramConfig::functional_test();
    config.functional = functional;
    config.execution = execution;
    config.faults = faults;
    config.guard = guard;
    SimdramMachine::new(config).unwrap()
}

/// The mode × policy grid: `(Interpreted, Sequential)` is the reference.
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

fn operands(seed_a: u64, seed_b: u64, width: usize, len: usize) -> (Vec<u64>, Vec<u64>) {
    let mask = (1u64 << width) - 1;
    let a = (0..len as u64)
        .map(|i| (i.wrapping_mul(seed_a | 1) >> 7) & mask)
        .collect();
    let b = (0..len as u64)
        .map(|i| (i.wrapping_mul(seed_b | 1) >> 5) & mask)
        .collect();
    (a, b)
}

/// The `op_index`-th non-predicated operation (predicated ops are covered by the
/// mode_equivalence suite).
fn unpredicated(op_index: usize) -> Operation {
    let ops: Vec<Operation> = Operation::ALL
        .iter()
        .copied()
        .filter(|op| !op.uses_predicate())
        .collect();
    ops[op_index % ops.len()]
}

fn run_binary(
    m: &mut SimdramMachine,
    op: Operation,
    width: usize,
    a: &[u64],
    b: &[u64],
) -> Vec<u64> {
    let va = m.alloc_and_write(width, a).unwrap();
    let vb = op
        .uses_second_operand()
        .then(|| m.alloc_and_write(width, b).unwrap());
    let dst = m.alloc(op.output_width(width), a.len()).unwrap();
    m.execute(op, &dst, &va, vb.as_ref(), None).unwrap();
    m.read(&dst).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Contract 1: with injection armed (and no guard), every mode/policy combination
    // corrupts the *same bits* — the TRA-ordinal fault keys survive the compiler's
    // μOp elision and the threaded engine's scheduling.
    #[test]
    fn seeded_injection_is_bit_identical_across_modes_and_policies(
        op_index in 0usize..Operation::ALL.len(),
        width in 2usize..=8,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        fault_seed in any::<u64>(),
        len in 1usize..300,
    ) {
        // Predicated ops are covered by mode_equivalence; cycle over the rest.
        let op = unpredicated(op_index);
        let (a_vals, b_vals) = operands(seed_a, seed_b, width, len);
        // A probability high enough that corruption actually lands in most cases.
        let faults = FaultModel::tra_with_probability(2e-4, fault_seed);

        let mut results = Vec::new();
        let mut injected = Vec::new();
        for (functional, execution) in mode_grid() {
            let mut m = machine_with(functional, execution, faults.clone(), GuardMode::Off);
            results.push(run_binary(&mut m, op, width, &a_vals, &b_vals));
            injected.push(m.injected_faults());
        }
        for i in 1..results.len() {
            prop_assert_eq!(&results[i], &results[0], "corrupted results diverged in combo {}", i);
            prop_assert_eq!(injected[i], injected[0], "injection counters diverged in combo {}", i);
        }
    }

    // Contract 2: with transient faults at a small rate and the redundant guard
    // armed, results are exactly the fault-free machine's — in every mode/policy.
    #[test]
    fn guarded_execution_converges_to_fault_free_results(
        op_index in 0usize..Operation::ALL.len(),
        width in 2usize..=8,
        seed_a in any::<u64>(),
        fault_seed in any::<u64>(),
        len in 1usize..200,
    ) {
        let op = unpredicated(op_index);
        let (a_vals, b_vals) = operands(seed_a, seed_a ^ 0x9E37, width, len);
        // Small enough that exhausting an 8-retry budget is (astronomically)
        // improbable, large enough that retries fire across the test run.
        let faults = FaultModel::tra_with_probability(2e-6, fault_seed);
        let guard = GuardMode::Redundant { max_retries: 8 };

        let mut reference = machine_with(
            FunctionalMode::Interpreted,
            ExecutionPolicy::Sequential,
            FaultModel::Off,
            GuardMode::Off,
        );
        let expected = run_binary(&mut reference, op, width, &a_vals, &b_vals);

        for (functional, execution) in mode_grid() {
            let mut m = machine_with(functional, execution, faults.clone(), guard);
            let got = run_binary(&mut m, op, width, &a_vals, &b_vals);
            prop_assert_eq!(&got, &expected, "guarded results diverged from fault-free");
            let log = m.fault_log();
            prop_assert_eq!(log.exhausted, 0);
            prop_assert_eq!(log.detected(), log.recovered);
            // Backoff is charged iff something was retried.
            prop_assert_eq!(log.retries > 0, log.backoff_ns > 0.0);
        }
    }
}

/// Deterministic recovery exercise: a seed/probability pair verified to inject,
/// detect and recover within the retry budget — so the retry path itself (snapshot
/// restore, trace merging, backoff accounting) is pinned, not just the happy path.
#[test]
fn recovery_path_is_exercised_and_recovers_bit_identically() {
    let mut reference = machine_with(
        FunctionalMode::Interpreted,
        ExecutionPolicy::Sequential,
        FaultModel::Off,
        GuardMode::Off,
    );
    let (a_vals, b_vals) = operands(0xDEAD_BEEF, 0xCAFE, 8, 256);
    let expected = run_binary(&mut reference, Operation::Add, 8, &a_vals, &b_vals);

    let mut m = machine_with(
        FunctionalMode::Interpreted,
        ExecutionPolicy::Sequential,
        FaultModel::tra_with_probability(5e-5, 6),
        GuardMode::Redundant { max_retries: 9 },
    );
    let got = run_binary(&mut m, Operation::Add, 8, &a_vals, &b_vals);
    assert_eq!(got, expected);

    let log = m.fault_log();
    assert!(log.injected > 0, "seed 6 must inject, got {log:?}");
    assert!(
        log.recovered > 0,
        "expected detected+recovered faults, got {log:?}"
    );
    assert_eq!(log.exhausted, 0);
    assert!(log.retries >= u64::from(log.recovered > 0));
    assert!(log.backoff_ns > 0.0);
    assert!(m.quarantined_chunks().is_empty());
}
