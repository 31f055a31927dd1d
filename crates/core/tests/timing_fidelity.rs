//! Property-based tests of the timing backends: the analytic estimator and the
//! bank-state replay.
//!
//! Three invariants hold for *any* command trace and any machine workload:
//!
//! 1. The bank-state replay is a strict-or-equal upper bound on the analytic
//!    estimate — it only adds row-buffer, ACTIVATE-serialization and refresh
//!    penalties, never removes cost.
//! 2. The bank-state accounting is deterministic across `SIMDRAM_EXEC` policies:
//!    the replay is a pure function of the traces, and the traces are bit-identical
//!    between sequential and threaded broadcasts.
//! 3. Selecting the analytic backend reproduces the pre-backend-layer estimates
//!    bit-identically, and the analytic fields never move under the bank-state
//!    backend either.

use proptest::prelude::*;
use simdram_core::{
    ExecutionPolicy, SimdramConfig, SimdramMachine, TimingBackendKind, TraceEstimator,
};
use simdram_dram::energy::EnergyModel;
use simdram_dram::{
    BGroupRow, BankStateModel, BankTiming, BitRow, CommandTrace, DramConfig, DramTiming, RowAddr,
    Subarray,
};
use simdram_logic::Operation;

/// Replays a random action script on a fresh subarray and returns its command trace.
/// The action mix covers every command kind the replay classifies: row writes/reads
/// (WR/RD bursts), `AAP` copies in and out of the B-group, `AP(TRA)` majorities and
/// bare `AP` precharge-activates.
fn trace_from_script(config: &DramConfig, script: &[u8]) -> CommandTrace {
    let mut sa = Subarray::new(config);
    let pattern = BitRow::splat_word(0b1011, config.columns_per_row);
    sa.write_row(0, &pattern);
    sa.write_row(1, &pattern);
    for &action in script {
        let row = (action >> 4) as usize % 4;
        match action % 6 {
            0 => sa.write_row(row, &pattern),
            1 => {
                let _ = sa.read_row(row);
            }
            2 => sa
                .aap(RowAddr::Data(row), RowAddr::BGroup(BGroupRow::T0))
                .expect("aap in"),
            3 => sa
                .aap(RowAddr::BGroup(BGroupRow::T1), RowAddr::Data(row))
                .expect("aap out"),
            4 => sa
                .ap_tra(BGroupRow::T0, BGroupRow::T1, BGroupRow::T2)
                .expect("tra"),
            _ => sa.ap(RowAddr::Data(row)).expect("ap"),
        }
    }
    sa.trace().clone()
}

/// Runs one small workload (I/O plus two compute ops) on a machine configured with
/// the given backend and policy, returning the machine for inspection.
fn run_workload(backend: TimingBackendKind, policy: ExecutionPolicy) -> SimdramMachine {
    let config = SimdramConfig {
        timing_backend: backend,
        execution: policy,
        ..SimdramConfig::functional_test()
    };
    let mut machine = SimdramMachine::new(config).expect("functional config");
    let a_vals: Vec<u64> = (0..300).map(|i| (i * 37 + 11) & 0xFF).collect();
    let b_vals: Vec<u64> = (0..300).map(|i| (i * 91 + 3) & 0xFF).collect();
    let a = machine.alloc_and_write(8, &a_vals).expect("alloc a");
    let b = machine.alloc_and_write(8, &b_vals).expect("alloc b");
    let sum = machine.alloc(8, 300).expect("alloc sum");
    let prod = machine
        .alloc(Operation::Mul.output_width(8), 300)
        .expect("alloc prod");
    machine
        .execute(Operation::Add, &sum, &a, Some(&b), None)
        .expect("add");
    machine
        .execute(Operation::Mul, &prod, &a, Some(&b), None)
        .expect("mul");
    machine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Invariant 1: for arbitrary traces, the bank-state busy window dominates the
    // analytic one and classifies exactly the commands the analytic estimate counts.
    #[test]
    fn bankstate_latency_dominates_analytic_for_random_traces(
        scripts in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..60),
            1..4,
        ),
    ) {
        let config = DramConfig::tiny();
        let traces: Vec<CommandTrace> = scripts
            .iter()
            .map(|script| trace_from_script(&config, script))
            .collect();
        let timing = DramTiming::default();
        let analytic = TraceEstimator::new(timing.clone(), EnergyModel::default()).broadcast(&traces);
        prop_assert!(analytic.bank_state.is_none());
        let replay = BankStateModel::new(timing, BankTiming::default()).replay(&traces);
        prop_assert!(replay.latency_ns >= analytic.latency_ns);
        prop_assert_eq!(replay.commands, analytic.commands);
        // The replay decomposition never exceeds its own busy window.
        prop_assert!(replay.act_stall_ns + replay.refresh_stall_ns <= replay.latency_ns);
    }

    // Invariant 1, replay-purity flavor: replaying the same traces twice is
    // bit-identical (the model holds no hidden state between broadcasts).
    #[test]
    fn replay_is_deterministic(script in proptest::collection::vec(any::<u8>(), 0..80)) {
        let config = DramConfig::tiny();
        let traces = vec![trace_from_script(&config, &script)];
        let model = BankStateModel::new(DramTiming::default(), BankTiming::default());
        let first = model.replay(&traces);
        let second = model.replay(&traces);
        prop_assert_eq!(first, second);
    }
}

// Invariant 2: the bank-state totals are bit-identical between sequential and
// threaded broadcast execution.
#[test]
fn bankstate_totals_are_policy_independent() {
    let sequential = run_workload(TimingBackendKind::BankState, ExecutionPolicy::Sequential);
    let threaded = run_workload(
        TimingBackendKind::BankState,
        ExecutionPolicy::Threaded { max_threads: 4 },
    );
    assert_eq!(sequential.timing_backend(), TimingBackendKind::BankState);
    let seq_totals = sequential
        .estimate()
        .bank_state
        .clone()
        .expect("bankstate totals");
    let thr_totals = threaded
        .estimate()
        .bank_state
        .clone()
        .expect("bankstate totals");
    assert_eq!(seq_totals, thr_totals);
    assert_eq!(
        seq_totals.latency_ns.to_bits(),
        thr_totals.latency_ns.to_bits()
    );
}

// Invariant 3: the analytic backend reproduces the pre-backend-layer estimates — the
// bank-state machine's analytic fields match an analytic machine's bit for bit, and
// the analytic machine carries no bank-state data at all.
#[test]
fn analytic_backend_is_bit_identical_to_the_reference() {
    let analytic = run_workload(TimingBackendKind::Analytic, ExecutionPolicy::Sequential);
    let bankstate = run_workload(TimingBackendKind::BankState, ExecutionPolicy::Sequential);
    let a = analytic.estimate();
    let b = bankstate.estimate();
    assert!(a.bank_state.is_none());
    assert_eq!(a.busy_latency_ns.to_bits(), b.busy_latency_ns.to_bits());
    assert_eq!(a.energy_nj.to_bits(), b.energy_nj.to_bits());
    assert_eq!(a.background_nj.to_bits(), b.background_nj.to_bits());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.commands, b.commands);
    assert_eq!(a.broadcasts, b.broadcasts);
    let totals = b.bank_state.as_ref().expect("bankstate totals");
    assert!(totals.latency_ns >= b.busy_latency_ns);
}
