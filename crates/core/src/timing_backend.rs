//! Timing backends: which estimation engine folds the executed command traces.
//!
//! The machine's accounting has always been *trace-driven*: broadcast kernels return
//! per-chunk [`simdram_dram::CommandTrace`]s, and an estimation engine folds them into a
//! [`crate::BroadcastEstimate`]. Two backends exist:
//!
//! * [`TimingBackendKind::Analytic`] — the [`crate::TraceEstimator`] math, unchanged and
//!   bit-identical to what the machine always computed: per-command template costs,
//!   max over lock-step chunks, serialized broadcasts.
//! * [`TimingBackendKind::BankState`] — the analytic numbers **plus** a bank-state
//!   replay of the same traces ([`simdram_dram::BankStateModel`]): open-row tracking,
//!   rank-wide ACTIVATE serialization (tRRD/tFAW) and tREFI/tRFC refresh
//!   interference. The replay rides in [`crate::BroadcastEstimate::bank_state`]; the
//!   analytic fields are never touched, so selecting a backend cannot move the
//!   baseline numbers.
//!
//! Selection flows through [`crate::SimdramConfig::timing_backend`] and its
//! `SIMDRAM_TIMING` environment override, so the machine, the plan runner and the
//! `simdram-serve` layer all pick the backend up without code changes.

use std::fmt;

/// Which timing backend a machine folds its command traces through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingBackendKind {
    /// The analytic trace estimator: template costs, max over lock-step chunks (the
    /// reference behaviour, bit-identical to every prior release).
    #[default]
    Analytic,
    /// Analytic plus the bank-state replay (row-buffer state, ACTIVATE serialization,
    /// refresh interference) surfaced alongside the analytic numbers.
    BankState,
}

impl TimingBackendKind {
    /// The backend's CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            TimingBackendKind::Analytic => "analytic",
            TimingBackendKind::BankState => "bankstate",
        }
    }

    /// Returns `true` for the bank-state variant.
    pub fn is_bank_state(self) -> bool {
        matches!(self, TimingBackendKind::BankState)
    }
}

impl fmt::Display for TimingBackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimdramConfig, SimdramMachine};
    use simdram_logic::Operation;

    #[test]
    fn env_override_parsing() {
        // Every branch of the SIMDRAM_TIMING grammar is testable without touching the
        // process environment; the env-sensitive plumbing itself is covered by CI
        // running the suite under SIMDRAM_TIMING=bankstate.
        let timing = |raw| {
            SimdramConfig::default()
                .with_override("SIMDRAM_TIMING", raw)
                .map(|c| c.timing_backend)
        };
        assert_eq!(timing("analytic"), Ok(TimingBackendKind::Analytic));
        assert_eq!(timing(" BankState "), Ok(TimingBackendKind::BankState));
        assert!(TimingBackendKind::BankState.is_bank_state());
        assert!(!TimingBackendKind::Analytic.is_bank_state());
        assert_eq!(TimingBackendKind::Analytic.to_string(), "analytic");
        assert_eq!(TimingBackendKind::BankState.name(), "bankstate");
    }

    #[test]
    fn env_override_rejects_typos_with_a_typed_error() {
        let err = SimdramConfig::default()
            .with_override("SIMDRAM_TIMING", "bank-state")
            .unwrap_err();
        assert_eq!(err.var, "SIMDRAM_TIMING");
        assert_eq!(err.value, "bank-state");
        assert!(err.to_string().contains("analytic | bankstate"));
    }

    #[test]
    fn bankstate_backend_keeps_analytic_fields_and_attaches_a_replay() {
        // The same 300-element add (two chunks) under each backend.
        let run = |timing_backend| {
            let config = SimdramConfig {
                timing_backend,
                ..SimdramConfig::functional_test()
            };
            let mut m = SimdramMachine::new(config).unwrap();
            let a = m.alloc_and_write(8, &[7; 300]).unwrap();
            let b = m.alloc_and_write(8, &[9; 300]).unwrap();
            let (_, report) = m.binary(Operation::Add, &a, &b).unwrap();
            (report, m.estimate().clone())
        };
        let (analytic_report, analytic) = run(TimingBackendKind::Analytic);
        let (report, estimate) = run(TimingBackendKind::BankState);
        // Analytic fields untouched, bit for bit.
        assert_eq!(
            report.measured_latency_ns.to_bits(),
            analytic_report.measured_latency_ns.to_bits()
        );
        assert_eq!(
            estimate.busy_latency_ns.to_bits(),
            analytic.busy_latency_ns.to_bits()
        );
        assert_eq!(estimate.energy_nj.to_bits(), analytic.energy_nj.to_bits());
        assert_eq!(estimate.cycles, analytic.cycles);
        assert!(analytic_report.bank_state_latency_ns.is_none());
        assert!(analytic.bank_state.is_none());
        let replayed = report
            .bank_state_latency_ns
            .expect("bankstate replay attached");
        assert!(replayed >= report.measured_latency_ns);
        let totals = estimate.bank_state.expect("bankstate totals");
        assert_eq!(totals.broadcasts, estimate.broadcasts);
    }
}
