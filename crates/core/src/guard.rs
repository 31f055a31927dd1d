//! Fault detection and recovery policy: guarded (redundant) execution, typed fault
//! errors and the machine-level recovery ledger.
//!
//! SIMDRAM's computation primitive — triple-row activation — is analog, and the paper's
//! reliability study shows its failure probability rising steeply with process scaling.
//! The guard layer turns the substrate's *injected* faults (see
//! [`simdram_dram::FaultModel`]) into *detected and recovered* ones: under
//! [`GuardMode::Redundant`] every chunk executes each broadcast batch twice and compares
//! the resulting data rows. A mismatch means at least one run was corrupted; the chunk is
//! rolled back to its pre-batch snapshot and retried, with each retry charged a modeled
//! re-dispatch delay ([`RETRY_BACKOFF_NS`]) so recovery is visible in the timing
//! estimate, not free. Chunks that exhaust the retry budget raise
//! [`crate::CoreError::Fault`] carrying a [`FaultError`], and the machine quarantines
//! subarrays that keep failing (see [`crate::SimdramMachine::quarantined_chunks`]).

use std::fmt;

/// Modeled latency charged per retry of a guarded chunk, in nanoseconds: the memory
/// controller detects the mismatch, re-issues the batch and waits out a conservative
/// re-dispatch window. Folded into the dispatch latency of the broadcast the retry
/// happened in, so guarded recovery slows the *modeled* machine down too.
pub const RETRY_BACKOFF_NS: f64 = 1_000.0;

/// Default retry budget of [`GuardMode::Redundant`].
pub const DEFAULT_MAX_RETRIES: u32 = 3;

/// How the machine guards broadcast execution against in-DRAM computation faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardMode {
    /// No detection: faults (if injected) silently corrupt results. The default — with
    /// [`simdram_dram::FaultModel::Off`] the substrate is exact and guarding would only
    /// double simulation work.
    #[default]
    Off,
    /// Redundant execution: run every chunk's batch twice from the same snapshot and
    /// compare the data rows. On mismatch, roll back and retry up to `max_retries`
    /// times (each retry is another redundant pair); on exhaustion, fail the chunk with
    /// a typed [`FaultError`].
    Redundant {
        /// Number of retries after the first failed attempt.
        max_retries: u32,
    },
}

impl GuardMode {
    /// Redundant execution with the default retry budget.
    pub fn redundant() -> Self {
        GuardMode::Redundant {
            max_retries: DEFAULT_MAX_RETRIES,
        }
    }

    /// Returns `true` when guarding is disabled.
    pub fn is_off(&self) -> bool {
        matches!(self, GuardMode::Off)
    }
}

/// A chunk exhausted its guarded retry budget: every attempt's redundant pair disagreed.
///
/// Carried by [`crate::CoreError::Fault`]. The coordinates let a serving layer attribute
/// the failure to the placement that contained the chunk and degrade only that job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// Bank of the failing subarray.
    pub bank: usize,
    /// Subarray index within the bank.
    pub subarray: usize,
    /// Linear compute-chunk index (`bank × subarrays_per_bank + subarray`).
    pub chunk: usize,
    /// Total execution attempts made (first try + retries).
    pub attempts: u32,
    /// Number of data rows that disagreed between the final redundant pair.
    pub mismatched_rows: usize,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chunk {} (bank {}, subarray {}) failed guarded execution after {} attempts ({} data rows mismatched)",
            self.chunk, self.bank, self.subarray, self.attempts, self.mismatched_rows
        )
    }
}

/// Cumulative machine-level recovery accounting, surfaced through
/// [`crate::SimdramMachine::fault_log`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultLog {
    /// Retry attempts issued across all guarded chunks (each is one extra redundant
    /// pair).
    pub retries: u64,
    /// Fault events that recovery resolved: a chunk whose redundant pair disagreed at
    /// least once but eventually agreed within the retry budget.
    pub recovered: u64,
    /// Fault events that exhausted the retry budget and surfaced as
    /// [`crate::CoreError::Fault`].
    pub exhausted: u64,
    /// Bit flips the substrate injected during guarded and unguarded execution (see
    /// [`simdram_dram::DramDevice::injected_faults`]).
    pub injected: u64,
    /// Modeled retry backoff charged to the timing estimate, in nanoseconds.
    pub backoff_ns: f64,
}

impl FaultLog {
    /// Number of distinct fault events the guard detected (recovered + exhausted).
    pub fn detected(&self) -> u64 {
        self.recovered + self.exhausted
    }
}

impl fmt::Display for FaultLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "faults: {} injected, {} detected ({} recovered, {} exhausted), {} retries, {:.0} ns backoff",
            self.injected,
            self.detected(),
            self.recovered,
            self.exhausted,
            self.retries,
            self.backoff_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        assert_eq!(GuardMode::default(), GuardMode::Off);
        assert!(GuardMode::default().is_off());
        assert!(!GuardMode::redundant().is_off());
    }

    fn guard(raw: &str) -> Result<GuardMode, simdram_dram::EnvOverrideError> {
        crate::SimdramConfig::default()
            .with_override("SIMDRAM_GUARD", raw)
            .map(|c| c.guard)
    }

    #[test]
    fn parses_overrides() {
        assert_eq!(guard("off"), Ok(GuardMode::Off));
        assert_eq!(guard(" OFF "), Ok(GuardMode::Off));
        assert_eq!(
            guard("redundant"),
            Ok(GuardMode::Redundant {
                max_retries: DEFAULT_MAX_RETRIES
            })
        );
        assert_eq!(
            guard("Redundant:7"),
            Ok(GuardMode::Redundant { max_retries: 7 })
        );
        assert_eq!(
            guard("redundant:0"),
            Ok(GuardMode::Redundant { max_retries: 0 })
        );
    }

    #[test]
    fn rejects_unknown_override_with_a_typed_error() {
        let err = guard("triple").unwrap_err();
        assert_eq!(err.var, "SIMDRAM_GUARD");
        assert_eq!(err.value, "triple");
        assert!(err.to_string().contains("off | redundant"));
    }

    #[test]
    fn rejects_bad_retry_budget_with_a_typed_error() {
        let err = guard("redundant:many").unwrap_err();
        assert_eq!(err.var, "SIMDRAM_GUARD");
        assert!(guard("redundant:-1").is_err());
    }

    #[test]
    fn fault_log_counts_detections() {
        let log = FaultLog {
            retries: 5,
            recovered: 3,
            exhausted: 1,
            injected: 42,
            backoff_ns: 5_000.0,
        };
        assert_eq!(log.detected(), 4);
        let text = log.to_string();
        assert!(text.contains("42 injected"));
        assert!(text.contains("3 recovered"));
    }

    #[test]
    fn fault_error_display_names_the_chunk() {
        let err = FaultError {
            bank: 1,
            subarray: 0,
            chunk: 2,
            attempts: 4,
            mismatched_rows: 3,
        };
        let text = err.to_string();
        assert!(text.contains("chunk 2"));
        assert!(text.contains("4 attempts"));
    }
}
