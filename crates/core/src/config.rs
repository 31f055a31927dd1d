//! Configuration of a SIMDRAM machine.

use simdram_dram::envopt;
use simdram_dram::variation::TechnologyNode;
use simdram_dram::{DramConfig, FaultModel};
use simdram_uprog::{CodegenOptions, Target};

use crate::error::{CoreError, Result};
use crate::executor::{ExecutionPolicy, FunctionalMode};
use crate::guard::GuardMode;
use crate::timing_backend::TimingBackendKind;

/// Configuration of a [`crate::SimdramMachine`]: the underlying DRAM geometry, how much of
/// it participates in computation, and which μProgram target/optimizations to use.
///
/// This is the one place every runtime axis is set: [`crate::SimdramMachine::new`]
/// reads it once, and nothing switches an axis afterwards.
///
/// The paper's three SIMDRAM design points — 1, 4 and 16 compute banks — are available as
/// presets ([`SimdramConfig::paper_banks`]).
#[derive(Debug, Clone)]
pub struct SimdramConfig {
    /// Geometry, timing and energy of the DRAM device.
    pub dram: DramConfig,
    /// Number of banks that execute μPrograms concurrently.
    pub compute_banks: usize,
    /// Number of subarrays per compute bank that execute μPrograms concurrently.
    pub compute_subarrays_per_bank: usize,
    /// μProgram target: [`Target::Simdram`] (MAJ/NOT) or [`Target::Ambit`] (AND/OR/NOT).
    pub target: Target,
    /// Code generator options (disable for the ablation study).
    pub codegen: CodegenOptions,
    /// How the functional simulator drives the participating subarrays: sequentially or
    /// fanned out over threads ([`ExecutionPolicy::Threaded`]). The two policies are
    /// bit-identical in results and accounting; threaded only changes simulation
    /// wall-clock.
    pub execution: ExecutionPolicy,
    /// How each subarray chunk executes a μProgram: interpreted per-μOp, or via the
    /// compiled word-level kernel ([`FunctionalMode::Compiled`]). Like `execution`, the
    /// modes are bit-identical in results and aggregate accounting; compiled only changes
    /// simulation wall-clock and per-command history retention.
    pub functional: FunctionalMode,
    /// Which timing backend folds the executed command traces into the cumulative
    /// [`crate::MachineEstimate`]: the analytic estimator (the reference behaviour,
    /// bit-identical to prior releases) or the bank-state replay, which surfaces
    /// row-buffer, ACTIVATE-serialization and refresh effects *alongside* the
    /// unchanged analytic numbers ([`TimingBackendKind`]).
    pub timing_backend: TimingBackendKind,
    /// Fault-injection model installed into every subarray at machine construction
    /// ([`FaultModel::Off`] by default — the substrate stays exact and every result is
    /// bit-identical to a fault-free run).
    pub faults: FaultModel,
    /// Fault-detection/recovery policy for broadcast execution ([`GuardMode::Off`] by
    /// default; [`GuardMode::Redundant`] detects injected corruption by redundant
    /// re-execution and retries from a snapshot).
    pub guard: GuardMode,
}

impl Default for SimdramConfig {
    fn default() -> Self {
        SimdramConfig {
            dram: DramConfig::default(),
            compute_banks: 16,
            compute_subarrays_per_bank: 16,
            target: Target::Simdram,
            codegen: CodegenOptions::optimized(),
            execution: ExecutionPolicy::default(),
            functional: FunctionalMode::default(),
            timing_backend: TimingBackendKind::default(),
            faults: FaultModel::default(),
            guard: GuardMode::default(),
        }
    }
}

/// One `SIMDRAM_*` environment override: the variable, its accepted grammar (quoted in
/// every rejection) and a recognizer that sets the matching [`SimdramConfig`] field from
/// the trimmed, lowercased value, or returns `None` when the value is outside the
/// grammar.
struct EnvOverride {
    var: &'static str,
    expected: &'static str,
    apply: fn(&mut SimdramConfig, &str) -> Option<()>,
}

/// The five runtime axes CI can force without code changes.
const ENV_OVERRIDES: [EnvOverride; 5] = [
    EnvOverride {
        var: "SIMDRAM_EXEC",
        expected: "sequential | threaded | threaded:N (N >= 1)",
        apply: |config, value| {
            config.execution = match value {
                "sequential" => ExecutionPolicy::Sequential,
                "threaded" => ExecutionPolicy::threaded(),
                _ => ExecutionPolicy::Threaded {
                    max_threads: value
                        .strip_prefix("threaded:")?
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)?,
                },
            };
            Some(())
        },
    },
    EnvOverride {
        var: "SIMDRAM_FUNC",
        expected: "interpreted | compiled",
        apply: |config, value| {
            config.functional = match value {
                "interpreted" => FunctionalMode::Interpreted,
                "compiled" => FunctionalMode::Compiled,
                _ => return None,
            };
            Some(())
        },
    },
    EnvOverride {
        var: "SIMDRAM_TIMING",
        expected: "analytic | bankstate",
        apply: |config, value| {
            config.timing_backend = match value {
                "analytic" => TimingBackendKind::Analytic,
                "bankstate" => TimingBackendKind::BankState,
                _ => return None,
            };
            Some(())
        },
    },
    EnvOverride {
        var: "SIMDRAM_FAULTS",
        expected: "off | tra:<22nm|17nm|14nm|10nm|7nm>:<seed> | rowmap:<seed>",
        apply: |config, value| {
            config.faults = if value == "off" {
                FaultModel::Off
            } else if let Some(seed) = value.strip_prefix("rowmap:") {
                FaultModel::rowmap(seed.parse().ok()?)
            } else {
                let (name, seed) = value.strip_prefix("tra:")?.split_once(':')?;
                let node = TechnologyNode::ALL.into_iter().find(|n| n.name() == name)?;
                FaultModel::tra_for_node(node, seed.parse().ok()?)
            };
            Some(())
        },
    },
    EnvOverride {
        var: "SIMDRAM_GUARD",
        expected: "off | redundant | redundant:<n>",
        apply: |config, value| {
            config.guard = match value {
                "off" => GuardMode::Off,
                "redundant" => GuardMode::redundant(),
                _ => GuardMode::Redundant {
                    max_retries: value.strip_prefix("redundant:")?.parse().ok()?,
                },
            };
            Some(())
        },
    },
];

impl SimdramConfig {
    /// The paper's SIMDRAM:`banks` design point (1, 4 or 16 compute banks, 16 compute
    /// subarrays per bank, full-size DDR4 geometry).
    pub fn paper_banks(banks: usize) -> Self {
        SimdramConfig {
            compute_banks: banks,
            ..SimdramConfig::default()
        }
    }

    /// A small configuration for fast functional tests: 2 banks × 2 subarrays of 256
    /// columns.
    ///
    /// Applies the `SIMDRAM_*` environment overrides
    /// ([`SimdramConfig::with_env_overrides`]), so CI can force every functional test
    /// through the threaded broadcast engine, the compiled execution mode, the
    /// bank-state timing backend and/or fault injection without code changes.
    ///
    /// # Panics
    ///
    /// Panics on a set-but-malformed override. The variables exist solely as test/CI
    /// overrides; silently ignoring a typo would let a CI job believe it exercised an
    /// engine while re-running the default one.
    pub fn functional_test() -> Self {
        SimdramConfig {
            dram: DramConfig::tiny(),
            compute_banks: 2,
            compute_subarrays_per_bank: 2,
            ..SimdramConfig::default()
        }
        .with_env_overrides_or_panic()
    }

    /// Same geometry as [`SimdramConfig::functional_test`] but targeting the Ambit baseline.
    ///
    /// # Panics
    ///
    /// Panics on a set-but-malformed `SIMDRAM_*` override, like
    /// [`SimdramConfig::functional_test`].
    pub fn functional_test_ambit() -> Self {
        SimdramConfig {
            target: Target::Ambit,
            ..SimdramConfig::functional_test()
        }
    }

    /// A mid-size configuration for the runnable examples: 4 banks × 4 subarrays of 1,024
    /// columns (16,384 SIMD lanes), small enough to simulate functionally in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics on a set-but-malformed `SIMDRAM_*` override, like
    /// [`SimdramConfig::functional_test`].
    pub fn demo() -> Self {
        let dram = DramConfig::builder()
            .banks(4)
            .subarrays_per_bank(4)
            .rows_per_subarray(256)
            .columns_per_row(1024)
            .reserved_rows(96)
            .build()
            .expect("demo geometry is valid");
        SimdramConfig {
            dram,
            compute_banks: 4,
            compute_subarrays_per_bank: 4,
            ..SimdramConfig::default()
        }
        .with_env_overrides_or_panic()
    }

    /// Applies the five `SIMDRAM_*` environment overrides (`SIMDRAM_EXEC`,
    /// `SIMDRAM_FUNC`, `SIMDRAM_TIMING`, `SIMDRAM_FAULTS`, `SIMDRAM_GUARD`) to this
    /// configuration, surfacing any malformed value as a typed [`CoreError::Config`]
    /// instead of panicking or silently keeping the default.
    ///
    /// The accepted values, matched after trimming and ASCII-lowercasing:
    ///
    /// | variable | grammar |
    /// |---|---|
    /// | `SIMDRAM_EXEC` | `sequential \| threaded \| threaded:N` (N ≥ 1) |
    /// | `SIMDRAM_FUNC` | `interpreted \| compiled` |
    /// | `SIMDRAM_TIMING` | `analytic \| bankstate` |
    /// | `SIMDRAM_FAULTS` | `off \| tra:<22nm\|17nm\|14nm\|10nm\|7nm>:<seed> \| rowmap:<seed>` |
    /// | `SIMDRAM_GUARD` | `off \| redundant \| redundant:<n>` |
    ///
    /// This is the recoverable counterpart of what [`SimdramConfig::functional_test`]
    /// and [`SimdramConfig::demo`] do — the entry point for long-running hosts (e.g. a
    /// serving deployment) that must reject a bad override at startup rather than abort.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when any of the five variables is set but
    /// malformed; the error names the variable, the rejected value and the accepted
    /// grammar.
    pub fn with_env_overrides(mut self) -> Result<Self> {
        for row in &ENV_OVERRIDES {
            envopt::env_override(row.var, row.expected, |value| (row.apply)(&mut self, value))?;
        }
        Ok(self)
    }

    /// [`SimdramConfig::with_env_overrides`] for the test and demo presets, whose one
    /// failure mode is a malformed override.
    fn with_env_overrides_or_panic(self) -> Self {
        self.with_env_overrides()
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Applies one override value to the axis `var` names: what
    /// [`SimdramConfig::with_env_overrides`] does with a set variable, minus the
    /// environment read, so every grammar branch is testable.
    #[cfg(test)]
    pub(crate) fn with_override(
        mut self,
        var: &str,
        raw: &str,
    ) -> std::result::Result<Self, simdram_dram::EnvOverrideError> {
        let row = ENV_OVERRIDES
            .iter()
            .find(|row| row.var == var)
            .expect("a SIMDRAM_* variable of the override table");
        envopt::parse(row.var, row.expected, raw, |value| {
            (row.apply)(&mut self, value)
        })?;
        Ok(self)
    }

    /// Number of SIMD lanes available per simultaneously issued μProgram
    /// (columns × compute subarrays × compute banks).
    pub fn total_lanes(&self) -> usize {
        self.dram.columns_per_row * self.compute_subarrays_per_bank * self.compute_banks
    }

    /// Number of data rows available to the allocator in each subarray (rows not reserved
    /// for μProgram temporaries).
    pub fn allocatable_rows(&self) -> usize {
        self.dram.rows_per_subarray - self.dram.reserved_rows
    }

    /// First row of the reserved (temporary) region.
    pub fn reserved_base(&self) -> usize {
        self.allocatable_rows()
    }

    /// Validates the configuration against the underlying DRAM geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] if the number of compute banks or subarrays exceeds the
    /// geometry, or [`CoreError::Dram`] if the DRAM configuration itself is invalid.
    pub fn validate(&self) -> Result<()> {
        self.dram.validate()?;
        if self.compute_banks == 0 || self.compute_banks > self.dram.banks {
            return Err(CoreError::Shape(format!(
                "compute_banks ({}) must be in 1..={}",
                self.compute_banks, self.dram.banks
            )));
        }
        if self.compute_subarrays_per_bank == 0
            || self.compute_subarrays_per_bank > self.dram.subarrays_per_bank
        {
            return Err(CoreError::Shape(format!(
                "compute_subarrays_per_bank ({}) must be in 1..={}",
                self.compute_subarrays_per_bank, self.dram.subarrays_per_bank
            )));
        }
        self.execution.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_largest_design_point() {
        let cfg = SimdramConfig::default();
        assert_eq!(cfg.compute_banks, 16);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.total_lanes(), 65_536 * 16 * 16);
    }

    #[test]
    fn paper_presets_scale_lanes_linearly() {
        let one = SimdramConfig::paper_banks(1);
        let four = SimdramConfig::paper_banks(4);
        let sixteen = SimdramConfig::paper_banks(16);
        assert_eq!(four.total_lanes(), 4 * one.total_lanes());
        assert_eq!(sixteen.total_lanes(), 16 * one.total_lanes());
    }

    #[test]
    fn invalid_compute_counts_are_rejected() {
        let mut cfg = SimdramConfig::functional_test();
        cfg.compute_banks = 100;
        assert!(matches!(cfg.validate(), Err(CoreError::Shape(_))));
        let mut cfg = SimdramConfig::functional_test();
        cfg.compute_subarrays_per_bank = 0;
        assert!(matches!(cfg.validate(), Err(CoreError::Shape(_))));
    }

    #[test]
    fn zero_thread_policy_is_rejected() {
        let mut cfg = SimdramConfig::functional_test();
        cfg.execution = ExecutionPolicy::Threaded { max_threads: 0 };
        assert!(matches!(cfg.validate(), Err(CoreError::Shape(_))));
        cfg.execution = ExecutionPolicy::Threaded { max_threads: 1 };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn demo_config_is_valid_and_mid_sized() {
        let cfg = SimdramConfig::demo();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.total_lanes(), 16_384);
        assert!(cfg.total_lanes() > SimdramConfig::functional_test().total_lanes());
        assert!(cfg.total_lanes() < SimdramConfig::paper_banks(1).total_lanes());
    }

    #[test]
    fn env_overrides_keep_defaults_when_unset() {
        // For each axis whose variable is not set, override application must be the
        // identity. (CI legs that DO set some variables exercise the replacement arm
        // across the whole suite, so only the unset axes are asserted here.)
        let unset = |var: &str| std::env::var_os(var).is_none();
        let base = SimdramConfig::default();
        let overridden = base.clone().with_env_overrides().unwrap();
        if unset("SIMDRAM_EXEC") {
            assert_eq!(base.execution, overridden.execution);
        }
        if unset("SIMDRAM_FUNC") {
            assert_eq!(base.functional, overridden.functional);
        }
        if unset("SIMDRAM_TIMING") {
            assert_eq!(base.timing_backend, overridden.timing_backend);
        }
        if unset("SIMDRAM_FAULTS") {
            assert_eq!(base.faults, overridden.faults);
        }
        if unset("SIMDRAM_GUARD") {
            assert_eq!(base.guard, overridden.guard);
        }
    }

    #[test]
    fn every_override_row_names_a_distinct_variable() {
        let mut vars: Vec<&str> = ENV_OVERRIDES.iter().map(|row| row.var).collect();
        vars.sort_unstable();
        vars.dedup();
        assert_eq!(vars.len(), 5);
        // A rejected value becomes a typed configuration error naming its variable.
        let err = SimdramConfig::default()
            .with_override("SIMDRAM_FUNC", "compiled:4")
            .unwrap_err();
        let err = CoreError::from(err);
        assert!(matches!(&err, CoreError::Config(e) if e.var == "SIMDRAM_FUNC"));
        assert!(err.to_string().contains("SIMDRAM_FUNC"));
    }

    fn faults(raw: &str) -> std::result::Result<FaultModel, simdram_dram::EnvOverrideError> {
        SimdramConfig::default()
            .with_override("SIMDRAM_FAULTS", raw)
            .map(|c| c.faults)
    }

    #[test]
    fn faults_override_parsing() {
        assert!(faults("off").unwrap().is_off());
        assert!(faults(" OFF ").unwrap().is_off());
        match faults("tra:7nm:42").unwrap() {
            FaultModel::Tra {
                probability,
                seed,
                node,
            } => {
                assert_eq!(seed, 42);
                assert_eq!(node, Some(TechnologyNode::Nm7));
                assert!((0.0..=1.0).contains(&probability));
            }
            other => panic!("expected Tra, got {other:?}"),
        }
        assert_eq!(faults("rowmap:9"), Ok(FaultModel::RowMap { seed: 9 }));
    }

    #[test]
    fn faults_override_rejects_typos_with_a_typed_error() {
        let err = faults("tra").unwrap_err();
        assert_eq!(err.var, "SIMDRAM_FAULTS");
        assert_eq!(err.value, "tra");
        assert!(err.expected.contains("tra:<"));
    }

    #[test]
    fn faults_override_rejects_unknown_node_with_a_typed_error() {
        let err = faults("tra:5nm:1").unwrap_err();
        assert_eq!(err.value, "tra:5nm:1");
        assert!(err.to_string().contains("SIMDRAM_FAULTS"));
    }

    #[test]
    fn faults_override_rejects_bad_seed_with_a_typed_error() {
        assert!(faults("rowmap:abc").is_err());
        assert!(faults("tra:7nm:-3").is_err());
        assert!(faults("tra:7nm:").is_err());
    }

    #[test]
    fn reserved_region_is_at_the_top_of_the_subarray() {
        let cfg = SimdramConfig::functional_test();
        assert_eq!(
            cfg.reserved_base() + cfg.dram.reserved_rows,
            cfg.dram.rows_per_subarray
        );
    }
}
