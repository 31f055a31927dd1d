//! Execution reports and machine-level statistics.

use std::fmt;

use simdram_logic::Operation;

/// The cost accounting of one executed bbop operation.
///
/// Latency is the time the μProgram occupies the participating banks (commands issue in
/// lock-step across subarrays, so latency does not grow with the number of lanes); energy
/// scales with the number of subarrays that actually computed.
///
/// An eager single-op call ([`crate::SimdramMachine::binary`] and friends) issues one
/// broadcast per report. Inside [`PlanReport::step_reports`] the same struct describes one
/// *step* of a fused broadcast batch: several steps (possibly from several tenants' plans,
/// under `simdram-serve`) share one physical dispatch, but each step's report still
/// charges exactly the commands, latency and energy of that step on its own subarrays —
/// which is why per-plan accounting is bit-identical whether the plan ran solo or fused.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// The operation that was executed.
    pub op: Operation,
    /// Element width in bits.
    pub width: usize,
    /// Number of elements processed.
    pub elements: usize,
    /// Number of subarrays that participated.
    pub subarrays_used: usize,
    /// Total DRAM commands issued per subarray (AAP + AP).
    pub commands: usize,
    /// Triple-row activations per subarray.
    pub tra_count: usize,
    /// Latency of the operation in nanoseconds.
    pub latency_ns: f64,
    /// DRAM energy of the operation in nanojoules (all subarrays).
    pub energy_nj: f64,
    /// Latency **measured** from the executed command traces by the estimation engine
    /// ([`crate::TraceEstimator`]): the maximum per-chunk trace latency, since the
    /// participating subarrays execute in lock-step. Matches [`Self::latency_ns`] to
    /// floating-point accuracy — the functional simulator issues exactly the μProgram's
    /// command sequence.
    pub measured_latency_ns: f64,
    /// Dynamic DRAM energy **measured** from the executed command traces (summed over
    /// all participating subarrays), in nanojoules.
    pub measured_energy_nj: f64,
    /// Busy window of this step under the bank-state timing backend
    /// ([`crate::TimingBackendKind::BankState`]), in nanoseconds; `None` under the
    /// analytic backend. Always ≥ [`Self::measured_latency_ns`] when present — the
    /// replay only adds row-buffer, ACTIVATE-serialization and refresh penalties.
    pub bank_state_latency_ns: Option<f64>,
    /// Bit flips the fault model injected during this step, summed over the
    /// participating subarrays (0 with [`simdram_dram::FaultModel::Off`]). Under
    /// [`crate::GuardMode::Redundant`] this covers every attempt, including retried
    /// and discarded ones.
    pub faults_injected: u64,
}

impl ExecutionReport {
    /// Throughput in giga-operations per second achieved by this execution.
    pub fn throughput_gops(&self) -> f64 {
        if self.latency_ns == 0.0 {
            0.0
        } else {
            self.elements as f64 / self.latency_ns
        }
    }

    /// Average DRAM energy per element in nanojoules.
    pub fn energy_per_element_nj(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            self.energy_nj / self.elements as f64
        }
    }

    /// Average DRAM power drawn during the operation, in watts.
    pub fn average_power_w(&self) -> f64 {
        if self.latency_ns == 0.0 {
            0.0
        } else {
            self.energy_nj / self.latency_ns
        }
    }

    /// Energy efficiency in giga-operations per second per watt.
    pub fn gops_per_watt(&self) -> f64 {
        let power = self.average_power_w();
        if power == 0.0 {
            0.0
        } else {
            self.throughput_gops() / power
        }
    }
}

impl fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}-bit, {} elements): {} commands/subarray, {:.1} ns, {:.1} nJ, {:.2} GOPS, {:.2} GOPS/W",
            self.op,
            self.width,
            self.elements,
            self.commands,
            self.latency_ns,
            self.energy_nj,
            self.throughput_gops(),
            self.gops_per_watt()
        )
    }
}

/// The cost accounting of one executed [`crate::Plan`].
///
/// A plan issues its steps as **fused broadcast batches**: every step of a batch runs
/// back-to-back inside one broadcast, so `broadcasts` is the number of batches actually
/// issued while `eager_broadcasts` is what op-by-op execution of the same expression
/// would have issued (one broadcast per operation and per constant initialization).
/// All timing/energy figures aggregate the trace-driven estimation engine
/// ([`crate::TraceEstimator`]) over the plan's batches and are bit-identical between
/// execution policies.
///
/// When several plans execute together ([`crate::SimdramMachine::run_plans_on`], or the
/// `simdram-serve` layer built on it), the `d`-th batch of every plan fuses into **one**
/// machine dispatch over disjoint subarray sets — yet each plan's `PlanReport` accounts
/// only its own batches and steps, so it matches the plan's solo run exactly.
///
/// # Example
///
/// ```
/// use simdram_core::{PlanBuilder, SimdramConfig, SimdramMachine};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut machine = SimdramMachine::new(SimdramConfig::functional_test())?;
/// let x = machine.alloc_and_write(8, &[1, 2, 3])?;
/// let mut s = PlanBuilder::new();
/// let a = s.input(&x);
/// let c = s.constant(8, 3, 10)?;
/// let sum = s.add(a, c)?;
/// let prod = s.mul(sum, a)?;
/// s.materialize(prod)?;
/// let exec = machine.run_plan(&s.compile()?)?;
/// let report = exec.report();
/// // The fused schedule issues no more broadcasts than op-by-op execution would.
/// assert!(report.broadcasts <= report.eager_broadcasts);
/// assert_eq!(
///     report.broadcast_savings(),
///     report.eager_broadcasts as f64 / report.broadcasts as f64
/// );
/// assert!(report.broadcast_savings() >= 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanReport {
    /// Number of bbop operation steps executed.
    pub ops: usize,
    /// Number of constant-broadcast steps executed.
    pub constants: usize,
    /// Number of RowClone copy steps (inserted automatically to de-alias operands).
    pub copies: usize,
    /// Number of fused broadcasts (batches) issued.
    pub broadcasts: usize,
    /// MIMD dispatch windows the batches were issued in (≤ `broadcasts`): independent
    /// same-level batches co-issue in one window, so `broadcasts - windows` is the
    /// number of dispatches MIMD saved for this plan.
    pub windows: usize,
    /// Broadcasts the eager op-by-op path would have issued for the same steps.
    pub eager_broadcasts: usize,
    /// Total DRAM commands issued per subarray, summed over steps (analytic).
    pub commands: usize,
    /// Total elements processed across all operation steps.
    pub elements: usize,
    /// Analytic compute latency: the sum of the per-operation μProgram latencies.
    pub latency_ns: f64,
    /// Analytic DRAM energy over all operation steps and subarrays, in nanojoules.
    pub energy_nj: f64,
    /// Trace-measured busy window: the sum over dispatch windows of each window's
    /// max-over-subarrays latency (the fused schedule's serialization points). With
    /// MIMD windows off this degenerates to a sum over batches.
    pub measured_latency_ns: f64,
    /// Trace-measured dynamic DRAM energy over every step and subarray, in nanojoules.
    pub measured_energy_nj: f64,
    /// Bit flips the fault model injected while running this plan's batches (all steps,
    /// all subarrays, all guarded attempts; 0 with [`simdram_dram::FaultModel::Off`]).
    pub faults_injected: u64,
    /// Guarded retry attempts this plan's batches consumed (0 with
    /// [`crate::GuardMode::Off`]); each one re-ran a chunk's whole batch redundantly
    /// and charged [`crate::RETRY_BACKOFF_NS`] to the dispatch latency.
    pub fault_retries: u64,
    /// Per-operation reports, in step issue order (constant steps carry no report).
    pub step_reports: Vec<ExecutionReport>,
}

impl PlanReport {
    /// Ratio of eager broadcasts to fused broadcasts (≥ 1; higher means more fusion).
    pub fn broadcast_savings(&self) -> f64 {
        if self.broadcasts == 0 {
            1.0
        } else {
            self.eager_broadcasts as f64 / self.broadcasts as f64
        }
    }

    /// Throughput in giga-operations per second over the plan's analytic latency.
    pub fn throughput_gops(&self) -> f64 {
        if self.latency_ns == 0.0 {
            0.0
        } else {
            self.elements as f64 / self.latency_ns
        }
    }
}

impl fmt::Display for PlanReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan: {} ops + {} constants in {} broadcasts (eager: {}), \
             {} commands/subarray, {:.1} ns busy, {:.1} nJ",
            self.ops,
            self.constants,
            self.broadcasts,
            self.eager_broadcasts,
            self.commands,
            self.measured_latency_ns,
            self.measured_energy_nj
        )
    }
}

/// Cumulative statistics of a [`crate::SimdramMachine`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineStats {
    /// Number of bbop operations executed.
    pub operations: usize,
    /// Total elements processed across all operations.
    pub elements: usize,
    /// Total DRAM commands issued (per-subarray counts summed over operations).
    pub commands: usize,
    /// Total in-DRAM computation latency in nanoseconds.
    pub compute_latency_ns: f64,
    /// Total in-DRAM computation energy in nanojoules.
    pub compute_energy_nj: f64,
    /// Total transposition-unit latency in nanoseconds (host ↔ vertical layout conversion).
    pub transpose_latency_ns: f64,
    /// Total transposition-unit energy in nanojoules.
    pub transpose_energy_nj: f64,
}

impl MachineStats {
    /// Adds one execution report to the totals.
    pub fn record_execution(&mut self, report: &ExecutionReport) {
        self.operations += 1;
        self.elements += report.elements;
        self.commands += report.commands;
        self.compute_latency_ns += report.latency_ns;
        self.compute_energy_nj += report.energy_nj;
    }

    /// Adds one layout conversion to the totals.
    pub fn record_transpose(&mut self, latency_ns: f64, energy_nj: f64) {
        self.transpose_latency_ns += latency_ns;
        self.transpose_energy_nj += energy_nj;
    }

    /// Total latency (compute + transposition) in nanoseconds.
    pub fn total_latency_ns(&self) -> f64 {
        self.compute_latency_ns + self.transpose_latency_ns
    }

    /// Total energy (compute + transposition) in nanojoules.
    pub fn total_energy_nj(&self) -> f64 {
        self.compute_energy_nj + self.transpose_energy_nj
    }
}

impl fmt::Display for MachineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SIMDRAM machine statistics:")?;
        writeln!(f, "  operations executed : {}", self.operations)?;
        writeln!(f, "  elements processed  : {}", self.elements)?;
        writeln!(f, "  DRAM commands       : {}", self.commands)?;
        writeln!(
            f,
            "  compute latency     : {:.1} ns",
            self.compute_latency_ns
        )?;
        writeln!(
            f,
            "  compute energy      : {:.1} nJ",
            self.compute_energy_nj
        )?;
        writeln!(
            f,
            "  transpose latency   : {:.1} ns",
            self.transpose_latency_ns
        )?;
        write!(
            f,
            "  transpose energy    : {:.1} nJ",
            self.transpose_energy_nj
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ExecutionReport {
        ExecutionReport {
            op: Operation::Add,
            width: 32,
            elements: 65_536,
            subarrays_used: 1,
            commands: 300,
            tra_count: 96,
            latency_ns: 22_950.0,
            energy_nj: 1_000.0,
            measured_latency_ns: 22_950.0,
            measured_energy_nj: 1_000.0,
            bank_state_latency_ns: None,
            faults_injected: 0,
        }
    }

    #[test]
    fn throughput_and_efficiency_are_consistent() {
        let r = report();
        let gops = r.throughput_gops();
        assert!(gops > 1.0 && gops < 10.0);
        let power = r.average_power_w();
        assert!((r.gops_per_watt() - gops / power).abs() < 1e-9);
        assert!((r.energy_per_element_nj() - 1_000.0 / 65_536.0).abs() < 1e-12);
    }

    #[test]
    fn zero_latency_report_does_not_divide_by_zero() {
        let mut r = report();
        r.latency_ns = 0.0;
        r.elements = 0;
        assert_eq!(r.throughput_gops(), 0.0);
        assert_eq!(r.gops_per_watt(), 0.0);
        assert_eq!(r.energy_per_element_nj(), 0.0);
    }

    #[test]
    fn stats_accumulate_reports_and_transposes() {
        let mut stats = MachineStats::default();
        stats.record_execution(&report());
        stats.record_execution(&report());
        stats.record_transpose(100.0, 5.0);
        assert_eq!(stats.operations, 2);
        assert_eq!(stats.elements, 2 * 65_536);
        assert!((stats.total_latency_ns() - (2.0 * 22_950.0 + 100.0)).abs() < 1e-9);
        assert!((stats.total_energy_nj() - 2_005.0).abs() < 1e-9);
    }

    #[test]
    fn display_renders_key_fields() {
        let text = report().to_string();
        assert!(text.contains("addition"));
        assert!(text.contains("GOPS"));
        let stats_text = MachineStats::default().to_string();
        assert!(stats_text.contains("operations executed"));
    }

    #[test]
    fn plan_report_broadcast_savings_and_display() {
        let plan = PlanReport {
            ops: 5,
            constants: 2,
            copies: 0,
            broadcasts: 3,
            windows: 2,
            eager_broadcasts: 7,
            commands: 120,
            elements: 5 * 300,
            latency_ns: 1_000.0,
            energy_nj: 40.0,
            measured_latency_ns: 1_000.0,
            measured_energy_nj: 80.0,
            faults_injected: 0,
            fault_retries: 0,
            step_reports: vec![report()],
        };
        assert!((plan.broadcast_savings() - 7.0 / 3.0).abs() < 1e-12);
        assert!((plan.throughput_gops() - 1_500.0 / 1_000.0).abs() < 1e-12);
        let text = plan.to_string();
        assert!(text.contains("5 ops"));
        assert!(text.contains("eager: 7"));
        // Degenerate empty plan reports stay finite.
        let empty = PlanReport::default();
        assert_eq!(empty.broadcast_savings(), 1.0);
        assert_eq!(empty.throughput_gops(), 0.0);
    }
}
