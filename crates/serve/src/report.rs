//! Serving-level accounting: per-window placement records and the aggregate
//! [`ServeReport`].

use std::fmt;

use simdram_core::FaultError;

use crate::queue::JobId;
use crate::tenant::TenantId;

/// Why a job was dropped from its dispatch window: a chunk inside the job's placement
/// kept failing guarded execution until the machine's retry budget ran out.
///
/// Carried by [`ServeError::JobFaulted`](crate::ServeError::JobFaulted). The failure is
/// contained to this job — the window's other jobs were re-dispatched and completed —
/// and the offending subarray may have been quarantined (see
/// [`PlanServer::health`](crate::PlanServer::health)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// The machine-level description of the failing chunk.
    pub fault: FaultError,
    /// The dispatch window in which the job faulted.
    pub window: usize,
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (window {})", self.fault, self.window)
    }
}

/// A point-in-time health snapshot of a [`PlanServer`](crate::PlanServer): how much of
/// the machine is still placeable and what the fault/recovery counters say.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerHealth {
    /// Compute chunks the machine was built with.
    pub compute_chunks: usize,
    /// Chunks currently free for placement (excludes reserved *and* quarantined).
    pub free_chunks: usize,
    /// Chunks permanently removed from circulation after repeated guarded failures.
    pub quarantined_chunks: usize,
    /// Fraction of the machine lost to quarantine (`quarantined / compute`; 0.0 on a
    /// healthy server).
    pub degraded_fraction: f64,
    /// Bit flips the fault model injected so far (0 with faults off).
    pub injected_faults: u64,
    /// Fault events guarded execution detected (recovered + exhausted).
    pub detected_faults: u64,
    /// Detected fault events that retry resolved.
    pub recovered_faults: u64,
    /// Detected fault events that exhausted the retry budget.
    pub exhausted_faults: u64,
    /// Jobs dropped from their windows with a [`FaultReport`].
    pub jobs_faulted: usize,
}

impl ServerHealth {
    /// `true` when no capacity has been lost and no job has been dropped.
    pub fn is_healthy(&self) -> bool {
        self.quarantined_chunks == 0 && self.jobs_faulted == 0
    }
}

impl fmt::Display for ServerHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "health: {}/{} chunks free, {} quarantined ({:.1}% degraded), \
             {} faults injected, {} detected ({} recovered, {} exhausted), {} jobs faulted",
            self.free_chunks,
            self.compute_chunks,
            self.quarantined_chunks,
            self.degraded_fraction * 100.0,
            self.injected_faults,
            self.detected_faults,
            self.recovered_faults,
            self.exhausted_faults,
            self.jobs_faulted
        )
    }
}

/// Where one admitted job ran during a dispatch window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPlacement {
    /// The admitted job.
    pub job: JobId,
    /// The tenant that owns it.
    pub tenant: TenantId,
    /// First compute chunk of the job's reservation.
    pub offset: usize,
    /// Number of consecutive chunks reserved.
    pub chunks: usize,
}

/// One dispatch window: the disjoint placements it packed and what the fused run
/// cost. The server appends one record per window to
/// [`PlanServer::window_log`](crate::PlanServer::window_log) — the packing invariants
/// (placement disjointness in particular) are asserted against this log in the
/// property tests.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRecord {
    /// Zero-based window index.
    pub window: usize,
    /// The admitted jobs' placements, in admission order.
    pub placements: Vec<JobPlacement>,
    /// Fused broadcast dispatches the window issued: the `max` of the participants'
    /// MIMD dispatch-window counts (≤ their batch counts — independent same-level
    /// batches co-issue in one window).
    pub dispatches: usize,
    /// Broadcast dispatches the same jobs would have issued run back-to-back (`Σ` of
    /// the participants' batch counts).
    pub sequential_dispatches: usize,
    /// The window's modeled busy latency: compute plus the input/output transposition
    /// shipping for every participant.
    pub busy_ns: f64,
}

/// Per-tenant slice of a [`ServeReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// The tenant's id.
    pub tenant: TenantId,
    /// The tenant's display name.
    pub name: String,
    /// The tenant's fairness weight.
    pub weight: u64,
    /// Jobs accepted into the queue.
    pub jobs_submitted: usize,
    /// Jobs served to completion.
    pub jobs_completed: usize,
    /// Submissions rejected at admission (queue full or over quota).
    pub jobs_rejected: usize,
    /// Fused broadcasts attributed to the tenant's own batches.
    pub broadcasts: usize,
    /// The tenant's own modeled busy time, identical to its solo accounting.
    pub busy_ns: f64,
    /// The tenant's own modeled DRAM energy.
    pub energy_nj: f64,
    /// Deepest queue backlog observed for this tenant.
    pub max_queue_depth: usize,
    /// Median modeled submit→completion turnaround (nearest-rank).
    pub p50_turnaround_ns: f64,
    /// 95th-percentile modeled turnaround (nearest-rank).
    pub p95_turnaround_ns: f64,
    /// 99th-percentile modeled turnaround (nearest-rank).
    pub p99_turnaround_ns: f64,
    /// Fraction of all tenants' busy time this tenant consumed (0 when nothing ran).
    pub share: f64,
    /// Jobs dropped after exhausting the machine's fault-retry budget.
    pub jobs_faulted: usize,
    /// Guarded-execution retries spent on the tenant's *completed* jobs.
    pub fault_retries: u64,
}

/// Aggregate accounting for everything a [`PlanServer`](crate::PlanServer) has served
/// so far.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Dispatch windows run.
    pub windows: usize,
    /// Jobs served to completion, across all tenants.
    pub jobs_completed: usize,
    /// Submissions rejected at admission, across all tenants.
    pub jobs_rejected: usize,
    /// Fused broadcast dispatches actually issued.
    pub fused_dispatches: usize,
    /// Dispatches the same jobs would have issued run back-to-back per tenant.
    pub sequential_dispatches: usize,
    /// Total modeled busy time of the machine (compute + data shipping).
    pub busy_ns: f64,
    /// Total modeled DRAM energy across all served jobs.
    pub energy_nj: f64,
    /// Jobs dropped with a [`FaultReport`] after exhausting retries, across all tenants.
    pub jobs_faulted: usize,
    /// Guarded-execution retries spent on completed jobs, across all tenants.
    pub fault_retries: u64,
    /// Compute chunks the machine has quarantined after repeated faults.
    pub quarantined_chunks: usize,
    /// One slice per registered tenant, in registration order.
    pub tenants: Vec<TenantReport>,
}

impl ServeReport {
    /// How many× fewer dispatches cross-tenant fusion issued than back-to-back
    /// execution (`sequential / fused`; 1.0 when nothing ran).
    pub fn dispatch_savings(&self) -> f64 {
        if self.fused_dispatches == 0 {
            1.0
        } else {
            self.sequential_dispatches as f64 / self.fused_dispatches as f64
        }
    }

    /// Jain's fairness index over the tenants' weight-normalized busy time
    /// (`busy_ns / weight`), computed over tenants that completed at least one job.
    ///
    /// 1.0 means every active tenant consumed machine time exactly proportionally to
    /// its weight; `1/n` is the worst case (one tenant got everything).
    pub fn jain_fairness(&self) -> f64 {
        let shares: Vec<f64> = self
            .tenants
            .iter()
            .filter(|t| t.jobs_completed > 0)
            .map(|t| t.busy_ns / t.weight as f64)
            .collect();
        if shares.is_empty() {
            return 1.0;
        }
        let sum: f64 = shares.iter().sum();
        let sum_sq: f64 = shares.iter().map(|x| x * x).sum();
        if sum_sq == 0.0 {
            return 1.0;
        }
        (sum * sum) / (shares.len() as f64 * sum_sq)
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "served {} jobs in {} windows: {} fused dispatches (vs {} sequential, \
             {:.2}x), busy {:.1} us, {:.1} uJ, Jain fairness {:.3}",
            self.jobs_completed,
            self.windows,
            self.fused_dispatches,
            self.sequential_dispatches,
            self.dispatch_savings(),
            self.busy_ns / 1_000.0,
            self.energy_nj / 1_000.0,
            self.jain_fairness()
        )?;
        if self.jobs_faulted > 0 || self.fault_retries > 0 || self.quarantined_chunks > 0 {
            writeln!(
                f,
                "  faults: {} jobs dropped, {} retries on completed jobs, \
                 {} chunks quarantined",
                self.jobs_faulted, self.fault_retries, self.quarantined_chunks
            )?;
        }
        for t in &self.tenants {
            writeln!(
                f,
                "  {} ({}, w={}): {}/{} jobs ({} rejected), {} broadcasts, \
                 {:.1} us busy ({:.1}% share), p50/p95/p99 {:.1}/{:.1}/{:.1} us",
                t.name,
                t.tenant,
                t.weight,
                t.jobs_completed,
                t.jobs_submitted,
                t.jobs_rejected,
                t.broadcasts,
                t.busy_ns / 1_000.0,
                t.share * 100.0,
                t.p50_turnaround_ns / 1_000.0,
                t.p95_turnaround_ns / 1_000.0,
                t.p99_turnaround_ns / 1_000.0,
            )?;
            if t.jobs_faulted > 0 || t.fault_retries > 0 {
                writeln!(
                    f,
                    "    faults: {} jobs dropped, {} retries",
                    t.jobs_faulted, t.fault_retries
                )?;
            }
        }
        Ok(())
    }
}

/// Nearest-rank percentile (`p` in 0..=100) over an unsorted sample; 0.0 for an empty
/// sample.
pub(crate) fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 95.0), 95.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_tolerates_nan_samples() {
        // total_cmp orders NaN after every finite value, so a stray NaN (e.g. a 0/0
        // turnaround from a degenerate clock) lands at the top instead of panicking
        // or poisoning the sort.
        let samples = vec![3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(percentile(&samples, 50.0), 2.0);
        assert_eq!(percentile(&samples, 25.0), 1.0);
        assert!(percentile(&samples, 100.0).is_nan());
        assert!(percentile(&[f64::NAN], 50.0).is_nan());
    }
}
