//! Aggregated DRAM command statistics.

use std::collections::BTreeMap;
use std::fmt;

use crate::command::{CommandKind, CommandTrace};

/// Device-level aggregation of command counts, latency and energy.
///
/// Produced by [`crate::DramDevice::stats`] and by higher layers that account for
/// μProgram execution analytically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceStats {
    counts: BTreeMap<&'static str, usize>,
    total_commands: usize,
    total_latency_ns: f64,
    total_energy_nj: f64,
    injected_faults: u64,
}

impl DeviceStats {
    /// Creates an empty statistics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs every command of a trace into the aggregate.
    ///
    /// Uses the trace's incrementally maintained aggregates (per-kind counts and
    /// latency/energy totals), so this is O(cost-table size), not O(commands), and it
    /// covers commands whose per-command history was drained.
    pub fn absorb_trace(&mut self, trace: &CommandTrace) {
        for (kind, count) in trace.kind_counts() {
            *self.counts.entry(kind_name(kind)).or_insert(0) += count;
        }
        self.total_commands += trace.len();
        self.total_latency_ns += trace.total_latency_ns();
        self.total_energy_nj += trace.total_energy_nj();
    }

    /// Number of commands of the given kind.
    pub fn count(&self, kind: CommandKind) -> usize {
        self.counts.get(kind_name(kind)).copied().unwrap_or(0)
    }

    /// Total number of commands of any kind.
    pub fn total_commands(&self) -> usize {
        self.total_commands
    }

    /// Sum of command latencies in nanoseconds (sequential issue assumption).
    pub fn total_latency_ns(&self) -> f64 {
        self.total_latency_ns
    }

    /// Sum of command energies in nanojoules.
    pub fn total_energy_nj(&self) -> f64 {
        self.total_energy_nj
    }

    /// Adds `n` injected-fault bit flips to the aggregate (see
    /// [`crate::Subarray::faults_injected`]).
    pub fn add_injected_faults(&mut self, n: u64) {
        self.injected_faults += n;
    }

    /// Total bits flipped by fault injection (0 with [`crate::FaultModel::Off`]).
    pub fn injected_faults(&self) -> u64 {
        self.injected_faults
    }

    /// Merges another statistics record into this one.
    pub fn merge(&mut self, other: &DeviceStats) {
        for (k, v) in &other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
        self.total_commands += other.total_commands;
        self.total_latency_ns += other.total_latency_ns;
        self.total_energy_nj += other.total_energy_nj;
        self.injected_faults += other.injected_faults;
    }
}

impl fmt::Display for DeviceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DRAM command statistics:")?;
        for (kind, count) in &self.counts {
            writeln!(f, "  {kind:<8} {count}")?;
        }
        writeln!(f, "  total commands: {}", self.total_commands)?;
        writeln!(f, "  total latency : {:.1} ns", self.total_latency_ns)?;
        write!(f, "  total energy  : {:.1} nJ", self.total_energy_nj)?;
        if self.injected_faults > 0 {
            write!(f, "\n  injected faults: {}", self.injected_faults)?;
        }
        Ok(())
    }
}

fn kind_name(kind: CommandKind) -> &'static str {
    match kind {
        CommandKind::ActivatePrecharge => "AP",
        CommandKind::TripleRowActivate => "AP(TRA)",
        CommandKind::ActivateActivatePrecharge => "AAP",
        CommandKind::Read => "RD",
        CommandKind::Write => "WR",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::DramCommand;

    fn trace_with(kinds: &[CommandKind]) -> CommandTrace {
        let mut t = CommandTrace::new();
        for &kind in kinds {
            t.push(DramCommand {
                kind,
                latency_ns: 5.0,
                energy_nj: 1.0,
                row: crate::command::rowtag::UNKNOWN,
            });
        }
        t
    }

    #[test]
    fn absorb_counts_by_kind() {
        let mut stats = DeviceStats::new();
        stats.absorb_trace(&trace_with(&[
            CommandKind::ActivateActivatePrecharge,
            CommandKind::ActivateActivatePrecharge,
            CommandKind::TripleRowActivate,
        ]));
        assert_eq!(stats.count(CommandKind::ActivateActivatePrecharge), 2);
        assert_eq!(stats.count(CommandKind::TripleRowActivate), 1);
        assert_eq!(stats.count(CommandKind::Read), 0);
        assert_eq!(stats.total_commands(), 3);
        assert!((stats.total_latency_ns() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = DeviceStats::new();
        a.absorb_trace(&trace_with(&[CommandKind::Read]));
        let mut b = DeviceStats::new();
        b.absorb_trace(&trace_with(&[CommandKind::Read, CommandKind::Write]));
        a.merge(&b);
        assert_eq!(a.count(CommandKind::Read), 2);
        assert_eq!(a.count(CommandKind::Write), 1);
        assert_eq!(a.total_commands(), 3);
    }

    #[test]
    fn display_contains_totals() {
        let mut stats = DeviceStats::new();
        stats.absorb_trace(&trace_with(&[CommandKind::Write]));
        let text = stats.to_string();
        assert!(text.contains("total commands: 1"));
        assert!(text.contains("WR"));
    }
}
