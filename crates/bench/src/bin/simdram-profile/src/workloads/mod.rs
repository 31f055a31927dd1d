//! The four workloads: each drives the library through its public API from one thread,
//! as a closed loop with one client, and checks every output against a host reference
//! computed when its inputs were generated.

use std::error::Error;

use simdram_core::SimdramConfig;
use simdram_dram::DramConfig;

use crate::run::{run, Outcome, Settings};
use crate::trace::Recorder;

mod kernels;
mod serve;
mod sharded;

pub use kernels::Kernels;
pub use serve::Serve;
pub use sharded::ShardedScan;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["kernels", "kernels_bankstate", "serve", "sharded_scan"];

/// Generates the named workload's inputs from `seed` and runs it; `None` for an unknown
/// name.
pub fn run_named(
    name: &str,
    seed: u64,
    scale: Scale,
    settings: &Settings,
) -> Option<Result<Outcome, BoxError>> {
    Some(match name {
        "kernels" => run(&Kernels::new(seed, scale, false), settings),
        "kernels_bankstate" => run(&Kernels::new(seed, scale, true), settings),
        "serve" => run(&Serve::new(seed, scale), settings),
        "sharded_scan" => run(&ShardedScan::new(seed, scale), settings),
        _ => return None,
    })
}

/// Problem size. Only [`Scale::Full`] is reachable from the command line; the tests run
/// every workload at [`Scale::Smoke`] so a debug build finishes in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// Cumulative library counters read between iterations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LibTotals {
    /// Broadcasts absorbed into the machine estimates.
    pub broadcasts: u64,
    /// Dispatch windows the control units issued.
    pub dispatch_windows: u64,
    /// DRAM commands executed, summed over chunks.
    pub commands: u64,
    /// Bytes moved between devices.
    pub moved_bytes: u64,
    /// Serving dispatch windows run.
    pub serve_windows: u64,
}

impl LibTotals {
    pub fn delta(&self, before: &LibTotals) -> LibTotals {
        LibTotals {
            broadcasts: self.broadcasts - before.broadcasts,
            dispatch_windows: self.dispatch_windows - before.dispatch_windows,
            commands: self.commands - before.commands,
            moved_bytes: self.moved_bytes - before.moved_bytes,
            serve_windows: self.serve_windows - before.serve_windows,
        }
    }

    pub fn add(&mut self, other: &LibTotals) {
        self.broadcasts += other.broadcasts;
        self.dispatch_windows += other.dispatch_windows;
        self.commands += other.commands;
        self.moved_bytes += other.moved_bytes;
        self.serve_windows += other.serve_windows;
    }
}

/// Numbers on the modeled DRAM clock, per iteration. They do not depend on the host or
/// on the seed, so they must repeat bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Modeled {
    /// Modeled busy time, in ns.
    pub busy_ns: f64,
    /// Modeled dynamic DRAM energy, in nJ.
    pub energy_nj: f64,
    /// 99th-percentile modeled submit-to-completion time of one job, in ns.
    pub p99_turnaround_ns: f64,
    /// Share of the modeled makespan spent moving data between devices.
    pub movement_share: f64,
    /// Sequential over fused dispatches of the serving layer (0 when nothing is served).
    pub dispatch_savings: f64,
}

/// What the lower-layer probes need to re-run a workload's μPrograms and columns on
/// standalone objects.
#[derive(Debug, Clone)]
pub struct ProbeSpec {
    pub config: SimdramConfig,
    /// One column the workload writes, transposed by the transposition probe.
    pub column: Vec<u64>,
    pub column_width: usize,
}

pub type BoxError = Box<dyn Error>;

pub trait Workload {
    type State;

    /// Constructs the machine, server or fleet.
    fn build(&self) -> Result<Self::State, BoxError>;

    /// One timed iteration. Failures are counted on `rec`, never propagated.
    fn iterate(&self, state: &mut Self::State, rec: &mut Recorder);

    /// Iterations after which the state is rebuilt, for workloads whose cost depends on
    /// history; `None` keeps one state for the whole run.
    fn episode_len(&self) -> Option<usize>;

    fn totals(&self, state: &Self::State) -> LibTotals;

    /// Modeled numbers per iteration, given the iterations run since [`Workload::build`].
    fn modeled(&self, state: &Self::State, iterations: usize) -> Modeled;

    fn probe_spec(&self) -> ProbeSpec;
}

/// `SimdramConfig` over a `banks × subarrays` geometry of 256-row subarrays (96 rows
/// reserved), computing on every subarray. Every other field keeps the library default,
/// so a later change of a default is measured.
fn config(banks: usize, subarrays: usize, columns: usize) -> SimdramConfig {
    let dram = DramConfig::builder()
        .banks(banks)
        .subarrays_per_bank(subarrays)
        .rows_per_subarray(256)
        .columns_per_row(columns)
        .reserved_rows(96)
        .build()
        .expect("benchmark geometries are valid");
    SimdramConfig {
        dram,
        compute_banks: banks,
        compute_subarrays_per_bank: subarrays,
        ..SimdramConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::run::MIN_COVERAGE;

    fn smoke(name: &str, seed: u64) -> Outcome {
        let settings = Settings {
            seconds: 0.0,
            min_iterations: 2,
            setups: 1,
            setup_seconds: 0.0,
            trace: true,
        };
        run_named(name, seed, Scale::Smoke, &settings)
            .expect("known workload")
            .expect("workload runs")
    }

    /// Per-layer metrics that count work: they depend neither on the host nor on the
    /// data, so they must repeat exactly.
    fn counts(outcome: &Outcome) -> Vec<(&'static str, f64)> {
        outcome
            .metrics
            .iter()
            .filter(|(m, _)| {
                matches!(m.unit, "count" | "B")
                    || matches!(m.name, "serve.dispatch_savings" | "topology.movement_share")
            })
            .map(|(m, v)| (m.name, *v))
            .collect()
    }

    fn inputs(name: &str, seed: u64) -> String {
        match name {
            "kernels" => format!("{:?}", Kernels::new(seed, Scale::Smoke, false)),
            "kernels_bankstate" => format!("{:?}", Kernels::new(seed, Scale::Smoke, true)),
            "serve" => format!("{:?}", Serve::new(seed, Scale::Smoke)),
            "sharded_scan" => format!("{:?}", ShardedScan::new(seed, Scale::Smoke)),
            _ => unreachable!("unknown workload {name}"),
        }
    }

    #[test]
    fn every_workload_verifies_and_repeats_its_modeled_numbers_and_counts() {
        for name in NAMES {
            let first = smoke(name, 1);
            assert!(first.correct(), "{name}: {:?}", first.problems);
            assert_eq!(first.failed, 0, "{name}");
            assert!(first.attempted > 0, "{name}");
            assert!(
                first.modeled.busy_ns > 0.0 && first.modeled.energy_nj > 0.0,
                "{name}"
            );

            let again = smoke(name, 1);
            assert_eq!(
                first.modeled, again.modeled,
                "{name}: modeled numbers differ"
            );
            assert_eq!(counts(&first), counts(&again), "{name}: counts differ");

            // Bit-serial μPrograms issue the same commands whatever the data, so another
            // seed changes the inputs but no modeled number and no count.
            assert_eq!(inputs(name, 1), inputs(name, 1), "{name}");
            assert_ne!(inputs(name, 1), inputs(name, 2), "{name}");
            let other = smoke(name, 2);
            assert!(other.correct(), "{name}: {:?}", other.problems);
            assert_eq!(
                first.modeled, other.modeled,
                "{name}: modeled numbers depend on the seed"
            );
            assert_eq!(
                counts(&first),
                counts(&other),
                "{name}: counts depend on the seed"
            );
        }
    }

    #[test]
    fn traced_spans_cover_the_iteration_and_are_declared_metrics() {
        for name in NAMES {
            let outcome = smoke(name, 3);
            let coverage = outcome.metric("trace.coverage").expect("declared");
            // Spans never nest, so their self times cannot sum past the iteration wall.
            assert!(
                (MIN_COVERAGE..=1.0).contains(&coverage),
                "{name}: coverage {coverage}"
            );
            let traced = outcome.traced.as_ref().expect("traced run");
            for span in traced.span_names() {
                assert!(
                    PER_LAYER.iter().any(|m| m.name == span),
                    "{name}: span {span} is not a declared per-layer metric"
                );
            }
            let trace = traced.chrome_trace();
            let events = trace
                .get("traceEvents")
                .and_then(|e| e.as_arr())
                .expect("events");
            assert!(events.len() > 2, "{name}");
        }
    }
}
