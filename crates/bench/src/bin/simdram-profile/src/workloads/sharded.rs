//! `sharded_scan`: a four-device `ShardedMachine` compares two 12-bit columns of eight
//! device-fulls each. One column is placed `Contiguous` and the other `Interleaved`, so
//! every comparison reshards across the link; the columns are written and the result
//! read back every iteration, which puts transposition and I/O on the hot path.

use simdram_core::{LinkModel, ShardPolicy, ShardedMachine, SimdramConfig};
use simdram_logic::Operation;

use super::{config, BoxError, LibTotals, Modeled, ProbeSpec, Scale, Workload};
use crate::stats::Rng;
use crate::trace::{Layer, Recorder};

const DEVICES: usize = 4;
const WIDTH: usize = 12;
/// Column length, in device-fulls (`wave_capacity`).
const WAVES: usize = 8;

#[derive(Debug)]
pub struct ShardedScan {
    config: SimdramConfig,
    a: Vec<u64>,
    b: Vec<u64>,
    /// `a[i] > b[i]` as 0/1.
    expected: Vec<u64>,
}

impl ShardedScan {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let config = match scale {
            Scale::Full => config(4, 4, 1_024),
            Scale::Smoke => config(2, 2, 256),
        };
        let elements = WAVES * config.total_lanes();
        let mut rng = Rng::new(seed);
        let a = rng.values(elements, 0, 1 << WIDTH);
        let b = rng.values(elements, 0, 1 << WIDTH);
        let expected = a.iter().zip(&b).map(|(x, y)| u64::from(x > y)).collect();
        ShardedScan {
            config,
            a,
            b,
            expected,
        }
    }
}

impl Workload for ShardedScan {
    type State = ShardedMachine;

    fn build(&self) -> Result<ShardedMachine, BoxError> {
        Ok(ShardedMachine::new(
            self.config.clone(),
            DEVICES,
            ShardPolicy::Contiguous,
            LinkModel::default(),
        )?)
    }

    fn iterate(&self, fleet: &mut ShardedMachine, rec: &mut Recorder) {
        let n = self.a.len();
        let a = rec.io(Layer::TopologyWrite, n, WIDTH, || {
            fleet.alloc_and_write_with(WIDTH, &self.a, ShardPolicy::Contiguous)
        });
        let b = rec.io(Layer::TopologyWrite, n, WIDTH, || {
            fleet.alloc_and_write_with(WIDTH, &self.b, ShardPolicy::Interleaved)
        });
        match (a, b) {
            (Ok(a), Ok(b)) => {
                rec.uses_program(Operation::Greater, WIDTH);
                match rec.span(Layer::TopologyExec, || {
                    fleet.binary(Operation::Greater, &a, &b)
                }) {
                    Ok(greater) => {
                        let out = rec.io(Layer::TopologyRead, n, 1, || fleet.read(&greater));
                        rec.check(out.as_deref(), &self.expected);
                        rec.span(Layer::Alloc, || fleet.free(greater));
                    }
                    Err(err) => rec.fail(err),
                }
                rec.span(Layer::Alloc, || {
                    fleet.free(a);
                    fleet.free(b);
                });
            }
            (a, b) => {
                for result in [a, b] {
                    match result {
                        Ok(v) => fleet.free(v),
                        Err(err) => rec.fail(err),
                    }
                }
            }
        }
    }

    fn episode_len(&self) -> Option<usize> {
        None
    }

    fn totals(&self, fleet: &ShardedMachine) -> LibTotals {
        LibTotals {
            broadcasts: fleet.estimate().broadcasts() as u64,
            dispatch_windows: (0..fleet.devices())
                .map(|d| fleet.device(d).dispatch_windows_issued())
                .sum(),
            commands: fleet.device_stats().total_commands() as u64,
            moved_bytes: fleet.movement().bytes as u64,
            ..LibTotals::default()
        }
    }

    fn modeled(&self, fleet: &ShardedMachine, iterations: usize) -> Modeled {
        let estimate = fleet.estimate();
        let makespan_ns = estimate.makespan_ns();
        let busy_ns = makespan_ns / iterations as f64;
        Modeled {
            busy_ns,
            energy_nj: estimate.energy_nj() / iterations as f64,
            // One client, one job per iteration, no queueing.
            p99_turnaround_ns: busy_ns,
            movement_share: estimate.movement.latency_ns / makespan_ns,
            dispatch_savings: 0.0,
        }
    }

    fn probe_spec(&self) -> ProbeSpec {
        ProbeSpec {
            config: self.config.clone(),
            column: self.a[..self.config.dram.columns_per_row].to_vec(),
            column_width: WIDTH,
        }
    }
}
