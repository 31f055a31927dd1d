//! `serve`: a `PlanServer` shared by eight weighted tenants, each submitting one
//! brightness-, knn- or tpch-shaped job per round.
//!
//! The engine does little here; plan build and compile, scheduling, dispatch and report
//! assembly carry the cost. `report()` is called every round, as a monitoring client
//! would, and its cost grows with the served history, so the workload runs in fixed
//! episodes from a fresh server: every run does the same work at the same history depth.

use std::hint::black_box;

use simdram_core::{CoreError, PlanBuilder, PlanOutput, SimdVector, SimdramConfig, SimdramMachine};
use simdram_logic::Operation;
use simdram_serve::{JobId, PlanServer, ServeConfig, TenantId, TenantSpec};

use super::{config, BoxError, LibTotals, Modeled, ProbeSpec, Scale, Workload};
use crate::stats::Rng;
use crate::trace::{Layer, Recorder};

const TENANTS: usize = 8;
const WIDTH: usize = 8;
/// Constant sets cycled through by job index, so consecutive jobs of one tenant differ.
const VARIANTS: usize = 16;

#[derive(Debug, Clone, Copy)]
enum Shape {
    Brightness,
    Knn,
    Tpch,
}

impl Shape {
    /// The job's constants for `variant`; distinct within a plan, so subexpression
    /// sharing cannot fold them.
    fn constants(self, variant: usize) -> [u64; 3] {
        let v = variant as u64;
        match self {
            Shape::Brightness => [40 + v, 0xFF, 0],
            Shape::Knn => [90 + v, 200 - v, 0],
            Shape::Tpch => [32 + 4 * v, 128 + 4 * v, 0],
        }
    }

    /// Host reference, node by node, with the library's scalar operation semantics.
    fn reference(self, x: u64, [c0, c1, c2]: [u64; 3]) -> u64 {
        let op = |op: Operation, a, b, pred| op.reference(WIDTH, a, b, pred);
        match self {
            Shape::Brightness => {
                let sum = op(Operation::Add, x, c0, false);
                let ok = op(Operation::GreaterEqual, sum, x, false) == 1;
                op(Operation::IfElse, sum, c1, ok)
            }
            Shape::Knn => {
                let d0 = op(Operation::Abs, op(Operation::Sub, x, c0, false), 0, false);
                let d1 = op(Operation::Abs, op(Operation::Sub, x, c1, false), 0, false);
                op(Operation::Add, d0, d1, false)
            }
            Shape::Tpch => {
                let ge = op(Operation::GreaterEqual, x, c0, false);
                let le = op(Operation::GreaterEqual, c1, x, false);
                let selected = Operation::Min.reference(1, ge, le, false) == 1;
                op(Operation::IfElse, x, c2, selected)
            }
        }
    }

    fn build(
        self,
        plan: &mut PlanBuilder,
        input: &SimdVector,
        variant: usize,
    ) -> Result<PlanOutput, CoreError> {
        let n = input.len();
        let [c0, c1, c2] = self.constants(variant);
        let x = plan.input(input);
        let c0 = plan.constant(WIDTH, n, c0)?;
        let c1 = plan.constant(WIDTH, n, c1)?;
        let out = match self {
            Shape::Brightness => {
                let sum = plan.add(x, c0)?;
                let ok = plan.greater_equal(sum, x)?;
                plan.select(ok, sum, c1)?
            }
            Shape::Knn => {
                let d0 = plan.sub(x, c0)?;
                let d1 = plan.sub(x, c1)?;
                let a0 = plan.abs(d0)?;
                let a1 = plan.abs(d1)?;
                plan.add(a0, a1)?
            }
            Shape::Tpch => {
                let zero = plan.constant(WIDTH, n, c2)?;
                let ge = plan.greater_equal(x, c0)?;
                let le = plan.greater_equal(c1, x)?;
                let selected = plan.min(ge, le)?;
                plan.select(selected, x, zero)?
            }
        };
        plan.materialize(out)
    }
}

#[derive(Debug)]
struct Tenant {
    weight: u64,
    shape: Shape,
    values: Vec<u64>,
    /// Expected output per constant variant.
    expected: Vec<Vec<u64>>,
}

#[derive(Debug)]
pub struct Serve {
    config: SimdramConfig,
    tenants: Vec<Tenant>,
    rounds: usize,
}

#[derive(Debug)]
pub struct ServeState {
    server: PlanServer,
    inputs: Vec<(TenantId, SimdVector)>,
    round: usize,
}

impl Serve {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (config, elements, rounds) = match scale {
            Scale::Full => (config(4, 4, 1_024), 1_024, 8_000),
            Scale::Smoke => (config(2, 2, 256), 256, 4),
        };
        let shapes = [Shape::Brightness, Shape::Knn, Shape::Tpch];
        let mut rng = Rng::new(seed);
        let tenants = (0..TENANTS)
            .map(|t| {
                let shape = shapes[t % shapes.len()];
                let values = rng.values(elements, 0, 256);
                let expected = (0..VARIANTS)
                    .map(|v| {
                        let constants = shape.constants(v);
                        values
                            .iter()
                            .map(|&x| shape.reference(x, constants))
                            .collect()
                    })
                    .collect();
                Tenant {
                    weight: t as u64 % 3 + 1,
                    shape,
                    values,
                    expected,
                }
            })
            .collect();
        Serve {
            config,
            tenants,
            rounds,
        }
    }

    /// Builds, compiles and submits tenant `t`'s job for this round.
    fn submit(
        &self,
        state: &mut ServeState,
        rec: &mut Recorder,
        t: usize,
        variant: usize,
    ) -> Result<(JobId, PlanOutput), BoxError> {
        let (id, input) = state.inputs[t];
        let shape = self.tenants[t].shape;
        let (builder, out) = rec.span(Layer::PlanBuild, || {
            let mut builder = PlanBuilder::new();
            shape
                .build(&mut builder, &input, variant)
                .map(|out| (builder, out))
        })?;
        let plan = rec.compile(builder)?;
        let job = rec.span(Layer::ServeSubmit, || state.server.submit(id, plan))?;
        Ok((job, out))
    }
}

impl Workload for Serve {
    type State = ServeState;

    fn build(&self) -> Result<ServeState, BoxError> {
        let machine = SimdramMachine::new(self.config.clone())?;
        let serve_config = ServeConfig {
            max_jobs_per_window: 2,
            ..ServeConfig::new()
        };
        let mut server = PlanServer::new(machine, serve_config);
        let mut inputs = Vec::with_capacity(self.tenants.len());
        for (t, tenant) in self.tenants.iter().enumerate() {
            let spec = TenantSpec::new(format!("tenant-{t}")).with_weight(tenant.weight);
            let id = server.register_tenant(spec);
            inputs.push((id, server.write_input(id, WIDTH, &tenant.values)?));
        }
        Ok(ServeState {
            server,
            inputs,
            round: 0,
        })
    }

    fn iterate(&self, state: &mut ServeState, rec: &mut Recorder) {
        let variant = state.round % VARIANTS;
        let mut jobs = Vec::with_capacity(self.tenants.len());
        for t in 0..self.tenants.len() {
            match self.submit(state, rec, t, variant) {
                Ok((job, out)) => jobs.push((t, job, out)),
                Err(err) => rec.fail(err),
            }
        }
        loop {
            match rec.span(Layer::ServeWindow, || state.server.run_window()) {
                Ok(Some(_)) => {}
                Ok(None) => break,
                // The window's jobs are aborted; take_result counts each as failed.
                Err(err) => {
                    rec.note(err);
                    break;
                }
            }
        }
        rec.span(Layer::ServeReport, || {
            drop(black_box(state.server.report()))
        });
        for (t, job, out) in jobs {
            let result = rec.span(Layer::ServeTake, || state.server.take_result(job));
            let output = result.as_ref().map(|r| r.output(out));
            rec.check(output, &self.tenants[t].expected[variant]);
        }
        state.round += 1;
    }

    fn episode_len(&self) -> Option<usize> {
        Some(self.rounds)
    }

    fn totals(&self, state: &ServeState) -> LibTotals {
        let m = state.server.machine();
        LibTotals {
            broadcasts: m.estimate().broadcasts as u64,
            dispatch_windows: m.dispatch_windows_issued(),
            commands: m.device_stats().total_commands() as u64,
            serve_windows: state.server.window_log().len() as u64,
            ..LibTotals::default()
        }
    }

    fn modeled(&self, state: &ServeState, iterations: usize) -> Modeled {
        let report = state.server.report();
        Modeled {
            busy_ns: report.busy_ns / iterations as f64,
            energy_nj: report.energy_nj / iterations as f64,
            p99_turnaround_ns: report
                .tenants
                .iter()
                .map(|t| t.p99_turnaround_ns)
                .fold(0.0, f64::max),
            movement_share: 0.0,
            dispatch_savings: report.dispatch_savings(),
        }
    }

    fn probe_spec(&self) -> ProbeSpec {
        ProbeSpec {
            config: self.config.clone(),
            column: self.tenants[0].values.clone(),
            column_width: WIDTH,
        }
    }
}
