//! Measurement: set-up timing, the untraced run that gives the end-to-end
//! metrics, and the separate traced run that gives the per-layer metrics.

use std::collections::HashMap;
use std::time::Instant;

use simdram_core::TimingBackendKind;

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::probes::{self, ProbeResults};
use crate::stats::{self, median, percentile};
use crate::trace::{Layer, Recorder};
use crate::workloads::{BoxError, LibTotals, Modeled, ProbeSpec, Workload};

/// Coverage below which the traced run's breakdown is incomplete and the run fails.
pub const MIN_COVERAGE: f64 = 0.95;

/// Calibration drift above which the host is reported as noisy.
const NOISY_DRIFT: f64 = 0.05;

#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Wall time each measured run lasts at least; with tracing, the untraced and the
    /// traced run get half each.
    pub seconds: f64,
    /// Iterations each measured run lasts at least, so the p90 has ten samples beyond it.
    pub min_iterations: usize,
    /// Fresh constructions timed for `setup_s`: at least `setups`, and more until
    /// `setup_seconds` have passed, so a set-up of a fraction of a millisecond still
    /// has a steady median.
    pub setups: usize,
    pub setup_seconds: f64,
    pub trace: bool,
}

#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics, or per-layer metrics with tracing, in declaration order.
    pub metrics: Vec<(Metric, f64)>,
    /// Iterations of the untraced run.
    pub samples: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
    /// Modeled numbers per iteration of the untraced run.
    #[cfg_attr(not(test), allow(dead_code))]
    pub modeled: Modeled,
    /// The traced run's spans.
    pub traced: Option<Recorder>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|&(_, v)| v)
    }
}

#[derive(Debug)]
struct Measurement {
    samples_ns: Vec<u64>,
    lib: LibTotals,
    modeled: Modeled,
    rec: Recorder,
}

impl Measurement {
    fn iterations(&self) -> f64 {
        self.samples_ns.len() as f64
    }

    fn p50_ms(&self) -> f64 {
        percentile(&self.ms(), 50.0)
    }

    fn ms(&self) -> Vec<f64> {
        self.samples_ns.iter().map(|&ns| ns as f64 / 1e6).collect()
    }
}

/// Builds fresh state and runs one verified warm-up iteration, which also pays for lazy
/// μProgram generation. Returns the state and the seconds both steps took.
fn setup<W: Workload>(w: &W, rec: &mut Recorder) -> Result<(W::State, f64, f64), BoxError> {
    let start = Instant::now();
    let mut state = w.build()?;
    let built = start.elapsed().as_secs_f64();
    w.iterate(&mut state, rec);
    Ok((state, built, start.elapsed().as_secs_f64() - built))
}

/// Iterates from `first` until `seconds` and `settings.min_iterations` are both reached,
/// rebuilding the state (outside the timed iterations) at every episode boundary.
fn measure<W: Workload>(
    w: &W,
    first: W::State,
    settings: &Settings,
    seconds: f64,
    tracing: bool,
    setup_rec: &mut Recorder,
) -> Result<Measurement, BoxError> {
    let mut rec = Recorder::new(tracing);
    let mut samples_ns = Vec::new();
    let mut lib = LibTotals::default();
    let mut modeled = None;
    let start = Instant::now();
    let done = |samples: usize| {
        start.elapsed().as_secs_f64() >= seconds && samples >= settings.min_iterations
    };
    let mut next = Some(first);
    loop {
        let mut state = match next.take() {
            Some(state) => state,
            None => setup(w, setup_rec)?.0,
        };
        // Modeled numbers are read where they are deterministic: right after set-up for
        // a workload whose iterations are all alike, at the end of an episode otherwise.
        if w.episode_len().is_none() && modeled.is_none() {
            modeled = Some(w.modeled(&state, 1));
        }
        let before = w.totals(&state);
        let mut iterations = 0;
        loop {
            let t0 = rec.begin_iteration();
            w.iterate(&mut state, &mut rec);
            samples_ns.push(rec.end_iteration(t0));
            iterations += 1;
            let end = match w.episode_len() {
                Some(len) => iterations == len,
                None => done(samples_ns.len()),
            };
            if end {
                break;
            }
        }
        lib.add(&w.totals(&state).delta(&before));
        if modeled.is_none() {
            modeled = Some(w.modeled(&state, iterations + 1));
        }
        drop(state);
        if done(samples_ns.len()) {
            break;
        }
    }
    Ok(Measurement {
        samples_ns,
        lib,
        modeled: modeled.expect("every measurement runs at least one episode"),
        rec,
    })
}

/// Seconds each fresh set-up took: construction, warm-up iteration, and both.
#[derive(Debug, Default)]
struct SetupTimes {
    new_s: Vec<f64>,
    warmup_s: Vec<f64>,
    total_s: Vec<f64>,
}

pub fn run<W: Workload>(w: &W, settings: &Settings) -> Result<Outcome, BoxError> {
    let calib_before = settings.trace.then(stats::calibrate);
    let mut setup_rec = Recorder::new(false);
    let mut times = SetupTimes::default();
    let mut kept = None;
    let start = Instant::now();
    while times.total_s.len() < settings.setups.max(1)
        || start.elapsed().as_secs_f64() < settings.setup_seconds
    {
        // Drop the previous state first, so peak memory holds one state at a time.
        drop(kept.take());
        let (state, built, warmup) = setup(w, &mut setup_rec)?;
        times.new_s.push(built);
        times.warmup_s.push(warmup);
        times.total_s.push(built + warmup);
        kept = Some(state);
    }
    let first = kept.expect("at least one set-up ran");
    let seconds = if settings.trace {
        settings.seconds / 2.0
    } else {
        settings.seconds
    };
    let untraced = measure(w, first, settings, seconds, false, &mut setup_rec)?;

    let mut problems = Vec::new();
    let mut traced = None;
    let (table, values): (&[Metric], _) = if let Some(calib_before) = calib_before {
        let (state, _, _) = setup(w, &mut setup_rec)?;
        let t = measure(w, state, settings, seconds, true, &mut setup_rec)?;
        let spec = w.probe_spec();
        let probe = probes::run(&spec, &t.rec.programs())?;
        let drift = (stats::calibrate() / calib_before - 1.0).abs();
        if drift > NOISY_DRIFT {
            eprintln!(
                "warning: noisy host: the calibration loop drifted {:.1}% during the run",
                drift * 100.0
            );
        }
        if t.modeled != untraced.modeled {
            problems.push(format!(
                "modeled numbers differ between runs: {:?} vs {:?}",
                untraced.modeled, t.modeled
            ));
        }
        let coverage = t.rec.coverage();
        if coverage < MIN_COVERAGE {
            problems.push(format!(
                "trace coverage {coverage:.3} is below {MIN_COVERAGE}: spans miss part of the iteration"
            ));
        }
        let values = per_layer(&spec, &times, &untraced, &t, &probe, drift);
        traced = Some(t);
        (&PER_LAYER, values)
    } else {
        let peak_rss_mb =
            stats::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
        (&END_TO_END, end_to_end(&times, &untraced, peak_rss_mb))
    };
    let metrics = table
        .iter()
        .map(|m| {
            let value = values
                .get(m.name)
                .expect("every declared metric is computed");
            (*m, *value)
        })
        .collect();

    let recorders = [
        Some(&setup_rec),
        Some(&untraced.rec),
        traced.as_ref().map(|t| &t.rec),
    ];
    let (mut attempted, mut failed) = (0, 0);
    for rec in recorders.into_iter().flatten() {
        attempted += rec.counts().ops_attempted;
        failed += rec.counts().ops_failed;
        if let Some(err) = rec.first_error() {
            problems.push(err.to_string());
        }
    }
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} ops failed"));
    }
    Ok(Outcome {
        metrics,
        samples: untraced.samples_ns.len(),
        attempted,
        failed,
        problems,
        modeled: untraced.modeled,
        traced: traced.map(|t| t.rec),
    })
}

fn end_to_end(
    times: &SetupTimes,
    untraced: &Measurement,
    peak_rss_mb: f64,
) -> HashMap<&'static str, f64> {
    let ms = untraced.ms();
    let seconds_iterating = untraced.samples_ns.iter().sum::<u64>() as f64 / 1e9;
    let elements = untraced.rec.counts().verified_elements as f64;
    let modeled = &untraced.modeled;
    HashMap::from([
        ("setup_s", median(&times.total_s)),
        ("iter_ms_p50", percentile(&ms, 50.0)),
        ("iter_ms_p90", percentile(&ms, 90.0)),
        ("elements_per_s", elements / seconds_iterating),
        ("peak_rss_mb", peak_rss_mb),
        ("modeled_busy_us", modeled.busy_ns / 1e3),
        ("modeled_energy_uj", modeled.energy_nj / 1e3),
        ("modeled_p99_turnaround_us", modeled.p99_turnaround_ns / 1e3),
    ])
}

fn per_layer(
    spec: &ProbeSpec,
    times: &SetupTimes,
    untraced: &Measurement,
    t: &Measurement,
    probe: &ProbeResults,
    drift: f64,
) -> HashMap<&'static str, f64> {
    let iterations = t.iterations();
    let iter_ns = t.samples_ns.iter().sum::<u64>() as f64 / iterations;
    let layer_ns = t.rec.layer_ns();
    let ns_per_iter = |layers: &[Layer]| {
        layers.iter().map(|&l| layer_ns[l as usize]).sum::<u64>() as f64 / iterations
    };
    let per_iter = |n: u64| n as f64 / iterations;
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let counts = t.rec.counts();
    let commands = per_iter(t.lib.commands);
    let io_bytes = per_iter(counts.io_bits) / 8.0;
    // Commands issued from spans that run the engine, priced by the probe of the engine
    // the machine uses (and of the replay, when it replays).
    let engine_ns = if spec.config.functional.is_compiled() {
        probe.compiled_ns_per_command
    } else {
        probe.interp_ns_per_command
    };
    let replay_ns = if spec.config.timing_backend == TimingBackendKind::BankState {
        probe.bankstate_ns_per_command
    } else {
        0.0
    };
    let exec_ns = ns_per_iter(&[Layer::Exec, Layer::ServeWindow, Layer::TopologyExec]);
    let io_ns = ns_per_iter(&[
        Layer::IoWrite,
        Layer::IoRead,
        Layer::TopologyWrite,
        Layer::TopologyRead,
    ]);

    let mut values: HashMap<&'static str, f64> = Layer::ALL
        .iter()
        .map(|&layer| (layer.name(), ns_per_iter(&[layer]) / 1e6))
        .collect();
    values.extend([
        ("bench.iter_ms", iter_ns / 1e6),
        ("core.plan.plans", per_iter(counts.plans)),
        ("core.plan.batches", per_iter(counts.batches)),
        ("core.plan.windows", per_iter(counts.windows)),
        ("core.exec.calls", per_iter(counts.exec_calls)),
        ("core.exec.broadcasts", per_iter(t.lib.broadcasts)),
        (
            "core.exec.dispatch_windows",
            per_iter(t.lib.dispatch_windows),
        ),
        ("core.exec.commands", commands),
        ("core.io.bytes", io_bytes),
        ("serve.windows", per_iter(t.lib.serve_windows)),
        ("serve.dispatch_savings", t.modeled.dispatch_savings),
        ("topology.moved_bytes", per_iter(t.lib.moved_bytes)),
        ("topology.movement_share", t.modeled.movement_share),
        ("bench.ops_attempted", per_iter(counts.ops_attempted)),
        ("bench.ops_failed", per_iter(counts.ops_failed)),
        ("core.exec.ns_per_command", ratio(exec_ns, commands)),
        ("core.io.ns_per_byte", ratio(io_ns, io_bytes)),
        ("logic.synth_us", probe.synth_us),
        ("uprog.codegen_us", probe.codegen_us),
        ("uprog.compile_us", probe.compile_us),
        ("uprog.interp.ns_per_command", probe.interp_ns_per_command),
        (
            "uprog.compiled.ns_per_command",
            probe.compiled_ns_per_command,
        ),
        (
            "dram.bankstate.ns_per_command",
            probe.bankstate_ns_per_command,
        ),
        ("core.transpose.ns_per_byte", probe.transpose_ns_per_byte),
        ("core.exec.engine_share", engine_ns * commands / iter_ns),
        ("dram.bankstate.share", replay_ns * commands / iter_ns),
        ("core.machine.new_ms", median(&times.new_s) * 1e3),
        ("bench.warmup_ms", median(&times.warmup_s) * 1e3),
        ("trace.coverage", t.rec.coverage()),
        ("trace.overhead", t.p50_ms() / untraced.p50_ms() - 1.0),
        ("bench.calib_drift", drift),
    ]);
    values
}
