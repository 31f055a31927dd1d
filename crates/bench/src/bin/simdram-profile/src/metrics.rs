//! The benchmark's metric declarations. `BENCHMARK.json` at the repository root lists the
//! same names, units, directions and bounds; a test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees: host time and memory, and the modeled DRAM
/// numbers. The modeled ones are deterministic, so their tight bound flags any model
/// change that makes them worse; the `modeled_us` unit keeps them apart from host time.
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("iter_ms_p50", "ms", Lower, 0.10),
    e2e("iter_ms_p90", "ms", Lower, 0.15),
    e2e("elements_per_s", "1/s", Higher, 0.10),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("modeled_busy_us", "modeled_us", Lower, 0.001),
    e2e("modeled_energy_uj", "uJ", Lower, 0.001),
    e2e("modeled_p99_turnaround_us", "modeled_us", Lower, 0.001),
];

/// Per-layer metrics of the traced run, per iteration unless the unit says otherwise.
pub const PER_LAYER: [Metric; 45] = [
    // Spans around the benchmark's calls into each layer.
    layer("core.plan.build_ms", "ms", Lower),
    layer("core.plan.compile_ms", "ms", Lower),
    layer("core.alloc_ms", "ms", Lower),
    layer("core.io.write_ms", "ms", Lower),
    layer("core.io.read_ms", "ms", Lower),
    layer("core.exec_ms", "ms", Lower),
    layer("serve.submit_ms", "ms", Lower),
    layer("serve.window_ms", "ms", Lower),
    layer("serve.report_ms", "ms", Lower),
    layer("serve.take_ms", "ms", Lower),
    layer("topology.write_ms", "ms", Lower),
    layer("topology.exec_ms", "ms", Lower),
    layer("topology.read_ms", "ms", Lower),
    layer("bench.verify_ms", "ms", Lower),
    layer("bench.iter_ms", "ms", Lower),
    // Counts, which repeat exactly.
    layer("core.plan.plans", "count", Lower),
    layer("core.plan.batches", "count", Lower),
    layer("core.plan.windows", "count", Lower),
    layer("core.exec.calls", "count", Lower),
    layer("core.exec.broadcasts", "count", Lower),
    layer("core.exec.dispatch_windows", "count", Lower),
    layer("core.exec.commands", "count", Lower),
    layer("core.io.bytes", "B", Lower),
    layer("serve.windows", "count", Lower),
    layer("serve.dispatch_savings", "ratio", Higher),
    layer("topology.moved_bytes", "B", Lower),
    layer("topology.movement_share", "ratio", Lower),
    layer("bench.ops_attempted", "count", Higher),
    layer("bench.ops_failed", "count", Lower),
    // Host cost per unit of work.
    layer("core.exec.ns_per_command", "ns", Lower),
    layer("core.io.ns_per_byte", "ns", Lower),
    // Probes of the layers below the machine.
    layer("logic.synth_us", "us", Lower),
    layer("uprog.codegen_us", "us", Lower),
    layer("uprog.compile_us", "us", Lower),
    layer("uprog.interp.ns_per_command", "ns", Lower),
    layer("uprog.compiled.ns_per_command", "ns", Lower),
    layer("dram.bankstate.ns_per_command", "ns", Lower),
    layer("core.transpose.ns_per_byte", "ns", Lower),
    layer("core.exec.engine_share", "ratio", Lower),
    layer("dram.bankstate.share", "ratio", Lower),
    // Set-up and trace health.
    layer("core.machine.new_ms", "ms", Lower),
    layer("bench.warmup_ms", "ms", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead", "ratio", Lower),
    layer("bench.calib_drift", "ratio", Lower),
];
