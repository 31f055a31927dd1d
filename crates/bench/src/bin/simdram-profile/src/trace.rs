//! Spans and counters recorded around the benchmark's own calls into each layer.
//!
//! Nothing inside the library is instrumented: every span brackets one public call made
//! from this benchmark, so a span's time is the whole cost of that call, including the
//! layers below it. Spans never nest, so each span's self time is its duration, and the
//! share of an iteration they cover ([`Recorder::coverage`]) shows how much of the
//! iteration the breakdown explains.

use std::collections::BTreeSet;
use std::time::Instant;

use simdram_bench::json::Json;
use simdram_core::{CoreError, Plan, PlanBuilder};
use simdram_logic::Operation;

/// A layer boundary the benchmark times. Each span name is also a per-layer metric:
/// host milliseconds per iteration spent in calls to that layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    PlanBuild,
    PlanCompile,
    Alloc,
    IoWrite,
    IoRead,
    Exec,
    ServeSubmit,
    ServeWindow,
    ServeReport,
    ServeTake,
    TopologyWrite,
    TopologyExec,
    TopologyRead,
    Verify,
}

impl Layer {
    pub const ALL: [Layer; 14] = [
        Layer::PlanBuild,
        Layer::PlanCompile,
        Layer::Alloc,
        Layer::IoWrite,
        Layer::IoRead,
        Layer::Exec,
        Layer::ServeSubmit,
        Layer::ServeWindow,
        Layer::ServeReport,
        Layer::ServeTake,
        Layer::TopologyWrite,
        Layer::TopologyExec,
        Layer::TopologyRead,
        Layer::Verify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::PlanBuild => "core.plan.build_ms",
            Layer::PlanCompile => "core.plan.compile_ms",
            Layer::Alloc => "core.alloc_ms",
            Layer::IoWrite => "core.io.write_ms",
            Layer::IoRead => "core.io.read_ms",
            Layer::Exec => "core.exec_ms",
            Layer::ServeSubmit => "serve.submit_ms",
            Layer::ServeWindow => "serve.window_ms",
            Layer::ServeReport => "serve.report_ms",
            Layer::ServeTake => "serve.take_ms",
            Layer::TopologyWrite => "topology.write_ms",
            Layer::TopologyExec => "topology.exec_ms",
            Layer::TopologyRead => "topology.read_ms",
            Layer::Verify => "bench.verify_ms",
        }
    }
}

/// Name of the parent span around each timed iteration.
pub const ITERATION: &str = "bench.iter_ms";

/// Work counted at the benchmark's call sites.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Plans compiled by the benchmark.
    pub plans: u64,
    /// Fused broadcast batches of those plans.
    pub batches: u64,
    /// MIMD dispatch windows of those plans.
    pub windows: u64,
    /// Calls into the machine's execution API (`init`, `binary`, `unary`, `run_plan`).
    pub exec_calls: u64,
    /// Payload bits moved through host writes and reads.
    pub io_bits: u64,
    /// Outputs checked against their host reference, plus calls that failed before
    /// producing one.
    pub ops_attempted: u64,
    /// Attempted ops whose call returned `Err` or whose output mismatched.
    pub ops_failed: u64,
    /// Elements of the outputs that matched their reference.
    pub verified_elements: u64,
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    iteration: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans (when tracing) and counts (always) for one run.
#[derive(Debug)]
pub struct Recorder {
    tracing: bool,
    origin: Instant,
    iteration: u32,
    spans: Vec<Span>,
    iterations: Vec<(u64, u64)>,
    counts: Counts,
    programs: BTreeSet<(Operation, usize)>,
    first_error: Option<String>,
}

impl Recorder {
    pub fn new(tracing: bool) -> Self {
        Recorder {
            tracing,
            origin: Instant::now(),
            iteration: 0,
            spans: Vec::new(),
            iterations: Vec::new(),
            counts: Counts::default(),
            programs: BTreeSet::new(),
            first_error: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as one span of `layer` (a plain call when not tracing).
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.tracing {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            iteration: self.iteration,
            start_ns,
            end_ns,
        });
        out
    }

    /// Starts timing an iteration; pass the result to [`Recorder::end_iteration`].
    pub fn begin_iteration(&self) -> u64 {
        self.now_ns()
    }

    /// Ends the iteration started at `start_ns` and returns its wall time in ns.
    pub fn end_iteration(&mut self, start_ns: u64) -> u64 {
        let end_ns = self.now_ns();
        if self.tracing {
            self.iterations.push((start_ns, end_ns));
        }
        self.iteration += 1;
        end_ns - start_ns
    }

    /// A call into the machine's execution API running the μProgram of `op` at `width`
    /// bits (`None` for constant broadcasts, which run no μProgram).
    pub fn exec<T>(&mut self, program: Option<(Operation, usize)>, f: impl FnOnce() -> T) -> T {
        self.counts.exec_calls += 1;
        self.programs.extend(program);
        self.span(Layer::Exec, f)
    }

    /// A transfer of `len` elements of `width` bits through `layer`.
    pub fn io<T>(&mut self, layer: Layer, len: usize, width: usize, f: impl FnOnce() -> T) -> T {
        self.counts.io_bits += (len * width) as u64;
        self.span(layer, f)
    }

    /// Records that the workload runs the μProgram of `op` at `width` bits through a
    /// layer that hides it (the sharded machine's elementwise calls).
    pub fn uses_program(&mut self, op: Operation, width: usize) {
        self.programs.insert((op, width));
    }

    /// Compiles a plan inside a `core.plan.compile_ms` span and counts its shape.
    pub fn compile(&mut self, builder: PlanBuilder) -> Result<Plan, CoreError> {
        let plan = self.span(Layer::PlanCompile, || builder.compile())?;
        self.counts.plans += 1;
        self.counts.batches += plan.batch_count() as u64;
        self.counts.windows += plan.window_count() as u64;
        self.programs.extend(plan.programs_needed());
        Ok(plan)
    }

    /// Checks one op's output against its host reference.
    pub fn check<E: std::fmt::Display>(&mut self, output: Result<&[u64], E>, expected: &[u64]) {
        match output {
            Ok(produced) => {
                let matches = self.span(Layer::Verify, || produced == expected);
                self.counts.ops_attempted += 1;
                if matches {
                    self.counts.verified_elements += expected.len() as u64;
                } else {
                    self.counts.ops_failed += 1;
                    self.note("output mismatched its host reference");
                }
            }
            Err(err) => self.fail(err),
        }
    }

    /// Counts an op whose call returned `err`.
    pub fn fail(&mut self, err: impl std::fmt::Display) {
        self.counts.ops_attempted += 1;
        self.counts.ops_failed += 1;
        self.note(err);
    }

    /// Remembers the first error of the run, for the report.
    pub fn note(&mut self, err: impl std::fmt::Display) {
        if self.first_error.is_none() {
            self.first_error = Some(err.to_string());
        }
    }

    pub fn counts(&self) -> Counts {
        self.counts
    }

    pub fn first_error(&self) -> Option<&str> {
        self.first_error.as_deref()
    }

    /// The `(operation, width)` μPrograms the recorded calls ran.
    pub fn programs(&self) -> Vec<(Operation, usize)> {
        self.programs.iter().copied().collect()
    }

    /// Total span time per layer, in ns, in [`Layer::ALL`] order.
    pub fn layer_ns(&self) -> [u64; Layer::ALL.len()] {
        let mut totals = [0u64; Layer::ALL.len()];
        for span in &self.spans {
            totals[span.layer as usize] += span.end_ns - span.start_ns;
        }
        totals
    }

    /// Span self time over iteration wall time, across every recorded iteration.
    pub fn coverage(&self) -> f64 {
        let covered: u64 = self.spans.iter().map(|s| s.end_ns - s.start_ns).sum();
        let wall: u64 = self.iterations.iter().map(|(s, e)| e - s).sum();
        if wall == 0 {
            0.0
        } else {
            covered as f64 / wall as f64
        }
    }

    /// Distinct span names recorded (the iteration span included).
    #[cfg(test)]
    pub fn span_names(&self) -> BTreeSet<&'static str> {
        let mut names: BTreeSet<&'static str> = self.spans.iter().map(|s| s.layer.name()).collect();
        if !self.iterations.is_empty() {
            names.insert(ITERATION);
        }
        names
    }

    /// The recorded spans as Chrome trace-event JSON (open in Perfetto or
    /// `chrome://tracing`): one complete event per iteration and per layer call, each
    /// tagged with its iteration id.
    pub fn chrome_trace(&self) -> Json {
        let event = |name: &str, start_ns: u64, end_ns: u64, iteration: u32, parent: bool| {
            let mut args = Json::obj();
            args.set("iteration", Json::Num(f64::from(iteration)));
            if parent {
                args.set("parent", Json::Str(ITERATION.to_string()));
            }
            let mut e = Json::obj();
            e.set("name", Json::Str(name.to_string()));
            e.set("ph", Json::Str("X".to_string()));
            e.set("ts", Json::Num(start_ns as f64 / 1e3));
            e.set("dur", Json::Num((end_ns - start_ns) as f64 / 1e3));
            e.set("pid", Json::Num(1.0));
            e.set("tid", Json::Num(1.0));
            e.set("args", args);
            e
        };
        let mut events: Vec<Json> = Vec::with_capacity(self.iterations.len() + self.spans.len());
        for (id, &(start, end)) in self.iterations.iter().enumerate() {
            events.push(event(ITERATION, start, end, id as u32, false));
        }
        for span in &self.spans {
            let name = span.layer.name();
            events.push(event(
                name,
                span.start_ns,
                span.end_ns,
                span.iteration,
                true,
            ));
        }
        let mut trace = Json::obj();
        trace.set("traceEvents", Json::Arr(events));
        trace.set("displayTimeUnit", Json::Str("ms".to_string()));
        trace
    }
}
