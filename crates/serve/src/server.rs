//! The [`PlanServer`]: submission queues, dispatch windows and result delivery.

use std::collections::{HashMap, HashSet, VecDeque};

use simdram_core::{CoreError, Plan, Reservation, SimdVector, SimdramMachine};

use crate::config::ServeConfig;
use crate::error::{Result, ServeError};
use crate::queue::{JobId, JobResult, PendingJob};
use crate::report::{
    percentile, FaultReport, JobPlacement, ServeReport, ServerHealth, TenantReport, WindowRecord,
};
use crate::scheduler::plan_window;
use crate::tenant::{Tenant, TenantId, TenantSpec};

/// An input vector staged host-side: rows are allocated machine-wide once, but the
/// data is shipped to whichever placement each job is granted, at dispatch time.
#[derive(Debug)]
struct StagedInput {
    owner: TenantId,
    vector: SimdVector,
    values: Vec<u64>,
}

/// A multi-tenant server wrapped around one [`SimdramMachine`].
///
/// Tenants register with a [`TenantSpec`], stage inputs with
/// [`write_input`](Self::write_input), submit compiled [`Plan`]s with
/// [`submit`](Self::submit), and collect host-side [`JobResult`]s with
/// [`take_result`](Self::take_result). [`run_window`](Self::run_window) (or
/// [`serve`](Self::serve), which loops it) admits queued jobs with a weighted
/// deficit-round-robin scheduler, grants each admitted job a disjoint subarray
/// [`Reservation`], and executes all of them **concurrently** through
/// [`SimdramMachine::run_plans_on`] — compatible batches from different tenants fuse
/// into single broadcast dispatches, which is the serving layer's whole throughput
/// argument.
///
/// Time is a deterministic *modeled* clock: it advances by each window's modeled busy
/// latency (compute plus data-shipping transposition), never by wall-clock time, so
/// queueing and tail-latency numbers are exactly reproducible across runs and
/// [`ExecutionPolicy`](simdram_core::ExecutionPolicy)s.
#[derive(Debug)]
pub struct PlanServer {
    machine: SimdramMachine,
    config: ServeConfig,
    tenants: Vec<Tenant>,
    queues: Vec<VecDeque<PendingJob>>,
    staged: HashMap<u64, StagedInput>,
    results: HashMap<JobId, JobResult>,
    aborted: HashSet<JobId>,
    /// Jobs dropped from a window after exhausting the machine's fault-retry budget.
    /// Entries stay so repeated [`take_result`](Self::take_result) calls keep reporting
    /// the same typed failure, and so [`health`](Self::health) can count them.
    faulted: HashMap<JobId, FaultReport>,
    window_log: Vec<WindowRecord>,
    next_job_id: u64,
    now_ns: f64,
    jobs_completed: usize,
    fused_dispatches: usize,
    sequential_dispatches: usize,
    busy_ns: f64,
    energy_nj: f64,
}

impl PlanServer {
    /// Wraps `machine` in a server with the given serving policy.
    pub fn new(machine: SimdramMachine, config: ServeConfig) -> Self {
        PlanServer {
            machine,
            config,
            tenants: Vec::new(),
            queues: Vec::new(),
            staged: HashMap::new(),
            results: HashMap::new(),
            aborted: HashSet::new(),
            faulted: HashMap::new(),
            window_log: Vec::new(),
            next_job_id: 0,
            now_ns: 0.0,
            jobs_completed: 0,
            fused_dispatches: 0,
            sequential_dispatches: 0,
            busy_ns: 0.0,
            energy_nj: 0.0,
        }
    }

    /// Registers a tenant and returns its id.
    ///
    /// The fairness weight is clamped up to at least 1 (a zero weight would give the
    /// scheduler a zero-credit tenant that can never be served fairly).
    pub fn register_tenant(&mut self, mut spec: TenantSpec) -> TenantId {
        let id = TenantId(self.tenants.len() as u64);
        spec.weight = spec.weight.max(1);
        self.tenants.push(Tenant::new(spec));
        self.queues.push(VecDeque::new());
        id
    }

    /// The wrapped machine (read-only — placed state is managed by the server).
    pub fn machine(&self) -> &SimdramMachine {
        &self.machine
    }

    /// The serving policy in effect.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The modeled clock, in nanoseconds since the server started.
    pub fn now_ns(&self) -> f64 {
        self.now_ns
    }

    /// Every dispatch window run so far, with its placements — the ground truth the
    /// packing property tests check disjointness against.
    pub fn window_log(&self) -> &[WindowRecord] {
        &self.window_log
    }

    fn tenant(&self, tenant: TenantId) -> Result<usize> {
        let index = tenant.0 as usize;
        if index < self.tenants.len() {
            Ok(index)
        } else {
            Err(ServeError::UnknownTenant { tenant })
        }
    }

    /// Allocates an input vector and stages `values` for it.
    ///
    /// Rows are allocated machine-wide (every placement sees the same row addresses),
    /// but the data itself is shipped to a job's granted placement at dispatch time —
    /// staging is free of DRAM traffic. The returned handle is what
    /// [`PlanBuilder::input`](simdram_core::PlanBuilder::input) captures.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] for an unregistered tenant, or a wrapped
    /// allocation error when the rows or lanes run out.
    pub fn write_input(
        &mut self,
        tenant: TenantId,
        width: usize,
        values: &[u64],
    ) -> Result<SimdVector> {
        let owner = TenantId(self.tenant(tenant)? as u64);
        let vector = self.machine.alloc(width, values.len())?;
        self.staged.insert(
            vector.id(),
            StagedInput {
                owner,
                vector,
                values: values.to_vec(),
            },
        );
        Ok(vector)
    }

    /// Releases a staged input's rows and host copy.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownInput`] if the vector was never staged,
    /// [`ServeError::ForeignInput`] if another tenant staged it,
    /// [`ServeError::InputInUse`] while any queued job's plan still reads it (take or
    /// abandon those jobs first — releasing under a pending plan would let its rows be
    /// reallocated out from under the dispatch).
    pub fn release_input(&mut self, tenant: TenantId, vector: &SimdVector) -> Result<()> {
        self.tenant(tenant)?;
        match self.staged.get(&vector.id()) {
            None => Err(ServeError::UnknownInput {
                vector: vector.id(),
            }),
            Some(staged) if staged.owner != tenant => Err(ServeError::ForeignInput {
                tenant,
                vector: vector.id(),
            }),
            Some(_) => {
                if let Some(job) = self
                    .queues
                    .iter()
                    .flatten()
                    .find(|job| job.plan.input_vectors().any(|v| v.id() == vector.id()))
                {
                    return Err(ServeError::InputInUse {
                        vector: vector.id(),
                        job: job.id,
                    });
                }
                let staged = self.staged.remove(&vector.id()).expect("checked above");
                self.machine.free(staged.vector);
                Ok(())
            }
        }
    }

    /// Submits a compiled plan for the tenant, returning the job's id.
    ///
    /// Admission checks, in order: the tenant exists; the plan's widest batch fits the
    /// tenant's effective chunk quota (the minimum of the tenant's
    /// [`TenantSpec::max_chunks`], the server's
    /// [`ServeConfig::max_chunks_per_job`] and the machine size); the tenant's queue
    /// has room; every input the plan reads was staged by this tenant. Rejections are
    /// counted in the tenant's ledger.
    ///
    /// # Errors
    ///
    /// [`ServeError::QuotaExceeded`], [`ServeError::QueueFull`],
    /// [`ServeError::UnknownInput`], [`ServeError::ForeignInput`] or
    /// [`ServeError::UnknownTenant`], per the checks above.
    pub fn submit(&mut self, tenant: TenantId, plan: Plan) -> Result<JobId> {
        let index = self.tenant(tenant)?;
        let chunks = plan.subarrays_needed(self.machine.lanes_per_subarray());
        let quota = self
            .machine
            .compute_chunks()
            .min(self.config.max_chunks_per_job.unwrap_or(usize::MAX))
            .min(self.tenants[index].spec.max_chunks.unwrap_or(usize::MAX));
        if chunks > quota {
            self.tenants[index].jobs_rejected += 1;
            return Err(ServeError::QuotaExceeded {
                tenant,
                needed: chunks,
                quota,
            });
        }
        let depth_limit = self.config.max_queue_depth.min(
            self.tenants[index]
                .spec
                .max_queue_depth
                .unwrap_or(usize::MAX),
        );
        if self.queues[index].len() >= depth_limit {
            self.tenants[index].jobs_rejected += 1;
            return Err(ServeError::QueueFull {
                tenant,
                depth: depth_limit,
            });
        }
        for vector in plan.input_vectors() {
            match self.staged.get(&vector.id()) {
                None => {
                    self.tenants[index].jobs_rejected += 1;
                    return Err(ServeError::UnknownInput {
                        vector: vector.id(),
                    });
                }
                Some(staged) if staged.owner != tenant => {
                    self.tenants[index].jobs_rejected += 1;
                    return Err(ServeError::ForeignInput {
                        tenant,
                        vector: vector.id(),
                    });
                }
                Some(_) => {}
            }
        }
        let id = JobId(self.next_job_id);
        self.next_job_id += 1;
        self.queues[index].push_back(PendingJob {
            id,
            tenant,
            plan,
            chunks,
            submitted_at_ns: self.now_ns,
        });
        self.tenants[index].jobs_submitted += 1;
        let depth = self.queues[index].len();
        if depth > self.tenants[index].max_queue_depth_seen {
            self.tenants[index].max_queue_depth_seen = depth;
        }
        Ok(id)
    }

    /// Removes and returns a completed job's result.
    ///
    /// # Errors
    ///
    /// [`ServeError::ResultNotReady`] while the job is still queued,
    /// [`ServeError::JobFaulted`] if the job's placement exhausted the machine's
    /// fault-retry budget and was dropped from its window (the attached
    /// [`FaultReport`] says where and when; the error repeats on every call),
    /// [`ServeError::JobAborted`] if the job was admitted into a window whose fused
    /// run failed (the job was accepted but will never produce a result),
    /// [`ServeError::UnknownJob`] if it was never submitted (or already taken).
    pub fn take_result(&mut self, job: JobId) -> Result<JobResult> {
        if let Some(result) = self.results.remove(&job) {
            return Ok(result);
        }
        if let Some(report) = self.faulted.get(&job) {
            return Err(ServeError::JobFaulted {
                job,
                report: report.clone(),
            });
        }
        if self.aborted.contains(&job) {
            return Err(ServeError::JobAborted { job });
        }
        if self.queues.iter().flatten().any(|j| j.id == job) {
            return Err(ServeError::ResultNotReady { job });
        }
        Err(ServeError::UnknownJob { job })
    }

    /// Admits and runs one dispatch window; returns its record, or `None` when no
    /// queue has work.
    ///
    /// One window = one scheduler pass (weighted deficit round-robin over the tenant
    /// queues), one disjoint reservation per admitted job, one
    /// [`SimdramMachine::run_plans_on`] call fusing all admitted plans, one read-back
    /// of every output, and one modeled-clock advance. All reservations are released
    /// before returning, so every window starts from the whole machine.
    ///
    /// # Errors
    ///
    /// A wrapped [`CoreError`](simdram_core::CoreError) if the fused run fails; the
    /// window's reservations and output rows are rolled back, but its admitted jobs
    /// are aborted — their results never materialize, and
    /// [`take_result`](Self::take_result) reports them as
    /// [`ServeError::JobAborted`].
    ///
    /// An *unrecovered fault* ([`CoreError::Fault`](simdram_core::CoreError)) is
    /// contained rather than propagated: the job whose placement holds the failing
    /// chunk is dropped (its result becomes [`ServeError::JobFaulted`] with a
    /// [`FaultReport`]), its reservation is released — minus any chunk the machine
    /// quarantined — and the window's surviving jobs are re-dispatched from scratch,
    /// with the re-shipped inputs and re-run compute honestly charged to the modeled
    /// clock. The window then completes normally, possibly with zero outcomes.
    pub fn run_window(&mut self) -> Result<Option<WindowRecord>> {
        let queued: Vec<Vec<usize>> = self
            .queues
            .iter()
            .map(|q| q.iter().map(|j| j.chunks).collect())
            .collect();
        let weights: Vec<u64> = self.tenants.iter().map(|t| t.spec.weight).collect();
        let mut deficits: Vec<f64> = self.tenants.iter().map(|t| t.deficit).collect();
        let admissions = plan_window(
            &queued,
            &weights,
            &mut deficits,
            self.machine.free_chunks(),
            self.config.max_jobs_per_window,
        );
        for (tenant, deficit) in self.tenants.iter_mut().zip(deficits) {
            tenant.deficit = deficit;
        }
        if admissions.is_empty() {
            return Ok(None);
        }
        let mut jobs: Vec<PendingJob> = admissions
            .iter()
            .map(|&t| {
                self.queues[t]
                    .pop_front()
                    .expect("scheduler admits only queued jobs")
            })
            .collect();

        // Grant each admitted job its disjoint placement. The scheduler packed within
        // `free_chunks`, so this only fails on machine-level bugs; roll back fully.
        let mut reservations: Vec<Reservation> = Vec::with_capacity(jobs.len());
        for job in &jobs {
            match self.machine.reserve_subarrays(job.chunks) {
                Ok(r) => reservations.push(r),
                Err(err) => {
                    for r in reservations.drain(..) {
                        let _ = self.machine.release_subarrays(r);
                    }
                    for (job, &t) in jobs.into_iter().zip(admissions.iter()).rev() {
                        self.queues[t].push_front(job);
                    }
                    return Err(err.into());
                }
            }
        }

        let busy_before = self.machine.estimate().busy_latency_ns;
        let transpose_before = self.machine.stats().transpose_latency_ns;
        let dispatches_before = self.machine.estimate().broadcasts;
        // Dispatch, containing unrecovered faults to the job that owns the failing
        // chunk: that job is dropped with a typed FaultReport, its reservation is
        // released (minus anything the machine quarantined), and the survivors are
        // re-dispatched from scratch — inputs re-shipped and all — so one bad
        // subarray cannot poison a whole window. Any other failure, or a fault that
        // matches no placement, still aborts the window.
        let job_outcomes = loop {
            match self.dispatch(&jobs, &reservations) {
                Ok(outcomes) => break outcomes,
                Err(ServeError::Core(CoreError::Fault(fault))) => {
                    let owner = reservations.iter().position(|r| {
                        r.offset() <= fault.chunk && fault.chunk < r.offset() + r.chunks()
                    });
                    let Some(index) = owner else {
                        for reservation in reservations.drain(..) {
                            let _ = self.machine.release_subarrays(reservation);
                        }
                        for job in &jobs {
                            self.aborted.insert(job.id);
                        }
                        return Err(ServeError::Core(CoreError::Fault(fault)));
                    };
                    let job = jobs.remove(index);
                    let reservation = reservations.remove(index);
                    let _ = self.machine.release_subarrays(reservation);
                    self.tenants[job.tenant.0 as usize].jobs_faulted += 1;
                    self.faulted.insert(
                        job.id,
                        FaultReport {
                            fault,
                            window: self.window_log.len(),
                        },
                    );
                    if jobs.is_empty() {
                        break Vec::new();
                    }
                }
                Err(err) => {
                    // The jobs were accepted but will never complete: remember them so
                    // take_result can tell "aborted" apart from "never submitted".
                    for reservation in reservations.drain(..) {
                        let _ = self.machine.release_subarrays(reservation);
                    }
                    for job in &jobs {
                        self.aborted.insert(job.id);
                    }
                    return Err(err);
                }
            }
        };
        for reservation in reservations.iter().cloned() {
            let _ = self.machine.release_subarrays(reservation);
        }

        // Advance the modeled clock by the window's busy latency: the fused compute
        // window plus the transposition traffic that shipped inputs in and outputs out.
        let window_busy = (self.machine.estimate().busy_latency_ns - busy_before)
            + (self.machine.stats().transpose_latency_ns - transpose_before);
        let window_dispatches = self.machine.estimate().broadcasts - dispatches_before;
        self.now_ns += window_busy;

        let window = self.window_log.len();
        let placements: Vec<JobPlacement> = jobs
            .iter()
            .zip(&reservations)
            .map(|(job, r)| JobPlacement {
                job: job.id,
                tenant: job.tenant,
                offset: r.offset(),
                chunks: r.chunks(),
            })
            .collect();
        let mut sequential = 0usize;
        for (job, (outputs, report)) in jobs.into_iter().zip(job_outcomes) {
            let tenant = &mut self.tenants[job.tenant.0 as usize];
            tenant.jobs_completed += 1;
            tenant.broadcasts += report.broadcasts;
            tenant.busy_ns += report.measured_latency_ns;
            tenant.energy_nj += report.measured_energy_nj;
            tenant.fault_retries += report.fault_retries;
            let turnaround = self.now_ns - job.submitted_at_ns;
            tenant.turnaround_ns.push(turnaround);
            sequential += report.broadcasts;
            self.jobs_completed += 1;
            self.energy_nj += report.measured_energy_nj;
            self.results.insert(
                job.id,
                JobResult {
                    outputs,
                    report,
                    turnaround_ns: turnaround,
                    window,
                },
            );
        }
        self.fused_dispatches += window_dispatches;
        self.sequential_dispatches += sequential;
        self.busy_ns += window_busy;
        let record = WindowRecord {
            window,
            placements,
            dispatches: window_dispatches,
            sequential_dispatches: sequential,
            busy_ns: window_busy,
        };
        self.window_log.push(record.clone());
        Ok(Some(record))
    }

    /// Ships inputs, runs the fused dispatch, reads and frees every output. On error
    /// all output rows are still freed (reservations are the caller's to release).
    fn dispatch(
        &mut self,
        jobs: &[PendingJob],
        reservations: &[Reservation],
    ) -> Result<Vec<(Vec<Vec<u64>>, simdram_core::PlanReport)>> {
        for (job, reservation) in jobs.iter().zip(reservations) {
            let mut shipped: Vec<u64> = Vec::new();
            for vector in job.plan.input_vectors() {
                if shipped.contains(&vector.id()) {
                    continue;
                }
                shipped.push(vector.id());
                // Validated at submission and guarded by release_input's in-use
                // check; fail typed rather than panic if that invariant ever breaks.
                let staged =
                    self.staged
                        .get(&vector.id())
                        .ok_or_else(|| ServeError::UnknownInput {
                            vector: vector.id(),
                        })?;
                let values = staged.values.clone();
                self.machine.write_to(reservation, &vector, &values)?;
            }
        }
        let fused: Vec<(&Plan, &Reservation)> = jobs
            .iter()
            .zip(reservations)
            .map(|(job, reservation)| (&job.plan, reservation))
            .collect();
        let execs = self.machine.run_plans_on(&fused)?;
        let mut outcomes = Vec::with_capacity(execs.len());
        let mut failure: Option<simdram_core::CoreError> = None;
        for (exec, reservation) in execs.iter().zip(reservations) {
            let mut outputs = Vec::with_capacity(exec.outputs().len());
            if failure.is_none() {
                for vector in exec.outputs() {
                    match self.machine.read_from(reservation, vector) {
                        Ok(values) => outputs.push(values),
                        Err(err) => {
                            failure = Some(err);
                            break;
                        }
                    }
                }
            }
            outcomes.push((outputs, exec.report().clone()));
        }
        for exec in &execs {
            for &vector in exec.outputs() {
                self.machine.free(vector);
            }
        }
        if let Some(err) = failure {
            return Err(err.into());
        }
        Ok(outcomes)
    }

    /// Runs dispatch windows until every queue is drained, then returns the aggregate
    /// [`ServeReport`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`run_window`](Self::run_window) failure.
    pub fn serve(&mut self) -> Result<ServeReport> {
        while self.run_window()?.is_some() {}
        Ok(self.report())
    }

    /// The aggregate serving report so far (callable at any point).
    pub fn report(&self) -> ServeReport {
        let total_busy: f64 = self.tenants.iter().map(|t| t.busy_ns).sum();
        let tenants = self
            .tenants
            .iter()
            .enumerate()
            .map(|(index, t)| TenantReport {
                tenant: TenantId(index as u64),
                name: t.spec.name.clone(),
                weight: t.spec.weight,
                jobs_submitted: t.jobs_submitted,
                jobs_completed: t.jobs_completed,
                jobs_rejected: t.jobs_rejected,
                broadcasts: t.broadcasts,
                busy_ns: t.busy_ns,
                energy_nj: t.energy_nj,
                max_queue_depth: t.max_queue_depth_seen,
                p50_turnaround_ns: percentile(&t.turnaround_ns, 50.0),
                p95_turnaround_ns: percentile(&t.turnaround_ns, 95.0),
                p99_turnaround_ns: percentile(&t.turnaround_ns, 99.0),
                share: if total_busy > 0.0 {
                    t.busy_ns / total_busy
                } else {
                    0.0
                },
                jobs_faulted: t.jobs_faulted,
                fault_retries: t.fault_retries,
            })
            .collect();
        ServeReport {
            windows: self.window_log.len(),
            jobs_completed: self.jobs_completed,
            jobs_rejected: self.tenants.iter().map(|t| t.jobs_rejected).sum(),
            fused_dispatches: self.fused_dispatches,
            sequential_dispatches: self.sequential_dispatches,
            busy_ns: self.busy_ns,
            energy_nj: self.energy_nj,
            jobs_faulted: self.tenants.iter().map(|t| t.jobs_faulted).sum(),
            fault_retries: self.tenants.iter().map(|t| t.fault_retries).sum(),
            quarantined_chunks: self.machine.quarantined_chunks().len(),
            tenants,
        }
    }

    /// A point-in-time [`ServerHealth`] snapshot: remaining placeable capacity,
    /// quarantine-driven degradation and the machine's fault/recovery counters.
    ///
    /// On a fault-free server this reports zero everywhere interesting
    /// ([`ServerHealth::is_healthy`] is `true`) and `free_chunks == compute_chunks`
    /// between windows.
    pub fn health(&self) -> ServerHealth {
        let log = self.machine.fault_log();
        let compute = self.machine.compute_chunks();
        let quarantined = self.machine.quarantined_chunks().len();
        ServerHealth {
            compute_chunks: compute,
            free_chunks: self.machine.free_chunks(),
            quarantined_chunks: quarantined,
            degraded_fraction: if compute > 0 {
                quarantined as f64 / compute as f64
            } else {
                0.0
            },
            injected_faults: log.injected,
            detected_faults: log.detected(),
            recovered_faults: log.recovered,
            exhausted_faults: log.exhausted,
            jobs_faulted: self.faulted.len(),
        }
    }
}
