//! The end-to-end SIMDRAM machine: allocation, layout conversion and bbop execution.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use simdram_dram::stats::DeviceStats;
use simdram_dram::{
    BGroupRow, BankStateModel, BankTiming, BitRow, CommandCosts, CommandTrace, DramDevice, RowAddr,
    Subarray,
};
use simdram_logic::Operation;
use simdram_uprog::{
    execute as execute_uprog, CompiledProgram, DispatchEntry, MicroProgram, RowBinding,
};

use crate::config::SimdramConfig;
use crate::control_unit::ControlUnit;
use crate::error::{CoreError, Result};
use crate::estimate::{BroadcastEstimate, MachineEstimate, TraceEstimator};
use crate::executor::{BroadcastExecutor, ExecutionPolicy};
use crate::guard::{FaultError, FaultLog, GuardMode, RETRY_BACKOFF_NS};
use crate::isa::BbopInstruction;
use crate::layout::{RowAllocator, SimdVector};
use crate::plan::{Plan, PlanBuilder, PlanExecution, Storage};
use crate::report::{ExecutionReport, MachineStats, PlanReport};
use crate::timing_backend::TimingBackendKind;
use crate::transpose::{horizontal_to_vertical, vertical_to_horizontal, TranspositionUnit};

/// One resolved step of a fused broadcast batch (see [`SimdramMachine::run_plan`]).
enum RunStep {
    /// Constant broadcast: one AAP from `C0`/`C1` per destination bit-row.
    Init {
        base_row: usize,
        width: usize,
        value: u64,
    },
    /// RowClone duplicate: one AAP per bit-row from a source extent.
    Copy {
        src_base: usize,
        dst_base: usize,
        width: usize,
    },
    /// One μProgram execution under a concrete row binding. When the machine runs in
    /// [`crate::FunctionalMode::Compiled`], `compiled` carries the cached word-level kernel and
    /// the interpreter is bypassed entirely.
    Exec {
        program: MicroProgram,
        compiled: Option<Arc<CompiledProgram>>,
        binding: RowBinding,
        node: usize,
    },
}

/// Executes one batch's resolved steps back-to-back on a single subarray, returning one
/// self-contained local [`CommandTrace`] per step (the fused-broadcast kernel body shared
/// by [`SimdramMachine::run_plan`] and [`SimdramMachine::run_plans_on`]).
///
/// `with_history` governs per-command history retention of the *compiled* μProgram steps
/// (kept exactly when the machine replays bank state); interpreted steps always record
/// full history. Either way the history is drained before returning — only the local
/// traces (whose aggregates are bit-identical between modes) leave the kernel.
///
/// Alongside the per-step traces, returns the number of fault-model bit flips injected
/// during each step (always 0 with [`simdram_dram::FaultModel::Off`]), so per-step
/// reports can attribute corruption exactly.
fn run_steps(
    steps: &[RunStep],
    sa: &mut Subarray,
    with_history: bool,
) -> Result<(Vec<CommandTrace>, Vec<u64>)> {
    let mut per_step = Vec::with_capacity(steps.len());
    let mut injected = Vec::with_capacity(steps.len());
    let mut injected_before = sa.faults_injected();
    for step in steps {
        match step {
            RunStep::Init {
                base_row,
                width,
                value,
            } => {
                let mark = sa.trace_mark();
                for bit in 0..*width {
                    let src = if (value >> bit) & 1 == 1 {
                        RowAddr::BGroup(BGroupRow::C1)
                    } else {
                        RowAddr::BGroup(BGroupRow::C0)
                    };
                    sa.aap(src, RowAddr::Data(base_row + bit))?;
                }
                per_step.push(sa.trace_since(mark));
            }
            RunStep::Copy {
                src_base,
                dst_base,
                width,
            } => {
                let mark = sa.trace_mark();
                for bit in 0..*width {
                    sa.aap(RowAddr::Data(src_base + bit), RowAddr::Data(dst_base + bit))?;
                }
                per_step.push(sa.trace_since(mark));
            }
            RunStep::Exec {
                program,
                compiled,
                binding,
                ..
            } => match compiled {
                Some(kernel) => {
                    per_step.push(
                        kernel
                            .run(sa, binding, with_history)
                            .map_err(CoreError::from)?,
                    );
                }
                None => {
                    per_step.push(execute_uprog(program, sa, binding).map_err(CoreError::from)?);
                }
            },
        }
        let now = sa.faults_injected();
        injected.push(now - injected_before);
        injected_before = now;
    }
    sa.drain_trace();
    Ok((per_step, injected))
}

/// Runs one chunk's batch under the machine's [`GuardMode`].
///
/// With [`GuardMode::Off`] this is exactly [`run_steps`] (plus a retry count of 0).
/// Under [`GuardMode::Redundant`] each attempt snapshots the data rows, runs the batch
/// **twice** from the same snapshot and compares the resulting data rows: agreement
/// accepts the second run's state, disagreement rolls back and retries. Every attempt's
/// commands are merged into the returned per-step traces — detection is paid for in
/// modeled time and energy, roughly 2× per attempt. A chunk that exhausts `max_retries`
/// is rolled back to its pre-batch snapshot and fails with [`CoreError::Fault`].
///
/// Retries advance the per-subarray fault stream (the stream key is a persistent
/// counter), so *transient* faults draw fresh randomness and converge, while the
/// persistent weak cells of [`simdram_dram::FaultModel::RowMap`] keep disagreeing and
/// drive quarantine.
fn run_steps_guarded(
    steps: &[RunStep],
    sa: &mut Subarray,
    with_history: bool,
    guard: GuardMode,
    chunk: usize,
    coord: (usize, usize),
) -> Result<(Vec<CommandTrace>, Vec<u64>, u32)> {
    let GuardMode::Redundant { max_retries } = guard else {
        let (traces, injected) = run_steps(steps, sa, with_history)?;
        return Ok((traces, injected, 0));
    };
    let baseline = sa.clone_data_rows();
    let mut merged_traces: Vec<CommandTrace> = Vec::new();
    let mut merged_injected: Vec<u64> = vec![0; steps.len()];
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let (first_traces, first_injected) = run_steps(steps, sa, with_history)?;
        let first = sa.clone_data_rows();
        sa.restore_data_rows(&baseline);
        let (second_traces, second_injected) = run_steps(steps, sa, with_history)?;
        if merged_traces.is_empty() {
            merged_traces = first_traces;
        } else {
            for (merged, trace) in merged_traces.iter_mut().zip(&first_traces) {
                merged.merge(trace);
            }
        }
        for (merged, trace) in merged_traces.iter_mut().zip(&second_traces) {
            merged.merge(trace);
        }
        for ((merged, a), b) in merged_injected
            .iter_mut()
            .zip(&first_injected)
            .zip(&second_injected)
        {
            *merged += a + b;
        }
        if sa.data_rows_equal(&first) {
            return Ok((merged_traces, merged_injected, attempts - 1));
        }
        if attempts > max_retries {
            let second = sa.clone_data_rows();
            let mismatched_rows = first.iter().zip(&second).filter(|(a, b)| a != b).count();
            sa.restore_data_rows(&baseline);
            sa.drain_trace();
            return Err(CoreError::Fault(FaultError {
                bank: coord.0,
                subarray: coord.1,
                chunk,
                attempts,
                mismatched_rows,
            }));
        }
        sa.restore_data_rows(&baseline);
    }
}

/// Consecutive guarded failures after which a chunk is quarantined (excluded from
/// future placements; see [`SimdramMachine::quarantined_chunks`]).
const QUARANTINE_THRESHOLD: u32 = 2;

/// A lease on a contiguous range of compute subarrays ("chunks"), granted by
/// [`SimdramMachine::reserve_subarrays`].
///
/// Reservations are the placement axis of the serving model: rows stay globally
/// allocated (a row extent is valid at the same offset in *every* compute subarray, so a
/// compiled [`Plan`] runs unmodified on any placement), while reservations carve the
/// subarray dimension into disjoint sets. Plans placed on disjoint reservations touch
/// disjoint subarrays, which is what lets [`SimdramMachine::run_plans_on`] fuse batches
/// from independent plans into one broadcast dispatch.
///
/// The handle does not release itself on drop — return it through
/// [`SimdramMachine::release_subarrays`] when the placement is no longer needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reservation {
    id: u64,
    offset: usize,
    chunks: usize,
}

impl Reservation {
    /// Unique identifier of the reservation within its machine.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// First compute chunk (linear subarray index) of the reserved range.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Number of consecutive compute chunks reserved.
    pub fn chunks(&self) -> usize {
        self.chunks
    }
}

/// A complete SIMDRAM system: DRAM device, memory-controller control unit, transposition
/// unit and the memory manager for vertically laid-out objects.
///
/// This is the type user programs (and the application kernels in `simdram-apps`) interact
/// with. The same machine can be configured to drive the Ambit baseline by selecting
/// [`simdram_uprog::Target::Ambit`] in its [`SimdramConfig`].
///
/// # Examples
///
/// ```
/// use simdram_core::{SimdramConfig, SimdramMachine};
/// use simdram_logic::Operation;
///
/// let mut machine = SimdramMachine::new(SimdramConfig::functional_test())?;
/// let a = machine.alloc_and_write(8, &[10, 20, 30, 250])?;
/// let b = machine.alloc_and_write(8, &[5, 30, 3, 10])?;
/// let (sum, report) = machine.binary(Operation::Add, &a, &b)?;
/// assert_eq!(machine.read(&sum)?, vec![15, 50, 33, 4]); // 250 + 10 wraps at 8 bits
/// assert!(report.throughput_gops() > 0.0);
/// # Ok::<(), simdram_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct SimdramMachine {
    config: SimdramConfig,
    device: DramDevice,
    allocator: RowAllocator,
    control: ControlUnit,
    transposer: TranspositionUnit,
    executor: BroadcastExecutor,
    /// Command cost templates derived once from the DRAM config — the single source the
    /// subarrays and the μProgram compiler both charge from, keeping compiled execution
    /// bit-identical to interpreted accounting.
    costs: CommandCosts,
    /// The analytic estimator every broadcast's traces are folded through into the
    /// cumulative [`MachineEstimate`], whatever the timing backend.
    estimator: TraceEstimator,
    /// The bank-state replay, present exactly under [`TimingBackendKind::BankState`]: it
    /// attaches its replay to each estimate alongside the unchanged analytic numbers.
    bank_state: Option<BankStateModel>,
    stats: MachineStats,
    functional_stats: DeviceStats,
    machine_estimate: MachineEstimate,
    next_id: u64,
    /// Extent allocator over the compute chunks (linear subarray indices), backing
    /// [`SimdramMachine::reserve_subarrays`].
    chunk_allocator: RowAllocator,
    /// Active reservations: id → (offset, chunks). Used to validate handles.
    reservations: HashMap<u64, (usize, usize)>,
    next_reservation_id: u64,
    /// Cumulative fault detection/recovery accounting (see [`SimdramMachine::fault_log`]).
    fault_log: FaultLog,
    /// Guarded-failure count per compute chunk, feeding the quarantine decision.
    failure_counts: HashMap<usize, u32>,
    /// Compute chunks removed from placement circulation after repeated failures.
    quarantined: BTreeSet<usize>,
}

impl SimdramMachine {
    /// Builds a machine from a configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(config: SimdramConfig) -> Result<Self> {
        config.validate()?;
        let mut device = DramDevice::new(config.dram.clone())?;
        device.install_faults(&config.faults);
        let allocator = RowAllocator::new(config.allocatable_rows());
        let control = ControlUnit::new(config.target, config.codegen);
        let transposer =
            TranspositionUnit::new(config.dram.timing.clone(), config.dram.energy.clone());
        let executor = BroadcastExecutor::new(config.execution);
        let costs = CommandCosts::new(&config.dram);
        let estimator = TraceEstimator::new(config.dram.timing.clone(), config.dram.energy.clone());
        let bank_state = config
            .timing_backend
            .is_bank_state()
            .then(|| BankStateModel::new(config.dram.timing.clone(), BankTiming::default()));
        let chunk_allocator =
            RowAllocator::new(config.compute_banks * config.compute_subarrays_per_bank);
        Ok(SimdramMachine {
            config,
            device,
            allocator,
            control,
            transposer,
            executor,
            costs,
            estimator,
            bank_state,
            stats: MachineStats::default(),
            functional_stats: DeviceStats::new(),
            machine_estimate: MachineEstimate::new(),
            next_id: 0,
            chunk_allocator,
            reservations: HashMap::new(),
            next_reservation_id: 0,
            fault_log: FaultLog::default(),
            failure_counts: HashMap::new(),
            quarantined: BTreeSet::new(),
        })
    }

    /// The machine's configuration.
    pub fn config(&self) -> &SimdramConfig {
        &self.config
    }

    /// Cumulative execution statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Cumulative *functional* DRAM command statistics: every command actually issued by
    /// broadcast execution (μPrograms, constant broadcasts, RowClone copies), merged from
    /// the per-chunk [`CommandTrace`]s in deterministic chunk order.
    ///
    /// Because chunk kernels are pure and the merge order is fixed, this is bit-identical
    /// between [`ExecutionPolicy::Sequential`] and [`ExecutionPolicy::Threaded`] runs.
    pub fn device_stats(&self) -> &DeviceStats {
        &self.functional_stats
    }

    /// Cumulative *trace-driven* timing/energy estimate: every broadcast's command
    /// traces folded through the estimation engine ([`TraceEstimator`]) under the
    /// hardware's concurrency semantics — per-broadcast latency is the max over the
    /// participating subarrays (they execute in lock-step), energy is the sum, and
    /// successive broadcasts serialize.
    ///
    /// Like [`SimdramMachine::device_stats`], this is bit-identical between
    /// [`ExecutionPolicy::Sequential`] and [`ExecutionPolicy::Threaded`] runs.
    pub fn estimate(&self) -> &MachineEstimate {
        &self.machine_estimate
    }

    /// Clears the functional command accounting: the machine-level [`DeviceStats`], the
    /// cumulative [`MachineEstimate`] and every subarray's cumulative command trace.
    ///
    /// Long-running drivers (benchmarks, soak tests) call this between measurements.
    /// Note that machine memory is bounded even without calling this: every broadcast
    /// kernel drains the per-command history its subarray accumulated (the absorbed
    /// local traces carry it), keeping only O(1) aggregate counters per subarray.
    pub fn reset_device_stats(&mut self) {
        self.device.reset_stats();
        self.functional_stats = DeviceStats::new();
        self.machine_estimate = MachineEstimate::new();
    }

    /// The active broadcast execution policy.
    pub fn execution_policy(&self) -> ExecutionPolicy {
        self.executor.policy()
    }

    /// The active timing backend (analytic vs bank-state).
    pub fn timing_backend(&self) -> TimingBackendKind {
        self.config.timing_backend
    }

    /// Number of SIMD lanes (elements processed per μProgram broadcast).
    pub fn lanes(&self) -> usize {
        self.config.total_lanes()
    }

    /// Number of elements each individual subarray contributes (one per bitline).
    pub fn lanes_per_subarray(&self) -> usize {
        self.config.dram.columns_per_row
    }

    /// Total number of compute chunks (subarrays) the machine can place work on
    /// (`compute_banks × compute_subarrays_per_bank`).
    pub fn compute_chunks(&self) -> usize {
        self.config.compute_banks * self.config.compute_subarrays_per_bank
    }

    /// Number of compute chunks not currently held by a [`Reservation`]. Quarantined
    /// chunks are permanently out of this pool — repeated guarded failures shrink the
    /// machine's placeable capacity, which is how a serving layer observes degradation.
    pub fn free_chunks(&self) -> usize {
        self.chunk_allocator.free_rows()
    }

    /// Cumulative fault injection/detection/recovery accounting. The injected count is
    /// read live from the device, so it also covers unguarded execution.
    pub fn fault_log(&self) -> FaultLog {
        let mut log = self.fault_log;
        log.injected = self.device.injected_faults();
        log
    }

    /// Compute chunks quarantined after repeated guarded failures, in ascending order.
    /// Quarantined chunks are never handed out by
    /// [`SimdramMachine::reserve_subarrays`] again.
    pub fn quarantined_chunks(&self) -> Vec<usize> {
        self.quarantined.iter().copied().collect()
    }

    /// Total bit flips the fault model has injected across the device (0 with
    /// [`simdram_dram::FaultModel::Off`]).
    pub fn injected_faults(&self) -> u64 {
        self.device.injected_faults()
    }

    /// Records one exhausted-retries failure of `chunk` and quarantines it once it
    /// crosses `QUARANTINE_THRESHOLD`: the chunk is carved out of the free pool now
    /// if it is free, or kept back by [`SimdramMachine::release_subarrays`] when the
    /// reservation holding it is returned.
    fn note_chunk_failure(&mut self, chunk: usize) {
        let count = self.failure_counts.entry(chunk).or_insert(0);
        *count += 1;
        if *count >= QUARANTINE_THRESHOLD && self.quarantined.insert(chunk) {
            self.chunk_allocator.reserve_at(chunk, 1);
        }
    }

    /// Reserves `chunks` consecutive compute subarrays, returning a placement handle.
    ///
    /// Reservations granted while others are outstanding are guaranteed disjoint, which
    /// is the isolation contract behind [`SimdramMachine::run_plans_on`]. Plain
    /// (non-placed) machine calls such as [`SimdramMachine::run_plan`] always use chunks
    /// starting at 0 and do not consult the reservation table — a serving layer that
    /// hands out reservations should route all placed work through the `*_to`/`*_on`
    /// entry points.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for a zero-chunk request and
    /// [`CoreError::SubarrayOverflow`] when no contiguous range of `chunks` free
    /// subarrays exists.
    pub fn reserve_subarrays(&mut self, chunks: usize) -> Result<Reservation> {
        if chunks == 0 {
            return Err(CoreError::Shape(
                "cannot reserve zero compute subarrays".into(),
            ));
        }
        let free = self.free_chunks();
        let offset =
            self.chunk_allocator
                .alloc(chunks)
                .map_err(|_| CoreError::SubarrayOverflow {
                    needed: chunks,
                    available: free,
                })?;
        let id = self.next_reservation_id;
        self.next_reservation_id += 1;
        self.reservations.insert(id, (offset, chunks));
        Ok(Reservation { id, offset, chunks })
    }

    /// Returns a reservation's subarrays to the free pool — except any chunk that was
    /// quarantined while the reservation held it, which stays out of circulation (the
    /// free-list coalescing keeps the surviving neighbours allocatable).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidHandle`] for an unknown (already released or foreign)
    /// reservation.
    pub fn release_subarrays(&mut self, reservation: Reservation) -> Result<()> {
        match self.reservations.remove(&reservation.id) {
            Some((offset, chunks))
                if offset == reservation.offset && chunks == reservation.chunks =>
            {
                for chunk in offset..offset + chunks {
                    if !self.quarantined.contains(&chunk) {
                        self.chunk_allocator.free(chunk, 1);
                    }
                }
                Ok(())
            }
            Some(state) => {
                self.reservations.insert(reservation.id, state);
                Err(CoreError::InvalidHandle(
                    "reservation handle does not match the machine's records".into(),
                ))
            }
            None => Err(CoreError::InvalidHandle(
                "unknown or already released reservation".into(),
            )),
        }
    }

    /// Checks that `reservation` is active on this machine and matches its records.
    fn validate_reservation(&self, reservation: &Reservation) -> Result<()> {
        match self.reservations.get(&reservation.id) {
            Some(&(offset, chunks))
                if offset == reservation.offset && chunks == reservation.chunks =>
            {
                Ok(())
            }
            _ => Err(CoreError::InvalidHandle(
                "unknown or already released reservation".into(),
            )),
        }
    }

    /// Allocates a vertically laid-out vector of `len` elements of `width` bits.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for invalid widths, or [`CoreError::Allocation`] when
    /// the vector does not fit in the compute subarrays.
    pub fn alloc(&mut self, width: usize, len: usize) -> Result<SimdVector> {
        if width == 0 || width > 64 {
            return Err(CoreError::Shape(format!(
                "element width must be in 1..=64, got {width}"
            )));
        }
        if len == 0 {
            return Err(CoreError::Shape("cannot allocate an empty vector".into()));
        }
        if len > self.lanes() {
            return Err(CoreError::Allocation(format!(
                "vector of {len} elements exceeds the machine's {} SIMD lanes",
                self.lanes()
            )));
        }
        let base_row = self.allocator.alloc(width)?;
        let id = self.next_id;
        self.next_id += 1;
        Ok(SimdVector::new(id, base_row, width, len))
    }

    /// Frees a vector's rows.
    pub fn free(&mut self, vector: SimdVector) {
        self.allocator.free(vector.base_row(), vector.width());
    }

    /// Allocates a vector and writes `values` into it (transposing to the vertical layout).
    ///
    /// # Errors
    ///
    /// Propagates allocation and shape errors from [`SimdramMachine::alloc`] and
    /// [`SimdramMachine::write`].
    pub fn alloc_and_write(&mut self, width: usize, values: &[u64]) -> Result<SimdVector> {
        let vector = self.alloc(width, values.len())?;
        self.write(&vector, values)?;
        Ok(vector)
    }

    /// Writes host (horizontal) data into a vector through the transposition unit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] if more values than the vector's length are supplied.
    pub fn write(&mut self, vector: &SimdVector, values: &[u64]) -> Result<()> {
        self.write_at(0, vector, values)
    }

    /// Writes host data into `vector` as resident on a reserved placement: the vector's
    /// rows inside `placement`'s subarrays, starting at its first chunk.
    ///
    /// This is the data-shipping half of the serving model — a plan later executed with
    /// [`SimdramMachine::run_plan_on`] on the same placement reads exactly these
    /// subarrays.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidHandle`] for a released reservation,
    /// [`CoreError::SubarrayOverflow`] when the values span more chunks than reserved,
    /// and the same shape errors as [`SimdramMachine::write`].
    pub fn write_to(
        &mut self,
        placement: &Reservation,
        vector: &SimdVector,
        values: &[u64],
    ) -> Result<()> {
        self.validate_reservation(placement)?;
        let needed = self.subarrays_for(values.len());
        if needed > placement.chunks() {
            return Err(CoreError::SubarrayOverflow {
                needed,
                available: placement.chunks(),
            });
        }
        self.write_at(placement.offset(), vector, values)
    }

    /// Offset-aware body of [`SimdramMachine::write`]/[`SimdramMachine::write_to`]:
    /// chunk `i` of `values` lands in compute chunk `chunk_offset + i`.
    fn write_at(&mut self, chunk_offset: usize, vector: &SimdVector, values: &[u64]) -> Result<()> {
        if values.len() > vector.len() {
            return Err(CoreError::Shape(format!(
                "writing {} values into a vector of {} elements",
                values.len(),
                vector.len()
            )));
        }
        let columns = self.lanes_per_subarray();
        let width = vector.width();
        let base_row = vector.base_row();
        // The layout conversion is per-chunk and pure, so each kernel converts its own
        // slice of `values` in place: under the threaded policy the dominant
        // O(lanes × width) transpose cost parallelizes along with the pokes, and no full
        // converted copy of the data is ever materialized.
        let coords = self.compute_coords_at(chunk_offset, values.len().div_ceil(columns))?;
        self.executor
            .broadcast(&mut self.device, &coords, |chunk, sa| {
                let start = chunk * columns;
                let end = (start + columns).min(values.len());
                let slices = horizontal_to_vertical(&values[start..end], width, columns);
                for (bit, slice) in slices.iter().enumerate() {
                    let row = BitRow::from_words(slice, columns);
                    sa.poke(RowAddr::Data(base_row + bit), &row)?;
                }
                Ok(())
            })?;
        let latency = self.transposer.latency_ns(values.len(), width);
        let energy = self.transposer.energy_nj(values.len(), width);
        self.stats.record_transpose(latency, energy);
        Ok(())
    }

    /// Writes a boolean predicate vector (1-bit elements).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] if the vector is not 1 bit wide.
    pub fn write_bools(&mut self, vector: &SimdVector, values: &[bool]) -> Result<()> {
        if vector.width() != 1 {
            return Err(CoreError::Shape(format!(
                "predicate vectors must be 1 bit wide, got {}",
                vector.width()
            )));
        }
        let as_words: Vec<u64> = values.iter().map(|&b| u64::from(b)).collect();
        self.write(vector, &as_words)
    }

    /// Reads a vector back into host (horizontal) layout through the transposition unit.
    ///
    /// # Errors
    ///
    /// Returns an error if the vector's rows lie outside the device (stale handle).
    pub fn read(&mut self, vector: &SimdVector) -> Result<Vec<u64>> {
        self.read_at(0, vector)
    }

    /// Reads `vector` back from a reserved placement (the inverse of
    /// [`SimdramMachine::write_to`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidHandle`] for a released reservation,
    /// [`CoreError::SubarrayOverflow`] when the vector spans more chunks than reserved,
    /// and the same errors as [`SimdramMachine::read`].
    pub fn read_from(&mut self, placement: &Reservation, vector: &SimdVector) -> Result<Vec<u64>> {
        self.validate_reservation(placement)?;
        let needed = self.subarrays_for(vector.len());
        if needed > placement.chunks() {
            return Err(CoreError::SubarrayOverflow {
                needed,
                available: placement.chunks(),
            });
        }
        self.read_at(placement.offset(), vector)
    }

    /// Offset-aware body of [`SimdramMachine::read`]/[`SimdramMachine::read_from`].
    fn read_at(&mut self, chunk_offset: usize, vector: &SimdVector) -> Result<Vec<u64>> {
        let columns = self.lanes_per_subarray();
        let width = vector.width();
        let base_row = vector.base_row();
        let len = vector.len();
        let coords = self.compute_coords_at(chunk_offset, self.subarrays_for(len))?;
        let chunk_values = self
            .executor
            .broadcast(&mut self.device, &coords, |chunk, sa| {
                let lanes = columns.min(len - chunk * columns);
                // Borrow each row's packed words directly — the inspect path never
                // clones a row.
                let mut slices: Vec<&[u64]> = Vec::with_capacity(width);
                for bit in 0..width {
                    slices.push(sa.row(RowAddr::Data(base_row + bit))?.words());
                }
                Ok(vertical_to_horizontal(&slices, width, lanes))
            })?;
        let mut values = Vec::with_capacity(len);
        for chunk in chunk_values {
            values.extend(chunk);
        }
        let latency = self.transposer.latency_ns(len, width);
        let energy = self.transposer.energy_nj(len, width);
        self.stats.record_transpose(latency, energy);
        Ok(values)
    }

    /// Executes one bbop instruction.
    ///
    /// # Errors
    ///
    /// Propagates shape, allocation and substrate errors.
    pub fn issue(&mut self, instruction: &BbopInstruction) -> Result<Option<ExecutionReport>> {
        match *instruction {
            BbopInstruction::Op {
                op,
                dst,
                src_a,
                src_b,
                pred,
            } => self
                .execute(op, &dst, &src_a, src_b.as_ref(), pred.as_ref())
                .map(Some),
            BbopInstruction::Transpose { vector, direction } => {
                let latency = self.transposer.latency_ns(vector.len(), vector.width());
                let energy = self.transposer.energy_nj(vector.len(), vector.width());
                self.stats.record_transpose(latency, energy);
                let _ = direction;
                Ok(None)
            }
            BbopInstruction::Init { dst, value } => {
                self.init(&dst, value)?;
                Ok(None)
            }
        }
    }

    /// Fills every element of `vector` with `value`, using row-wide copies from the control
    /// rows (`C0`/`C1`), one AAP per destination bit-row per subarray.
    ///
    /// # Errors
    ///
    /// Returns an error if the vector's rows lie outside the device.
    pub fn init(&mut self, vector: &SimdVector, value: u64) -> Result<()> {
        let coords = self.compute_coords(self.subarrays_for(vector.len()))?;
        let width = vector.width();
        let base_row = vector.base_row();
        let traces = self
            .executor
            .broadcast_traced(&mut self.device, &coords, |_, sa| {
                for bit in 0..width {
                    let src = if (value >> bit) & 1 == 1 {
                        RowAddr::BGroup(BGroupRow::C1)
                    } else {
                        RowAddr::BGroup(BGroupRow::C0)
                    };
                    sa.aap(src, RowAddr::Data(base_row + bit))?;
                }
                Ok(())
            })?;
        self.absorb_chunk_traces(&traces);
        Ok(())
    }

    /// Executes `op` element-wise, writing results into `dst`.
    ///
    /// `src_b` must be supplied for two-operand operations and `pred` (a 1-bit vector) for
    /// predicated operations.
    ///
    /// This is the eager **convenience path**: internally it builds, compiles and runs a
    /// one-node [`Plan`] storing into `dst`. Multi-operation expressions fuse better when
    /// composed with a [`PlanBuilder`] and executed through
    /// [`SimdramMachine::run_plan`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for operand mismatches, [`CoreError::Allocation`] when
    /// the μProgram needs more reserved rows than configured, or a substrate error.
    pub fn execute(
        &mut self,
        op: Operation,
        dst: &SimdVector,
        src_a: &SimdVector,
        src_b: Option<&SimdVector>,
        pred: Option<&SimdVector>,
    ) -> Result<ExecutionReport> {
        let mut builder = PlanBuilder::new();
        let a = builder.input(src_a);
        let b = src_b.map(|v| builder.input(v));
        let p = pred.map(|v| builder.input(v));
        let expr = builder.apply(op, a, b, p)?;
        builder.store(expr, dst)?;
        let plan = builder.compile()?;
        let (_, mut report) = self.run_plan(&plan)?.into_parts();
        Ok(report
            .step_reports
            .pop()
            .expect("a one-node plan produces exactly one step report"))
    }

    /// Convenience: allocates a destination and executes a two-operand operation (sugar
    /// over a one-node [`Plan`], like [`SimdramMachine::execute`]).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`SimdramMachine::alloc`] and [`SimdramMachine::execute`].
    pub fn binary(
        &mut self,
        op: Operation,
        a: &SimdVector,
        b: &SimdVector,
    ) -> Result<(SimdVector, ExecutionReport)> {
        let dst = self.alloc(op.output_width(a.width()), a.len())?;
        let report = self.execute(op, &dst, a, Some(b), None)?;
        Ok((dst, report))
    }

    /// Convenience: allocates a destination and executes a single-operand operation
    /// (sugar over a one-node [`Plan`], like [`SimdramMachine::execute`]).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`SimdramMachine::alloc`] and [`SimdramMachine::execute`].
    pub fn unary(
        &mut self,
        op: Operation,
        a: &SimdVector,
    ) -> Result<(SimdVector, ExecutionReport)> {
        let dst = self.alloc(op.output_width(a.width()), a.len())?;
        let report = self.execute(op, &dst, a, None, None)?;
        Ok((dst, report))
    }

    /// Copies a vector with in-DRAM RowClone operations (one AAP per bit-row per subarray),
    /// never moving the data over the memory channel.
    ///
    /// This is the bulk-copy primitive the paper inherits from RowClone: initializing or
    /// duplicating operands costs row activations only.
    ///
    /// # Errors
    ///
    /// Propagates allocation and substrate errors.
    pub fn copy(&mut self, src: &SimdVector) -> Result<SimdVector> {
        let dst = self.alloc(src.width(), src.len())?;
        let coords = self.compute_coords(self.subarrays_for(src.len()))?;
        let width = src.width();
        let src_base = src.base_row();
        let dst_base = dst.base_row();
        let traces = self
            .executor
            .broadcast_traced(&mut self.device, &coords, |_, sa| {
                for bit in 0..width {
                    sa.aap(RowAddr::Data(src_base + bit), RowAddr::Data(dst_base + bit))?;
                }
                Ok(())
            })?;
        self.absorb_chunk_traces(&traces);
        Ok(dst)
    }

    /// Returns a *view* of `vector` logically right-shifted by `bits` (dropping its low
    /// bits), without issuing a single DRAM command.
    ///
    /// This implements the paper's observation that explicit in-DRAM shifting is usually
    /// unnecessary: because the layout is vertical, shifting is just re-indexing which rows
    /// a later μProgram reads, i.e. the returned handle simply starts `bits` rows higher.
    /// The view aliases the original rows; do not pass the view to [`SimdramMachine::free`]
    /// — free the original handle when the data is no longer needed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] if `bits` is not smaller than the vector's width.
    pub fn shifted_view(&self, vector: &SimdVector, bits: usize) -> Result<SimdVector> {
        if bits >= vector.width() {
            return Err(CoreError::Shape(format!(
                "cannot shift a {}-bit vector right by {bits} bits",
                vector.width()
            )));
        }
        Ok(SimdVector::new(
            vector.id(),
            vector.base_row() + bits,
            vector.width() - bits,
            vector.len(),
        ))
    }

    /// Convenience: predicated select (`pred ? a : b`), SIMDRAM's if-then-else (sugar
    /// over a one-node [`Plan`], like [`SimdramMachine::execute`]).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`SimdramMachine::alloc`] and [`SimdramMachine::execute`].
    pub fn select(
        &mut self,
        pred: &SimdVector,
        a: &SimdVector,
        b: &SimdVector,
    ) -> Result<(SimdVector, ExecutionReport)> {
        let dst = self.alloc(a.width(), a.len())?;
        let report = self.execute(Operation::IfElse, &dst, a, Some(b), Some(pred))?;
        Ok((dst, report))
    }

    /// Executes a compiled [`Plan`]: binds it to physical rows, issues every batch as
    /// one **fused broadcast**, and returns the materialized outputs with the
    /// plan-level accounting.
    ///
    /// Each batch's steps run back-to-back inside a single broadcast kernel per
    /// participating subarray, so under [`ExecutionPolicy::Threaded`] the banks crunch
    /// through the whole batch without synchronizing between steps, and the modeled
    /// broadcast count drops below op-by-op issue (see [`PlanReport`]). Per-step
    /// command traces are still merged in `(step, chunk)` order, keeping every number —
    /// results, [`DeviceStats`], [`MachineEstimate`], [`ExecutionReport`]s —
    /// bit-identical between execution policies and with the equivalent eager call
    /// sequence.
    ///
    /// Pooled temporaries are allocated before the first batch and released when the
    /// run finishes (or fails); output vectors are owned by the caller and must be
    /// freed with [`SimdramMachine::free`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Allocation`] when a μProgram needs more reserved rows than
    /// configured or the plan's vectors do not fit, [`CoreError::SubarrayOverflow`] when
    /// a batch needs more subarrays than available, or a substrate error. On error the
    /// machine's row allocator is restored (no rows leak).
    pub fn run_plan(&mut self, plan: &Plan) -> Result<PlanExecution> {
        let mut execs = self.run_plans_at(&[(plan, 0, self.compute_chunks())])?;
        Ok(execs.pop().expect("one plan in, one execution out"))
    }

    /// Executes a compiled [`Plan`] on a reserved placement: every broadcast uses the
    /// reservation's subarrays instead of chunks `0..n`.
    ///
    /// Inputs must be resident on the same placement (written with
    /// [`SimdramMachine::write_to`]); outputs are read back with
    /// [`SimdramMachine::read_from`]. Accounting is identical to
    /// [`SimdramMachine::run_plan`] — placement changes *where* a plan runs, never what
    /// it computes or costs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidHandle`] for a released reservation,
    /// [`CoreError::SubarrayOverflow`] when a batch needs more subarrays than reserved,
    /// plus every [`SimdramMachine::run_plan`] error.
    pub fn run_plan_on(&mut self, plan: &Plan, placement: &Reservation) -> Result<PlanExecution> {
        let mut execs = self.run_plans_on(&[(plan, placement)])?;
        Ok(execs.pop().expect("one plan in, one execution out"))
    }

    /// Executes several independent plans **concurrently**, fusing their broadcast
    /// batches into shared dispatches: the `d`-th batch of every plan runs as ONE
    /// broadcast over the union of the plans' (disjoint) reserved subarrays.
    ///
    /// This is the multi-tenant entry point of the serving layer (`simdram-serve`).
    /// Compared to running the same plans back-to-back it issues
    /// `max(batches)` dispatches instead of `Σ batches`, and each fused dispatch's
    /// modeled busy window is the max over all participating subarrays instead of the
    /// sum of per-plan windows — while every plan's own [`PlanReport`] keeps the same
    /// per-plan accounting (its own chunks, its own steps) it would have solo, and
    /// results stay bit-identical to sequential execution under either
    /// [`ExecutionPolicy`].
    ///
    /// Executions are returned in job order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidHandle`] when a reservation is released or one
    /// reservation is shared by two jobs, [`CoreError::SubarrayOverflow`] when a plan's
    /// batch does not fit its reservation, plus every [`SimdramMachine::run_plan`]
    /// error. On error no rows leak and no partial outputs survive.
    pub fn run_plans_on(&mut self, jobs: &[(&Plan, &Reservation)]) -> Result<Vec<PlanExecution>> {
        for (index, (_, reservation)) in jobs.iter().enumerate() {
            self.validate_reservation(reservation)?;
            if jobs[..index]
                .iter()
                .any(|(_, r)| r.id() == reservation.id())
            {
                return Err(CoreError::InvalidHandle(
                    "the same reservation was supplied for two jobs".into(),
                ));
            }
        }
        let resolved: Vec<(&Plan, usize, usize)> = jobs
            .iter()
            .map(|(plan, r)| (*plan, r.offset(), r.chunks()))
            .collect();
        self.run_plans_at(&resolved)
    }

    /// Issues several independent plans as **exactly one heterogeneous MIMD dispatch
    /// window**: each plan becomes one `(μProgram stream, subarray set)` entry of the
    /// window, all entries execute concurrently over the disjoint reservations, and the
    /// whole call records a single [`crate::BroadcastEstimate`].
    ///
    /// This is [`SimdramMachine::run_plans_on`] with a hard single-window contract —
    /// the caller asserting "this is one dispatch" (e.g. control-divergent lanes of one
    /// logical kernel, split into per-branch plans over disjoint element ranges).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] when any plan needs more than one dispatch window,
    /// plus every [`SimdramMachine::run_plans_on`] error.
    pub fn run_mimd_window(
        &mut self,
        jobs: &[(&Plan, &Reservation)],
    ) -> Result<Vec<PlanExecution>> {
        for &(plan, _) in jobs {
            let windows = plan.window_count();
            if windows > 1 {
                return Err(CoreError::Shape(format!(
                    "run_mimd_window issues exactly one dispatch, but a plan needs \
                     {windows} windows; use run_plans_on for multi-window plans"
                )));
            }
        }
        self.run_plans_on(jobs)
    }

    /// Total dispatch windows the control unit has issued (see
    /// [`crate::ControlUnit::windows_issued`]).
    pub fn dispatch_windows_issued(&self) -> u64 {
        self.control.windows_issued()
    }

    /// Dispatch windows that carried ≥ 2 distinct μProgram streams — true MIMD
    /// dispatches (see [`crate::ControlUnit::mimd_windows_issued`]).
    pub fn mimd_windows_issued(&self) -> u64 {
        self.control.mimd_windows_issued()
    }

    /// Shared implementation of every plan entry point: each job is a plan plus a chunk
    /// placement `(offset, budget)`. Validates, allocates storage with rollback, runs
    /// the fused dispatches and returns per-job executions.
    fn run_plans_at(&mut self, jobs: &[(&Plan, usize, usize)]) -> Result<Vec<PlanExecution>> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        // Generate every μProgram the plans need up front — the paper's offline
        // programming step — and validate reserved-row and subarray-budget requirements
        // before touching the allocator.
        for &(plan, _, budget) in jobs {
            self.control.preload(plan.programs_needed());
            if self.config.functional.is_compiled() {
                // The offline programming step of the fast-functional mode: lower every
                // needed μProgram into its word-level kernel once, before any batch runs.
                self.control
                    .preload_compiled(plan.programs_needed(), &self.costs)?;
            }
            for (op, width) in plan.programs_needed() {
                let temp_rows = self.control.microprogram(op, width).temp_rows();
                if temp_rows > self.config.dram.reserved_rows {
                    return Err(CoreError::Allocation(format!(
                        "{op} at {width} bits needs {temp_rows} reserved rows but only {} are configured",
                        self.config.dram.reserved_rows
                    )));
                }
            }
            for batch in plan.batches() {
                let needed = self.subarrays_for(batch.len);
                if needed > budget {
                    return Err(CoreError::SubarrayOverflow {
                        needed,
                        available: budget,
                    });
                }
            }
        }
        let mut storages: Vec<(Vec<SimdVector>, Vec<usize>)> = Vec::with_capacity(jobs.len());
        for &(plan, _, _) in jobs {
            match self.alloc_plan_storage(plan) {
                Ok(storage) => storages.push(storage),
                Err(err) => {
                    for (&(plan, _, _), (outputs, slot_bases)) in jobs.iter().zip(storages) {
                        for (slot, base) in slot_bases.into_iter().enumerate() {
                            self.allocator.free(base, plan.slot_widths()[slot]);
                        }
                        for vector in outputs {
                            self.free(vector);
                        }
                    }
                    return Err(err);
                }
            }
        }
        let result = self.execute_plan_batches(jobs, &storages);
        for (&(plan, _, _), (_, slot_bases)) in jobs.iter().zip(&storages) {
            for (slot, &base) in slot_bases.iter().enumerate() {
                self.allocator.free(base, plan.slot_widths()[slot]);
            }
        }
        match result {
            Ok(reports) => Ok(jobs
                .iter()
                .zip(storages)
                .zip(reports)
                .map(|((&(plan, _, _), (outputs, _)), report)| {
                    PlanExecution::new(plan.builder_id(), outputs, report)
                })
                .collect()),
            Err(err) => {
                for (outputs, _) in storages {
                    for vector in outputs {
                        self.free(vector);
                    }
                }
                Err(err)
            }
        }
    }

    /// Allocates a plan's dedicated outputs and pooled temp slots, rolling back every
    /// partial allocation on failure.
    fn alloc_plan_storage(&mut self, plan: &Plan) -> Result<(Vec<SimdVector>, Vec<usize>)> {
        let mut outputs: Vec<SimdVector> = Vec::with_capacity(plan.output_count());
        let mut slot_bases: Vec<usize> = Vec::with_capacity(plan.slot_widths().len());
        let mut failure = None;
        for &node_id in plan.output_nodes() {
            let node = plan.node(node_id);
            match self.alloc(node.width(), node.len()) {
                Ok(vector) => outputs.push(vector),
                Err(err) => {
                    failure = Some(err);
                    break;
                }
            }
        }
        if failure.is_none() {
            for &width in plan.slot_widths() {
                match self.allocator.alloc(width) {
                    Ok(base) => slot_bases.push(base),
                    Err(err) => {
                        failure = Some(err);
                        break;
                    }
                }
            }
        }
        if let Some(err) = failure {
            for (slot, &base) in slot_bases.iter().enumerate() {
                self.allocator.free(base, plan.slot_widths()[slot]);
            }
            for vector in outputs {
                self.free(vector);
            }
            return Err(err);
        }
        Ok((outputs, slot_bases))
    }

    /// Issues the jobs' batches as fused MIMD dispatch windows — at window depth `d`,
    /// the `d`-th window of every plan that has one runs inside ONE broadcast over the
    /// union of the jobs' chunk placements, each chunk executing its owning job's
    /// co-issued batch segments back-to-back — folding the per-step traces into the
    /// machine's accounting exactly like back-to-back execution would have (traces are
    /// merged in deterministic `(job, batch, step, chunk)` order, so results, per-step
    /// reports and [`DeviceStats`] are bit-identical to issuing the same steps as eager
    /// calls in batch order).
    fn execute_plan_batches(
        &mut self,
        jobs: &[(&Plan, usize, usize)],
        storages: &[(Vec<SimdVector>, Vec<usize>)],
    ) -> Result<Vec<PlanReport>> {
        // Resolve each job's node → run-time vector handles (inputs in place,
        // temporaries in their pooled slots, outputs/stores in their destinations).
        let mut job_vectors: Vec<Vec<Option<SimdVector>>> = Vec::with_capacity(jobs.len());
        for (&(plan, _, _), (outputs, slot_bases)) in jobs.iter().zip(storages) {
            let mut node_vectors: Vec<Option<SimdVector>> = Vec::with_capacity(plan.nodes().len());
            for (id, node) in plan.nodes().iter().enumerate() {
                let vector = match plan.storage_of(id) {
                    Storage::InPlace => node.input_vector(),
                    Storage::Slot(slot) => {
                        let handle_id = self.next_id;
                        self.next_id += 1;
                        Some(SimdVector::new(
                            handle_id,
                            slot_bases[*slot],
                            node.width(),
                            node.len(),
                        ))
                    }
                    Storage::Output(index) => Some(outputs[*index]),
                    Storage::External(dst) => Some(*dst),
                };
                node_vectors.push(vector);
            }
            job_vectors.push(node_vectors);
        }

        let mut reports: Vec<PlanReport> = jobs
            .iter()
            .map(|&(plan, _, _)| PlanReport {
                eager_broadcasts: plan.step_count(),
                ..PlanReport::default()
            })
            .collect();

        let max_windows = jobs
            .iter()
            .map(|&(plan, _, _)| plan.window_count())
            .max()
            .unwrap_or(0);
        for depth in 0..max_windows {
            // Resolve every participating job's dispatch window into per-batch step
            // segments plus its placement coordinates. A window covers one or more
            // independent same-level batches (one, for every level of a uniform-length
            // plan); a chunk executes, back-to-back, the segment of every batch wide
            // enough to reach it. Coordinates are appended in job order, so position
            // `p` of the dispatch belongs to `owner_of_position[p]`.
            let mut participants: Vec<usize> = Vec::new();
            let mut segment_lists: Vec<Vec<(Vec<RunStep>, usize)>> = Vec::new();
            let mut participant_chunks: Vec<usize> = Vec::new();
            let mut participant_starts: Vec<usize> = Vec::new();
            let mut coords: Vec<(usize, usize)> = Vec::new();
            let mut owner_of_position: Vec<usize> = Vec::new();
            let mut entries: Vec<DispatchEntry> = Vec::new();
            for (job_index, &(plan, offset, _)) in jobs.iter().enumerate() {
                if depth >= plan.window_count() {
                    continue;
                }
                let node_vectors = &job_vectors[job_index];
                let batch_range = plan.windows()[depth].clone();
                let mut segments: Vec<(Vec<RunStep>, usize)> = Vec::new();
                let mut programs: Vec<(Operation, usize)> = Vec::new();
                for batch in &plan.batches()[batch_range] {
                    let chunks = self.subarrays_for(batch.len);
                    let mut steps: Vec<RunStep> = Vec::with_capacity(batch.steps.len());
                    for &id in &batch.steps {
                        let node = plan.node(id);
                        let dst = node_vectors[id].expect("computed nodes have storage");
                        if let Some(value) = node.kind_constant() {
                            steps.push(RunStep::Init {
                                base_row: dst.base_row(),
                                width: node.width(),
                                value,
                            });
                        } else if let Some(src) = node.kind_copy() {
                            let src_vec = node_vectors[src].expect("operands precede their users");
                            steps.push(RunStep::Copy {
                                src_base: src_vec.base_row(),
                                dst_base: dst.base_row(),
                                width: node.width(),
                            });
                        } else if let Some((op, a, b, pred)) = node.kind_op() {
                            let a_vec = node_vectors[a].expect("operands precede their users");
                            let b_vec =
                                b.map(|i| node_vectors[i].expect("operands precede their users"));
                            let p_vec = pred
                                .map(|i| node_vectors[i].expect("operands precede their users"));
                            let binding = self.control.bind(
                                op,
                                &dst,
                                &a_vec,
                                b_vec.as_ref(),
                                p_vec.as_ref(),
                                self.config.reserved_base(),
                            )?;
                            let program = self.control.microprogram(op, a_vec.width()).clone();
                            let compiled = if self.config.functional.is_compiled() {
                                Some(self.control.compiled_microprogram(
                                    op,
                                    a_vec.width(),
                                    &self.costs,
                                )?)
                            } else {
                                None
                            };
                            programs.push((op, a_vec.width()));
                            steps.push(RunStep::Exec {
                                program,
                                compiled,
                                binding,
                                node: id,
                            });
                        }
                    }
                    segments.push((steps, chunks));
                }
                let job_chunks = segments
                    .iter()
                    .map(|&(_, chunks)| chunks)
                    .max()
                    .unwrap_or(1);
                let participant = participants.len();
                participant_starts.push(coords.len());
                coords.extend(self.compute_coords_at(offset, job_chunks)?);
                owner_of_position.extend(std::iter::repeat_n(participant, job_chunks));
                entries.push(DispatchEntry::new(
                    programs,
                    (offset..offset + job_chunks).collect(),
                ));
                participants.push(job_index);
                segment_lists.push(segments);
                participant_chunks.push(job_chunks);
            }

            // The control unit assembles and validates the window's (μProgram stream,
            // subarray set) entries before anything issues: reservations make the sets
            // disjoint by construction, and this is the layer that would reject a
            // corrupted placement table.
            self.control.describe_window(entries)?;

            // One fused MIMD dispatch: every chunk executes, in batch order, the
            // segment of every owning-job batch that reaches it, returning each
            // segment's local per-step traces so per-step accounting stays exact.
            // Placements are disjoint, so the disjoint-borrow API hands every chunk
            // kernel its own subarray.
            let dispatch_chunks = coords.len();
            // Compiled steps keep per-command history exactly when the bank-state
            // replay will classify it (aggregate accounting is bit-identical either way).
            let with_history = self.bank_state.is_some();
            let guard = self.config.guard;
            let per_bank = self.config.compute_subarrays_per_bank;
            let coords_ref = &coords;
            let segment_lists_ref = &segment_lists;
            let owners = &owner_of_position;
            let starts = &participant_starts;
            let broadcast = self
                .executor
                .broadcast(&mut self.device, &coords, |position, sa| {
                    let participant = owners[position];
                    let local = position - starts[participant];
                    let (bank, subarray) = coords_ref[position];
                    let mut outputs: Vec<(Vec<CommandTrace>, Vec<u64>, u32)> = Vec::new();
                    for (steps, chunks) in &segment_lists_ref[participant] {
                        if local >= *chunks {
                            continue;
                        }
                        outputs.push(run_steps_guarded(
                            steps,
                            sa,
                            with_history,
                            guard,
                            bank * per_bank + subarray,
                            (bank, subarray),
                        )?);
                    }
                    Ok(outputs)
                });
            let chunk_results = match broadcast {
                Ok(results) => results,
                Err(err) => {
                    // An exhausted-retries chunk aborts the whole dispatch (the serve
                    // layer re-dispatches surviving jobs); record the failure so
                    // repeated offenders get quarantined.
                    if let CoreError::Fault(fault) = &err {
                        self.fault_log.exhausted += 1;
                        self.fault_log.retries += u64::from(fault.attempts.saturating_sub(1));
                        self.note_chunk_failure(fault.chunk);
                    }
                    return Err(err);
                }
            };

            // Dispatch-level bank-state replay: merge every segment's per-step traces
            // into one stream per chunk (the order the subarray really issued them) and
            // replay the whole fused window. Skipped entirely under the analytic
            // backend.
            let fused_bank_state = self.bank_state.as_ref().map(|model| {
                let merged: Vec<CommandTrace> = chunk_results
                    .iter()
                    .map(|segments| {
                        let mut whole = CommandTrace::new();
                        for (steps, _, _) in segments {
                            for step in steps {
                                whole.merge(step);
                            }
                        }
                        whole
                    })
                    .collect();
                model.replay(&merged)
            });

            let mut dispatch_latency = 0.0f64;
            let mut dispatch_commands = 0usize;
            let mut dispatch_energy = 0.0f64;
            let mut dispatch_retries = 0u64;
            let mut chunk_iter = chunk_results.into_iter();
            for (participant, &job_index) in participants.iter().enumerate() {
                let job_chunks = participant_chunks[participant];
                let plan = jobs[job_index].0;
                // Per chunk, the segments it ran, in batch order; consumed
                // batch-by-batch below, reconstructing each batch's per-step
                // chunk-major traces exactly as serialized dispatch would see them.
                let mut chunk_segments: Vec<_> = (0..job_chunks)
                    .map(|_| {
                        chunk_iter
                            .next()
                            .expect("one segment list per chunk")
                            .into_iter()
                    })
                    .collect();
                let mut window_chunk_latency = vec![0.0f64; job_chunks];
                let mut window_commands = 0usize;
                let mut window_energy = 0.0f64;
                let mut job_retries = 0u64;
                for (steps, batch_chunks) in &segment_lists[participant] {
                    // Transpose this batch's [chunk][step] traces into per-step chunk
                    // order, summing each step's injected-fault deltas over its chunks.
                    let mut per_step: Vec<Vec<CommandTrace>> = (0..steps.len())
                        .map(|_| Vec::with_capacity(*batch_chunks))
                        .collect();
                    let mut step_injected = vec![0u64; steps.len()];
                    for segments in chunk_segments.iter_mut().take(*batch_chunks) {
                        let (chunk_traces, chunk_injected, chunk_retries) = segments
                            .next()
                            .expect("one segment per participating chunk");
                        for (step, trace) in chunk_traces.into_iter().enumerate() {
                            per_step[step].push(trace);
                        }
                        for (step, n) in chunk_injected.into_iter().enumerate() {
                            step_injected[step] += n;
                        }
                        if chunk_retries > 0 {
                            job_retries += u64::from(chunk_retries);
                            self.fault_log.retries += u64::from(chunk_retries);
                            self.fault_log.recovered += 1;
                        }
                    }

                    let report = &mut reports[job_index];
                    for ((step_index, step), traces) in steps.iter().enumerate().zip(&per_step) {
                        for (chunk, trace) in traces.iter().enumerate() {
                            self.functional_stats.absorb_trace(trace);
                            window_chunk_latency[chunk] += trace.total_latency_ns();
                            window_energy += trace.total_energy_nj();
                            window_commands += trace.len();
                        }
                        report.faults_injected += step_injected[step_index];
                        match step {
                            RunStep::Init { width, .. } => {
                                report.constants += 1;
                                report.commands += width;
                            }
                            RunStep::Copy { width, .. } => {
                                report.copies += 1;
                                report.commands += width;
                            }
                            RunStep::Exec { program, node, .. } => {
                                let measured = self.estimate_broadcast(traces);
                                let elements = plan.node(*node).len();
                                let timing = &self.config.dram.timing;
                                let energy_model = &self.config.dram.energy;
                                let step_report = ExecutionReport {
                                    op: program.operation(),
                                    width: program.width(),
                                    elements,
                                    subarrays_used: *batch_chunks,
                                    commands: program.command_count(),
                                    tra_count: program.tra_count(),
                                    latency_ns: program.latency_ns(timing),
                                    energy_nj: program.energy_nj(energy_model)
                                        * *batch_chunks as f64,
                                    measured_latency_ns: measured.latency_ns,
                                    measured_energy_nj: measured.energy_nj,
                                    bank_state_latency_ns: measured
                                        .bank_state
                                        .as_ref()
                                        .map(|replay| replay.latency_ns),
                                    faults_injected: step_injected[step_index],
                                };
                                self.stats.record_execution(&step_report);
                                report.ops += 1;
                                report.commands += step_report.commands;
                                report.elements += step_report.elements;
                                report.latency_ns += step_report.latency_ns;
                                report.energy_nj += step_report.energy_nj;
                                report.step_reports.push(step_report);
                            }
                        }
                    }
                    // One fused broadcast batch accounted (a window may carry several).
                    report.broadcasts += 1;
                }

                // The job's own busy window for this dispatch: its chunks run their
                // segment chains in lock-step, so it is the max over the job's chunks
                // of each chunk's window total. Co-issued batches overlap here instead
                // of serializing — the MIMD win.
                let window_latency = window_chunk_latency.iter().copied().fold(0.0f64, f64::max);
                let report = &mut reports[job_index];
                report.windows += 1;
                report.fault_retries += job_retries;
                report.measured_latency_ns += window_latency;
                report.measured_energy_nj += window_energy;
                dispatch_retries += job_retries;
                dispatch_latency = dispatch_latency.max(window_latency);
                dispatch_commands += window_commands;
                dispatch_energy += window_energy;
            }

            // Recovery is not free: every retry charges a modeled re-dispatch window
            // on top of the (already doubled-and-merged) guarded traces, serializing
            // into the dispatch's busy window. Zero with the guard off, keeping the
            // estimate bit-identical to pre-fault-model behaviour.
            if dispatch_retries > 0 {
                let backoff = dispatch_retries as f64 * RETRY_BACKOFF_NS;
                self.fault_log.backoff_ns += backoff;
                dispatch_latency += backoff;
            }

            // Fold the whole fused dispatch into the cumulative estimate as ONE
            // broadcast: all participating subarrays (across every job and every
            // co-issued batch) run in lock-step, so the machine's busy window is the
            // max over all of them — this is where cross-job fusion and MIMD windows
            // show up as fewer, no-longer-serialized broadcasts in [`MachineEstimate`].
            let fused = BroadcastEstimate {
                chunks: dispatch_chunks,
                commands: dispatch_commands,
                latency_ns: dispatch_latency,
                cycles: self.estimator.timing().cycles(dispatch_latency),
                energy_nj: dispatch_energy,
                background_nj: self
                    .estimator
                    .energy_model()
                    .background_nj(dispatch_latency),
                bank_state: fused_bank_state,
            };
            self.machine_estimate.record(&fused);
        }
        Ok(reports)
    }

    /// Merges per-chunk traces into the functional device statistics **in chunk order**
    /// (the executor already returns them ordered), keeping even floating-point sums
    /// identical between execution policies, and folds the broadcast through the
    /// estimation engine into the cumulative [`MachineEstimate`].
    fn absorb_chunk_traces(&mut self, traces: &[CommandTrace]) {
        for trace in traces {
            self.functional_stats.absorb_trace(trace);
        }
        let estimate = self.estimate_broadcast(traces);
        self.machine_estimate.record(&estimate);
    }

    /// Folds one broadcast's per-chunk traces into an estimate: the analytic numbers,
    /// plus the bank-state replay of the same traces under
    /// [`TimingBackendKind::BankState`].
    fn estimate_broadcast(&self, traces: &[CommandTrace]) -> BroadcastEstimate {
        let mut estimate = self.estimator.broadcast(traces);
        estimate.bank_state = self.bank_state.as_ref().map(|model| model.replay(traces));
        estimate
    }

    fn subarrays_for(&self, elements: usize) -> usize {
        elements.div_ceil(self.lanes_per_subarray()).max(1)
    }

    /// Maps chunk indices `0..chunks` to `(bank, subarray)` coordinates for a broadcast.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SubarrayOverflow`] when the broadcast needs more subarrays
    /// than `compute_banks × compute_subarrays_per_bank` provides.
    fn compute_coords(&self, chunks: usize) -> Result<Vec<(usize, usize)>> {
        let available = self.config.compute_banks * self.config.compute_subarrays_per_bank;
        if chunks > available {
            // Report the full requirement, not the first failing chunk, so a user can
            // size the configuration from the message in one step.
            return Err(CoreError::SubarrayOverflow {
                needed: chunks,
                available,
            });
        }
        (0..chunks).map(|i| self.subarray_coordinates(i)).collect()
    }

    /// Maps chunk indices `offset..offset + chunks` to `(bank, subarray)` coordinates,
    /// i.e. [`compute_coords`](Self::compute_coords) shifted to a reservation's window.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SubarrayOverflow`] when the shifted window runs past
    /// `compute_banks × compute_subarrays_per_bank`.
    fn compute_coords_at(&self, offset: usize, chunks: usize) -> Result<Vec<(usize, usize)>> {
        let available = self.config.compute_banks * self.config.compute_subarrays_per_bank;
        if offset + chunks > available {
            return Err(CoreError::SubarrayOverflow {
                needed: offset + chunks,
                available,
            });
        }
        (offset..offset + chunks)
            .map(|i| self.subarray_coordinates(i))
            .collect()
    }

    fn subarray_coordinates(&self, chunk_index: usize) -> Result<(usize, usize)> {
        let per_bank = self.config.compute_subarrays_per_bank;
        let bank = chunk_index / per_bank;
        let subarray = chunk_index % per_bank;
        if bank >= self.config.compute_banks {
            return Err(CoreError::SubarrayOverflow {
                needed: chunk_index + 1,
                available: self.config.compute_banks * per_bank,
            });
        }
        Ok((bank, subarray))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::TransposeDirection;

    fn machine() -> SimdramMachine {
        SimdramMachine::new(SimdramConfig::functional_test()).unwrap()
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = machine();
        let values: Vec<u64> = (0..300).map(|i| (i * 7 + 3) & 0xFF).collect();
        let v = m.alloc_and_write(8, &values).unwrap();
        assert_eq!(m.read(&v).unwrap(), values);
    }

    #[test]
    fn addition_matches_reference_across_subarrays() {
        let mut m = machine();
        // 300 elements with 256 columns per subarray spans two subarrays.
        let a_vals: Vec<u64> = (0..300u64).map(|i| i & 0xFF).collect();
        let b_vals: Vec<u64> = (0..300u64).map(|i| (i * 3) & 0xFF).collect();
        let a = m.alloc_and_write(8, &a_vals).unwrap();
        let b = m.alloc_and_write(8, &b_vals).unwrap();
        let (sum, report) = m.binary(Operation::Add, &a, &b).unwrap();
        assert_eq!(report.subarrays_used, 2);
        let results = m.read(&sum).unwrap();
        for i in 0..300 {
            assert_eq!(
                results[i],
                Operation::Add.reference(8, a_vals[i], b_vals[i], false)
            );
        }
    }

    #[test]
    fn predicated_select_uses_predicate_vector() {
        let mut m = machine();
        let a = m.alloc_and_write(8, &[1, 2, 3, 4]).unwrap();
        let b = m.alloc_and_write(8, &[10, 20, 30, 40]).unwrap();
        let pred = m.alloc(1, 4).unwrap();
        m.write_bools(&pred, &[true, false, true, false]).unwrap();
        let (out, _) = m.select(&pred, &a, &b).unwrap();
        assert_eq!(m.read(&out).unwrap(), vec![1, 20, 3, 40]);
    }

    #[test]
    fn init_broadcasts_a_constant() {
        let mut m = machine();
        let v = m.alloc(8, 100).unwrap();
        m.init(&v, 0xA5).unwrap();
        assert_eq!(m.read(&v).unwrap(), vec![0xA5; 100]);
    }

    #[test]
    fn issue_executes_bbop_instructions() {
        let mut m = machine();
        let a = m.alloc_and_write(8, &[100, 200]).unwrap();
        let b = m.alloc_and_write(8, &[1, 2]).unwrap();
        let dst = m.alloc(8, 2).unwrap();
        let report = m
            .issue(&BbopInstruction::Op {
                op: Operation::Sub,
                dst,
                src_a: a,
                src_b: Some(b),
                pred: None,
            })
            .unwrap()
            .unwrap();
        assert_eq!(report.op, Operation::Sub);
        assert_eq!(m.read(&dst).unwrap(), vec![99, 198]);
        assert!(m
            .issue(&BbopInstruction::Transpose {
                vector: a,
                direction: TransposeDirection::VerticalToHorizontal,
            })
            .unwrap()
            .is_none());
    }

    #[test]
    fn oversized_vectors_are_rejected() {
        let mut m = machine();
        let too_many = m.lanes() + 1;
        assert!(matches!(
            m.alloc(8, too_many),
            Err(CoreError::Allocation(_))
        ));
        assert!(matches!(m.alloc(0, 10), Err(CoreError::Shape(_))));
        assert!(matches!(m.alloc(65, 10), Err(CoreError::Shape(_))));
    }

    #[test]
    fn free_allows_rows_to_be_reused() {
        let mut m = machine();
        let mut remaining = m.config().allocatable_rows();
        let mut held = Vec::new();
        while remaining > 0 {
            let width = remaining.min(64);
            held.push(m.alloc(width, 4).unwrap());
            remaining -= width;
        }
        assert!(m.alloc(1, 4).is_err());
        for vector in held {
            m.free(vector);
        }
        assert!(m.alloc(64, 4).is_ok());
    }

    #[test]
    fn copy_duplicates_a_vector_in_dram() {
        let mut m = machine();
        let values: Vec<u64> = (0..100u64).map(|i| (i * 13 + 5) & 0xFFFF).collect();
        let original = m.alloc_and_write(16, &values).unwrap();
        let clone = m.copy(&original).unwrap();
        assert_ne!(clone.base_row(), original.base_row());
        assert_eq!(m.read(&clone).unwrap(), values);
        // The copy is independent: overwriting the original leaves the clone intact.
        m.init(&original, 0).unwrap();
        assert_eq!(m.read(&clone).unwrap(), values);
    }

    #[test]
    fn shifted_view_reads_high_bits_without_commands() {
        let mut m = machine();
        let values: Vec<u64> = (0..50u64).map(|i| i * 7 + 3).collect();
        let v = m.alloc_and_write(16, &values).unwrap();
        let commands_before = m.stats().commands;
        let half = m.shifted_view(&v, 4).unwrap();
        assert_eq!(m.stats().commands, commands_before);
        assert_eq!(half.width(), 12);
        let expected: Vec<u64> = values.iter().map(|&x| x >> 4).collect();
        assert_eq!(m.read(&half).unwrap(), expected);
        assert!(m.shifted_view(&v, 16).is_err());
    }

    #[test]
    fn shifted_view_composes_with_operations() {
        // Divide by 16 via a shifted view, then add 1 — all in DRAM.
        let mut m = machine();
        let values: Vec<u64> = (0..64u64).map(|i| i * 97).collect();
        let v = m.alloc_and_write(16, &values).unwrap();
        let high = m.shifted_view(&v, 4).unwrap();
        let one = m.alloc(12, values.len()).unwrap();
        m.init(&one, 1).unwrap();
        let (result, _) = m.binary(Operation::Add, &high, &one).unwrap();
        let expected: Vec<u64> = values.iter().map(|&x| ((x >> 4) + 1) & 0xFFF).collect();
        assert_eq!(m.read(&result).unwrap(), expected);
    }

    #[test]
    fn stats_track_operations_and_transposes() {
        let mut m = machine();
        let a = m.alloc_and_write(8, &[1, 2, 3]).unwrap();
        let b = m.alloc_and_write(8, &[4, 5, 6]).unwrap();
        m.binary(Operation::Add, &a, &b).unwrap();
        let stats = m.stats();
        assert_eq!(stats.operations, 1);
        assert_eq!(stats.elements, 3);
        assert!(stats.compute_latency_ns > 0.0);
        assert!(stats.transpose_latency_ns > 0.0);
    }

    #[test]
    fn subarray_coordinates_overflow_is_a_typed_error() {
        let m = machine();
        // functional_test: 2 banks × 2 subarrays = 4 compute subarrays; chunk 4 overflows.
        assert_eq!(m.subarray_coordinates(3).unwrap(), (1, 1));
        assert_eq!(
            m.subarray_coordinates(4),
            Err(CoreError::SubarrayOverflow {
                needed: 5,
                available: 4
            })
        );
        // compute_coords reports the full requirement, not the first failing chunk.
        assert!(matches!(
            m.compute_coords(6),
            Err(CoreError::SubarrayOverflow {
                needed: 6,
                available: 4
            })
        ));
    }

    #[test]
    fn threaded_policy_is_bit_identical_to_sequential() {
        // Pin both policies explicitly: functional_test() honors SIMDRAM_EXEC, and this
        // test must keep comparing sequential against threaded even in the CI job that
        // forces the threaded engine globally.
        let machine_with = |policy: ExecutionPolicy| {
            let mut config = SimdramConfig::functional_test();
            config.execution = policy;
            SimdramMachine::new(config).unwrap()
        };
        let mut sequential = machine_with(ExecutionPolicy::Sequential);
        let mut threaded = machine_with(ExecutionPolicy::Threaded { max_threads: 4 });
        assert!(threaded.execution_policy().is_threaded());
        // 700 elements span 3 of the 4 subarrays.
        let a_vals: Vec<u64> = (0..700u64).map(|i| (i * 37 + 11) & 0xFFFF).collect();
        let b_vals: Vec<u64> = (0..700u64).map(|i| (i * 91 + 3) & 0xFFFF).collect();
        let mut results = Vec::new();
        let mut reports = Vec::new();
        let mut device_stats = Vec::new();
        for m in [&mut sequential, &mut threaded] {
            let a = m.alloc_and_write(16, &a_vals).unwrap();
            let b = m.alloc_and_write(16, &b_vals).unwrap();
            let (sum, report) = m.binary(Operation::Add, &a, &b).unwrap();
            let clone = m.copy(&sum).unwrap();
            m.init(&a, 0x5A).unwrap();
            results.push(m.read(&clone).unwrap());
            reports.push(report);
            device_stats.push(m.device_stats().clone());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(reports[0], reports[1]);
        assert_eq!(device_stats[0], device_stats[1]);
        assert!(device_stats[0].total_commands() > 0);
    }

    #[test]
    fn broadcast_kernels_drain_subarray_history() {
        // Repeated executions must not accumulate per-command history inside the
        // device's subarrays (the machine absorbs each broadcast's local trace instead);
        // aggregate counters survive the drain, so device-level stats stay complete.
        let mut m = machine();
        let a = m.alloc_and_write(8, &[1, 2, 3]).unwrap();
        let b = m.alloc_and_write(8, &[4, 5, 6]).unwrap();
        for _ in 0..5 {
            let (dst, _) = m.binary(Operation::Add, &a, &b).unwrap();
            m.init(&dst, 0).unwrap();
            m.free(dst);
        }
        let retained: usize = m
            .device
            .iter()
            .flat_map(|bank| bank.iter())
            .map(|sa| sa.trace().history_len())
            .sum();
        assert_eq!(retained, 0, "subarray per-command history must be drained");
        let commands: usize = m
            .device
            .iter()
            .flat_map(|bank| bank.iter())
            .map(|sa| sa.trace().len())
            .sum();
        assert!(commands > 0, "aggregate counters must survive the drain");
        assert_eq!(m.device_stats().total_commands(), commands);
    }

    #[test]
    fn reset_device_stats_clears_functional_accounting() {
        let mut m = machine();
        let a = m.alloc_and_write(8, &[1, 2, 3]).unwrap();
        m.init(&a, 7).unwrap();
        assert!(m.device_stats().total_commands() > 0);
        m.reset_device_stats();
        assert_eq!(m.device_stats().total_commands(), 0);
    }

    #[test]
    fn compiled_plan_matches_eager_execution_with_fewer_broadcasts() {
        // knn-style distance: d = |x - q| + |x - r| with q, r constants.
        let x_vals: Vec<u64> = (0..300u64).map(|i| (i * 37 + 11) & 0xFF).collect();
        let wrapped_abs_diff = |x: u64, q: u64| {
            let diff = Operation::Sub.reference(8, x, q, false);
            Operation::Abs.reference(8, diff, 0, false)
        };
        let reference: Vec<u64> = x_vals
            .iter()
            .map(|&x| {
                Operation::Add.reference(
                    8,
                    wrapped_abs_diff(x, 90),
                    wrapped_abs_diff(x, 200),
                    false,
                )
            })
            .collect();

        // Eager: 2 inits + 5 ops = 7 broadcasts.
        let mut eager = machine();
        let x = eager.alloc_and_write(8, &x_vals).unwrap();
        let q = eager.alloc(8, x_vals.len()).unwrap();
        eager.init(&q, 90).unwrap();
        let r = eager.alloc(8, x_vals.len()).unwrap();
        eager.init(&r, 200).unwrap();
        let (d1, _) = eager.binary(Operation::Sub, &x, &q).unwrap();
        let (d2, _) = eager.binary(Operation::Sub, &x, &r).unwrap();
        let (a1, _) = eager.unary(Operation::Abs, &d1).unwrap();
        let (a2, _) = eager.unary(Operation::Abs, &d2).unwrap();
        let (sum, _) = eager.binary(Operation::Add, &a1, &a2).unwrap();
        assert_eq!(eager.read(&sum).unwrap(), reference);
        let eager_broadcasts = eager.estimate().broadcasts;
        assert_eq!(eager_broadcasts, 7);

        // Plan: constants + subs + abs + add fuse into 4 batches.
        let mut planned = machine();
        let x = planned.alloc_and_write(8, &x_vals).unwrap();
        let mut s = PlanBuilder::new();
        let xe = s.input(&x);
        let q = s.constant(8, x_vals.len(), 90).unwrap();
        let r = s.constant(8, x_vals.len(), 200).unwrap();
        let d1 = s.sub(xe, q).unwrap();
        let d2 = s.sub(xe, r).unwrap();
        let a1 = s.abs(d1).unwrap();
        let a2 = s.abs(d2).unwrap();
        let sum = s.add(a1, a2).unwrap();
        let out = s.materialize(sum).unwrap();
        let plan = s.compile().unwrap();
        let exec = planned.run_plan(&plan).unwrap();
        assert_eq!(planned.read(exec.output(out)).unwrap(), reference);

        let report = exec.report();
        assert_eq!(report.ops, 5);
        assert_eq!(report.constants, 2);
        assert_eq!(report.eager_broadcasts, 7);
        assert_eq!(report.broadcasts, 4);
        assert_eq!(planned.estimate().broadcasts, 4);
        assert!(report.broadcasts < eager_broadcasts);
        assert!(report.broadcast_savings() > 1.5);
        // The fused schedule issues exactly the commands the eager path issued, and the
        // machine-level functional accounting is identical.
        assert_eq!(planned.device_stats(), eager.device_stats());
        assert_eq!(planned.stats().operations, 5);
        assert_eq!(report.step_reports.len(), 5);
        assert!(report.measured_latency_ns > 0.0);
        assert!((report.measured_latency_ns - planned.estimate().busy_latency_ns).abs() < 1e-9);
    }

    #[test]
    fn plan_temporaries_are_released_after_the_run() {
        let mut m = machine();
        let free_before = m.allocator.free_rows();
        let x = m.alloc_and_write(8, &[1, 2, 3]).unwrap();
        let mut s = PlanBuilder::new();
        let xe = s.input(&x);
        let c = s.constant(8, 3, 5).unwrap();
        let sum = s.add(xe, c).unwrap();
        let doubled = s.add(sum, sum).unwrap();
        let out = s.materialize(doubled).unwrap();
        let plan = s.compile().unwrap();
        assert!(plan.temp_rows() > 0);
        let exec = m.run_plan(&plan).unwrap();
        assert_eq!(m.read(exec.output(out)).unwrap(), vec![12, 14, 16]);
        // Only the input and the single output remain allocated.
        assert_eq!(m.allocator.free_rows(), free_before - 2 * 8);
        let output = *exec.output(out);
        m.free(output);
        m.free(x);
        assert_eq!(m.allocator.free_rows(), free_before);
    }

    #[test]
    fn failing_plans_leak_no_rows() {
        let mut m = machine();
        let free_before = m.allocator.free_rows();
        // Four 64-bit temp slots (256 rows) exceed the functional machine's 160
        // allocatable rows, so storage allocation fails partway and must roll back.
        let mut s = PlanBuilder::new();
        let c1 = s.constant(64, 4, 1).unwrap();
        let c2 = s.constant(64, 4, 2).unwrap();
        let c3 = s.constant(64, 4, 3).unwrap();
        let s1 = s.add(c1, c2).unwrap();
        let s2 = s.add(s1, c3).unwrap();
        s.materialize(s2).unwrap();
        let plan = s.compile().unwrap();
        assert!(plan.temp_rows() > m.config().allocatable_rows());
        assert!(matches!(m.run_plan(&plan), Err(CoreError::Allocation(_))));
        assert_eq!(m.allocator.free_rows(), free_before);

        // A plan whose element count exceeds the machine's lanes fails cleanly too.
        let mut s = PlanBuilder::new();
        let c = s.constant(8, 5_000, 1).unwrap();
        let sum = s.add(c, c).unwrap();
        s.materialize(sum).unwrap();
        let plan = s.compile().unwrap();
        assert!(m.run_plan(&plan).is_err());
        assert_eq!(m.allocator.free_rows(), free_before);
    }

    #[test]
    fn reservations_partition_the_compute_chunks() {
        let mut m = machine();
        assert_eq!(m.compute_chunks(), 4);
        assert_eq!(m.free_chunks(), 4);
        let a = m.reserve_subarrays(2).unwrap();
        let b = m.reserve_subarrays(1).unwrap();
        assert_eq!(m.free_chunks(), 1);
        // Disjoint, consecutive windows.
        assert_eq!((a.offset(), a.chunks()), (0, 2));
        assert_eq!((b.offset(), b.chunks()), (2, 1));
        // No room for two more chunks; zero-chunk requests are shape errors.
        assert!(matches!(
            m.reserve_subarrays(2),
            Err(CoreError::SubarrayOverflow {
                needed: 2,
                available: 1
            })
        ));
        assert!(matches!(m.reserve_subarrays(0), Err(CoreError::Shape(_))));
        // Releasing returns the window; double release is a typed error.
        m.release_subarrays(a.clone()).unwrap();
        assert_eq!(m.free_chunks(), 3);
        assert!(matches!(
            m.release_subarrays(a),
            Err(CoreError::InvalidHandle(_))
        ));
        m.release_subarrays(b).unwrap();
        assert_eq!(m.free_chunks(), 4);
    }

    #[test]
    fn placed_writes_and_reads_stay_inside_the_reservation() {
        let mut m = machine();
        let lanes = m.lanes_per_subarray();
        let first = m.reserve_subarrays(1).unwrap();
        let second = m.reserve_subarrays(1).unwrap();
        let a_vals: Vec<u64> = (0..lanes as u64).map(|i| i & 0xFF).collect();
        let b_vals: Vec<u64> = (0..lanes as u64).map(|i| (255 - i) & 0xFF).collect();
        let a = m.alloc(8, lanes).unwrap();
        let b = m.alloc(8, lanes).unwrap();
        m.write_to(&first, &a, &a_vals).unwrap();
        m.write_to(&second, &b, &b_vals).unwrap();
        // Both vectors share row addresses but live in different subarray windows.
        assert_eq!(m.read_from(&first, &a).unwrap(), a_vals);
        assert_eq!(m.read_from(&second, &b).unwrap(), b_vals);
        // Data that spans more chunks than reserved is rejected up front.
        let wide_vals: Vec<u64> = vec![1; lanes + 1];
        let wide = m.alloc(8, lanes + 1).unwrap();
        assert!(matches!(
            m.write_to(&first, &wide, &wide_vals),
            Err(CoreError::SubarrayOverflow { .. })
        ));
        // Stale handles are typed errors, not silent chunk-0 fallbacks.
        let stale = first.clone();
        m.release_subarrays(first).unwrap();
        assert!(matches!(
            m.read_from(&stale, &a),
            Err(CoreError::InvalidHandle(_))
        ));
    }

    /// Builds the knn-style plan from `compiled_plan_matches_eager_execution_...` over
    /// `x`, returning the plan and its output handle.
    fn knn_plan(x: &SimdVector, len: usize) -> (Plan, crate::plan::PlanOutput) {
        let mut s = PlanBuilder::new();
        let xe = s.input(x);
        let q = s.constant(8, len, 90).unwrap();
        let r = s.constant(8, len, 200).unwrap();
        let d1 = s.sub(xe, q).unwrap();
        let d2 = s.sub(xe, r).unwrap();
        let a1 = s.abs(d1).unwrap();
        let a2 = s.abs(d2).unwrap();
        let sum = s.add(a1, a2).unwrap();
        let out = s.materialize(sum).unwrap();
        (s.compile().unwrap(), out)
    }

    #[test]
    fn fused_multi_plan_run_is_bit_identical_with_fewer_dispatches() {
        let lanes = machine().lanes_per_subarray();
        let a_vals: Vec<u64> = (0..lanes as u64).map(|i| (i * 37 + 11) & 0xFF).collect();
        let b_vals: Vec<u64> = (0..lanes as u64).map(|i| (i * 91 + 3) & 0xFF).collect();

        // Sequential reference: each tenant's plan on its own machine.
        let mut sequential_outputs = Vec::new();
        let mut sequential_broadcasts = 0;
        let mut sequential_reports = Vec::new();
        for vals in [&a_vals, &b_vals] {
            let mut m = machine();
            let x = m.alloc_and_write(8, vals).unwrap();
            let (plan, out) = knn_plan(&x, vals.len());
            let exec = m.run_plan(&plan).unwrap();
            sequential_outputs.push(m.read(exec.output(out)).unwrap());
            sequential_broadcasts += exec.report().broadcasts;
            sequential_reports.push(exec.report().clone());
        }

        // Served: both plans fused onto one machine with disjoint placements.
        let mut m = machine();
        let ra = m.reserve_subarrays(1).unwrap();
        let rb = m.reserve_subarrays(1).unwrap();
        let xa = m.alloc(8, a_vals.len()).unwrap();
        let xb = m.alloc(8, b_vals.len()).unwrap();
        m.write_to(&ra, &xa, &a_vals).unwrap();
        m.write_to(&rb, &xb, &b_vals).unwrap();
        let (plan_a, out_a) = knn_plan(&xa, a_vals.len());
        let (plan_b, out_b) = knn_plan(&xb, b_vals.len());
        let estimate_before = m.estimate().broadcasts;
        let execs = m.run_plans_on(&[(&plan_a, &ra), (&plan_b, &rb)]).unwrap();
        let fused_dispatches = m.estimate().broadcasts - estimate_before;

        // Bit-identical results on both placements.
        assert_eq!(
            m.read_from(&ra, execs[0].output(out_a)).unwrap(),
            sequential_outputs[0]
        );
        assert_eq!(
            m.read_from(&rb, execs[1].output(out_b)).unwrap(),
            sequential_outputs[1]
        );

        // The fused run issued max(batches) dispatches instead of the sequential sum,
        // while each tenant's own report is identical to its solo run.
        assert_eq!(
            fused_dispatches,
            plan_a.batch_count().max(plan_b.batch_count())
        );
        assert!(fused_dispatches < sequential_broadcasts);
        for (exec, solo) in execs.iter().zip(&sequential_reports) {
            assert_eq!(exec.report().broadcasts, solo.broadcasts);
            assert_eq!(exec.report().ops, solo.ops);
            assert_eq!(exec.report().commands, solo.commands);
            assert!((exec.report().measured_latency_ns - solo.measured_latency_ns).abs() < 1e-9);
            assert!((exec.report().measured_energy_nj - solo.measured_energy_nj).abs() < 1e-6);
        }
    }

    #[test]
    fn mixed_width_batches_co_issue_in_one_mimd_window() {
        let lanes = machine().lanes_per_subarray();
        // Two independent same-level steps with differing lane widths: an 8-bit op over
        // lanes+1 elements (2 chunks) and a 16-bit op over 3 elements (1 chunk). MIMD
        // windows co-issue them in one dispatch.
        let x_vals: Vec<u64> = (0..(lanes + 1) as u64)
            .map(|i| (i * 37 + 11) & 0xFF)
            .collect();
        let y_vals = [700u64, 800, 900];
        let build = |m: &mut SimdramMachine| {
            let x = m.alloc_and_write(8, &x_vals).unwrap();
            let y = m.alloc_and_write(16, &y_vals).unwrap();
            let mut s = PlanBuilder::new();
            let xe = s.input(&x);
            let ye = s.input(&y);
            let c = s.constant(16, y_vals.len(), 25).unwrap();
            let ax = s.abs(xe).unwrap();
            let sy = s.add(ye, c).unwrap();
            let out_x = s.materialize(ax).unwrap();
            let out_y = s.materialize(sy).unwrap();
            (s.compile().unwrap(), out_x, out_y)
        };

        let mut m = machine();
        let (plan, out_x, out_y) = build(&mut m);
        // Constant batch at level 0, then the two mixed-width op batches share level 1:
        // three batches in two windows, one of them mixed.
        assert_eq!(plan.batch_count(), 3);
        assert_eq!(plan.window_count(), 2);
        assert_eq!(plan.mixed_window_count(), 1);

        let exec = m.run_plan(&plan).unwrap();
        let expected_x: Vec<u64> = x_vals
            .iter()
            .map(|&v| Operation::Abs.reference(8, v, 0, false))
            .collect();
        let expected_y: Vec<u64> = y_vals.iter().map(|&v| v + 25).collect();
        assert_eq!(m.read(exec.output(out_x)).unwrap(), expected_x);
        assert_eq!(m.read(exec.output(out_y)).unwrap(), expected_y);
        assert_eq!(exec.report().broadcasts, 3);
        assert_eq!(exec.report().windows, 2);
        // The machine-level estimate counts fused dispatches = windows.
        assert_eq!(m.estimate().broadcasts, 2);
        assert_eq!(m.dispatch_windows_issued(), 2);

        // The fully serialized schedule — the same dataflow issued as eager calls in
        // the plan's batch order, one dispatch per step — is bit-identical in results,
        // per-step reports and functional command accounting; only the dispatch count
        // differs.
        let mut serial = machine();
        let x = serial.alloc_and_write(8, &x_vals).unwrap();
        let y = serial.alloc_and_write(16, &y_vals).unwrap();
        let c = serial.alloc(16, y_vals.len()).unwrap();
        serial.init(&c, 25).unwrap();
        let (ax, abs_report) = serial.unary(Operation::Abs, &x).unwrap();
        let (sy, add_report) = serial.binary(Operation::Add, &y, &c).unwrap();
        assert_eq!(serial.read(&ax).unwrap(), expected_x);
        assert_eq!(serial.read(&sy).unwrap(), expected_y);
        assert_eq!(serial.estimate().broadcasts, 3);
        assert_eq!(serial.device_stats(), m.device_stats());
        assert_eq!(exec.report().step_reports, vec![abs_report, add_report]);
        // Lane-fixed placement makes both batches claim chunk 0, so inside one plan the
        // co-issued segments still serialize on that subarray: the busy window equals
        // the serialized one and the MIMD win is the dispatch-window count (cross-plan
        // windows over disjoint reservations get real overlap — see
        // `run_mimd_window_issues_one_heterogeneous_dispatch`).
        assert!(
            (exec.report().measured_latency_ns - serial.estimate().busy_latency_ns).abs() < 1e-9
        );
    }

    #[test]
    fn run_mimd_window_issues_one_heterogeneous_dispatch() {
        let mut m = machine();
        let lanes = m.lanes_per_subarray();
        let ra = m.reserve_subarrays(1).unwrap();
        let rb = m.reserve_subarrays(1).unwrap();
        let a_vals: Vec<u64> = (0..lanes as u64).map(|i| (i * 37 + 11) & 0xFF).collect();
        let b_vals: Vec<u64> = (0..lanes as u64).map(|i| (i * 91 + 3) & 0xFF).collect();
        let xa = m.alloc(8, a_vals.len()).unwrap();
        let xb = m.alloc(8, b_vals.len()).unwrap();
        m.write_to(&ra, &xa, &a_vals).unwrap();
        m.write_to(&rb, &xb, &b_vals).unwrap();

        // Two single-window plans running *different* μPrograms on disjoint subarrays.
        let unary_plan = |x: &SimdVector, op: Operation| {
            let mut s = PlanBuilder::new();
            let xe = s.input(x);
            let node = s.unary(op, xe).unwrap();
            let out = s.materialize(node).unwrap();
            (s.compile().unwrap(), out)
        };
        let (plan_a, out_a) = unary_plan(&xa, Operation::Abs);
        let (plan_b, out_b) = unary_plan(&xb, Operation::Relu);
        let before = m.estimate().broadcasts;
        let mimd_before = m.mimd_windows_issued();
        let execs = m
            .run_mimd_window(&[(&plan_a, &ra), (&plan_b, &rb)])
            .unwrap();
        // Exactly ONE fused dispatch carried both μProgram streams.
        assert_eq!(m.estimate().broadcasts - before, 1);
        assert_eq!(m.mimd_windows_issued() - mimd_before, 1);
        let expected_a: Vec<u64> = a_vals
            .iter()
            .map(|&v| Operation::Abs.reference(8, v, 0, false))
            .collect();
        let expected_b: Vec<u64> = b_vals
            .iter()
            .map(|&v| Operation::Relu.reference(8, v, 0, false))
            .collect();
        assert_eq!(
            m.read_from(&ra, execs[0].output(out_a)).unwrap(),
            expected_a
        );
        assert_eq!(
            m.read_from(&rb, execs[1].output(out_b)).unwrap(),
            expected_b
        );

        // A plan needing more than one window violates the single-dispatch contract.
        let (deep_plan, _) = knn_plan(&xa, a_vals.len());
        assert!(deep_plan.window_count() > 1);
        assert!(matches!(
            m.run_mimd_window(&[(&deep_plan, &ra)]),
            Err(CoreError::Shape(_))
        ));
    }

    #[test]
    fn run_plans_on_rejects_bad_reservations_and_oversized_plans() {
        let mut m = machine();
        let lanes = m.lanes_per_subarray();
        let r = m.reserve_subarrays(1).unwrap();
        let x = m.alloc(8, lanes).unwrap();
        m.write_to(&r, &x, &vec![1; lanes]).unwrap();
        let (plan, _) = knn_plan(&x, lanes);

        // One reservation shared by two jobs is a typed error.
        assert!(matches!(
            m.run_plans_on(&[(&plan, &r), (&plan, &r)]),
            Err(CoreError::InvalidHandle(_))
        ));
        // A plan whose batches need more chunks than reserved is rejected up front.
        let big = m.alloc(8, lanes + 1).unwrap();
        let (big_plan, _) = knn_plan(&big, lanes + 1);
        assert_eq!(big_plan.subarrays_needed(lanes), 2);
        assert!(matches!(
            m.run_plan_on(&big_plan, &r),
            Err(CoreError::SubarrayOverflow {
                needed: 2,
                available: 1
            })
        ));
        // A released reservation cannot host work.
        let stale = r.clone();
        m.release_subarrays(r).unwrap();
        assert!(matches!(
            m.run_plan_on(&plan, &stale),
            Err(CoreError::InvalidHandle(_))
        ));
        // Nothing leaked: the full chunk pool is back.
        assert_eq!(m.free_chunks(), m.compute_chunks());
    }

    #[test]
    fn one_node_plan_reports_match_the_legacy_eager_contract() {
        // execute() is sugar over a one-node plan; its report must carry the same
        // analytic and measured accounting the dedicated broadcast produced.
        let mut m = machine();
        let a = m.alloc_and_write(8, &[1, 2, 3]).unwrap();
        let b = m.alloc_and_write(8, &[9, 8, 7]).unwrap();
        let (sum, report) = m.binary(Operation::Add, &a, &b).unwrap();
        assert_eq!(m.read(&sum).unwrap(), vec![10; 3]);
        assert_eq!(report.op, Operation::Add);
        assert_eq!(report.elements, 3);
        assert_eq!(report.subarrays_used, 1);
        assert!(report.commands > 0);
        assert!(report.latency_ns > 0.0);
        assert!((report.measured_latency_ns - report.latency_ns).abs() < 1e-9);
        assert_eq!(m.stats().operations, 1);
        assert_eq!(m.estimate().broadcasts, 1);
    }

    #[test]
    fn ambit_target_produces_identical_results_with_more_commands() {
        let mut simdram = machine();
        let mut ambit = SimdramMachine::new(SimdramConfig::functional_test_ambit()).unwrap();
        let a_vals = [13u64, 77, 250, 8];
        let b_vals = [9u64, 77, 100, 200];
        let mut results = Vec::new();
        let mut commands = Vec::new();
        for m in [&mut simdram, &mut ambit] {
            let a = m.alloc_and_write(8, &a_vals).unwrap();
            let b = m.alloc_and_write(8, &b_vals).unwrap();
            let (out, report) = m.binary(Operation::Add, &a, &b).unwrap();
            results.push(m.read(&out).unwrap());
            commands.push(report.commands);
        }
        assert_eq!(results[0], results[1]);
        assert!(
            commands[0] < commands[1],
            "SIMDRAM should issue fewer commands than Ambit"
        );
    }
}
