//! The broadcast execution engine: sequential or bank-parallel (threaded) fan-out of
//! per-subarray work.
//!
//! SIMDRAM's throughput comes from *bank-level parallelism*: the memory controller
//! broadcasts one μProgram command stream and every participating bank/subarray executes it
//! concurrently, so operation latency is O(1) in the number of SIMD lanes. The functional
//! simulator used to walk the participating subarrays one by one, making simulation
//! wall-clock O(lanes). [`BroadcastExecutor`] restores the hardware shape: it obtains one
//! exclusive borrow per participating subarray through the disjoint-borrow API
//! ([`simdram_dram::DramDevice::subarrays_mut`]) and fans the chunks out over scoped
//! threads.
//!
//! # Determinism guarantee
//!
//! [`ExecutionPolicy::Threaded`] and [`ExecutionPolicy::Sequential`] produce bit-identical
//! results:
//!
//! * every chunk kernel is a pure function of its own subarray (no shared mutable state);
//! * per-chunk outputs — including per-chunk [`simdram_dram::CommandTrace`] accounting —
//!   are merged **in chunk order**, never in thread-completion order, so even
//!   floating-point latency/energy sums are reproduced exactly;
//! * when several chunks fail, the error reported is the one from the lowest-indexed
//!   chunk, regardless of thread scheduling.

use std::num::NonZeroUsize;

use simdram_dram::{DramDevice, Subarray};

use crate::error::{CoreError, Result};

/// How a [`BroadcastExecutor`] drives the subarrays participating in a broadcast.
///
/// The policy only changes the simulator's wall-clock behaviour, never the simulated
/// outcome: results, [`simdram_dram::stats::DeviceStats`] and
/// [`crate::ExecutionReport`]s are bit-identical between the two policies (see the
/// determinism guarantee in this module's documentation).
///
/// # Examples
///
/// ```
/// use simdram_core::{ExecutionPolicy, SimdramConfig, SimdramMachine};
/// use simdram_logic::Operation;
///
/// let mut config = SimdramConfig::functional_test();
/// config.execution = ExecutionPolicy::threaded();
/// let mut machine = SimdramMachine::new(config)?;
/// let a = machine.alloc_and_write(8, &[1, 2, 3])?;
/// let b = machine.alloc_and_write(8, &[10, 20, 30])?;
/// let (sum, _) = machine.binary(Operation::Add, &a, &b)?;
/// assert_eq!(machine.read(&sum)?, vec![11, 22, 33]);
/// # Ok::<(), simdram_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionPolicy {
    /// Execute chunks one after another on the calling thread (the reference behaviour).
    #[default]
    Sequential,
    /// Fan chunks out over up to `max_threads` scoped OS threads.
    Threaded {
        /// Upper bound on worker threads; clamped to the number of chunks. Must be ≥ 1
        /// ([`crate::SimdramConfig::validate`] rejects 0).
        max_threads: usize,
    },
}

impl ExecutionPolicy {
    /// A threaded policy sized to the host's available parallelism (at least 2, so the
    /// policy exercises the parallel path even on single-core CI runners).
    pub fn threaded() -> Self {
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(2)
            .max(2);
        ExecutionPolicy::Threaded {
            max_threads: threads,
        }
    }

    /// Returns `true` for the threaded variant.
    pub fn is_threaded(&self) -> bool {
        matches!(self, ExecutionPolicy::Threaded { .. })
    }

    /// Checks the policy's invariants (called by [`crate::SimdramConfig::validate`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for a threaded policy with `max_threads == 0`.
    pub fn validate(&self) -> Result<()> {
        if let ExecutionPolicy::Threaded { max_threads: 0 } = self {
            return Err(CoreError::Shape(
                "ExecutionPolicy::Threaded requires max_threads >= 1".into(),
            ));
        }
        Ok(())
    }
}

/// How the machine executes a μProgram functionally inside each subarray chunk.
///
/// Orthogonal to [`ExecutionPolicy`] (which decides *where* chunks run, this decides
/// *what* runs per chunk): the interpreted path walks the symbolic μProgram one μOp at a
/// time, while the compiled path runs the μProgram's cached
/// [`simdram_uprog::CompiledProgram`] kernel — pre-resolved rows, word-level operations,
/// one aggregate trace charge per run. The two modes are bit-identical in every simulated
/// outcome (results, [`simdram_dram::stats::DeviceStats`], [`crate::MachineEstimate`]).
/// Only per-command *history* differs: the interpreter always records it, while a
/// compiled run records it exactly when the machine replays bank state
/// ([`crate::TimingBackendKind::BankState`]), the one consumer that classifies
/// individual commands.
///
/// # Examples
///
/// ```
/// use simdram_core::{FunctionalMode, SimdramConfig, SimdramMachine};
/// use simdram_logic::Operation;
///
/// let mut config = SimdramConfig::functional_test();
/// config.functional = FunctionalMode::Compiled;
/// let mut machine = SimdramMachine::new(config)?;
/// let a = machine.alloc_and_write(8, &[1, 2, 3])?;
/// let b = machine.alloc_and_write(8, &[10, 20, 30])?;
/// let (sum, _) = machine.binary(Operation::Add, &a, &b)?;
/// assert_eq!(machine.read(&sum)?, vec![11, 22, 33]);
/// # Ok::<(), simdram_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FunctionalMode {
    /// Walk the symbolic μProgram per chunk, recording full per-command history (the
    /// reference behaviour).
    #[default]
    Interpreted,
    /// Run the compiled word-level kernel per chunk.
    Compiled,
}

impl FunctionalMode {
    /// Returns `true` for the compiled variant.
    pub fn is_compiled(&self) -> bool {
        matches!(self, FunctionalMode::Compiled)
    }
}

/// Fans per-subarray broadcast chunks out according to an [`ExecutionPolicy`].
///
/// Every [`crate::SimdramMachine`] operation that touches multiple subarrays —
/// μProgram broadcast, host writes/reads through the transposition unit, constant
/// broadcast and RowClone copies — is routed through [`BroadcastExecutor::broadcast`].
/// The kernel receives `(chunk_index, &mut Subarray)` and must be a pure function of
/// those two inputs (plus captured shared *immutable* state); the executor guarantees the
/// returned outputs are ordered by chunk index whichever policy runs.
///
/// # Examples
///
/// ```
/// use simdram_core::{BroadcastExecutor, ExecutionPolicy};
/// use simdram_dram::{BitRow, DramConfig, DramDevice, RowAddr};
///
/// let mut device = DramDevice::new(DramConfig::tiny()).unwrap();
/// let executor = BroadcastExecutor::new(ExecutionPolicy::threaded());
/// // Broadcast a row fill across three subarrays and collect one result per chunk.
/// let coords = [(0, 0), (0, 1), (1, 0)];
/// let ones = executor
///     .broadcast(&mut device, &coords, |chunk, sa| {
///         sa.poke(RowAddr::Data(0), &BitRow::splat_word(chunk as u64, 256))?;
///         Ok(sa.peek(RowAddr::Data(0))?.count_ones())
///     })
///     .unwrap();
/// assert_eq!(ones.len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BroadcastExecutor {
    policy: ExecutionPolicy,
}

impl BroadcastExecutor {
    /// Creates an executor with the given policy.
    pub fn new(policy: ExecutionPolicy) -> Self {
        BroadcastExecutor { policy }
    }

    /// The executor's policy.
    pub fn policy(&self) -> ExecutionPolicy {
        self.policy
    }

    /// Runs `kernel` once per coordinate in `coords`, giving each invocation exclusive
    /// mutable access to its subarray, and returns the kernel outputs in chunk order.
    ///
    /// Under [`ExecutionPolicy::Sequential`] the chunks run in order on the calling
    /// thread. Under [`ExecutionPolicy::Threaded`] the chunk list is split into
    /// contiguous groups, one per worker, executed with [`std::thread::scope`]; outputs
    /// (and errors) are still merged in chunk order, so the two policies are
    /// indistinguishable from the caller's perspective.
    ///
    /// # Errors
    ///
    /// Propagates coordinate-validation errors from
    /// [`simdram_dram::DramDevice::subarrays_mut`] and the first kernel error in chunk
    /// order. If a chunk fails, which of the remaining chunks already executed is
    /// unspecified (sequential stops at the failure; threaded workers each stop at their
    /// first local failure).
    pub fn broadcast<T, F>(
        &self,
        device: &mut DramDevice,
        coords: &[(usize, usize)],
        kernel: F,
    ) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize, &mut Subarray) -> Result<T> + Sync,
    {
        let subarrays = device.subarrays_mut(coords)?;
        match self.policy {
            ExecutionPolicy::Sequential => subarrays
                .into_iter()
                .enumerate()
                .map(|(chunk, sa)| kernel(chunk, sa))
                .collect(),
            ExecutionPolicy::Threaded { max_threads } => {
                run_threaded(subarrays, max_threads, &kernel)
            }
        }
    }
}

/// Threaded fan-out: contiguous chunk groups, one scoped thread per group, outputs
/// reassembled in chunk order.
fn run_threaded<T, F>(
    subarrays: Vec<&mut Subarray>,
    max_threads: usize,
    kernel: &F,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize, &mut Subarray) -> Result<T> + Sync,
{
    let total = subarrays.len();
    let threads = max_threads.max(1).min(total);
    if threads <= 1 {
        return subarrays
            .into_iter()
            .enumerate()
            .map(|(chunk, sa)| kernel(chunk, sa))
            .collect();
    }
    // Partition the exclusive borrows into `threads` contiguous groups, remembering each
    // group's first chunk index so outputs can be labelled without any shared counter.
    let per_group = total.div_ceil(threads);
    let mut groups: Vec<(usize, Vec<&mut Subarray>)> = Vec::with_capacity(threads);
    let mut rest = subarrays;
    let mut base = 0;
    while !rest.is_empty() {
        let take = per_group.min(rest.len());
        let tail = rest.split_off(take);
        groups.push((base, rest));
        base += take;
        rest = tail;
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|(group_base, group)| {
                scope.spawn(move || {
                    group
                        .into_iter()
                        .enumerate()
                        .map(|(offset, sa)| kernel(group_base + offset, sa))
                        .collect::<Result<Vec<T>>>()
                })
            })
            .collect();
        let mut outputs = Vec::with_capacity(total);
        let mut first_error: Option<CoreError> = None;
        // Join in spawn (= chunk) order so the reported error is the lowest-indexed
        // chunk's, independent of thread scheduling.
        for handle in handles {
            match handle.join() {
                Ok(Ok(group_outputs)) => outputs.extend(group_outputs),
                Ok(Err(err)) => {
                    if first_error.is_none() {
                        first_error = Some(err);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        match first_error {
            Some(err) => Err(err),
            None => Ok(outputs),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimdramConfig;
    use simdram_dram::{BitRow, DramConfig, EnvOverrideError, RowAddr};

    fn device() -> DramDevice {
        DramDevice::new(DramConfig::tiny()).unwrap()
    }

    fn all_coords() -> Vec<(usize, usize)> {
        vec![(0, 0), (0, 1), (1, 0), (1, 1)]
    }

    fn fill_kernel(chunk: usize, sa: &mut Subarray) -> Result<u64> {
        let pattern = BitRow::splat_word(chunk as u64 + 1, sa.columns());
        sa.poke(RowAddr::Data(0), &pattern)?;
        Ok(sa.peek(RowAddr::Data(0))?.word(0))
    }

    #[test]
    fn sequential_and_threaded_produce_identical_outputs() {
        for policy in [
            ExecutionPolicy::Sequential,
            ExecutionPolicy::Threaded { max_threads: 2 },
            ExecutionPolicy::Threaded { max_threads: 16 },
        ] {
            let mut dev = device();
            let outputs = BroadcastExecutor::new(policy)
                .broadcast(&mut dev, &all_coords(), fill_kernel)
                .unwrap();
            assert_eq!(outputs, vec![1, 2, 3, 4], "{policy:?}");
        }
    }

    #[test]
    fn threaded_with_more_threads_than_chunks_still_covers_every_chunk() {
        let mut dev = device();
        let executor = BroadcastExecutor::new(ExecutionPolicy::Threaded { max_threads: 64 });
        let outputs = executor
            .broadcast(&mut dev, &all_coords(), fill_kernel)
            .unwrap();
        assert_eq!(outputs, vec![1, 2, 3, 4]);
        // The writes really landed in the device, one per subarray.
        for (chunk, (bank, sub)) in all_coords().into_iter().enumerate() {
            let row = dev
                .bank(bank)
                .unwrap()
                .subarray(sub)
                .unwrap()
                .peek(RowAddr::Data(0))
                .unwrap();
            assert_eq!(row.word(0), chunk as u64 + 1);
        }
    }

    #[test]
    fn first_error_in_chunk_order_wins_under_both_policies() {
        let failing = |chunk: usize, _sa: &mut Subarray| -> Result<()> {
            if chunk >= 1 {
                Err(CoreError::Shape(format!("chunk {chunk} failed")))
            } else {
                Ok(())
            }
        };
        for policy in [
            ExecutionPolicy::Sequential,
            ExecutionPolicy::Threaded { max_threads: 4 },
        ] {
            let mut dev = device();
            let err = BroadcastExecutor::new(policy)
                .broadcast(&mut dev, &all_coords(), failing)
                .unwrap_err();
            assert_eq!(err, CoreError::Shape("chunk 1 failed".into()), "{policy:?}");
        }
    }

    #[test]
    fn invalid_coordinates_are_rejected_before_any_kernel_runs() {
        let mut dev = device();
        let executor = BroadcastExecutor::new(ExecutionPolicy::threaded());
        let err = executor
            .broadcast(&mut dev, &[(0, 0), (0, 0)], |_, _| Ok(()))
            .unwrap_err();
        assert!(matches!(err, CoreError::Dram(_)));
    }

    /// `SimdramConfig::with_env_overrides` minus the env read, for one `SIMDRAM_*` value.
    fn overridden(var: &str, raw: &str) -> std::result::Result<SimdramConfig, EnvOverrideError> {
        SimdramConfig::default().with_override(var, raw)
    }

    #[test]
    fn env_override_parsing() {
        // Every branch of the SIMDRAM_EXEC grammar is testable without touching the
        // process environment; the env-sensitive plumbing itself is covered by CI
        // running the whole suite under SIMDRAM_EXEC=threaded.
        let exec = |raw| overridden("SIMDRAM_EXEC", raw).map(|c| c.execution);
        assert_eq!(exec("sequential"), Ok(ExecutionPolicy::Sequential));
        assert_eq!(exec(" Sequential "), Ok(ExecutionPolicy::Sequential));
        assert!(exec("threaded").unwrap().is_threaded());
        assert_eq!(
            exec("threaded:4"),
            Ok(ExecutionPolicy::Threaded { max_threads: 4 })
        );
        assert!(ExecutionPolicy::threaded().is_threaded());
        assert!(!ExecutionPolicy::Sequential.is_threaded());
        if let ExecutionPolicy::Threaded { max_threads } = ExecutionPolicy::threaded() {
            assert!(max_threads >= 2);
        }
    }

    #[test]
    fn env_override_rejects_typos_with_a_typed_error() {
        let err = overridden("SIMDRAM_EXEC", "thread").unwrap_err();
        assert_eq!(err.var, "SIMDRAM_EXEC");
        assert_eq!(err.value, "thread");
        assert!(err.to_string().contains("sequential | threaded"));
    }

    #[test]
    fn env_override_rejects_zero_thread_cap_with_a_typed_error() {
        let err = overridden("SIMDRAM_EXEC", "threaded:0").unwrap_err();
        assert_eq!(err.var, "SIMDRAM_EXEC");
        assert!(overridden("SIMDRAM_EXEC", "threaded:x").is_err());
    }

    #[test]
    fn functional_mode_override_parsing() {
        let func = |raw| overridden("SIMDRAM_FUNC", raw).map(|c| c.functional);
        assert_eq!(func("interpreted"), Ok(FunctionalMode::Interpreted));
        assert_eq!(func(" Compiled "), Ok(FunctionalMode::Compiled));
        assert!(FunctionalMode::Compiled.is_compiled());
        assert!(!FunctionalMode::Interpreted.is_compiled());
    }

    #[test]
    fn functional_mode_override_rejects_typos_with_a_typed_error() {
        let err = overridden("SIMDRAM_FUNC", "compile").unwrap_err();
        assert_eq!(err.var, "SIMDRAM_FUNC");
        assert_eq!(err.value, "compile");
        assert!(err.to_string().contains("interpreted | compiled"));
    }

    #[test]
    fn functional_mode_override_rejects_zero_period_with_a_typed_error() {
        // `compiled` takes no argument: every `compiled:N` is outside the grammar.
        for raw in ["compiled:0", "compiled:", "compiled:4"] {
            let err = overridden("SIMDRAM_FUNC", raw).unwrap_err();
            assert_eq!(err.var, "SIMDRAM_FUNC");
            assert_eq!(err.value, raw);
        }
    }
}
