//! # simdram-core — Step 3 and system integration of the SIMDRAM framework
//!
//! This crate ties the framework together into a usable system, mirroring the paper's
//! end-to-end design:
//!
//! * [`SimdramMachine`] — the user-facing executor: allocate vertically laid-out SIMD
//!   vectors, write/read them through the **transposition unit**, and execute any of the 16
//!   operations (or your own) on them with a single call. The same machine drives the Ambit
//!   baseline when configured with [`simdram_uprog::Target::Ambit`].
//! * [`PlanBuilder`]/[`Plan`] — the deferred dataflow frontend: compose whole expressions
//!   lazily, `compile()` them (dead-code elimination, subexpression sharing, temp-row
//!   reuse, broadcast batching) and run them with [`SimdramMachine::run_plan`]. The eager
//!   single-op calls are kept as sugar over one-node plans.
//! * [`ControlUnit`] — the memory-controller logic that expands **bbop** instructions
//!   ([`BbopInstruction`]) into μPrograms and binds them to physical rows.
//! * [`BroadcastExecutor`]/[`ExecutionPolicy`] — the broadcast execution engine that fans
//!   μProgram chunks out over the participating subarrays, either sequentially or on
//!   threads (bank-level parallelism), with bit-identical results either way.
//! * [`FunctionalMode`] — what each chunk runs: the per-μOp interpreter, or the compiled
//!   word-level kernel cached per μProgram ([`simdram_uprog::CompiledProgram`]) — again
//!   bit-identical in results and aggregate accounting, several times faster to simulate.
//! * [`TimingBackendKind`] — which estimation engine folds the executed command traces:
//!   the analytic [`TraceEstimator`] alone, or with the bank-state replay
//!   ([`simdram_dram::BankStateModel`]) that models row-buffer state, ACTIVATE
//!   serialization and refresh interference alongside the unchanged analytic numbers.
//! * [`transpose_64x64`] — horizontal ↔ vertical layout conversion, both functional and as
//!   a cost model ([`TranspositionUnit`]).
//! * [`pud_performance`] — the analytic throughput/energy model used to regenerate the
//!   paper's figures.
//! * [`AreaModel`] — the area-overhead estimate behind the "<1% DRAM area" claim.
//!
//! ## Quickstart
//!
//! ```
//! use simdram_core::{SimdramConfig, SimdramMachine};
//! use simdram_logic::Operation;
//!
//! let mut machine = SimdramMachine::new(SimdramConfig::functional_test())?;
//! let prices = machine.alloc_and_write(16, &[120, 4999, 25, 310])?;
//! let threshold = machine.alloc_and_write(16, &[200, 200, 200, 200])?;
//! let (cheap, _) = machine.binary(Operation::Greater, &threshold, &prices)?;
//! assert_eq!(machine.read(&cheap)?, vec![1, 0, 1, 0]);
//! # Ok::<(), simdram_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod config;
mod control_unit;
mod error;
mod estimate;
mod executor;
mod guard;
mod isa;
mod layout;
mod machine;
mod perf;
mod plan;
mod report;
mod timing_backend;
mod topology;
mod transpose;
mod verify;

pub use area::AreaModel;
pub use config::SimdramConfig;
pub use control_unit::ControlUnit;
pub use error::{CoreError, Result};
pub use estimate::{BankStateTotals, BroadcastEstimate, MachineEstimate, TraceEstimator};
pub use executor::{BroadcastExecutor, ExecutionPolicy, FunctionalMode};
pub use guard::{FaultError, FaultLog, GuardMode, DEFAULT_MAX_RETRIES, RETRY_BACKOFF_NS};
// Re-exported so downstream crates can populate `SimdramConfig::faults` without
// depending on `simdram-dram` directly.
pub use isa::{BbopInstruction, Mnemonic, TransposeDirection};
pub use layout::SimdVector;
pub use machine::{Reservation, SimdramMachine};
pub use perf::{ddr4, pud_performance, PerfPoint};
pub use plan::{Expr, Plan, PlanBuilder, PlanExecution, PlanOutput, Session};
pub use report::{ExecutionReport, MachineStats, PlanReport};
pub use simdram_dram::{EnvOverrideError, FaultModel};
pub use timing_backend::TimingBackendKind;
pub use topology::{
    DeviceHealth, FleetEstimate, LinkModel, MovementTotals, ShardMap, ShardPolicy, ShardedMachine,
    ShardedVector,
};
pub use transpose::{
    horizontal_to_vertical, transpose_64x64, vertical_to_horizontal, TranspositionUnit,
};
pub use verify::{mismatches, reference_elementwise};
