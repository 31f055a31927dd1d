//! The μProgram library: Step 1 + Step 2 results cached per (target, operation, width).
//!
//! In a real system the μPrograms are generated once (offline, by the framework's
//! programming interface) and stored in a small memory inside the memory controller; the
//! bbop instructions then simply name an operation and the control unit looks the μProgram
//! up. [`MicroProgramLibrary`] plays that role in the simulator.

use std::collections::HashMap;
use std::sync::Arc;

use simdram_dram::CommandCosts;
use simdram_logic::{Aig, Mig, Operation, WordCircuit};

use crate::codegen::{generate, CodegenOptions};
use crate::compile::CompiledProgram;
use crate::error::Result;
use crate::network::GateNetwork;
use crate::program::MicroProgram;

/// Which substrate programming style a μProgram targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// SIMDRAM: MAJ/NOT implementation (majority-inverter graph).
    Simdram,
    /// Ambit baseline: AND/OR/NOT implementation (and-inverter graph).
    Ambit,
}

/// A cache of generated μPrograms keyed by target, operation and operand width.
///
/// Alongside the symbolic μPrograms the library caches their [`CompiledProgram`] forms
/// (see [`MicroProgramLibrary::get_or_compile`]): each program is lowered **once**, at
/// first request, into a pre-resolved word-level row-op kernel shared via `Arc` so every
/// broadcast chunk runs the same compiled artifact without re-lowering or cloning it.
#[derive(Debug, Default)]
pub struct MicroProgramLibrary {
    options: CodegenOptions,
    cache: HashMap<(Target, Operation, usize), MicroProgram>,
    /// Compiled kernels, keyed like `cache`. Cost templates are supplied by the caller
    /// and must be stable per library (the control unit derives them from the machine's
    /// one DRAM config), so the key does not include them.
    compiled: HashMap<(Target, Operation, usize), Arc<CompiledProgram>>,
}

impl MicroProgramLibrary {
    /// Creates a library using the default (fully optimized) code generator options.
    pub fn new() -> Self {
        Self::with_options(CodegenOptions::optimized())
    }

    /// Creates a library with explicit code generator options (used for the ablation study).
    pub fn with_options(options: CodegenOptions) -> Self {
        MicroProgramLibrary {
            options,
            cache: HashMap::new(),
            compiled: HashMap::new(),
        }
    }

    /// The code generator options used by this library.
    pub fn options(&self) -> CodegenOptions {
        self.options
    }

    /// Returns the μProgram for `(target, op, width)`, generating and caching it on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 64 (propagated from circuit synthesis).
    pub fn get_or_build(&mut self, target: Target, op: Operation, width: usize) -> &MicroProgram {
        let options = self.options;
        self.cache
            .entry((target, op, width))
            .or_insert_with(|| build_program(target, op, width, options))
    }

    /// Compile entry point for whole-plan execution: ensures every `(op, width)` pair a
    /// compiled plan needs has a resident μProgram, generating the missing ones in one
    /// pass. Returns how many programs were newly built (duplicates in `ops` are
    /// harmless).
    ///
    /// The control unit calls this before issuing a plan's first batch, mirroring the
    /// paper's offline programming flow: μPrograms are generated once and stored in the
    /// controller's program memory, and execution then only performs lookups.
    pub fn preload(
        &mut self,
        target: Target,
        ops: impl IntoIterator<Item = (Operation, usize)>,
    ) -> usize {
        let before = self.cache.len();
        for (op, width) in ops {
            self.get_or_build(target, op, width);
        }
        self.cache.len() - before
    }

    /// Returns the compiled form of `(target, op, width)`, lowering (and, if needed,
    /// generating) the μProgram on first use and returning the cached `Arc` afterwards.
    ///
    /// `costs` must describe the DRAM config of the subarrays the program will run in
    /// and must be the same on every call for a given library — the control unit
    /// guarantees both by deriving one [`CommandCosts`] from the machine's config.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::UprogError`] from compilation (malformed μOps; never produced
    /// by the generator).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 64 (propagated from circuit synthesis).
    pub fn get_or_compile(
        &mut self,
        target: Target,
        op: Operation,
        width: usize,
        costs: &CommandCosts,
    ) -> Result<Arc<CompiledProgram>> {
        let key = (target, op, width);
        if let Some(compiled) = self.compiled.get(&key) {
            return Ok(Arc::clone(compiled));
        }
        let compiled = Arc::new(CompiledProgram::compile(
            self.get_or_build(target, op, width),
            costs,
        )?);
        self.compiled.insert(key, Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Compiled counterpart of [`MicroProgramLibrary::preload`]: ensures every `(op,
    /// width)` pair has a resident compiled kernel, returning how many were newly
    /// lowered.
    ///
    /// # Errors
    ///
    /// Propagates the first compilation failure (see
    /// [`MicroProgramLibrary::get_or_compile`]).
    pub fn preload_compiled(
        &mut self,
        target: Target,
        ops: impl IntoIterator<Item = (Operation, usize)>,
        costs: &CommandCosts,
    ) -> Result<usize> {
        let before = self.compiled.len();
        for (op, width) in ops {
            self.get_or_compile(target, op, width, costs)?;
        }
        Ok(self.compiled.len() - before)
    }

    /// Number of μPrograms currently cached.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Returns `true` if nothing has been generated yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

/// Generates a μProgram without caching (convenience for one-off use in benches and tests).
pub fn build_program(
    target: Target,
    op: Operation,
    width: usize,
    options: CodegenOptions,
) -> MicroProgram {
    match target {
        Target::Simdram => {
            let circuit: WordCircuit<Mig> = WordCircuit::synthesize(op, width);
            let network = GateNetwork::from_mig(&circuit);
            generate(&network, op, width, options)
        }
        Target::Ambit => {
            let circuit: WordCircuit<Aig> = WordCircuit::synthesize(op, width);
            let network = GateNetwork::from_aig(&circuit);
            generate(&network, op, width, options)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caching_returns_identical_programs() {
        let mut lib = MicroProgramLibrary::new();
        let first = lib
            .get_or_build(Target::Simdram, Operation::Add, 8)
            .command_count();
        let second = lib
            .get_or_build(Target::Simdram, Operation::Add, 8)
            .command_count();
        assert_eq!(first, second);
        assert_eq!(lib.len(), 1);
        assert!(!lib.is_empty());
    }

    #[test]
    fn preload_builds_each_missing_program_once() {
        let mut lib = MicroProgramLibrary::new();
        let built = lib.preload(
            Target::Simdram,
            [
                (Operation::Add, 8),
                (Operation::Sub, 8),
                (Operation::Add, 8),
            ],
        );
        assert_eq!(built, 2);
        assert_eq!(lib.len(), 2);
        // A second preload over the same set builds nothing.
        assert_eq!(lib.preload(Target::Simdram, [(Operation::Add, 8)]), 0);
    }

    #[test]
    fn compiled_kernels_are_cached_and_shared() {
        use simdram_dram::DramConfig;
        let costs = CommandCosts::new(&DramConfig::tiny());
        let mut lib = MicroProgramLibrary::new();
        let first = lib
            .get_or_compile(Target::Simdram, Operation::Add, 8, &costs)
            .unwrap();
        let second = lib
            .get_or_compile(Target::Simdram, Operation::Add, 8, &costs)
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        // Compiling also populates the symbolic cache.
        assert_eq!(lib.len(), 1);
        let newly = lib
            .preload_compiled(
                Target::Simdram,
                [(Operation::Add, 8), (Operation::Sub, 8)],
                &costs,
            )
            .unwrap();
        // Only `Sub` is new: the `Add` kernel above is already cached.
        assert_eq!(newly, 1);
    }

    #[test]
    fn targets_are_cached_separately() {
        let mut lib = MicroProgramLibrary::new();
        lib.get_or_build(Target::Simdram, Operation::Add, 8);
        lib.get_or_build(Target::Ambit, Operation::Add, 8);
        assert_eq!(lib.len(), 2);
    }

    #[test]
    fn simdram_beats_ambit_across_the_operation_set() {
        // The headline Table-1 trend: the MAJ/NOT μProgram never needs more commands than
        // the AND/OR/NOT μProgram.
        let mut lib = MicroProgramLibrary::new();
        for op in Operation::ALL {
            let simdram = lib.get_or_build(Target::Simdram, op, 16).command_count();
            let ambit = lib.get_or_build(Target::Ambit, op, 16).command_count();
            assert!(
                simdram <= ambit,
                "{op}: SIMDRAM {simdram} commands > Ambit {ambit}"
            );
        }
    }

    #[test]
    fn ablation_options_are_honoured() {
        let mut optimized = MicroProgramLibrary::new();
        let mut naive = MicroProgramLibrary::with_options(CodegenOptions::naive());
        let a = optimized
            .get_or_build(Target::Simdram, Operation::Mul, 8)
            .command_count();
        let b = naive
            .get_or_build(Target::Simdram, Operation::Mul, 8)
            .command_count();
        assert!(a < b);
        assert_eq!(naive.options(), CodegenOptions::naive());
    }
}
