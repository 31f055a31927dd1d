//! The memory-controller control unit (Step 3).
//!
//! The control unit receives bbop instructions, looks the corresponding μProgram up in its
//! μProgram library, binds the μProgram's symbolic rows to the physical rows of the named
//! objects, and issues the resulting AAP/AP sequence to the participating subarrays — all
//! transparently to the program, which only ever executes bbop instructions.

use std::sync::Arc;

use simdram_dram::CommandCosts;
use simdram_logic::Operation;
use simdram_uprog::{
    CodegenOptions, CompiledProgram, DispatchEntry, DispatchWindow, MicroProgram,
    MicroProgramLibrary, RowBinding, Target,
};

use crate::error::{CoreError, Result};
use crate::layout::SimdVector;

/// The control unit: μProgram library plus bbop expansion logic.
#[derive(Debug)]
pub struct ControlUnit {
    target: Target,
    library: MicroProgramLibrary,
    /// MIMD dispatch windows issued through [`ControlUnit::describe_window`].
    windows_issued: u64,
    /// How many of those windows were heterogeneous (≥ 2 distinct program streams).
    mimd_windows_issued: u64,
}

impl ControlUnit {
    /// Creates a control unit for the given μProgram target and code generator options.
    pub fn new(target: Target, codegen: CodegenOptions) -> Self {
        ControlUnit {
            target,
            library: MicroProgramLibrary::with_options(codegen),
            windows_issued: 0,
            mimd_windows_issued: 0,
        }
    }

    /// Assembles and validates one MIMD dispatch window from its `(μProgram stream,
    /// subarray set)` entries, recording it in the unit's window counters. Every fused
    /// machine dispatch passes through here before the broadcast issues, so the
    /// disjointness contract is enforced at the control unit — exactly where the
    /// hardware would arbitrate the shared command bus.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Uprog`]-wrapped [`simdram_uprog::UprogError`] variants when
    /// the entries overlap on a subarray or the window is empty.
    pub fn describe_window(&mut self, entries: Vec<DispatchEntry>) -> Result<DispatchWindow> {
        let window = DispatchWindow::new(entries).map_err(CoreError::from)?;
        self.windows_issued += 1;
        if window.is_heterogeneous() {
            self.mimd_windows_issued += 1;
        }
        Ok(window)
    }

    /// Total dispatch windows issued through this control unit.
    pub fn windows_issued(&self) -> u64 {
        self.windows_issued
    }

    /// Dispatch windows that carried ≥ 2 distinct μProgram streams (true MIMD).
    pub fn mimd_windows_issued(&self) -> u64 {
        self.mimd_windows_issued
    }

    /// The μProgram target this control unit drives.
    pub fn target(&self) -> Target {
        self.target
    }

    /// Number of μPrograms resident in the control unit's program memory.
    pub fn resident_programs(&self) -> usize {
        self.library.len()
    }

    /// Looks up (or generates and caches) the μProgram for `op` at `width` bits.
    pub fn microprogram(&mut self, op: Operation, width: usize) -> &MicroProgram {
        self.library.get_or_build(self.target, op, width)
    }

    /// Looks up (or lowers and caches) the compiled kernel for `op` at `width` bits —
    /// the fast-functional counterpart of [`ControlUnit::microprogram`]. The returned
    /// `Arc` is shared with the cache, so every broadcast chunk runs the same artifact.
    ///
    /// `costs` must come from the machine's one DRAM config (see
    /// [`simdram_uprog::MicroProgramLibrary::get_or_compile`]).
    ///
    /// # Errors
    ///
    /// Propagates compilation failures (malformed μOps; never produced by the generator).
    pub fn compiled_microprogram(
        &mut self,
        op: Operation,
        width: usize,
        costs: &CommandCosts,
    ) -> Result<Arc<CompiledProgram>> {
        Ok(self.library.get_or_compile(self.target, op, width, costs)?)
    }

    /// Ensures every `(op, width)` pair of a compiled plan has a resident μProgram,
    /// generating the missing ones in one pass (the plan-compile entry point of
    /// [`simdram_uprog::MicroProgramLibrary::preload`]). Returns how many programs were
    /// newly built.
    pub fn preload(&mut self, ops: impl IntoIterator<Item = (Operation, usize)>) -> usize {
        self.library.preload(self.target, ops)
    }

    /// Compiled counterpart of [`ControlUnit::preload`]: ensures every `(op, width)` pair
    /// has a resident compiled kernel, returning how many were newly lowered.
    ///
    /// # Errors
    ///
    /// Propagates the first compilation failure.
    pub fn preload_compiled(
        &mut self,
        ops: impl IntoIterator<Item = (Operation, usize)>,
        costs: &CommandCosts,
    ) -> Result<usize> {
        Ok(self.library.preload_compiled(self.target, ops, costs)?)
    }

    /// Validates operand shapes and produces the row binding for one bbop operation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] if widths, lengths or the predicate shape do not match
    /// what the operation requires.
    pub fn bind(
        &self,
        op: Operation,
        dst: &SimdVector,
        src_a: &SimdVector,
        src_b: Option<&SimdVector>,
        pred: Option<&SimdVector>,
        reserved_base: usize,
    ) -> Result<RowBinding> {
        let width = src_a.width();
        if op.uses_second_operand() {
            let b = src_b.ok_or_else(|| {
                CoreError::Shape(format!("{op} requires a second source operand"))
            })?;
            if b.width() != width {
                return Err(CoreError::Shape(format!(
                    "operand widths differ: A is {width} bits, B is {} bits",
                    b.width()
                )));
            }
            if b.len() != src_a.len() {
                return Err(CoreError::Shape(format!(
                    "operand lengths differ: A has {} elements, B has {}",
                    src_a.len(),
                    b.len()
                )));
            }
        } else if src_b.is_some() {
            return Err(CoreError::Shape(format!(
                "{op} takes a single source operand but two were supplied"
            )));
        }
        if op.uses_predicate() {
            let p = pred.ok_or_else(|| {
                CoreError::Shape(format!("{op} requires a 1-bit predicate vector"))
            })?;
            if p.width() != 1 {
                return Err(CoreError::Shape(format!(
                    "predicate must be 1 bit wide, got {} bits",
                    p.width()
                )));
            }
            if p.len() != src_a.len() {
                return Err(CoreError::Shape(format!(
                    "predicate length {} does not match operand length {}",
                    p.len(),
                    src_a.len()
                )));
            }
        } else if pred.is_some() {
            return Err(CoreError::Shape(format!(
                "{op} is not a predicated operation"
            )));
        }
        if dst.width() != op.output_width(width) {
            return Err(CoreError::Shape(format!(
                "destination width {} does not match {op}'s output width {}",
                dst.width(),
                op.output_width(width)
            )));
        }
        if dst.len() < src_a.len() {
            return Err(CoreError::Shape(format!(
                "destination holds {} elements but {} are being produced",
                dst.len(),
                src_a.len()
            )));
        }

        Ok(RowBinding {
            a_base: src_a.base_row(),
            b_base: src_b.map(|v| v.base_row()).unwrap_or(src_a.base_row()),
            pred_row: pred.map(|v| v.base_row()).unwrap_or(src_a.base_row()),
            out_base: dst.base_row(),
            temp_base: reserved_base,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vector(id: u64, base: usize, width: usize, len: usize) -> SimdVector {
        SimdVector::new(id, base, width, len)
    }

    #[test]
    fn microprograms_are_cached_per_operation() {
        let mut cu = ControlUnit::new(Target::Simdram, CodegenOptions::optimized());
        assert_eq!(cu.resident_programs(), 0);
        let commands = cu.microprogram(Operation::Add, 8).command_count();
        assert!(commands > 0);
        cu.microprogram(Operation::Add, 8);
        cu.microprogram(Operation::Sub, 8);
        assert_eq!(cu.resident_programs(), 2);
        assert_eq!(cu.target(), Target::Simdram);
    }

    #[test]
    fn bind_produces_expected_row_bases() {
        let cu = ControlUnit::new(Target::Simdram, CodegenOptions::optimized());
        let a = vector(1, 0, 8, 100);
        let b = vector(2, 8, 8, 100);
        let dst = vector(3, 16, 8, 100);
        let binding = cu
            .bind(Operation::Add, &dst, &a, Some(&b), None, 96)
            .unwrap();
        assert_eq!(binding.a_base, 0);
        assert_eq!(binding.b_base, 8);
        assert_eq!(binding.out_base, 16);
        assert_eq!(binding.temp_base, 96);
    }

    #[test]
    fn mismatched_widths_are_rejected() {
        let cu = ControlUnit::new(Target::Simdram, CodegenOptions::optimized());
        let a = vector(1, 0, 8, 100);
        let b = vector(2, 8, 16, 100);
        let dst = vector(3, 24, 8, 100);
        assert!(matches!(
            cu.bind(Operation::Add, &dst, &a, Some(&b), None, 96),
            Err(CoreError::Shape(_))
        ));
    }

    #[test]
    fn missing_operands_and_predicates_are_rejected() {
        let cu = ControlUnit::new(Target::Simdram, CodegenOptions::optimized());
        let a = vector(1, 0, 8, 10);
        let dst = vector(3, 16, 8, 10);
        assert!(cu.bind(Operation::Add, &dst, &a, None, None, 96).is_err());
        assert!(cu
            .bind(Operation::IfElse, &dst, &a, Some(&a), None, 96)
            .is_err());
        let wrong_pred = vector(4, 30, 8, 10);
        assert!(cu
            .bind(Operation::IfElse, &dst, &a, Some(&a), Some(&wrong_pred), 96)
            .is_err());
    }

    #[test]
    fn destination_width_must_match_output_width() {
        let cu = ControlUnit::new(Target::Simdram, CodegenOptions::optimized());
        let a = vector(1, 0, 8, 10);
        let b = vector(2, 8, 8, 10);
        let wrong_dst = vector(3, 16, 8, 10); // equality produces a 1-bit result
        assert!(cu
            .bind(Operation::Equal, &wrong_dst, &a, Some(&b), None, 96)
            .is_err());
        let dst = vector(4, 16, 1, 10);
        assert!(cu
            .bind(Operation::Equal, &dst, &a, Some(&b), None, 96)
            .is_ok());
    }

    #[test]
    fn unary_operations_reject_spurious_second_operand() {
        let cu = ControlUnit::new(Target::Simdram, CodegenOptions::optimized());
        let a = vector(1, 0, 8, 10);
        let dst = vector(3, 16, 8, 10);
        assert!(cu
            .bind(Operation::Relu, &dst, &a, Some(&a), None, 96)
            .is_err());
        assert!(cu.bind(Operation::Relu, &dst, &a, None, None, 96).is_ok());
    }
}
