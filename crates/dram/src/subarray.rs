//! The compute-capable DRAM subarray: data rows plus the Ambit B-group.
//!
//! Following Ambit (MICRO 2017) — the substrate SIMDRAM builds on — each compute subarray
//! reserves a small group of rows attached to a special row decoder (the *B-group*):
//!
//! * **T0–T3**: four designated rows that can participate in *triple-row activation* (TRA).
//!   Activating three of them simultaneously makes the bitlines settle to the bitwise
//!   majority of the three rows, which is then restored into all three rows and latched in
//!   the sense amplifiers.
//! * **DCC0/DCC1**: two *dual-contact cells* rows. Each has a second, negated wordline
//!   (`DCC0N`/`DCC1N`); activating the negated wordline drives the complement of the stored
//!   value onto the bitlines, providing bitwise NOT.
//! * **C0/C1**: control rows hard-wired to all-zeros and all-ones.
//!
//! Data movement between regular data rows and the B-group uses RowClone-FPM copies,
//! expressed as `AAP` (ACTIVATE–ACTIVATE–PRECHARGE) commands; TRA is an `AP`
//! (ACTIVATE–PRECHARGE) with a special triple-row address.
//!
//! The model deviates from real Ambit in one documented way (see `DESIGN.md`): any three
//! distinct B-group rows may be named in a TRA, instead of Ambit's fixed triple-address
//! table. μProgram command counts are unaffected.

use crate::bitrow::BitRow;
use crate::command::{rowtag, CommandCosts, CommandTrace, DramCommand, TraceSlot};
use crate::config::DramConfig;
use crate::error::{DramError, Result};
use crate::fault::FaultState;
use crate::rowops::{RowOp, RowOpBlock, RowRef, RowTemplate, SrcRef, WriteRef};

/// Rows of the B-group (compute rows) of a subarray.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BGroupRow {
    /// Designated TRA row 0.
    T0,
    /// Designated TRA row 1.
    T1,
    /// Designated TRA row 2.
    T2,
    /// Designated TRA row 3.
    T3,
    /// Dual-contact cell row 0 (true wordline).
    Dcc0,
    /// Dual-contact cell row 0, negated wordline.
    Dcc0N,
    /// Dual-contact cell row 1 (true wordline).
    Dcc1,
    /// Dual-contact cell row 1, negated wordline.
    Dcc1N,
    /// Control row hard-wired to all zeros.
    C0,
    /// Control row hard-wired to all ones.
    C1,
}

impl BGroupRow {
    /// All B-group rows, useful for iteration in tests.
    pub const ALL: [BGroupRow; 10] = [
        BGroupRow::T0,
        BGroupRow::T1,
        BGroupRow::T2,
        BGroupRow::T3,
        BGroupRow::Dcc0,
        BGroupRow::Dcc0N,
        BGroupRow::Dcc1,
        BGroupRow::Dcc1N,
        BGroupRow::C0,
        BGroupRow::C1,
    ];

    /// Returns `true` for the constant control rows `C0`/`C1`.
    pub fn is_control(self) -> bool {
        matches!(self, BGroupRow::C0 | BGroupRow::C1)
    }

    /// Returns `true` for the negated wordlines of the dual-contact cells.
    pub fn is_negated_wordline(self) -> bool {
        matches!(self, BGroupRow::Dcc0N | BGroupRow::Dcc1N)
    }
}

/// Address of a row within a subarray.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowAddr {
    /// A regular data row, indexed from 0.
    Data(usize),
    /// A compute row of the B-group.
    BGroup(BGroupRow),
}

/// A DRAM subarray with Ambit-style compute capability.
///
/// See this module's documentation for the row organization. All mutating operations
/// record the DRAM command(s) they correspond to in an internal [`CommandTrace`] so tests
/// and higher layers can verify both the *data* transformation and the *cost* of an
/// operation.
#[derive(Debug, Clone)]
pub struct Subarray {
    columns: usize,
    rows: Vec<BitRow>,
    t: [BitRow; 4],
    dcc: [BitRow; 2],
    /// Materialized contents of the hard-wired control rows `C0`/`C1`. They never change
    /// after construction; keeping them as real rows lets [`Subarray::row`] hand out
    /// borrows and the command path copy from them without allocating.
    c0: BitRow,
    c1: BitRow,
    sense: BitRow,
    row_open: bool,
    trace: CommandTrace,
    /// The six cost combinations this subarray's commands charge, pre-registered in the
    /// trace's cost table so the per-command hot path records without searching.
    costs: [DramCommand; 6],
    slots: [TraceSlot; 6],
    /// Seeded fault-injection stream, installed by [`crate::DramDevice::install_faults`];
    /// `None` (the default) leaves every TRA exact.
    faults: Option<FaultState>,
}

/// Indices into [`Subarray::costs`]/[`Subarray::slots`], one per command template.
#[derive(Debug, Clone, Copy)]
enum Cost {
    Write,
    Read,
    Aap,
    AapTra,
    Tra,
    Ap,
}

impl Subarray {
    /// Creates a subarray with the geometry and cost models of `config`. All rows start
    /// zeroed.
    pub fn new(config: &DramConfig) -> Self {
        let columns = config.columns_per_row;
        // Single-sourced from `CommandCosts` so compiled-program aggregates built from the
        // same config charge bit-identical costs; index order matches the `Cost` enum.
        let costs = CommandCosts::new(config).templates().clone();
        let mut trace = CommandTrace::new();
        let slots = costs.clone().map(|c| trace.register(c));
        Subarray {
            columns,
            rows: vec![BitRow::zeros(columns); config.rows_per_subarray],
            t: [
                BitRow::zeros(columns),
                BitRow::zeros(columns),
                BitRow::zeros(columns),
                BitRow::zeros(columns),
            ],
            dcc: [BitRow::zeros(columns), BitRow::zeros(columns)],
            c0: BitRow::zeros(columns),
            c1: BitRow::ones(columns),
            sense: BitRow::zeros(columns),
            row_open: false,
            trace,
            costs,
            slots,
            faults: None,
        }
    }

    /// Records one command on the pre-registered hot path, tagging the row its first
    /// activation opens (see [`rowtag`]). Tags never affect accounting totals.
    fn record_row(&mut self, cost: Cost, row: u32) {
        self.trace.record_at(self.slots[cost as usize], row);
    }

    /// Number of columns (SIMD lanes) in the subarray.
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Number of regular data rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// The command trace accumulated so far.
    pub fn trace(&self) -> &CommandTrace {
        &self.trace
    }

    /// Clears the accumulated command trace, including its aggregate counters.
    pub fn reset_trace(&mut self) {
        self.trace.clear();
        // `clear` drops the trace's cost table; re-register this subarray's slots.
        self.slots = self.costs.clone().map(|c| self.trace.register(c));
    }

    /// Drops the trace's per-command history while keeping its aggregate counters
    /// (length, per-kind counts, latency/energy totals) intact.
    ///
    /// Callers that have already absorbed the per-command history elsewhere — e.g. a
    /// machine merging per-broadcast [`CommandTrace`]s via [`Subarray::trace_since`] —
    /// use this to keep long-running subarrays from accumulating unbounded history.
    pub fn drain_trace(&mut self) {
        self.trace.drain_history();
    }

    /// Reserves trace capacity for `additional` upcoming commands, so executing a
    /// μProgram of known length never reallocates mid-execution.
    pub fn reserve_trace(&mut self, additional: usize) {
        self.trace.reserve(additional);
    }

    /// A mark into the command trace; pass it to [`Subarray::trace_since`] later to obtain
    /// the commands issued in between as a self-contained [`CommandTrace`].
    pub fn trace_mark(&self) -> usize {
        self.trace.len()
    }

    /// Returns the commands issued since `mark` (from [`Subarray::trace_mark`]) as a new,
    /// self-contained trace with its own latency/energy totals.
    ///
    /// Execution kernels use this to *return* their accounting instead of accumulating it
    /// through shared state, which is what makes broadcast execution parallelizable: each
    /// chunk produces a local trace, and the caller merges them in deterministic chunk
    /// order.
    pub fn trace_since(&self, mark: usize) -> CommandTrace {
        self.trace.since(mark)
    }

    /// Host-side write of a full row (a conventional `WR` burst over the channel).
    ///
    /// Rows shorter or longer than the subarray width are truncated / zero-extended.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range; use [`Subarray::try_write_row`] for a fallible
    /// variant.
    pub fn write_row(&mut self, row: usize, data: &BitRow) {
        self.try_write_row(row, data).expect("row index in range");
    }

    /// Fallible variant of [`Subarray::write_row`].
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] if `row` is not a valid data-row index.
    pub fn try_write_row(&mut self, row: usize, data: &BitRow) -> Result<()> {
        let rows = self.rows.len();
        let dst = self
            .rows
            .get_mut(row)
            .ok_or(DramError::RowOutOfRange { row, rows })?;
        dst.copy_from_resized(data);
        self.record_row(Cost::Write, rowtag::data(row));
        Ok(())
    }

    /// Host-side read of a full row (a conventional `RD` burst over the channel).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range; use [`Subarray::try_read_row`] for a fallible
    /// variant.
    pub fn read_row(&mut self, row: usize) -> BitRow {
        self.try_read_row(row).expect("row index in range")
    }

    /// Fallible variant of [`Subarray::read_row`].
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] if `row` is not a valid data-row index.
    pub fn try_read_row(&mut self, row: usize) -> Result<BitRow> {
        let rows = self.rows.len();
        let data = self
            .rows
            .get(row)
            .cloned()
            .ok_or(DramError::RowOutOfRange { row, rows })?;
        self.record_row(Cost::Read, rowtag::data(row));
        Ok(data)
    }

    /// Borrows a row's stored contents without issuing any DRAM command and without
    /// cloning the row.
    ///
    /// This is the zero-copy accessor read/verify paths should prefer over
    /// [`Subarray::peek`]. The negated dual-contact wordlines (`Dcc0N`/`Dcc1N`) have no
    /// stored row of their own — they drive the complement of the corresponding DCC row —
    /// so they cannot be borrowed; use [`Subarray::peek`] to snapshot them.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] for an invalid data row and
    /// [`DramError::InvalidConfig`] for a negated wordline.
    pub fn row(&self, addr: RowAddr) -> Result<&BitRow> {
        match addr {
            RowAddr::Data(r) => self.rows.get(r).ok_or(DramError::RowOutOfRange {
                row: r,
                rows: self.rows.len(),
            }),
            RowAddr::BGroup(b) => match b {
                BGroupRow::T0 => Ok(&self.t[0]),
                BGroupRow::T1 => Ok(&self.t[1]),
                BGroupRow::T2 => Ok(&self.t[2]),
                BGroupRow::T3 => Ok(&self.t[3]),
                BGroupRow::Dcc0 => Ok(&self.dcc[0]),
                BGroupRow::Dcc1 => Ok(&self.dcc[1]),
                BGroupRow::C0 => Ok(&self.c0),
                BGroupRow::C1 => Ok(&self.c1),
                BGroupRow::Dcc0N | BGroupRow::Dcc1N => Err(DramError::InvalidConfig(
                    "negated wordlines drive a computed complement and have no stored row; \
                     use peek() to snapshot them"
                        .into(),
                )),
            },
        }
    }

    /// Returns a snapshot of a row's contents without issuing any DRAM command.
    ///
    /// This is a debugging/verification helper (the simulator equivalent of probing the
    /// array), not an architectural operation. Prefer [`Subarray::row`] when a borrow
    /// suffices.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] if the address is not valid.
    pub fn peek(&self, addr: RowAddr) -> Result<BitRow> {
        match addr {
            RowAddr::BGroup(BGroupRow::Dcc0N) => Ok(self.dcc[0].not()),
            RowAddr::BGroup(BGroupRow::Dcc1N) => Ok(self.dcc[1].not()),
            _ => self.row(addr).cloned(),
        }
    }

    /// Directly overwrites a row's contents without issuing any DRAM command.
    ///
    /// Like [`Subarray::peek`], this is a simulation convenience used to initialize state in
    /// tests and by the transposition unit model (which accounts for its cost separately).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowOutOfRange`] for an invalid data row, and
    /// [`DramError::InvalidConfig`] when attempting to poke a constant control row.
    pub fn poke(&mut self, addr: RowAddr, data: &BitRow) -> Result<()> {
        match addr {
            RowAddr::Data(r) => {
                let rows = self.rows.len();
                let dst = self
                    .rows
                    .get_mut(r)
                    .ok_or(DramError::RowOutOfRange { row: r, rows })?;
                dst.copy_from_resized(data);
            }
            RowAddr::BGroup(b) => {
                let dst = match b {
                    BGroupRow::T0 => &mut self.t[0],
                    BGroupRow::T1 => &mut self.t[1],
                    BGroupRow::T2 => &mut self.t[2],
                    BGroupRow::T3 => &mut self.t[3],
                    BGroupRow::Dcc0 | BGroupRow::Dcc0N => &mut self.dcc[0],
                    BGroupRow::Dcc1 | BGroupRow::Dcc1N => &mut self.dcc[1],
                    BGroupRow::C0 | BGroupRow::C1 => {
                        return Err(DramError::InvalidConfig(
                            "control rows C0/C1 are hard-wired and cannot be written".into(),
                        ))
                    }
                };
                dst.copy_from_resized(data);
                // Driving a negated wordline stores the complement in the cell, so that a
                // subsequent activation of the true wordline reads back NOT(value).
                if b.is_negated_wordline() {
                    dst.invert();
                }
            }
        }
        Ok(())
    }

    /// `AAP src, dst`: copies the value driven by `src` into `dst` through the sense
    /// amplifiers (RowClone-FPM). This is the workhorse command of SIMDRAM μPrograms.
    ///
    /// The datapath is allocation-free and single-pass: in hardware the source settles on
    /// the bitlines and the second activation restores it into the destination cells, so
    /// the simulator performs one direct word-level row copy (a fill for the constant
    /// control rows, an in-place complement for copies between a dual-contact cell's two
    /// wordlines) rather than materializing the intermediate sense value.
    ///
    /// # Errors
    ///
    /// Returns an error if either address is invalid or if `dst` is a constant control row.
    pub fn aap(&mut self, src: RowAddr, dst: RowAddr) -> Result<()> {
        let s = self.resolve(src)?;
        let d = self.resolve_writable(dst)?;
        self.drive(s, d);
        self.row_open = false; // AAP ends with a precharge.
        self.record_row(Cost::Aap, tag_of_addr(src));
        Ok(())
    }

    /// `AP` with a triple-row address: simultaneously activates three distinct B-group rows,
    /// computing their bitwise majority. The majority value is restored into all three rows
    /// (except hard-wired control rows) and latched in the sense amplifiers.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::DuplicateTraRow`] if the three rows are not distinct.
    pub fn ap_tra(&mut self, a: BGroupRow, b: BGroupRow, c: BGroupRow) -> Result<()> {
        if a == b || b == c || a == c {
            return Err(DramError::DuplicateTraRow);
        }
        let fault_key = self.next_fault_key();
        if !self.try_tra_fused(a, b, c, None, fault_key) {
            self.tra_into_sense(a, b, c, fault_key);
            self.restore_tra_rows(a, b, c)?;
        }
        self.row_open = false;
        self.record_row(Cost::Tra, rowtag::tra(a as usize, b as usize, c as usize));
        Ok(())
    }

    /// `AAP` whose first activation is a triple-row activation: computes the majority of
    /// three B-group rows and copies the result into `dst` in a single command, as Ambit
    /// does when the result is needed in a different row.
    ///
    /// # Errors
    ///
    /// Returns an error if the rows are not distinct or `dst` is invalid.
    pub fn aap_tra(
        &mut self,
        a: BGroupRow,
        b: BGroupRow,
        c: BGroupRow,
        dst: RowAddr,
    ) -> Result<()> {
        if a == b || b == c || a == c {
            return Err(DramError::DuplicateTraRow);
        }
        let fault_key = self.next_fault_key();
        if !self.try_tra_fused(a, b, c, Some(dst), fault_key) {
            self.tra_into_sense(a, b, c, fault_key);
            self.restore_tra_rows(a, b, c)?;
            self.restore(dst)?;
        }
        self.row_open = false;
        self.record_row(
            Cost::AapTra,
            rowtag::tra(a as usize, b as usize, c as usize),
        );
        Ok(())
    }

    /// `AP row`: activates and precharges a single row without copying it anywhere. Used to
    /// refresh the sense amplifiers or as a timing placeholder; the data is unchanged.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is invalid.
    pub fn ap(&mut self, row: RowAddr) -> Result<()> {
        self.latch(row)?;
        self.row_open = false;
        self.record_row(Cost::Ap, tag_of_addr(row));
        Ok(())
    }

    /// Convenience: Ambit's in-DRAM NOT. Copies `src` into DCC0 and then the negated
    /// wordline into `dst` (2 AAPs).
    ///
    /// # Errors
    ///
    /// Returns an error if either address is invalid.
    pub fn not_row(&mut self, src: RowAddr, dst: RowAddr) -> Result<()> {
        self.aap(src, RowAddr::BGroup(BGroupRow::Dcc0))?;
        self.aap(RowAddr::BGroup(BGroupRow::Dcc0N), dst)?;
        Ok(())
    }

    /// Convenience: Ambit's in-DRAM MAJ of three data rows into a destination row
    /// (3 AAPs to stage the operands + 1 AAP with a TRA source).
    ///
    /// # Errors
    ///
    /// Returns an error if any address is invalid.
    pub fn maj_rows(&mut self, a: RowAddr, b: RowAddr, c: RowAddr, dst: RowAddr) -> Result<()> {
        self.aap(a, RowAddr::BGroup(BGroupRow::T0))?;
        self.aap(b, RowAddr::BGroup(BGroupRow::T1))?;
        self.aap(c, RowAddr::BGroup(BGroupRow::T2))?;
        self.aap_tra(BGroupRow::T0, BGroupRow::T1, BGroupRow::T2, dst)?;
        Ok(())
    }

    /// Convenience: Ambit's in-DRAM AND of two rows (`MAJ(a, b, 0)`).
    ///
    /// # Errors
    ///
    /// Returns an error if any address is invalid.
    pub fn and_rows(&mut self, a: RowAddr, b: RowAddr, dst: RowAddr) -> Result<()> {
        self.maj_rows(a, b, RowAddr::BGroup(BGroupRow::C0), dst)
    }

    /// Convenience: Ambit's in-DRAM OR of two rows (`MAJ(a, b, 1)`).
    ///
    /// # Errors
    ///
    /// Returns an error if any address is invalid.
    pub fn or_rows(&mut self, a: RowAddr, b: RowAddr, dst: RowAddr) -> Result<()> {
        self.maj_rows(a, b, RowAddr::BGroup(BGroupRow::C1), dst)
    }

    /// Resolves an address to the physical row storage that backs it (validating data-row
    /// indices) plus the complement flag of negated wordlines.
    fn resolve(&self, addr: RowAddr) -> Result<Driven> {
        let phys = match addr {
            RowAddr::Data(r) => {
                if r >= self.rows.len() {
                    return Err(DramError::RowOutOfRange {
                        row: r,
                        rows: self.rows.len(),
                    });
                }
                Phys::Data(r)
            }
            RowAddr::BGroup(b) => match b {
                BGroupRow::T0 => Phys::T(0),
                BGroupRow::T1 => Phys::T(1),
                BGroupRow::T2 => Phys::T(2),
                BGroupRow::T3 => Phys::T(3),
                BGroupRow::Dcc0 | BGroupRow::Dcc0N => Phys::Dcc(0),
                BGroupRow::Dcc1 | BGroupRow::Dcc1N => Phys::Dcc(1),
                BGroupRow::C0 => Phys::Const(false),
                BGroupRow::C1 => Phys::Const(true),
            },
        };
        let negated = matches!(addr, RowAddr::BGroup(BGroupRow::Dcc0N | BGroupRow::Dcc1N));
        Ok(Driven { phys, negated })
    }

    /// Like [`Subarray::resolve`], rejecting the hard-wired control rows.
    fn resolve_writable(&self, addr: RowAddr) -> Result<Driven> {
        let driven = self.resolve(addr)?;
        if matches!(driven.phys, Phys::Const(_)) {
            return Err(DramError::InvalidConfig(
                "control rows C0/C1 are hard-wired and cannot be written".into(),
            ));
        }
        Ok(driven)
    }

    /// Performs the single-pass row movement of an AAP: the value `src` drives onto the
    /// bitlines lands in `dst`'s cells. Both descriptors are pre-validated, so the copy
    /// itself cannot fail.
    fn drive(&mut self, src: Driven, dst: Driven) {
        // Driving through a negated wordline complements on the way out of the source
        // cell and again on the way into the destination cell.
        let invert = src.negated != dst.negated;
        if let Phys::Const(v) = src.phys {
            self.phys_mut(dst.phys).fill(v != dst.negated);
            return;
        }
        if src.phys == dst.phys {
            // Same physical cells (e.g. `AAP Dcc0 → Dcc0N`): at most an in-place
            // complement.
            if invert {
                self.phys_mut(dst.phys).invert();
            }
            return;
        }
        let (s, d) = self.phys_pair_mut(src.phys, dst.phys);
        if invert {
            s.not_into(d).expect("subarray rows share one width");
        } else {
            d.copy_from(s).expect("subarray rows share one width");
        }
    }

    fn phys_mut(&mut self, phys: Phys) -> &mut BitRow {
        match phys {
            Phys::Data(r) => &mut self.rows[r],
            Phys::T(i) => &mut self.t[i],
            Phys::Dcc(i) => &mut self.dcc[i],
            Phys::Const(_) => unreachable!("control rows are never writable"),
        }
    }

    /// Disjoint borrows of two distinct physical rows (read source, written destination).
    fn phys_pair_mut(&mut self, src: Phys, dst: Phys) -> (&BitRow, &mut BitRow) {
        let Subarray { rows, t, dcc, .. } = self;
        match (src, dst) {
            (Phys::Data(i), Phys::Data(j)) => {
                let (a, b) = split_pair(rows, i, j);
                (a, b)
            }
            (Phys::T(i), Phys::T(j)) => {
                let (a, b) = split_pair(t, i, j);
                (a, b)
            }
            (Phys::Dcc(i), Phys::Dcc(j)) => {
                let (a, b) = split_pair(dcc, i, j);
                (a, b)
            }
            (Phys::Data(i), Phys::T(j)) => (&rows[i], &mut t[j]),
            (Phys::Data(i), Phys::Dcc(j)) => (&rows[i], &mut dcc[j]),
            (Phys::T(i), Phys::Data(j)) => (&t[i], &mut rows[j]),
            (Phys::T(i), Phys::Dcc(j)) => (&t[i], &mut dcc[j]),
            (Phys::Dcc(i), Phys::Data(j)) => (&dcc[i], &mut rows[j]),
            (Phys::Dcc(i), Phys::T(j)) => (&dcc[i], &mut t[j]),
            (Phys::Const(_), _) | (_, Phys::Const(_)) => {
                unreachable!("constant rows are handled before pairing")
            }
        }
    }

    /// Fused fast path for the TRA the μProgram generator emits: three distinct plain
    /// `T` rows (no negated wordlines, no constants) and an optional `Data` destination.
    /// One word-level pass computes the majority and restores it into the sense row, the
    /// three activated rows and the destination simultaneously — exactly the lock-step
    /// charge restoration the hardware performs. Returns `false` (leaving all state
    /// untouched) when the operands need the general path.
    fn try_tra_fused(
        &mut self,
        a: BGroupRow,
        b: BGroupRow,
        c: BGroupRow,
        dst: Option<RowAddr>,
        fault_key: Option<u64>,
    ) -> bool {
        let (Some(i), Some(j), Some(k)) = (t_index(a), t_index(b), t_index(c)) else {
            return false;
        };
        let dst_row = match dst {
            None => None,
            Some(RowAddr::Data(r)) if r < self.rows.len() => Some(r),
            // Out-of-range or non-data destinations keep the general path's
            // error/ordering behaviour.
            Some(_) => return false,
        };
        self.fused_tra([i, j, k], dst_row, fault_key);
        true
    }

    /// The fused-TRA word-level kernel shared by [`Subarray::try_tra_fused`] and the
    /// compiled row-op path: majority of three distinct plain `T` rows restored into the
    /// operands, the sense row and an optional pre-validated data row.
    fn fused_tra(&mut self, mut idx: [usize; 3], dst_row: Option<usize>, fault_key: Option<u64>) {
        idx.sort_unstable(); // majority and restore are operand-order independent
        let Subarray {
            rows,
            t,
            sense,
            faults,
            columns,
            ..
        } = self;
        let (lo, rest) = t.split_at_mut(idx[1]);
        let (mid, hi) = rest.split_at_mut(idx[2] - idx[1]);
        let (ra, rb, rc) = (&mut lo[idx[0]], &mut mid[0], &mut hi[0]);
        // One tight pass computes the majority into the sense row; the charge
        // restorations are then plain word-level row copies (separate passes beat one
        // multi-stream loop: each is a straight memcpy from the cache-hot sense row).
        BitRow::majority_into(ra, rb, rc, sense).expect("subarray rows share one width");
        if let (Some(state), Some(key)) = (faults.as_mut(), fault_key) {
            // Inject between the charge-sharing and the restoration, so a flipped bit
            // propagates into the activated rows and the destination exactly like a
            // marginal sense amplifier latching the wrong way.
            let (wa, wb, wc) = (ra.words(), rb.words(), rc.words());
            state.corrupt_tra(key, sense.words_mut(), *columns, |col| {
                let (w, bit) = (col / 64, col % 64);
                let (x, y, z) = (wa[w], wb[w], wc[w]);
                (((x ^ y) | (y ^ z)) >> bit) & 1 == 1
            });
            sense.normalize();
        }
        ra.copy_from(sense).expect("subarray rows share one width");
        rb.copy_from(sense).expect("subarray rows share one width");
        rc.copy_from(sense).expect("subarray rows share one width");
        if let Some(r) = dst_row {
            rows[r]
                .copy_from(sense)
                .expect("subarray rows share one width");
        }
    }

    /// Latches the value driven by `addr` into the sense-amplifier row (the first
    /// ACTIVATE of a command) with a word-level copy and no allocation.
    fn latch(&mut self, addr: RowAddr) -> Result<()> {
        match addr {
            RowAddr::Data(r) => {
                let src = self.rows.get(r).ok_or(DramError::RowOutOfRange {
                    row: r,
                    rows: self.rows.len(),
                })?;
                self.sense.copy_from(src)?;
            }
            RowAddr::BGroup(b) => match b {
                BGroupRow::T0 => self.sense.copy_from(&self.t[0])?,
                BGroupRow::T1 => self.sense.copy_from(&self.t[1])?,
                BGroupRow::T2 => self.sense.copy_from(&self.t[2])?,
                BGroupRow::T3 => self.sense.copy_from(&self.t[3])?,
                BGroupRow::Dcc0 => self.sense.copy_from(&self.dcc[0])?,
                BGroupRow::Dcc1 => self.sense.copy_from(&self.dcc[1])?,
                BGroupRow::Dcc0N => self.dcc[0].not_into(&mut self.sense)?,
                BGroupRow::Dcc1N => self.dcc[1].not_into(&mut self.sense)?,
                BGroupRow::C0 => self.sense.fill(false),
                BGroupRow::C1 => self.sense.fill(true),
            },
        }
        Ok(())
    }

    /// Restores the sense-amplifier row into `addr` (the second ACTIVATE of an AAP, or
    /// the charge restoration of a TRA) with a word-level copy and no allocation.
    fn restore(&mut self, addr: RowAddr) -> Result<()> {
        match addr {
            RowAddr::Data(r) => {
                let rows = self.rows.len();
                let dst = self
                    .rows
                    .get_mut(r)
                    .ok_or(DramError::RowOutOfRange { row: r, rows })?;
                dst.copy_from(&self.sense)?;
            }
            RowAddr::BGroup(b) => match b {
                BGroupRow::T0 => self.t[0].copy_from(&self.sense)?,
                BGroupRow::T1 => self.t[1].copy_from(&self.sense)?,
                BGroupRow::T2 => self.t[2].copy_from(&self.sense)?,
                BGroupRow::T3 => self.t[3].copy_from(&self.sense)?,
                BGroupRow::Dcc0 => self.dcc[0].copy_from(&self.sense)?,
                BGroupRow::Dcc1 => self.dcc[1].copy_from(&self.sense)?,
                // Driving the negated wordline stores the complement in the cell, so
                // that a subsequent activation of the true wordline reads back NOT(value).
                BGroupRow::Dcc0N => self.sense.not_into(&mut self.dcc[0])?,
                BGroupRow::Dcc1N => self.sense.not_into(&mut self.dcc[1])?,
                BGroupRow::C0 | BGroupRow::C1 => {
                    return Err(DramError::InvalidConfig(
                        "control rows C0/C1 are hard-wired and cannot be written".into(),
                    ))
                }
            },
        }
        Ok(())
    }

    /// Computes the bitwise majority of three B-group rows directly into the
    /// sense-amplifier row, resolving negated wordlines and constant control rows at the
    /// word level so no operand is ever materialized.
    fn tra_into_sense(&mut self, a: BGroupRow, b: BGroupRow, c: BGroupRow, fault_key: Option<u64>) {
        let Subarray {
            sense,
            t,
            dcc,
            c0,
            c1,
            faults,
            columns,
            ..
        } = self;
        // Each operand becomes (stored words, complement mask): negated wordlines drive
        // the complement, which a word-wise XOR with all-ones reproduces; the hard-wired
        // control rows are materialized, so one tight three-slice loop covers every case.
        let resolve = |row: BGroupRow| -> (&[u64], u64) {
            match row {
                BGroupRow::T0 => (t[0].words(), 0),
                BGroupRow::T1 => (t[1].words(), 0),
                BGroupRow::T2 => (t[2].words(), 0),
                BGroupRow::T3 => (t[3].words(), 0),
                BGroupRow::Dcc0 => (dcc[0].words(), 0),
                BGroupRow::Dcc1 => (dcc[1].words(), 0),
                BGroupRow::Dcc0N => (dcc[0].words(), u64::MAX),
                BGroupRow::Dcc1N => (dcc[1].words(), u64::MAX),
                BGroupRow::C0 => (c0.words(), 0),
                BGroupRow::C1 => (c1.words(), 0),
            }
        };
        let (wa, xa) = resolve(a);
        let (wb, xb) = resolve(b);
        let (wc, xc) = resolve(c);
        let out = sense.words_mut();
        // Every row in a subarray has the same word count; slicing all four to one
        // length lets the compiler drop bounds checks and vectorize the majority loop.
        let n = out.len();
        let (wa, wb, wc) = (&wa[..n], &wb[..n], &wc[..n]);
        for (i, w) in out.iter_mut().enumerate() {
            let (x, y, z) = (wa[i] ^ xa, wb[i] ^ xb, wc[i] ^ xc);
            *w = (x & y) | (y & z) | (x & z);
        }
        // Complemented operands set stray bits past the row length; re-mask the tail.
        sense.normalize();
        if let (Some(state), Some(key)) = (faults.as_mut(), fault_key) {
            // Marginality is judged on the *driven* values (complements applied), the
            // same 2-vs-1 worst case the variation model scores.
            state.corrupt_tra(key, sense.words_mut(), *columns, |col| {
                let (w, bit) = (col / 64, col % 64);
                let (x, y, z) = (wa[w] ^ xa, wb[w] ^ xb, wc[w] ^ xc);
                (((x ^ y) | (y ^ z)) >> bit) & 1 == 1
            });
            sense.normalize();
        }
    }

    /// Restores the TRA result latched in the sense amplifiers into the activated rows
    /// (hard-wired control rows keep their constant value).
    fn restore_tra_rows(&mut self, a: BGroupRow, b: BGroupRow, c: BGroupRow) -> Result<()> {
        for row in [a, b, c] {
            if !row.is_control() {
                self.restore(RowAddr::BGroup(row))?;
            }
        }
        Ok(())
    }

    /// Applies a compiled [`RowOpBlock`] — the fast path of compiled μProgram execution.
    ///
    /// `bases` supplies the base data row of each region the block addresses; the block's
    /// per-region extents are bounds-checked once up front, after which the specialized
    /// word-level loop runs with no per-command address resolution or trace recording.
    /// The block's pre-aggregated accounting is charged to the cumulative trace in one
    /// shot at the end; `with_history` additionally appends the per-command history so
    /// sampled subarrays keep full reconstructable traces.
    ///
    /// Applying a block compiled from a μProgram leaves the subarray's rows in exactly
    /// the state the interpreted command sequence produces, and self-contained traces
    /// built from the block's aggregate match interpreted local traces to the last bit
    /// (see [`crate::TraceAggregate`]).
    ///
    /// After warmup (trace cost table registered, history capacity reserved), applying a
    /// block without history performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] if `bases` has fewer entries than the block
    /// has regions, and [`DramError::RowOutOfRange`] if a region's rows fall outside the
    /// subarray. On error nothing is executed and no cost is charged.
    pub fn apply_block(
        &mut self,
        block: &RowOpBlock,
        bases: &[usize],
        with_history: bool,
    ) -> Result<()> {
        if bases.len() < block.regions() {
            return Err(DramError::InvalidConfig(format!(
                "{} region bases supplied for a {}-region block",
                bases.len(),
                block.regions()
            )));
        }
        let rows = self.rows.len();
        for (region, &extent) in block.region_extents().iter().enumerate() {
            let extent = extent as usize;
            if extent > 0 && bases[region] + extent > rows {
                return Err(DramError::RowOutOfRange {
                    row: bases[region] + extent - 1,
                    rows,
                });
            }
        }
        // Fault keys: the stream position every majority op would have had in the
        // interpreted path, recovered from the block's source-μProgram TRA ordinals.
        let fault_base = self.faults.as_ref().map(|s| s.counter());
        let maj_ordinals = block.maj_ordinals();
        let mut maj_index = 0usize;
        let next_fault_key = |index: &mut usize| -> Option<u64> {
            let key = fault_base.map(|base| base + u64::from(maj_ordinals[*index]));
            *index += 1;
            key
        };
        for op in block.ops() {
            match *op {
                RowOp::Copy { src, dst } => {
                    let (s, d) = (row_ref_phys(src, bases), row_ref_phys(dst, bases));
                    // Degenerate same-cell case (only reachable through overlapping
                    // region bases): restoring a row onto itself moves no data, exactly
                    // like the interpreted drive.
                    if s != d {
                        let (s, d) = self.phys_pair_mut(s, d);
                        d.copy_from(s).expect("subarray rows share one width");
                    }
                }
                RowOp::CopyInv { src, dst } => {
                    let (s, d) = (row_ref_phys(src, bases), row_ref_phys(dst, bases));
                    if s == d {
                        self.phys_mut(d).invert();
                    } else {
                        let (s, d) = self.phys_pair_mut(s, d);
                        s.not_into(d).expect("subarray rows share one width");
                    }
                }
                RowOp::Fill { dst, value } => self.phys_mut(row_ref_phys(dst, bases)).fill(value),
                RowOp::Invert { dst } => self.phys_mut(row_ref_phys(dst, bases)).invert(),
                RowOp::Nop => {}
                RowOp::MajFused { t, dst } => {
                    let dst_row = dst.map(|d| match row_ref_phys(d, bases) {
                        Phys::Data(r) => r,
                        _ => unreachable!("block validation restricts fused TRA dst to data rows"),
                    });
                    let key = next_fault_key(&mut maj_index);
                    self.fused_tra([t[0] as usize, t[1] as usize, t[2] as usize], dst_row, key);
                }
                RowOp::Maj { a, b, c, dst } => {
                    let key = next_fault_key(&mut maj_index);
                    self.tra_into_sense(a, b, c, key);
                    self.restore_tra_rows(a, b, c)
                        .expect("non-control B-group rows are always restorable");
                    if let Some(w) = dst {
                        match row_ref_phys(w.row, bases) {
                            Phys::Data(r) => {
                                if w.negated {
                                    self.sense.not_into(&mut self.rows[r])
                                } else {
                                    self.rows[r].copy_from(&self.sense)
                                }
                            }
                            Phys::T(i) => {
                                if w.negated {
                                    self.sense.not_into(&mut self.t[i])
                                } else {
                                    self.t[i].copy_from(&self.sense)
                                }
                            }
                            Phys::Dcc(i) => {
                                if w.negated {
                                    self.sense.not_into(&mut self.dcc[i])
                                } else {
                                    self.dcc[i].copy_from(&self.sense)
                                }
                            }
                            Phys::Const(_) => {
                                unreachable!("RowRef has no constant-row variant")
                            }
                        }
                        .expect("subarray rows share one width");
                    }
                }
                RowOp::MajDirect { srcs, dst } => {
                    // Each operand resolves to its stored words plus a complement
                    // mask (negated wordlines XOR with all-ones), exactly like the
                    // interpreted TRA resolve — one tight pass computes the
                    // (optionally complemented) majority into the sense row.
                    let key = next_fault_key(&mut maj_index);
                    let Subarray {
                        rows,
                        t,
                        dcc,
                        c0,
                        c1,
                        sense,
                        faults,
                        columns,
                        ..
                    } = &mut *self;
                    let resolve = |s: SrcRef| -> (&[u64], u64) {
                        match s {
                            SrcRef::Row { row, negated } => {
                                let words = match row_ref_phys(row, bases) {
                                    Phys::Data(r) => rows[r].words(),
                                    Phys::T(i) => t[i].words(),
                                    Phys::Dcc(i) => dcc[i].words(),
                                    Phys::Const(_) => {
                                        unreachable!("RowRef has no constant-row variant")
                                    }
                                };
                                (words, if negated { u64::MAX } else { 0 })
                            }
                            SrcRef::Const(false) => (c0.words(), 0),
                            SrcRef::Const(true) => (c1.words(), 0),
                        }
                    };
                    let (wa, xa) = resolve(srcs[0]);
                    let (wb, xb) = resolve(srcs[1]);
                    let (wc, xc) = resolve(srcs[2]);
                    // A negated destination wordline complements the stored value —
                    // folded into the same pass.
                    let xd = match dst {
                        Some(WriteRef { negated: true, .. }) => u64::MAX,
                        _ => 0,
                    };
                    let out = sense.words_mut();
                    let n = out.len();
                    let (wa, wb, wc) = (&wa[..n], &wb[..n], &wc[..n]);
                    for (i, w) in out.iter_mut().enumerate() {
                        let (x, y, z) = (wa[i] ^ xa, wb[i] ^ xb, wc[i] ^ xc);
                        *w = ((x & y) | (y & z) | (x & z)) ^ xd;
                    }
                    sense.normalize();
                    if let (Some(state), Some(key)) = (faults.as_mut(), key) {
                        // Flipping a bit of `maj ^ xd` equals flipping it before the
                        // destination complement, so injection commutes with `xd` and
                        // stays bit-compatible with the interpreted path. Marginality
                        // is judged on the driven (pre-`xd`) operand values.
                        state.corrupt_tra(key, sense.words_mut(), *columns, |col| {
                            let (w, bit) = (col / 64, col % 64);
                            let (x, y, z) = (wa[w] ^ xa, wb[w] ^ xb, wc[w] ^ xc);
                            (((x ^ y) | (y ^ z)) >> bit) & 1 == 1
                        });
                        sense.normalize();
                    }
                    if let Some(w) = dst {
                        // The sense row is not architecturally observable and no source
                        // ever names it, so "restoring" it into the destination cell is
                        // a constant-time row swap rather than a word copy.
                        let target = match row_ref_phys(w.row, bases) {
                            Phys::Data(r) => &mut rows[r],
                            Phys::T(i) => &mut t[i],
                            Phys::Dcc(i) => &mut dcc[i],
                            Phys::Const(_) => {
                                unreachable!("RowRef has no constant-row variant")
                            }
                        };
                        core::mem::swap(sense, target);
                    }
                }
            }
        }
        // Advance the fault stream past *every* source TRA — including ones the
        // compiler elided — so the stream position stays mode-independent.
        if let Some(state) = self.faults.as_mut() {
            state.advance(u64::from(block.tra_total()));
        }
        self.row_open = false;
        if with_history && !block.row_tags().is_empty() {
            // Resolve the block's row-address templates against this application's
            // bases so the retained history carries the same tags the interpreted
            // path records command by command; the on-the-fly iterator keeps the
            // warmed apply path allocation-free.
            self.trace.apply_aggregate_rows_with(
                block.aggregate(),
                block.row_tags().iter().map(|tag| match *tag {
                    RowTemplate::Fixed(t) => t,
                    RowTemplate::Data { region, offset } => {
                        rowtag::data(bases[region as usize] + offset as usize)
                    }
                }),
            );
        } else {
            self.trace.apply_aggregate(block.aggregate(), with_history);
        }
        Ok(())
    }

    /// Consumes the next interpreted-path fault key, or `None` when no fault stream is
    /// installed. Called once per executed TRA so the stream position always matches
    /// the μProgram TRA ordinal.
    fn next_fault_key(&mut self) -> Option<u64> {
        self.faults.as_mut().map(FaultState::take_key)
    }

    /// Installs (or clears, with `None`) this subarray's fault-injection stream.
    pub fn install_fault_state(&mut self, state: Option<FaultState>) {
        self.faults = state;
    }

    /// Bits flipped by fault injection in this subarray so far (0 with faults off).
    pub fn faults_injected(&self) -> u64 {
        self.faults.as_ref().map_or(0, FaultState::injected)
    }

    /// Snapshots every data row (the architecturally observable state; B-group
    /// temporaries are dead between commands). Guarded re-execution in `simdram-core`
    /// uses this with [`Subarray::restore_data_rows`] / [`Subarray::data_rows_equal`]
    /// to detect and recover injected faults; none of the three record commands.
    pub fn clone_data_rows(&self) -> Vec<BitRow> {
        self.rows.clone()
    }

    /// Restores a snapshot taken by [`Subarray::clone_data_rows`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a different geometry.
    pub fn restore_data_rows(&mut self, snapshot: &[BitRow]) {
        assert_eq!(
            snapshot.len(),
            self.rows.len(),
            "data-row snapshot geometry mismatch"
        );
        for (row, saved) in self.rows.iter_mut().zip(snapshot) {
            row.copy_from(saved).expect("subarray rows share one width");
        }
    }

    /// Compares every data row against a snapshot taken by
    /// [`Subarray::clone_data_rows`].
    pub fn data_rows_equal(&self, snapshot: &[BitRow]) -> bool {
        self.rows.as_slice() == snapshot
    }
}

/// The [`rowtag`] of a row address' first activation: data rows tag their index,
/// B-group rows their [`BGroupRow`] ordinal. Negated wordlines are distinct addresses
/// (distinct wordlines of one cell), so they tag their own ordinal.
fn tag_of_addr(addr: RowAddr) -> u32 {
    match addr {
        RowAddr::Data(r) => rowtag::data(r),
        RowAddr::BGroup(b) => rowtag::bgroup(b as usize),
    }
}

/// Resolves a pre-compiled row reference against the caller's region base table.
fn row_ref_phys(row: RowRef, bases: &[usize]) -> Phys {
    match row {
        RowRef::Data { region, offset } => Phys::Data(bases[region as usize] + offset as usize),
        RowRef::T(i) => Phys::T(i as usize),
        RowRef::Dcc(i) => Phys::Dcc(i as usize),
    }
}

/// The physical storage backing a row address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phys {
    Data(usize),
    T(usize),
    Dcc(usize),
    /// A hard-wired constant control row (`false` = C0, `true` = C1).
    Const(bool),
}

/// A resolved row address: its storage plus whether the wordline drives the complement.
#[derive(Debug, Clone, Copy)]
struct Driven {
    phys: Phys,
    negated: bool,
}

/// The `T`-row index of a designated TRA row, or `None` for every other B-group row.
fn t_index(row: BGroupRow) -> Option<usize> {
    match row {
        BGroupRow::T0 => Some(0),
        BGroupRow::T1 => Some(1),
        BGroupRow::T2 => Some(2),
        BGroupRow::T3 => Some(3),
        _ => None,
    }
}

/// Disjoint `(&rows[i], &mut rows[j])` borrows of two distinct rows of one slice.
fn split_pair(rows: &mut [BitRow], i: usize, j: usize) -> (&BitRow, &mut BitRow) {
    debug_assert_ne!(i, j);
    if i < j {
        let (lo, hi) = rows.split_at_mut(j);
        (&lo[i], &mut hi[0])
    } else {
        let (lo, hi) = rows.split_at_mut(i);
        (&hi[0], &mut lo[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandKind;

    fn small_subarray() -> Subarray {
        Subarray::new(&DramConfig::tiny())
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut sa = small_subarray();
        let pattern = BitRow::splat_word(0xAAAA_5555_0F0F_F0F0, 256);
        sa.write_row(7, &pattern);
        assert_eq!(sa.read_row(7), pattern);
        assert_eq!(sa.trace().count(CommandKind::Write), 1);
        assert_eq!(sa.trace().count(CommandKind::Read), 1);
    }

    #[test]
    fn trace_since_returns_only_new_commands() {
        let mut sa = small_subarray();
        sa.write_row(0, &BitRow::ones(256));
        let mark = sa.trace_mark();
        sa.aap(RowAddr::Data(0), RowAddr::Data(1)).unwrap();
        sa.aap(RowAddr::Data(1), RowAddr::Data(2)).unwrap();
        let local = sa.trace_since(mark);
        assert_eq!(local.len(), 2);
        assert_eq!(local.count(CommandKind::Write), 0);
        // The cumulative trace is untouched.
        assert_eq!(sa.trace().len(), 3);
    }

    #[test]
    fn out_of_range_rows_error() {
        let mut sa = small_subarray();
        let rows = sa.rows();
        assert!(sa.try_read_row(rows).is_err());
        assert!(sa.try_write_row(rows, &BitRow::zeros(256)).is_err());
        assert!(sa.aap(RowAddr::Data(rows + 1), RowAddr::Data(0)).is_err());
    }

    #[test]
    fn aap_copies_between_data_rows() {
        let mut sa = small_subarray();
        let pattern = BitRow::from_fn(256, |i| i % 7 == 0);
        sa.write_row(3, &pattern);
        sa.aap(RowAddr::Data(3), RowAddr::Data(9)).unwrap();
        assert_eq!(sa.peek(RowAddr::Data(9)).unwrap(), pattern);
        assert_eq!(sa.trace().count(CommandKind::ActivateActivatePrecharge), 1);
    }

    #[test]
    fn tra_computes_majority_and_restores_rows() {
        let mut sa = small_subarray();
        sa.poke(
            RowAddr::BGroup(BGroupRow::T0),
            &BitRow::splat_word(0b1111_0000, 256),
        )
        .unwrap();
        sa.poke(
            RowAddr::BGroup(BGroupRow::T1),
            &BitRow::splat_word(0b1100_1100, 256),
        )
        .unwrap();
        sa.poke(
            RowAddr::BGroup(BGroupRow::T2),
            &BitRow::splat_word(0b1010_1010, 256),
        )
        .unwrap();
        sa.ap_tra(BGroupRow::T0, BGroupRow::T1, BGroupRow::T2)
            .unwrap();
        let expected = 0b1110_1000u64;
        for row in [BGroupRow::T0, BGroupRow::T1, BGroupRow::T2] {
            assert_eq!(
                sa.peek(RowAddr::BGroup(row)).unwrap().word(0) & 0xFF,
                expected
            );
        }
        assert_eq!(sa.trace().count(CommandKind::TripleRowActivate), 1);
    }

    #[test]
    fn tra_requires_distinct_rows() {
        let mut sa = small_subarray();
        assert_eq!(
            sa.ap_tra(BGroupRow::T0, BGroupRow::T0, BGroupRow::T1),
            Err(DramError::DuplicateTraRow)
        );
    }

    #[test]
    fn dcc_negated_wordline_reads_complement() {
        let mut sa = small_subarray();
        let pattern = BitRow::from_fn(256, |i| i % 2 == 0);
        sa.write_row(0, &pattern);
        sa.aap(RowAddr::Data(0), RowAddr::BGroup(BGroupRow::Dcc0))
            .unwrap();
        sa.aap(RowAddr::BGroup(BGroupRow::Dcc0N), RowAddr::Data(1))
            .unwrap();
        assert_eq!(sa.peek(RowAddr::Data(1)).unwrap(), pattern.not());
    }

    #[test]
    fn not_row_convenience_matches_manual_sequence() {
        let mut sa = small_subarray();
        let pattern = BitRow::splat_word(0x0123_4567_89AB_CDEF, 256);
        sa.write_row(5, &pattern);
        sa.not_row(RowAddr::Data(5), RowAddr::Data(6)).unwrap();
        assert_eq!(sa.peek(RowAddr::Data(6)).unwrap(), pattern.not());
        // 2 AAPs for the NOT plus 1 host write.
        assert_eq!(sa.trace().count(CommandKind::ActivateActivatePrecharge), 2);
    }

    #[test]
    fn control_rows_cannot_be_written() {
        let mut sa = small_subarray();
        assert!(sa
            .aap(RowAddr::Data(0), RowAddr::BGroup(BGroupRow::C0))
            .is_err());
        assert!(sa
            .aap(RowAddr::Data(0), RowAddr::BGroup(BGroupRow::C1))
            .is_err());
    }

    #[test]
    fn and_or_via_control_rows() {
        let mut sa = small_subarray();
        let a = BitRow::splat_word(0b1100, 256);
        let b = BitRow::splat_word(0b1010, 256);
        sa.write_row(0, &a);
        sa.write_row(1, &b);
        sa.and_rows(RowAddr::Data(0), RowAddr::Data(1), RowAddr::Data(2))
            .unwrap();
        sa.or_rows(RowAddr::Data(0), RowAddr::Data(1), RowAddr::Data(3))
            .unwrap();
        assert_eq!(sa.peek(RowAddr::Data(2)).unwrap().word(0) & 0xF, 0b1000);
        assert_eq!(sa.peek(RowAddr::Data(3)).unwrap().word(0) & 0xF, 0b1110);
    }

    #[test]
    fn maj_rows_counts_four_aaps() {
        let mut sa = small_subarray();
        sa.write_row(0, &BitRow::ones(256));
        sa.write_row(1, &BitRow::zeros(256));
        sa.write_row(2, &BitRow::ones(256));
        sa.reset_trace();
        sa.maj_rows(
            RowAddr::Data(0),
            RowAddr::Data(1),
            RowAddr::Data(2),
            RowAddr::Data(3),
        )
        .unwrap();
        assert_eq!(sa.trace().count(CommandKind::ActivateActivatePrecharge), 4);
        assert_eq!(sa.peek(RowAddr::Data(3)).unwrap(), BitRow::ones(256));
    }

    #[test]
    fn ap_latches_sense_amplifiers_without_data_change() {
        let mut sa = small_subarray();
        let pattern = BitRow::splat_word(0xF0F0, 256);
        sa.write_row(4, &pattern);
        sa.ap(RowAddr::Data(4)).unwrap();
        assert_eq!(sa.peek(RowAddr::Data(4)).unwrap(), pattern);
        assert_eq!(sa.trace().count(CommandKind::ActivatePrecharge), 1);
    }

    #[test]
    fn poke_rejects_control_rows() {
        let mut sa = small_subarray();
        assert!(sa
            .poke(RowAddr::BGroup(BGroupRow::C0), &BitRow::zeros(256))
            .is_err());
    }

    #[test]
    fn apply_block_matches_the_interpreted_command_sequence() {
        use crate::command::CommandCosts;
        use crate::rowops::{RowOp, RowOpBlock, RowRef, RowTemplate};
        use crate::TraceAggregate;

        let config = DramConfig::tiny();
        let costs = CommandCosts::new(&config);
        // MAJ(r0, r1, r2) → r3 as a compiled block: three staging copies plus a fused
        // AAP-TRA, addressed relative to one data region based at row 0.
        let data = |offset: u32| RowRef::Data { region: 0, offset };
        let ops = vec![
            RowOp::Copy {
                src: data(0),
                dst: RowRef::T(0),
            },
            RowOp::Copy {
                src: data(1),
                dst: RowRef::T(1),
            },
            RowOp::Copy {
                src: data(2),
                dst: RowRef::T(2),
            },
            RowOp::MajFused {
                t: [0, 1, 2],
                dst: Some(data(3)),
            },
        ];
        let aggregate = TraceAggregate::from_commands(vec![
            costs.aap().clone(),
            costs.aap().clone(),
            costs.aap().clone(),
            costs.aap_tra().clone(),
        ]);
        // Row tags mirror the interpreted first activations: the three staged source
        // rows, then the T0/T1/T2 triple of the fused AAP-TRA.
        let tag = |offset: u32| RowTemplate::Data { region: 0, offset };
        let block = RowOpBlock::new(ops, 1, aggregate)
            .unwrap()
            .with_row_tags(vec![
                tag(0),
                tag(1),
                tag(2),
                RowTemplate::Fixed(rowtag::tra(
                    BGroupRow::T0 as usize,
                    BGroupRow::T1 as usize,
                    BGroupRow::T2 as usize,
                )),
            ])
            .unwrap();

        let mut interpreted = Subarray::new(&config);
        let mut compiled = Subarray::new(&config);
        for sa in [&mut interpreted, &mut compiled] {
            sa.write_row(0, &BitRow::splat_word(0b1100, 256));
            sa.write_row(1, &BitRow::splat_word(0b1010, 256));
            sa.write_row(2, &BitRow::splat_word(0b0110, 256));
        }
        interpreted
            .maj_rows(
                RowAddr::Data(0),
                RowAddr::Data(1),
                RowAddr::Data(2),
                RowAddr::Data(3),
            )
            .unwrap();
        compiled.apply_block(&block, &[0], true).unwrap();

        for row in 0..4 {
            assert_eq!(
                interpreted.peek(RowAddr::Data(row)).unwrap(),
                compiled.peek(RowAddr::Data(row)).unwrap()
            );
        }
        for b in BGroupRow::ALL {
            assert_eq!(
                interpreted.peek(RowAddr::BGroup(b)).unwrap(),
                compiled.peek(RowAddr::BGroup(b)).unwrap()
            );
        }
        // Same length, per-kind counts and bit-identical totals; with history applied,
        // the reconstructed command sequences match too.
        assert_eq!(compiled.trace().len(), interpreted.trace().len());
        assert_eq!(
            compiled.trace().kind_counts().collect::<Vec<_>>(),
            interpreted.trace().kind_counts().collect::<Vec<_>>()
        );
        let since_writes = |sa: &Subarray| sa.trace().since(3);
        assert_eq!(since_writes(&compiled), since_writes(&interpreted));
        // Without history, aggregates still accrue but nothing is reconstructable.
        let mut drained = Subarray::new(&config);
        drained.apply_block(&block, &[0], false).unwrap();
        assert_eq!(drained.trace().len(), 4);
        assert_eq!(drained.trace().history_len(), 0);

        // Region bounds are checked up front: a base pushing the extent past the last
        // row fails without executing anything.
        let rows = compiled.rows();
        assert!(matches!(
            compiled.apply_block(&block, &[rows - 2], false),
            Err(DramError::RowOutOfRange { .. })
        ));
        assert!(compiled.apply_block(&block, &[], false).is_err());
    }

    #[test]
    fn shorter_host_rows_are_zero_extended() {
        let mut sa = small_subarray();
        sa.write_row(0, &BitRow::ones(8));
        let row = sa.read_row(0);
        assert_eq!(row.len(), 256);
        assert_eq!(row.count_ones(), 8);
    }
}
