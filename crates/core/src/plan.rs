//! The deferred dataflow frontend: build–compile–execute plans.
//!
//! The eager [`crate::SimdramMachine`] API executes one bbop per call: every
//! `binary`/`unary` allocates a destination, expands one μProgram and runs one broadcast.
//! That mirrors how a host program would issue individual bbop instructions, but the
//! paper's framework separates *what* to compute (a program over SIMD vectors) from *how*
//! the control unit schedules μPrograms onto subarrays — and scheduling whole expressions
//! at once is what enables temporary reuse and multi-op broadcast batching.
//!
//! This module is that frontend:
//!
//! 1. **Build** — compose operations on typed [`Expr`] handles with a [`PlanBuilder`]
//!    (no DRAM commands are issued; the builder only grows a dataflow graph).
//! 2. **Compile** — [`PlanBuilder::compile`] performs dead-code elimination,
//!    common-subexpression sharing, liveness analysis (so temporaries reuse row extents)
//!    and groups steps into per-level broadcast **batches**.
//! 3. **Execute** — [`crate::SimdramMachine::run_plan`] binds the compiled [`Plan`] to
//!    physical rows and hands each batch to the broadcast executor as **one** fused
//!    broadcast, so the threaded policy overlaps every step of a batch across banks and
//!    the modeled broadcast count drops below op-by-op issue.
//!
//! The eager convenience methods ([`crate::SimdramMachine::binary`] and friends) are kept
//! as sugar over one-node plans.
//!
//! # Examples
//!
//! ```
//! use simdram_core::{PlanBuilder, SimdramConfig, SimdramMachine};
//!
//! let mut machine = SimdramMachine::new(SimdramConfig::functional_test())?;
//! let a = machine.alloc_and_write(8, &[1, 2, 3, 250])?;
//! let b = machine.alloc_and_write(8, &[10, 20, 30, 40])?;
//!
//! let mut s = PlanBuilder::new();
//! let (xa, xb) = (s.input(&a), s.input(&b));
//! let sum = s.add(xa, xb)?;
//! let bigger = s.max(sum, xa)?;
//! let out = s.materialize(bigger)?;
//! let plan = s.compile()?;
//!
//! let exec = machine.run_plan(&plan)?;
//! assert_eq!(machine.read(exec.output(out))?, vec![11, 22, 33, 250]);
//! assert!(exec.report().broadcasts <= exec.report().eager_broadcasts);
//! # Ok::<(), simdram_core::CoreError>(())
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use simdram_logic::{word_mask, Operation};

use crate::error::{CoreError, Result};
use crate::layout::SimdVector;
use crate::report::PlanReport;

/// Monotonic id source so [`Expr`] handles cannot be mixed up between builders.
static NEXT_BUILDER_ID: AtomicU64 = AtomicU64::new(0);

/// A typed handle to one node of a [`PlanBuilder`]'s dataflow graph.
///
/// Handles are small and `Copy`. They carry the node's element width and length so
/// expressions can be composed and shape-checked without consulting the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expr {
    builder: u64,
    node: usize,
    width: usize,
    len: usize,
}

impl Expr {
    /// Element width of the expression's value in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of elements the expression produces.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the expression produces no elements (never the case for
    /// builder-created expressions).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A handle to one materialized output of a compiled [`Plan`].
///
/// Obtained from [`PlanBuilder::materialize`]; after [`crate::SimdramMachine::run_plan`],
/// exchange it for the output's [`SimdVector`] with [`PlanExecution::output`]. The
/// handle remembers which builder it came from, so using it against another plan's
/// execution fails loudly instead of silently returning the wrong vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOutput {
    plan: u64,
    index: usize,
}

impl PlanOutput {
    /// Position of this output among the plan's materialized outputs — the index into
    /// [`PlanExecution::outputs`] (serving layers use it to key read-back host buffers).
    pub fn index(&self) -> usize {
        self.index
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum NodeKind {
    /// An existing machine vector read in place.
    Input,
    /// A constant broadcast into every element (row initialization from `C0`/`C1`).
    Constant(u64),
    /// A RowClone duplicate of another node (one AAP per bit-row).
    ///
    /// Inserted automatically when an operation's operands alias the same rows (e.g.
    /// `add(x, x)`, possibly created by subexpression sharing): the μProgram binding
    /// requires disjoint operand regions, so one side reads a copy.
    Copy(usize),
    /// One bbop operation over earlier nodes.
    Op {
        op: Operation,
        a: usize,
        b: Option<usize>,
        pred: Option<usize>,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    kind: NodeKind,
    /// For [`NodeKind::Input`], the vector being read. `None` otherwise.
    input: Option<SimdVector>,
    width: usize,
    len: usize,
}

/// Hash-consing key for common-subexpression sharing at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CseKey {
    Input(u64, usize, usize, usize),
    Constant(u64, usize, usize),
    Copy(usize),
    Op(Operation, usize, Option<usize>, Option<usize>),
}

/// Where a compiled node's result lives at run time.
#[derive(Debug, Clone)]
pub(crate) enum Storage {
    /// Inputs: read in place from the user's vector; never written by the plan.
    InPlace,
    /// A pooled temporary slot (row extent shared with other dead nodes).
    Slot(usize),
    /// A dedicated output allocation that survives the run.
    Output(usize),
    /// An existing vector supplied through [`PlanBuilder::store`].
    External(SimdVector),
}

/// One fused broadcast batch: every step in a batch executes back-to-back inside a
/// single broadcast kernel, per participating subarray.
///
/// Batches of one dataflow level but different element counts are independent of each
/// other; the scheduler groups them into one MIMD dispatch *window*
/// ([`Plan::window_count`]) so they share a single dispatch instead of serializing.
#[derive(Debug, Clone)]
pub(crate) struct Batch {
    /// Element count shared by every step of the batch (fixes the subarray coordinates).
    pub(crate) len: usize,
    /// Dataflow level shared by every step of the batch (windows group equal levels).
    pub(crate) level: usize,
    /// Node ids of the steps, in issue order.
    pub(crate) steps: Vec<usize>,
}

/// A compiled, machine-independent execution plan.
///
/// Produced by [`PlanBuilder::compile`]; executed by
/// [`crate::SimdramMachine::run_plan`]. The plan owns the optimized dataflow graph, the
/// temp-slot assignment and the broadcast batching, but no physical rows: binding to a
/// machine happens at run time, so one plan can be run repeatedly (or on several
/// machines with the same operand handles).
#[derive(Debug, Clone)]
pub struct Plan {
    /// Id of the builder that produced the plan (stamped into [`PlanOutput`] handles).
    builder_id: u64,
    nodes: Vec<Node>,
    storage: Vec<Storage>,
    /// Width (in rows) of every pooled temp slot.
    slot_widths: Vec<usize>,
    batches: Vec<Batch>,
    /// MIMD dispatch windows: each range covers the consecutive batches of one dataflow
    /// level (batches are level-ordered). All batches of a window are mutually
    /// independent and issue inside ONE dispatch.
    windows: Vec<std::ops::Range<usize>>,
    /// Node id per materialized output, indexed by [`PlanOutput`].
    outputs: Vec<usize>,
}

impl Plan {
    /// Number of materialized outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Number of nodes retained after dead-code elimination and subexpression sharing
    /// (inputs included).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of executable steps (operations plus constant broadcasts).
    pub fn step_count(&self) -> usize {
        self.batches.iter().map(|b| b.steps.len()).sum()
    }

    /// Number of bbop operation steps (what the eager API would have issued as
    /// `execute` calls).
    pub fn op_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Op { .. }))
            .count()
    }

    /// Number of fused broadcast batches the plan issues.
    pub fn batch_count(&self) -> usize {
        self.batches.len()
    }

    /// Number of MIMD dispatch windows the plan issues: one per dataflow level that has
    /// any executable step. Always ≤ [`Plan::batch_count`]; strictly smaller exactly
    /// when some level holds independent steps of *different* element counts — those
    /// batches share one heterogeneous dispatch instead of serializing.
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// Number of windows that are genuinely MIMD, i.e. co-issue ≥ 2 batches with
    /// different lane counts in one dispatch.
    pub fn mixed_window_count(&self) -> usize {
        self.windows.iter().filter(|w| w.len() > 1).count()
    }

    /// Total data rows occupied by the pooled temporaries, after liveness-driven reuse.
    ///
    /// Eager execution allocates a fresh destination per operation; a compiled plan
    /// recycles extents as soon as their last reader has executed, so this is never
    /// larger than the eager footprint for the same expression.
    pub fn temp_rows(&self) -> usize {
        self.slot_widths.iter().sum()
    }

    /// The `(operation, operand width)` pairs whose μPrograms the plan needs, in step
    /// order (duplicates included). The machine hands this to the μProgram library's
    /// compile entry point before the first batch runs.
    pub fn programs_needed(&self) -> impl Iterator<Item = (Operation, usize)> + '_ {
        self.batches
            .iter()
            .flat_map(|b| b.steps.iter())
            .filter_map(|&id| match self.nodes[id].kind {
                NodeKind::Op { op, a, .. } => Some((op, self.nodes[a].width)),
                _ => None,
            })
    }

    /// The widest element count any single node computes over.
    ///
    /// This is the plan's lane demand: a placement must provide at least
    /// `max_elements().div_ceil(lanes_per_subarray)` subarray chunks
    /// (see [`subarrays_needed`](Self::subarrays_needed)).
    pub fn max_elements(&self) -> usize {
        self.batches.iter().map(|b| b.len).max().unwrap_or(0)
    }

    /// Number of subarray chunks the plan needs on a machine whose subarrays expose
    /// `lanes_per_subarray` lanes each — the minimum size for a
    /// [`Reservation`](crate::machine::Reservation) that can host this plan.
    pub fn subarrays_needed(&self, lanes_per_subarray: usize) -> usize {
        self.batches
            .iter()
            .map(|b| b.len.div_ceil(lanes_per_subarray).max(1))
            .max()
            .unwrap_or(1)
    }

    /// The machine-resident input vectors the plan reads (captured by
    /// [`PlanBuilder::input`]), in node order.
    pub fn input_vectors(&self) -> impl Iterator<Item = SimdVector> + '_ {
        self.nodes.iter().filter_map(|n| n.input)
    }

    pub(crate) fn builder_id(&self) -> u64 {
        self.builder_id
    }

    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub(crate) fn node(&self, id: usize) -> &Node {
        &self.nodes[id]
    }

    pub(crate) fn storage_of(&self, id: usize) -> &Storage {
        &self.storage[id]
    }

    pub(crate) fn slot_widths(&self) -> &[usize] {
        &self.slot_widths
    }

    pub(crate) fn batches(&self) -> &[Batch] {
        &self.batches
    }

    pub(crate) fn windows(&self) -> &[std::ops::Range<usize>] {
        &self.windows
    }

    pub(crate) fn output_nodes(&self) -> &[usize] {
        &self.outputs
    }
}

impl Node {
    pub(crate) fn kind_op(&self) -> Option<(Operation, usize, Option<usize>, Option<usize>)> {
        match self.kind {
            NodeKind::Op { op, a, b, pred } => Some((op, a, b, pred)),
            _ => None,
        }
    }

    pub(crate) fn kind_constant(&self) -> Option<u64> {
        match self.kind {
            NodeKind::Constant(value) => Some(value),
            _ => None,
        }
    }

    pub(crate) fn kind_copy(&self) -> Option<usize> {
        match self.kind {
            NodeKind::Copy(src) => Some(src),
            _ => None,
        }
    }

    pub(crate) fn input_vector(&self) -> Option<SimdVector> {
        self.input
    }

    pub(crate) fn width(&self) -> usize {
        self.width
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// The result of running a [`Plan`]: the materialized output vectors plus the plan-level
/// cost accounting.
///
/// Output vectors are owned by the caller — free them with
/// [`crate::SimdramMachine::free`] when no longer needed. All pooled temporaries were
/// already released when `run_plan` returned.
#[derive(Debug, Clone)]
pub struct PlanExecution {
    plan_id: u64,
    outputs: Vec<SimdVector>,
    report: PlanReport,
}

impl PlanExecution {
    pub(crate) fn new(plan_id: u64, outputs: Vec<SimdVector>, report: PlanReport) -> Self {
        PlanExecution {
            plan_id,
            outputs,
            report,
        }
    }

    /// The vector materialized for `handle`.
    ///
    /// # Panics
    ///
    /// Panics if `handle` was obtained from a different builder's plan.
    pub fn output(&self, handle: PlanOutput) -> &SimdVector {
        assert_eq!(
            handle.plan, self.plan_id,
            "PlanOutput handle belongs to a different plan"
        );
        &self.outputs[handle.index]
    }

    /// All materialized outputs, in [`PlanBuilder::materialize`] order.
    pub fn outputs(&self) -> &[SimdVector] {
        &self.outputs
    }

    /// The plan-level execution report (fused broadcast count, latency, energy, and the
    /// per-step [`crate::ExecutionReport`]s).
    pub fn report(&self) -> &PlanReport {
        &self.report
    }

    /// Consumes the execution, returning the outputs and the report.
    pub fn into_parts(self) -> (Vec<SimdVector>, PlanReport) {
        (self.outputs, self.report)
    }
}

/// Builds a lazy dataflow graph over SIMD vectors, then compiles it into a [`Plan`].
///
/// Also usable under the name [`Session`]. No DRAM work happens while building; every
/// method only grows (and shape-checks) the graph. Identical subexpressions are shared
/// as they are built, and anything not reachable from a materialized or stored node is
/// dropped by [`PlanBuilder::compile`].
#[derive(Debug)]
pub struct PlanBuilder {
    id: u64,
    nodes: Vec<Node>,
    cse: HashMap<CseKey, usize>,
    /// node id → output index, for materialized nodes.
    materialized: HashMap<usize, usize>,
    outputs: Vec<usize>,
    /// node id → external destination, for stored nodes.
    stored: HashMap<usize, SimdVector>,
}

/// Session-style alias for [`PlanBuilder`], matching the build–compile–execute
/// terminology used in the module docs.
pub type Session = PlanBuilder;

impl Default for PlanBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        PlanBuilder {
            id: NEXT_BUILDER_ID.fetch_add(1, Ordering::Relaxed),
            nodes: Vec::new(),
            cse: HashMap::new(),
            materialized: HashMap::new(),
            outputs: Vec::new(),
            stored: HashMap::new(),
        }
    }

    fn expr(&self, node: usize) -> Expr {
        Expr {
            builder: self.id,
            node,
            width: self.nodes[node].width,
            len: self.nodes[node].len,
        }
    }

    fn intern(&mut self, key: CseKey, node: Node) -> Expr {
        if let Some(&existing) = self.cse.get(&key) {
            return self.expr(existing);
        }
        let id = self.nodes.len();
        self.nodes.push(node);
        self.cse.insert(key, id);
        self.expr(id)
    }

    fn check(&self, e: Expr) -> Result<usize> {
        if e.builder != self.id || e.node >= self.nodes.len() {
            return Err(CoreError::Shape(
                "Expr belongs to a different PlanBuilder".into(),
            ));
        }
        Ok(e.node)
    }

    /// Exposes an existing machine vector to the plan. The vector is read in place; the
    /// plan never writes to it. Calling `input` twice with the same vector returns the
    /// same node.
    pub fn input(&mut self, vector: &SimdVector) -> Expr {
        let key = CseKey::Input(vector.id(), vector.base_row(), vector.width(), vector.len());
        self.intern(
            key,
            Node {
                kind: NodeKind::Input,
                input: Some(*vector),
                width: vector.width(),
                len: vector.len(),
            },
        )
    }

    /// A vector of `len` elements of `width` bits, each holding `value` (broadcast with
    /// row initialization from the control rows at run time). Identical constants are
    /// shared.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for invalid widths or an empty length.
    pub fn constant(&mut self, width: usize, len: usize, value: u64) -> Result<Expr> {
        if width == 0 || width > 64 {
            return Err(CoreError::Shape(format!(
                "element width must be in 1..=64, got {width}"
            )));
        }
        if len == 0 {
            return Err(CoreError::Shape(
                "cannot build an empty constant vector".into(),
            ));
        }
        let masked = value & word_mask(width);
        let key = CseKey::Constant(masked, width, len);
        Ok(self.intern(
            key,
            Node {
                kind: NodeKind::Constant(masked),
                input: None,
                width,
                len,
            },
        ))
    }

    /// Applies `op` to the given operands, returning the result expression.
    ///
    /// This is the generic entry point behind the [`PlanBuilder::add`]-style sugar;
    /// operand shapes are validated exactly like the eager
    /// [`crate::SimdramMachine::execute`] path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for operand/predicate mismatches.
    pub fn apply(
        &mut self,
        op: Operation,
        a: Expr,
        b: Option<Expr>,
        pred: Option<Expr>,
    ) -> Result<Expr> {
        let a_id = self.check(a)?;
        let b_id = match (op.uses_second_operand(), b) {
            (true, Some(b)) => {
                if b.width() != a.width() {
                    return Err(CoreError::Shape(format!(
                        "operand widths differ: A is {} bits, B is {} bits",
                        a.width(),
                        b.width()
                    )));
                }
                if b.len() != a.len() {
                    return Err(CoreError::Shape(format!(
                        "operand lengths differ: A has {} elements, B has {}",
                        a.len(),
                        b.len()
                    )));
                }
                Some(self.check(b)?)
            }
            (true, None) => {
                return Err(CoreError::Shape(format!(
                    "{op} requires a second source operand"
                )))
            }
            (false, Some(_)) => {
                return Err(CoreError::Shape(format!(
                    "{op} takes a single source operand but two were supplied"
                )))
            }
            (false, None) => None,
        };
        let pred_id = match (op.uses_predicate(), pred) {
            (true, Some(p)) => {
                if p.width() != 1 {
                    return Err(CoreError::Shape(format!(
                        "predicate must be 1 bit wide, got {} bits",
                        p.width()
                    )));
                }
                if p.len() != a.len() {
                    return Err(CoreError::Shape(format!(
                        "predicate length {} does not match operand length {}",
                        p.len(),
                        a.len()
                    )));
                }
                Some(self.check(p)?)
            }
            (true, None) => {
                return Err(CoreError::Shape(format!(
                    "{op} requires a 1-bit predicate vector"
                )))
            }
            (false, Some(_)) => {
                return Err(CoreError::Shape(format!(
                    "{op} is not a predicated operation"
                )))
            }
            (false, None) => None,
        };
        // The μProgram binding requires disjoint operand row regions, so when two
        // operands resolve to the same node (written directly, or merged by
        // subexpression sharing) one side reads an automatically inserted RowClone copy.
        let b_id = match b_id {
            Some(b) if b == a_id => Some(self.copy_of(b)),
            other => other,
        };
        let pred_id = match pred_id {
            Some(p) if p == a_id || Some(p) == b_id => {
                let mut copy = self.copy_of(p);
                if Some(copy) == b_id {
                    // a, b and pred were all one node: b already took the shared copy,
                    // so the predicate reads a copy of the copy.
                    copy = self.copy_of(copy);
                }
                Some(copy)
            }
            other => other,
        };
        let key = CseKey::Op(op, a_id, b_id, pred_id);
        Ok(self.intern(
            key,
            Node {
                kind: NodeKind::Op {
                    op,
                    a: a_id,
                    b: b_id,
                    pred: pred_id,
                },
                input: None,
                width: op.output_width(a.width()),
                len: a.len(),
            },
        ))
    }

    /// Returns (creating if needed) the RowClone-copy node of `src`; one copy is shared
    /// by every operation that needs `src` de-aliased.
    fn copy_of(&mut self, src: usize) -> usize {
        let width = self.nodes[src].width;
        let len = self.nodes[src].len;
        self.intern(
            CseKey::Copy(src),
            Node {
                kind: NodeKind::Copy(src),
                input: None,
                width,
                len,
            },
        )
        .node
    }

    /// A RowClone copy of `src` — the step [`PlanBuilder::apply`] inserts to de-alias
    /// `add(x, x)`, exposed for the eager [`crate::SimdramMachine::copy`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] when `src` belongs to another builder.
    pub(crate) fn copy(&mut self, src: Expr) -> Result<Expr> {
        let src = self.check(src)?;
        let node = self.copy_of(src);
        Ok(self.expr(node))
    }

    /// Two-operand operation sugar over [`PlanBuilder::apply`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for operand mismatches.
    pub fn binary(&mut self, op: Operation, a: Expr, b: Expr) -> Result<Expr> {
        self.apply(op, a, Some(b), None)
    }

    /// Single-operand operation sugar over [`PlanBuilder::apply`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for operand mismatches.
    pub fn unary(&mut self, op: Operation, a: Expr) -> Result<Expr> {
        self.apply(op, a, None, None)
    }

    /// `a + b` (mod 2^width).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for operand mismatches.
    pub fn add(&mut self, a: Expr, b: Expr) -> Result<Expr> {
        self.binary(Operation::Add, a, b)
    }

    /// `a - b` (mod 2^width).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for operand mismatches.
    pub fn sub(&mut self, a: Expr, b: Expr) -> Result<Expr> {
        self.binary(Operation::Sub, a, b)
    }

    /// `a × b` (low `width` bits).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for operand mismatches.
    pub fn mul(&mut self, a: Expr, b: Expr) -> Result<Expr> {
        self.binary(Operation::Mul, a, b)
    }

    /// Unsigned `min(a, b)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for operand mismatches.
    pub fn min(&mut self, a: Expr, b: Expr) -> Result<Expr> {
        self.binary(Operation::Min, a, b)
    }

    /// Unsigned `max(a, b)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for operand mismatches.
    pub fn max(&mut self, a: Expr, b: Expr) -> Result<Expr> {
        self.binary(Operation::Max, a, b)
    }

    /// Unsigned `a > b` (1-bit result).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for operand mismatches.
    pub fn greater(&mut self, a: Expr, b: Expr) -> Result<Expr> {
        self.binary(Operation::Greater, a, b)
    }

    /// Unsigned `a >= b` (1-bit result).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for operand mismatches.
    pub fn greater_equal(&mut self, a: Expr, b: Expr) -> Result<Expr> {
        self.binary(Operation::GreaterEqual, a, b)
    }

    /// Two's-complement `|a|`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for operand mismatches.
    pub fn abs(&mut self, a: Expr) -> Result<Expr> {
        self.unary(Operation::Abs, a)
    }

    /// Predicated select: `pred ? a : b` (SIMDRAM's if-then-else).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for operand/predicate mismatches.
    pub fn select(&mut self, pred: Expr, a: Expr, b: Expr) -> Result<Expr> {
        self.apply(Operation::IfElse, a, Some(b), Some(pred))
    }

    /// Marks `expr` as a plan output: at run time a fresh vector is allocated for it and
    /// returned through [`PlanExecution::output`]. Materializing the same expression
    /// twice returns the same handle.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] when `expr` is a plain input (nothing is computed —
    /// read the original vector, or copy it with [`crate::SimdramMachine::copy`]) or
    /// already bound to an external destination via [`PlanBuilder::store`].
    pub fn materialize(&mut self, expr: Expr) -> Result<PlanOutput> {
        let node = self.check(expr)?;
        if matches!(self.nodes[node].kind, NodeKind::Input) {
            return Err(CoreError::Shape(
                "cannot materialize a plain input expression: it computes nothing".into(),
            ));
        }
        if self.stored.contains_key(&node) {
            return Err(CoreError::Shape(
                "expression is already bound to an external destination".into(),
            ));
        }
        if let Some(&index) = self.materialized.get(&node) {
            return Ok(PlanOutput {
                plan: self.id,
                index,
            });
        }
        let index = self.outputs.len();
        self.outputs.push(node);
        self.materialized.insert(node, index);
        Ok(PlanOutput {
            plan: self.id,
            index,
        })
    }

    /// Binds `expr`'s result to an existing vector instead of a fresh allocation (the
    /// eager `execute`-into-destination pattern).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] when the destination shape does not match, when
    /// `expr` is a plain input, or when the expression already has a destination.
    pub fn store(&mut self, expr: Expr, dst: &SimdVector) -> Result<()> {
        let node = self.check(expr)?;
        if matches!(self.nodes[node].kind, NodeKind::Input) {
            return Err(CoreError::Shape(
                "cannot store a plain input expression: it computes nothing".into(),
            ));
        }
        if dst.width() != expr.width() {
            return Err(CoreError::Shape(format!(
                "destination width {} does not match the expression's output width {}",
                dst.width(),
                expr.width()
            )));
        }
        if dst.len() < expr.len() {
            return Err(CoreError::Shape(format!(
                "destination holds {} elements but {} are being produced",
                dst.len(),
                expr.len()
            )));
        }
        if self.materialized.contains_key(&node) || self.stored.contains_key(&node) {
            return Err(CoreError::Shape(
                "expression already has a destination".into(),
            ));
        }
        self.stored.insert(node, *dst);
        Ok(())
    }

    /// Compiles the graph into a [`Plan`]: dead code is eliminated, shared
    /// subexpressions are already merged (hash-consing at build time), temporaries are
    /// assigned to pooled row slots by liveness, and steps are grouped into fused
    /// broadcast batches by dataflow level.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] if nothing was materialized or stored.
    pub fn compile(self) -> Result<Plan> {
        if self.outputs.is_empty() && self.stored.is_empty() {
            return Err(CoreError::Shape(
                "plan has no outputs: materialize or store at least one expression".into(),
            ));
        }

        // --- Dead-code elimination: keep only nodes reachable from a destination.
        let mut live = vec![false; self.nodes.len()];
        let mut work: Vec<usize> = self
            .outputs
            .iter()
            .copied()
            .chain(self.stored.keys().copied())
            .collect();
        while let Some(id) = work.pop() {
            if std::mem::replace(&mut live[id], true) {
                continue;
            }
            match self.nodes[id].kind {
                NodeKind::Op { a, b, pred, .. } => {
                    work.push(a);
                    work.extend(b);
                    work.extend(pred);
                }
                NodeKind::Copy(src) => work.push(src),
                NodeKind::Input | NodeKind::Constant(_) => {}
            }
        }

        // --- Compact to new ids (operands always precede users, preserving topo order).
        let mut remap = vec![usize::MAX; self.nodes.len()];
        let mut nodes: Vec<Node> = Vec::new();
        for (id, node) in self.nodes.into_iter().enumerate() {
            if !live[id] {
                continue;
            }
            let mut node = node;
            match node.kind {
                NodeKind::Op {
                    ref mut a,
                    ref mut b,
                    ref mut pred,
                    ..
                } => {
                    *a = remap[*a];
                    if let Some(b) = b.as_mut() {
                        *b = remap[*b];
                    }
                    if let Some(p) = pred.as_mut() {
                        *p = remap[*p];
                    }
                }
                NodeKind::Copy(ref mut src) => *src = remap[*src],
                NodeKind::Input | NodeKind::Constant(_) => {}
            }
            remap[id] = nodes.len();
            nodes.push(node);
        }
        let outputs: Vec<usize> = self.outputs.iter().map(|&id| remap[id]).collect();
        let stored: HashMap<usize, SimdVector> = self
            .stored
            .iter()
            .map(|(&id, &dst)| (remap[id], dst))
            .collect();
        let materialized: HashMap<usize, usize> = outputs
            .iter()
            .enumerate()
            .map(|(index, &id)| (id, index))
            .collect();

        // --- Destination aliasing: the scheduler orders steps by dataflow level only,
        // so a stored destination overlapping a live input's rows could be clobbered
        // before (or while) other steps still read that input. Reject row overlap
        // between external destinations and retained inputs, and between two external
        // destinations, up front.
        let overlaps = |a: &SimdVector, b: &SimdVector| {
            a.base_row() < b.base_row() + b.width() && b.base_row() < a.base_row() + a.width()
        };
        let externals: Vec<&SimdVector> = stored.values().collect();
        for dst in &externals {
            for node in &nodes {
                if let Some(input) = node.input {
                    if overlaps(dst, &input) {
                        return Err(CoreError::Shape(format!(
                            "stored destination rows {}..{} overlap input rows {}..{}: \
                             a plan may not write over rows it reads",
                            dst.base_row(),
                            dst.base_row() + dst.width(),
                            input.base_row(),
                            input.base_row() + input.width()
                        )));
                    }
                }
            }
        }
        for (i, a) in externals.iter().enumerate() {
            for b in externals.iter().skip(i + 1) {
                if overlaps(a, b) {
                    return Err(CoreError::Shape(format!(
                        "two stored destinations overlap (rows {}..{} and {}..{})",
                        a.base_row(),
                        a.base_row() + a.width(),
                        b.base_row(),
                        b.base_row() + b.width()
                    )));
                }
            }
        }

        // --- Dataflow levels: inputs and constants are ready at level 0; an operation
        // runs one level after its latest operand.
        let mut level = vec![0usize; nodes.len()];
        for id in 0..nodes.len() {
            match nodes[id].kind {
                NodeKind::Op { a, b, pred, .. } => {
                    let mut l = level[a];
                    if let Some(b) = b {
                        l = l.max(level[b]);
                    }
                    if let Some(p) = pred {
                        l = l.max(level[p]);
                    }
                    level[id] = l + 1;
                }
                NodeKind::Copy(src) => level[id] = level[src] + 1,
                NodeKind::Input | NodeKind::Constant(_) => {}
            }
        }

        // --- Liveness: a temporary dies after the level of its last reader, and its
        // slot becomes reusable from the *next* level on (steps of one level run inside
        // one fused broadcast, so same-level reuse is never allowed).
        let mut death = vec![0usize; nodes.len()];
        for id in 0..nodes.len() {
            match nodes[id].kind {
                NodeKind::Op { a, b, pred, .. } => {
                    for operand in [Some(a), b, pred].into_iter().flatten() {
                        death[operand] = death[operand].max(level[id]);
                    }
                }
                NodeKind::Copy(src) => death[src] = death[src].max(level[id]),
                NodeKind::Input | NodeKind::Constant(_) => {}
            }
        }

        // --- Slot assignment, walking levels in order.
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by_key(|&id| (level[id], id));
        let mut storage: Vec<Storage> = vec![Storage::InPlace; nodes.len()];
        let mut slot_widths: Vec<usize> = Vec::new();
        let mut free_by_width: HashMap<usize, Vec<usize>> = HashMap::new();
        // (death level, slot, width) of live pooled temporaries.
        let mut pending: Vec<(usize, usize, usize)> = Vec::new();
        let mut current_level = 0usize;
        for &id in &order {
            if level[id] > current_level {
                current_level = level[id];
                pending.retain(|&(dies, slot, width)| {
                    if dies < current_level {
                        free_by_width.entry(width).or_default().push(slot);
                        false
                    } else {
                        true
                    }
                });
            }
            match nodes[id].kind {
                NodeKind::Input => {}
                NodeKind::Constant(_) | NodeKind::Copy(_) | NodeKind::Op { .. } => {
                    if let Some(&index) = materialized.get(&id) {
                        storage[id] = Storage::Output(index);
                    } else if let Some(dst) = stored.get(&id) {
                        storage[id] = Storage::External(*dst);
                    } else {
                        let width = nodes[id].width;
                        let slot = match free_by_width.entry(width).or_default().pop() {
                            Some(slot) => slot,
                            None => {
                                slot_widths.push(width);
                                slot_widths.len() - 1
                            }
                        };
                        storage[id] = Storage::Slot(slot);
                        pending.push((death[id], slot, width));
                    }
                }
            }
        }

        // --- Batching: steps of one level with one element count fuse into a single
        // broadcast (identical subarray coordinates on any machine). The walk follows
        // `order` (sorted by level), so batches come out level-ordered.
        let mut batches: Vec<Batch> = Vec::new();
        let mut batch_index: HashMap<(usize, usize), usize> = HashMap::new();
        for &id in &order {
            if matches!(nodes[id].kind, NodeKind::Input) {
                continue;
            }
            let key = (level[id], nodes[id].len);
            let index = *batch_index.entry(key).or_insert_with(|| {
                batches.push(Batch {
                    len: nodes[id].len,
                    level: level[id],
                    steps: Vec::new(),
                });
                batches.len() - 1
            });
            batches[index].steps.push(id);
        }

        // --- MIMD windows: consecutive batches of one level are mutually independent
        // (same-level steps never read each other), so they co-issue as ONE
        // heterogeneous dispatch. With uniform element counts every window holds
        // exactly one batch and the schedule is identical to the pre-window one.
        let mut windows: Vec<std::ops::Range<usize>> = Vec::new();
        for (index, batch) in batches.iter().enumerate() {
            match windows.last_mut() {
                Some(window) if batches[window.start].level == batch.level => {
                    window.end = index + 1;
                }
                _ => windows.push(index..index + 1),
            }
        }

        Ok(Plan {
            builder_id: self.id,
            nodes,
            storage,
            slot_widths,
            batches,
            windows,
            outputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vector(id: u64, base: usize, width: usize, len: usize) -> SimdVector {
        SimdVector::new(id, base, width, len)
    }

    fn builder_with_inputs() -> (PlanBuilder, Expr, Expr) {
        let mut b = PlanBuilder::new();
        let a = b.input(&vector(1, 0, 8, 100));
        let c = b.input(&vector(2, 8, 8, 100));
        (b, a, c)
    }

    #[test]
    fn common_subexpressions_are_shared() {
        let (mut b, x, y) = builder_with_inputs();
        let s1 = b.add(x, y).unwrap();
        let s2 = b.add(x, y).unwrap();
        assert_eq!(s1, s2);
        let c1 = b.constant(8, 100, 0x1FF).unwrap();
        let c2 = b.constant(8, 100, 0xFF).unwrap(); // masked to the same 8-bit value
        assert_eq!(c1, c2);
        // Same vector passed twice is one input node.
        let again = b.input(&vector(1, 0, 8, 100));
        assert_eq!(again, x);
    }

    #[test]
    fn dead_code_is_eliminated() {
        let (mut b, x, y) = builder_with_inputs();
        let used = b.add(x, y).unwrap();
        let _unused = b.mul(x, y).unwrap();
        let _unused_const = b.constant(8, 100, 7).unwrap();
        b.materialize(used).unwrap();
        let plan = b.compile().unwrap();
        // 2 inputs + 1 op: the unused multiply and constant are gone.
        assert_eq!(plan.node_count(), 3);
        assert_eq!(plan.op_count(), 1);
        assert_eq!(plan.step_count(), 1);
    }

    #[test]
    fn shape_mismatches_are_rejected_at_build_time() {
        let mut b = PlanBuilder::new();
        let narrow = b.input(&vector(1, 0, 8, 10));
        let wide = b.input(&vector(2, 8, 16, 10));
        let short = b.input(&vector(3, 24, 8, 5));
        assert!(matches!(b.add(narrow, wide), Err(CoreError::Shape(_))));
        assert!(matches!(b.add(narrow, short), Err(CoreError::Shape(_))));
        assert!(matches!(
            b.apply(Operation::Add, narrow, None, None),
            Err(CoreError::Shape(_))
        ));
        assert!(matches!(
            b.apply(Operation::Abs, narrow, Some(narrow), None),
            Err(CoreError::Shape(_))
        ));
        // Predicates must be 1-bit and of matching length.
        assert!(matches!(
            b.select(narrow, narrow, narrow),
            Err(CoreError::Shape(_))
        ));
        assert!(matches!(b.constant(0, 10, 1), Err(CoreError::Shape(_))));
        assert!(matches!(b.constant(8, 0, 1), Err(CoreError::Shape(_))));
    }

    #[test]
    fn exprs_cannot_cross_builders() {
        let (mut b, x, _) = builder_with_inputs();
        let (mut other, foreign, _) = builder_with_inputs();
        assert!(matches!(b.add(x, foreign), Err(CoreError::Shape(_))));
        let theirs = other.add(foreign, foreign).unwrap();
        assert!(matches!(b.materialize(theirs), Err(CoreError::Shape(_))));
    }

    #[test]
    fn plans_need_an_output() {
        let (mut b, x, y) = builder_with_inputs();
        b.add(x, y).unwrap();
        assert!(matches!(b.compile(), Err(CoreError::Shape(_))));
    }

    #[test]
    fn inputs_cannot_be_materialized_or_stored() {
        let (mut b, x, _) = builder_with_inputs();
        assert!(matches!(b.materialize(x), Err(CoreError::Shape(_))));
        let dst = vector(9, 32, 8, 100);
        assert!(matches!(b.store(x, &dst), Err(CoreError::Shape(_))));
    }

    #[test]
    fn store_validates_destination_shape_and_uniqueness() {
        let (mut b, x, y) = builder_with_inputs();
        let sum = b.add(x, y).unwrap();
        let wrong_width = vector(9, 32, 16, 100);
        assert!(matches!(
            b.store(sum, &wrong_width),
            Err(CoreError::Shape(_))
        ));
        let too_short = vector(9, 32, 8, 10);
        assert!(matches!(b.store(sum, &too_short), Err(CoreError::Shape(_))));
        let dst = vector(9, 32, 8, 100);
        b.store(sum, &dst).unwrap();
        assert!(matches!(b.store(sum, &dst), Err(CoreError::Shape(_))));
        assert!(matches!(b.materialize(sum), Err(CoreError::Shape(_))));
        let plan = b.compile().unwrap();
        assert_eq!(plan.output_count(), 0);
        assert_eq!(plan.step_count(), 1);
    }

    #[test]
    fn stored_destinations_may_not_alias_plan_inputs_or_each_other() {
        // Writing over rows the plan still reads would be reordered freely by the
        // level scheduler — rejected at compile time.
        let (mut b, x, y) = builder_with_inputs();
        let sum = b.add(x, y).unwrap();
        let prod = b.mul(x, y).unwrap();
        b.materialize(prod).unwrap();
        let aliases_x = vector(9, 4, 8, 100); // overlaps input x (rows 0..8)
        b.store(sum, &aliases_x).unwrap();
        assert!(matches!(b.compile(), Err(CoreError::Shape(_))));

        // Two stores into overlapping destinations are rejected too.
        let (mut b, x, y) = builder_with_inputs();
        let sum = b.add(x, y).unwrap();
        let diff = b.sub(x, y).unwrap();
        b.store(sum, &vector(9, 32, 8, 100)).unwrap();
        b.store(diff, &vector(10, 36, 8, 100)).unwrap();
        assert!(matches!(b.compile(), Err(CoreError::Shape(_))));

        // Disjoint destinations compile fine.
        let (mut b, x, y) = builder_with_inputs();
        let sum = b.add(x, y).unwrap();
        b.store(sum, &vector(9, 32, 8, 100)).unwrap();
        assert!(b.compile().is_ok());
    }

    #[test]
    #[should_panic(expected = "different plan")]
    fn plan_output_handles_do_not_cross_plans() {
        let (mut b, x, y) = builder_with_inputs();
        let sum = b.add(x, y).unwrap();
        let foreign = b.materialize(sum).unwrap();
        // An execution of a DIFFERENT plan must reject the handle.
        let exec = PlanExecution::new(u64::MAX, vec![vector(1, 0, 8, 4)], PlanReport::default());
        let _ = exec.output(foreign);
    }

    #[test]
    fn materializing_twice_returns_the_same_handle() {
        let (mut b, x, y) = builder_with_inputs();
        let sum = b.add(x, y).unwrap();
        let o1 = b.materialize(sum).unwrap();
        let o2 = b.materialize(sum).unwrap();
        assert_eq!(o1, o2);
        let plan = b.compile().unwrap();
        assert_eq!(plan.output_count(), 1);
    }

    #[test]
    fn liveness_reuses_temporary_slots_across_levels() {
        // d = |x - q1| + |x - q2|: the two subs die when the two abs execute, and the
        // abs results die at the final add, so 4 pooled 8-row slots suffice (the eager
        // path would have allocated 5 intermediates of 8 rows plus the output).
        let (mut b, x, y) = builder_with_inputs();
        let d1 = b.sub(x, y).unwrap();
        let d2 = b.sub(y, x).unwrap();
        let a1 = b.abs(d1).unwrap();
        let a2 = b.abs(d2).unwrap();
        let sum = b.add(a1, a2).unwrap();
        b.materialize(sum).unwrap();
        let plan = b.compile().unwrap();
        assert_eq!(plan.op_count(), 5);
        // Slots: {d1, d2} at level 1, reused by {a1, a2} only from level 3 on — here the
        // abs nodes run at level 2 while the subs are still their live inputs, so 4
        // slots are needed; the eager equivalent would hold all 5 temporaries at once.
        assert_eq!(plan.temp_rows(), 4 * 8);
        // Levels: subs, abs, add = 3 batches vs 5 eager broadcasts.
        assert_eq!(plan.batch_count(), 3);
        assert!(plan.batch_count() < plan.step_count());
    }

    #[test]
    fn batches_group_independent_steps_of_one_level() {
        let (mut b, x, y) = builder_with_inputs();
        let s = b.add(x, y).unwrap();
        let d = b.sub(x, y).unwrap();
        let m = b.mul(x, y).unwrap();
        let t = b.max(s, d).unwrap();
        let u = b.min(t, m).unwrap();
        b.materialize(u).unwrap();
        let plan = b.compile().unwrap();
        // Level 1: {add, sub, mul} fused; level 2: {max}; level 3: {min}.
        assert_eq!(plan.batch_count(), 3);
        assert_eq!(plan.step_count(), 5);
        let sizes: Vec<usize> = plan.batches().iter().map(|b| b.steps.len()).collect();
        assert_eq!(sizes, vec![3, 1, 1]);
    }

    #[test]
    fn aliased_operands_read_an_inserted_copy() {
        let (mut b, x, _) = builder_with_inputs();
        // add(x, x): the second operand must be de-aliased through a RowClone copy.
        let doubled = b.add(x, x).unwrap();
        b.materialize(doubled).unwrap();
        let plan = b.compile().unwrap();
        // input + copy + add.
        assert_eq!(plan.node_count(), 3);
        assert_eq!(plan.step_count(), 2);
        assert_eq!(plan.op_count(), 1);
        // The copy runs in the batch before the add (the add reads it).
        assert_eq!(plan.batch_count(), 2);

        // CSE-created aliasing takes the same path, and the copy is shared.
        let (mut b, x, y) = builder_with_inputs();
        let d1 = b.sub(x, y).unwrap();
        let d2 = b.sub(x, y).unwrap(); // same node as d1
        assert_eq!(d1, d2);
        let prod = b.mul(d1, d2).unwrap();
        let prod2 = b.mul(d2, d1).unwrap(); // de-aliases to the same (a, copy) pair
        assert_eq!(prod, prod2);
        let total = b.add(prod, prod2).unwrap();
        b.materialize(total).unwrap();
        let plan = b.compile().unwrap();
        // x, y, sub, copy(sub), mul, copy(mul), add.
        assert_eq!(plan.node_count(), 7);
    }

    #[test]
    fn programs_needed_lists_each_op_with_operand_width() {
        let (mut b, x, y) = builder_with_inputs();
        let gt = b.greater(x, y).unwrap(); // 1-bit output of an 8-bit compare
        let pick = b.select(gt, x, y).unwrap();
        b.materialize(pick).unwrap();
        let plan = b.compile().unwrap();
        let programs: Vec<(Operation, usize)> = plan.programs_needed().collect();
        assert_eq!(
            programs,
            vec![(Operation::Greater, 8), (Operation::IfElse, 8)]
        );
    }

    #[test]
    fn constants_are_scheduled_in_the_first_batch() {
        let (mut b, x, _) = builder_with_inputs();
        let c = b.constant(8, 100, 42).unwrap();
        let sum = b.add(x, c).unwrap();
        b.materialize(sum).unwrap();
        let plan = b.compile().unwrap();
        assert_eq!(plan.batch_count(), 2);
        assert_eq!(plan.batches()[0].steps.len(), 1); // the constant broadcast
        assert_eq!(plan.step_count(), 2);
        assert_eq!(plan.op_count(), 1);
    }
}
