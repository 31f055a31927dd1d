//! MIMD suite (new): heterogeneous dispatch windows and multi-device sharding.
//!
//! Three checked scenarios on the functional-test machine:
//!
//! - `mixed_window/dispatch_savings`: a plan whose levels mix lane widths (8-bit ops
//!   over many lanes next to 16-bit ops over few) must complete in **fewer dispatch
//!   windows** than the fully serialized schedule — the same dataflow as eager calls,
//!   one dispatch per step — with bit-identical results, per-step reports and
//!   functional accounting between the two.
//! - `sharded_scaling/1_to_4_devices`: the same oversized elementwise workload on
//!   fleets of 1, 2 and 4 devices. One device serializes its capacity waves; four run
//!   them concurrently, so modeled throughput must scale **≥ 2×** at 4 devices while
//!   results stay bit-identical to the single device.
//! - `movement/overhead_share`: misaligned operand placements force a cross-device
//!   reshard; the link bill must be visible (a nonzero share of the makespan) but not
//!   pathological — the quantitative footing under the paper's "avoid data movement"
//!   argument.

use simdram_core::{
    LinkModel, PlanBuilder, ShardPolicy, ShardedMachine, SimdramConfig, SimdramMachine,
};
use simdram_logic::Operation;

use crate::report::{Datapoint, Expected};

const SUITE: &str = "mimd";

fn fleet(devices: usize, policy: ShardPolicy) -> ShardedMachine {
    ShardedMachine::new(
        SimdramConfig::functional_test(),
        devices,
        policy,
        LinkModel::default(),
    )
    .expect("functional fleet")
}

/// Mixed-lane-width plan executed in MIMD windows against the fully serialized
/// schedule — the same dataflow issued as eager calls in the plan's batch order, one
/// dispatch per step: fewer dispatch windows, identical everything else.
fn mixed_window() -> Vec<Datapoint> {
    let wide_vals: Vec<u64> = (0..1_024u64).map(|i| (i * 37 + 11) & 0xFF).collect();
    let narrow_vals: Vec<u64> = (0..96u64).map(|i| (i * 91 + 3) & 0xFFFF).collect();

    let mut m = SimdramMachine::new(SimdramConfig::functional_test()).expect("functional config");
    let wide = m.alloc_and_write(8, &wide_vals).expect("write wide");
    let narrow = m.alloc_and_write(16, &narrow_vals).expect("write narrow");
    // Two independent chains of differing lane widths; their same-level steps land in
    // separate batches that share a dispatch window.
    let mut s = PlanBuilder::new();
    let we = s.input(&wide);
    let ne = s.input(&narrow);
    let cw = s.constant(8, wide_vals.len(), 60).expect("const");
    let cn = s.constant(16, narrow_vals.len(), 1_000).expect("const");
    let sum_w = s.add(we, cw).expect("add");
    let min_n = s.min(ne, cn).expect("min");
    let abs_w = s.abs(sum_w).expect("abs");
    let max_n = s.max(min_n, ne).expect("max");
    let out_w = s.materialize(abs_w).expect("materialize");
    let out_n = s.materialize(max_n).expect("materialize");
    let plan = s.compile().expect("compile");
    let exec = m.run_plan(&plan).expect("run");
    let mimd_w = m.read(exec.output(out_w)).expect("read");
    let mimd_n = m.read(exec.output(out_n)).expect("read");
    let report = exec.report();
    let mimd_dispatches = m.estimate().broadcasts;

    // The serialized oracle: each level's wide batch issues before its narrow one.
    let mut e = SimdramMachine::new(SimdramConfig::functional_test()).expect("functional config");
    let wide = e.alloc_and_write(8, &wide_vals).expect("write wide");
    let narrow = e.alloc_and_write(16, &narrow_vals).expect("write narrow");
    let cw = e.alloc(8, wide_vals.len()).expect("alloc");
    e.init(&cw, 60).expect("init");
    let cn = e.alloc(16, narrow_vals.len()).expect("alloc");
    e.init(&cn, 1_000).expect("init");
    let (sum_w, add_report) = e.binary(Operation::Add, &wide, &cw).expect("add");
    let (min_n, min_report) = e.binary(Operation::Min, &narrow, &cn).expect("min");
    let (abs_w, abs_report) = e.unary(Operation::Abs, &sum_w).expect("abs");
    let (max_n, max_report) = e.binary(Operation::Max, &min_n, &narrow).expect("max");
    let serial_w = e.read(&abs_w).expect("read");
    let serial_n = e.read(&max_n).expect("read");
    let serialized_dispatches = e.estimate().broadcasts;

    let identical = mimd_w == serial_w
        && mimd_n == serial_n
        && m.device_stats() == e.device_stats()
        && report.step_reports == [add_report, min_report, abs_report, max_report];
    assert!(
        identical,
        "MIMD window results diverged from serialized dispatch"
    );

    let windows_saved = (serialized_dispatches - mimd_dispatches) as f64;
    vec![
        Datapoint::checked(
            SUITE,
            "mixed_window/dispatch_savings".into(),
            vec![
                ("batches", plan.batch_count() as f64),
                ("windows", plan.window_count() as f64),
                ("mimd_dispatches", mimd_dispatches as f64),
                ("serialized_dispatches", serialized_dispatches as f64),
                ("windows_saved", windows_saved),
                ("report_windows", report.windows as f64),
                ("report_broadcasts", report.broadcasts as f64),
            ],
            // The serialized schedule issues one dispatch per step; MIMD windows must
            // save at least one dispatch on this mixed-width plan.
            Expected {
                metric: "windows_saved",
                min: 1.0,
                max: 16.0,
            },
        ),
        Datapoint::checked(
            SUITE,
            "mixed_window/bit_identity".into(),
            vec![("identical", if identical { 1.0 } else { 0.0 })],
            Expected {
                metric: "identical",
                min: 1.0,
                max: 1.0,
            },
        ),
    ]
}

/// One oversized workload on 1, 2 and 4 devices: wave-parallel throughput scaling
/// with bit-identical results.
fn sharded_scaling() -> Vec<Datapoint> {
    let probe = fleet(1, ShardPolicy::Contiguous);
    // 4× one device's wave capacity: the single device must run 4 sequential waves.
    let len = probe.wave_capacity() * 4;
    let a_vals: Vec<u64> = (0..len as u64).map(|i| (i * 37 + 11) & 0xFF).collect();
    let b_vals: Vec<u64> = (0..len as u64).map(|i| (i * 91 + 3) & 0xFF).collect();

    let mut reference: Option<Vec<u64>> = None;
    let mut makespans = Vec::new();
    let mut identical = true;
    for devices in [1usize, 2, 4] {
        let mut m = fleet(devices, ShardPolicy::Contiguous);
        let a = m.alloc_and_write(8, &a_vals).expect("write a");
        let b = m.alloc_and_write(8, &b_vals).expect("write b");
        let sum = m.binary(Operation::Add, &a, &b).expect("add");
        let result = m.read(&sum).expect("read");
        match &reference {
            None => reference = Some(result),
            Some(want) => identical &= &result == want,
        }
        assert_eq!(m.movement().elements, 0, "aligned shards moved data");
        makespans.push(m.estimate().makespan_ns());
    }
    assert!(identical, "sharded results diverged across fleet sizes");

    let scaling_2 = makespans[0] / makespans[1];
    let scaling_4 = makespans[0] / makespans[2];
    vec![
        Datapoint::checked(
            SUITE,
            "sharded_scaling/1_to_4_devices".into(),
            vec![
                ("elements", len as f64),
                ("makespan_1dev_ns", makespans[0]),
                ("makespan_2dev_ns", makespans[1]),
                ("makespan_4dev_ns", makespans[2]),
                ("throughput_scaling_2dev", scaling_2),
                ("throughput_scaling_4dev", scaling_4),
            ],
            // Four concurrent devices vs four serialized waves: ≥ 2× modeled
            // throughput (ideal is 4×; headroom above for float accumulation order).
            Expected {
                metric: "throughput_scaling_4dev",
                min: 2.0,
                max: 4.25,
            },
        ),
        Datapoint::checked(
            SUITE,
            "sharded_scaling/bit_identity".into(),
            vec![("identical", if identical { 1.0 } else { 0.0 })],
            Expected {
                metric: "identical",
                min: 1.0,
                max: 1.0,
            },
        ),
    ]
}

/// Misaligned operands on a 4-device fleet: the cross-device movement bill as a share
/// of the fleet makespan.
fn movement_overhead() -> Vec<Datapoint> {
    let mut m = fleet(4, ShardPolicy::Contiguous);
    let len = m.wave_capacity();
    let a_vals: Vec<u64> = (0..len as u64).map(|i| (i * 37 + 11) & 0xFF).collect();
    let b_vals: Vec<u64> = (0..len as u64).map(|i| (i * 91 + 3) & 0xFF).collect();
    let a = m
        .alloc_and_write_with(8, &a_vals, ShardPolicy::Contiguous)
        .expect("write a");
    let b = m
        .alloc_and_write_with(8, &b_vals, ShardPolicy::Interleaved)
        .expect("write b");
    let sum = m.binary(Operation::Add, &a, &b).expect("add");
    let result = m.read(&sum).expect("read");
    let expected: Vec<u64> = a_vals
        .iter()
        .zip(&b_vals)
        .map(|(&x, &y)| (x + y) & 0xFF)
        .collect();
    assert_eq!(result, expected, "misaligned add diverged from host");

    let movement = m.movement();
    let estimate = m.estimate();
    let makespan = estimate.makespan_ns();
    let share = movement.latency_ns / makespan;
    vec![Datapoint::checked(
        SUITE,
        "movement/overhead_share".into(),
        vec![
            ("moved_elements", movement.elements as f64),
            ("moved_bytes", movement.bytes as f64),
            ("movement_ns", movement.latency_ns),
            ("movement_nj", movement.energy_nj),
            ("makespan_ns", makespan),
            ("movement_share", share),
            (
                "movement_pseudo_broadcasts",
                estimate.movement_estimate.broadcasts as f64,
            ),
        ],
        // The link must be visibly charged for misaligned operands, but in-DRAM
        // compute still dominates a single elementwise op's makespan at this size.
        Expected {
            metric: "movement_share",
            min: 0.01,
            max: 0.95,
        },
    )]
}

/// Runs the suite.
pub fn run() -> Vec<Datapoint> {
    let mut datapoints = mixed_window();
    datapoints.extend(sharded_scaling());
    datapoints.extend(movement_overhead());
    datapoints
}
