//! Property-based guarantees of the MIMD dispatch-window and multi-device sharding
//! subsystems.
//!
//! Two contracts are under test:
//!
//! 1. **Sharding transparency** — for any operand values, fleet width, [`ShardPolicy`]
//!    and [`ExecutionPolicy`], an N-device [`ShardedMachine`] produces bit-identical
//!    read-back results to a single device running the same elementwise operations,
//!    and its merged fleet [`DeviceStats`] equals the solo device's stats (placement
//!    moves work, never changes it).
//! 2. **MIMD-window transparency** — a plan whose levels mix lane widths, with its
//!    same-level batches co-issued in MIMD windows, produces bit-identical outputs,
//!    per-step reports and functional [`DeviceStats`] to the fully serialized
//!    schedule — the same dataflow issued as eager calls in the plan's batch order, one
//!    dispatch per step — under either execution policy, while issuing strictly fewer
//!    dispatches.

use proptest::prelude::*;
use simdram_core::{
    ExecutionPolicy, LinkModel, PlanBuilder, ShardPolicy, ShardedMachine, SimdramConfig,
    SimdramMachine,
};
use simdram_logic::Operation;

fn config_with(execution: ExecutionPolicy) -> SimdramConfig {
    let mut config = SimdramConfig::functional_test();
    config.execution = execution;
    config
}

fn policies() -> [ExecutionPolicy; 2] {
    [
        ExecutionPolicy::Sequential,
        ExecutionPolicy::Threaded { max_threads: 2 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Contract 1: sharded N-device execution is bit-identical to single-device for any
    // ShardMap policy and both execution policies, including operands that disagree on
    // placement (forcing a modeled cross-device transfer).
    #[test]
    fn sharded_fleet_matches_single_device(
        devices in 1usize..=4,
        shard_policy_idx in 0usize..2,
        op_index in 0usize..Operation::ALL.len(),
        width in 2usize..=8,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        len in 1usize..96,
        misaligned in any::<bool>(),
    ) {
        // Predicated ops need a third vector; fold them onto a plain binary op.
        let op = match Operation::ALL[op_index] {
            op if op.uses_predicate() => Operation::Add,
            op => op,
        };
        let shard_policy = [ShardPolicy::Contiguous, ShardPolicy::Interleaved][shard_policy_idx];
        let mask = (1u64 << width) - 1;
        let a_vals: Vec<u64> = (0..len as u64)
            .map(|i| (i.wrapping_mul(seed_a | 1) >> 7) & mask)
            .collect();
        let b_vals: Vec<u64> = (0..len as u64)
            .map(|i| (i.wrapping_mul(seed_b | 1) >> 5) & mask)
            .collect();

        for execution in policies() {
            // Single-device reference.
            let mut solo = SimdramMachine::new(config_with(execution)).unwrap();
            let sa = solo.alloc_and_write(width, &a_vals).unwrap();
            let expected = if op.uses_second_operand() {
                let sb = solo.alloc_and_write(width, &b_vals).unwrap();
                let (out, _) = solo.binary(op, &sa, &sb).unwrap();
                solo.read(&out).unwrap()
            } else {
                let (out, _) = solo.unary(op, &sa).unwrap();
                solo.read(&out).unwrap()
            };

            // Sharded fleet, same operation.
            let mut fleet = ShardedMachine::new(
                config_with(execution),
                devices,
                shard_policy,
                LinkModel::default(),
            )
            .unwrap();
            let fa = fleet.alloc_and_write(width, &a_vals).unwrap();
            let got = if op.uses_second_operand() {
                // Optionally place `b` under the *other* policy so the op must reshard
                // it across the link first — results must not change.
                let b_policy = if misaligned && devices > 1 {
                    match shard_policy {
                        ShardPolicy::Contiguous => ShardPolicy::Interleaved,
                        ShardPolicy::Interleaved => ShardPolicy::Contiguous,
                    }
                } else {
                    shard_policy
                };
                let fb = fleet.alloc_and_write_with(width, &b_vals, b_policy).unwrap();
                let out = fleet.binary(op, &fa, &fb).unwrap();
                fleet.read(&out).unwrap()
            } else {
                let out = fleet.unary(op, &fa).unwrap();
                fleet.read(&out).unwrap()
            };
            prop_assert_eq!(&got, &expected);

            // Aligned same-policy operands are device-local: nothing crosses the link.
            if !(misaligned && devices > 1 && op.uses_second_operand()) {
                prop_assert_eq!(fleet.movement().elements, 0);
            }
            // A one-device fleet IS the solo machine: even its functional command
            // accounting (per-kind counts, float latency/energy sums) matches exactly.
            // Wider fleets legally issue more chunk-executions (≥ 1 per device), so
            // only the results are comparable there.
            if devices == 1 {
                prop_assert_eq!(&fleet.device_stats(), solo.device_stats());
            }
        }
    }

    // Contract 2: a mixed-lane-width plan run in MIMD windows behaves identically to
    // the same dataflow issued eagerly in batch order — outputs, per-step reports and
    // DeviceStats — but issues fewer dispatches.
    #[test]
    fn mimd_windows_match_serialized_dispatch(
        width_a in 2usize..=8,
        width_b in 2usize..=8,
        seed_x in any::<u64>(),
        seed_y in any::<u64>(),
        len_x in 2usize..300,
        len_y in 1usize..64,
    ) {
        // Different lengths put the two op chains in different batches; equal lengths
        // would legally fuse them into one batch, which is not the case under test.
        let len_y = if len_y == len_x { len_y - 1 } else { len_y };
        let mask_x = (1u64 << width_a) - 1;
        let mask_y = (1u64 << width_b) - 1;
        let x_vals: Vec<u64> = (0..len_x as u64)
            .map(|i| (i.wrapping_mul(seed_x | 1) >> 7) & mask_x)
            .collect();
        let y_vals: Vec<u64> = (0..len_y as u64)
            .map(|i| (i.wrapping_mul(seed_y | 1) >> 5) & mask_y)
            .collect();
        let (const_x, const_y) = (seed_x & mask_x, seed_y & mask_y);

        for execution in policies() {
            let mut m = SimdramMachine::new(config_with(execution)).unwrap();
            let x = m.alloc_and_write(width_a, &x_vals).unwrap();
            let y = m.alloc_and_write(width_b, &y_vals).unwrap();
            // Two independent chains of differing lane widths: their same-level steps
            // land in separate batches that share a dispatch window.
            let mut s = PlanBuilder::new();
            let xe = s.input(&x);
            let ye = s.input(&y);
            let cx = s.constant(width_a, len_x, const_x).unwrap();
            let cy = s.constant(width_b, len_y, const_y).unwrap();
            let sum_x = s.add(xe, cx).unwrap();
            let min_y = s.min(ye, cy).unwrap();
            let abs_x = s.abs(sum_x).unwrap();
            let max_y = s.max(min_y, ye).unwrap();
            let out_x = s.materialize(abs_x).unwrap();
            let out_y = s.materialize(max_y).unwrap();
            let plan = s.compile().unwrap();
            prop_assert!(plan.window_count() < plan.batch_count());
            prop_assert!(plan.mixed_window_count() > 0);
            let exec = m.run_plan(&plan).unwrap();
            let report = exec.report();
            prop_assert_eq!(report.windows, plan.window_count());
            prop_assert_eq!(report.broadcasts, plan.batch_count());
            prop_assert_eq!(m.estimate().broadcasts, plan.window_count());

            // The serialized oracle, in the plan's batch order: each level's x batch
            // issues before its y batch.
            let mut e = SimdramMachine::new(config_with(execution)).unwrap();
            let x = e.alloc_and_write(width_a, &x_vals).unwrap();
            let y = e.alloc_and_write(width_b, &y_vals).unwrap();
            let cx = e.alloc(width_a, len_x).unwrap();
            e.init(&cx, const_x).unwrap();
            let cy = e.alloc(width_b, len_y).unwrap();
            e.init(&cy, const_y).unwrap();
            let (sum_x, add_report) = e.binary(Operation::Add, &x, &cx).unwrap();
            let (min_y, min_report) = e.binary(Operation::Min, &y, &cy).unwrap();
            let (abs_x, abs_report) = e.unary(Operation::Abs, &sum_x).unwrap();
            let (max_y, max_report) = e.binary(Operation::Max, &min_y, &y).unwrap();

            // Bit-identical outputs, per-step reports and functional accounting.
            prop_assert_eq!(m.read(exec.output(out_x)).unwrap(), e.read(&abs_x).unwrap());
            prop_assert_eq!(m.read(exec.output(out_y)).unwrap(), e.read(&max_y).unwrap());
            prop_assert_eq!(
                &report.step_reports,
                &vec![add_report, min_report, abs_report, max_report]
            );
            prop_assert_eq!(m.device_stats(), e.device_stats());
            prop_assert!(
                (report.measured_energy_nj - e.estimate().energy_nj).abs() < 1e-6
            );
            // One dispatch per step serialized; strictly fewer with MIMD windows.
            prop_assert_eq!(e.estimate().broadcasts, plan.step_count());
            prop_assert!(m.estimate().broadcasts < e.estimate().broadcasts);
        }
    }
}
