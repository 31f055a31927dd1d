//! Regression tests for the staged-input lifecycle: a tenant must not be able to
//! free an input out from under a queued plan (the write_input → submit →
//! release_input → run_window sequence used to panic the whole server), the
//! scheduler must clamp hostile tenant specs, and per-tenant limits must reject at
//! admission.

use simdram_core::{Plan, PlanBuilder, SimdVector, SimdramConfig, SimdramMachine};
use simdram_serve::{PlanServer, ServeConfig, ServeError, TenantSpec};

fn server() -> PlanServer {
    let machine = SimdramMachine::new(SimdramConfig::functional_test()).unwrap();
    PlanServer::new(machine, ServeConfig::new())
}

#[test]
fn release_input_is_refused_while_a_queued_plan_reads_it() {
    let mut server = server();
    let tenant = server.register_tenant(TenantSpec::new("a"));
    let input = server.write_input(tenant, 8, &[1, 2, 3]).unwrap();

    let mut builder = PlanBuilder::new();
    let x = builder.input(&input);
    let one = builder.constant(8, 3, 1).unwrap();
    let sum = builder.add(x, one).unwrap();
    let out = builder.materialize(sum).unwrap();
    let job = server.submit(tenant, builder.compile().unwrap()).unwrap();

    // The release is refused with a typed error naming the blocking job — before the
    // fix this freed the rows and the next window panicked mid-dispatch.
    match server.release_input(tenant, &input) {
        Err(ServeError::InputInUse { vector, job: j }) => {
            assert_eq!(vector, input.id());
            assert_eq!(j, job);
        }
        other => panic!("expected InputInUse, got {other:?}"),
    }

    // The queued job is unharmed and runs to completion.
    server.serve().unwrap();
    assert_eq!(server.take_result(job).unwrap().output(out), &[2, 3, 4]);

    // Once the queue drains, the release goes through.
    server.release_input(tenant, &input).unwrap();
}

#[test]
fn zero_weight_specs_are_clamped_at_registration() {
    let mut server = server();
    // TenantSpec's fields are pub, so a weight of 0 is constructible directly,
    // bypassing with_weight's clamp; registration must clamp it again or the
    // scheduler's credit accrual divides by zero.
    let mut spec = TenantSpec::new("zero");
    spec.weight = 0;
    let tenant = server.register_tenant(spec);

    let input = server.write_input(tenant, 8, &[5]).unwrap();
    let mut builder = PlanBuilder::new();
    let x = builder.input(&input);
    let one = builder.constant(8, 1, 1).unwrap();
    let sum = builder.add(x, one).unwrap();
    let out = builder.materialize(sum).unwrap();
    let job = server.submit(tenant, builder.compile().unwrap()).unwrap();

    let report = server.serve().unwrap();
    assert_eq!(report.jobs_completed, 1);
    assert_eq!(report.tenants[0].weight, 1);
    assert_eq!(server.take_result(job).unwrap().output(out), &[6]);
}

/// `x + 1` over a staged input.
fn increment(input: &SimdVector) -> Plan {
    let mut builder = PlanBuilder::new();
    let x = builder.input(input);
    let one = builder.constant(8, input.len(), 1).unwrap();
    let sum = builder.add(x, one).unwrap();
    builder.materialize(sum).unwrap();
    builder.compile().unwrap()
}

#[test]
fn tenant_limits_reject_oversized_jobs_and_full_queues() {
    let mut server = server();
    let tenant = server.register_tenant(
        TenantSpec::new("capped")
            .with_max_chunks(1)
            .with_max_queue_depth(1),
    );
    // 300 elements span two 256-lane subarrays: one chunk over the tenant's quota.
    let wide = server.write_input(tenant, 8, &[1; 300]).unwrap();
    let narrow = server.write_input(tenant, 8, &[1, 2, 3]).unwrap();
    match server.submit(tenant, increment(&wide)) {
        Err(ServeError::QuotaExceeded {
            needed: 2,
            quota: 1,
            ..
        }) => {}
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    server.submit(tenant, increment(&narrow)).unwrap();
    match server.submit(tenant, increment(&narrow)) {
        Err(ServeError::QueueFull { depth: 1, .. }) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }

    let report = server.serve().unwrap();
    assert_eq!(report.tenants[0].jobs_rejected, 2);
    assert_eq!(report.tenants[0].jobs_submitted, 1);
    assert_eq!(report.tenants[0].jobs_completed, 1);
}
