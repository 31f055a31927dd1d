//! Per-command datapath microbenchmarks: AAP / TRA throughput and allocation behaviour,
//! plus the in-DRAM MAJ/NOT building blocks over full 8 KiB rows.
//!
//! Run with `cargo bench -p simdram-dram --bench datapath`. These measure the simulator
//! itself; the architectural latencies the experiments report come from the analytic
//! timing model, not from these wall-clock numbers.
//!
//! Before/after record for the allocation-free datapath rewrite (PR 4), measured with
//! this exact benchmark (the pre-PR side run from a worktree of the previous commit with
//! the identical batched loop) on the CI container, default 8 KiB rows (65,536 columns,
//! 1,024 words per row):
//!
//! | benchmark            | before (clone datapath) | after (in-place datapath) | speedup |
//! |----------------------|-------------------------|---------------------------|---------|
//! | `datapath/aap`       | 208 ns/cmd (4.80 M/s)   | 81 ns/cmd (12.42 M/s)     | 2.6×    |
//! | `datapath/ap_tra`    | 1707 ns/cmd (0.59 M/s)  | 507 ns/cmd (1.97 M/s)     | 3.4×    |
//! | `datapath/aap_tra`   | 1933 ns/cmd (0.52 M/s)  | 573 ns/cmd (1.74 M/s)     | 3.4×    |
//! | one of each (3 cmds) | 3848 ns                 | 1161 ns                   | 3.3×    |
//! | heap traffic, AAP    | 16,384 B + 2 allocs/cmd | 0 B, 0 allocs             | —       |
//! | heap traffic, TRA    | 57,344 B + 7 allocs/cmd | 0 B, 0 allocs             | —       |
//!
//! The `alloc_bytes_per_command` section below measures the heap traffic of the hot
//! commands with a counting global allocator — the per-command datapath invariant is
//! **zero** heap allocations (see `tests/datapath_alloc.rs` for the enforced test).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use simdram_dram::{BGroupRow, BitRow, DramConfig, RowAddr, Subarray};

/// Global allocator wrapper that counts allocations and allocated bytes, so the bench can
/// report heap traffic per DRAM command alongside wall-clock throughput.
struct CountingAllocator;

static ALLOC_BYTES: AtomicUsize = AtomicUsize::new(0);
static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn prepared_subarray() -> Subarray {
    let config = DramConfig::default();
    let mut sa = Subarray::new(&config);
    let columns = sa.columns();
    sa.write_row(0, &BitRow::splat_word(0xDEAD_BEEF_0123_4567, columns));
    sa.write_row(1, &BitRow::splat_word(0x0F0F_F0F0_AAAA_5555, columns));
    sa.aap(RowAddr::Data(0), RowAddr::BGroup(BGroupRow::T0))
        .unwrap();
    sa.aap(RowAddr::Data(1), RowAddr::BGroup(BGroupRow::T1))
        .unwrap();
    sa.aap(RowAddr::Data(0), RowAddr::BGroup(BGroupRow::T2))
        .unwrap();
    sa.reset_trace();
    sa
}

/// Reports the mean heap bytes and allocation calls per command for a hot-loop of `n`
/// invocations of `op`, printed once before the timing benchmarks.
fn report_alloc_per_command(name: &str, n: usize, mut op: impl FnMut()) {
    // Warm up so one-time growth (trace capacity, cost table) is excluded.
    for _ in 0..16 {
        op();
    }
    let bytes_before = ALLOC_BYTES.load(Ordering::Relaxed);
    let calls_before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..n {
        op();
    }
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes_before;
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - calls_before;
    println!(
        "alloc_bytes_per_command/{name}: {:.1} bytes/cmd, {:.2} allocs/cmd",
        bytes as f64 / n as f64,
        calls as f64 / n as f64
    );
}

fn bench_datapath(c: &mut Criterion) {
    {
        let mut sa = prepared_subarray();
        report_alloc_per_command("aap", 1024, || {
            sa.aap(RowAddr::Data(0), RowAddr::Data(2)).unwrap();
            sa.drain_trace();
        });
    }
    {
        let mut sa = prepared_subarray();
        report_alloc_per_command("ap_tra", 1024, || {
            sa.ap_tra(BGroupRow::T0, BGroupRow::T1, BGroupRow::T2)
                .unwrap();
            sa.drain_trace();
        });
    }

    // Commands per timed iteration: trace maintenance (reserve + drain) is amortized
    // over the batch exactly like a μProgram broadcast amortizes it over its commands.
    const BATCH: u64 = 64;

    let mut group = c.benchmark_group("datapath");
    group.throughput(Throughput::Elements(BATCH));

    let mut sa = prepared_subarray();
    group.bench_function("aap", |b| {
        b.iter(|| {
            sa.reserve_trace(BATCH as usize);
            for _ in 0..BATCH {
                sa.aap(RowAddr::Data(0), RowAddr::Data(2)).unwrap();
            }
            sa.drain_trace();
        })
    });

    let mut sa = prepared_subarray();
    group.bench_function("ap_tra", |b| {
        b.iter(|| {
            sa.reserve_trace(BATCH as usize);
            for _ in 0..BATCH {
                sa.ap_tra(BGroupRow::T0, BGroupRow::T1, BGroupRow::T2)
                    .unwrap();
            }
            sa.drain_trace();
        })
    });

    let mut sa = prepared_subarray();
    group.bench_function("aap_tra", |b| {
        b.iter(|| {
            sa.reserve_trace(BATCH as usize);
            for _ in 0..BATCH {
                sa.aap_tra(
                    BGroupRow::T0,
                    BGroupRow::T1,
                    BGroupRow::T2,
                    RowAddr::Data(3),
                )
                .unwrap();
            }
            sa.drain_trace();
        })
    });

    group.finish();
}

/// The composite in-DRAM MAJ/NOT operations, one per iteration (throughput in columns).
fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("dram_primitives");
    group.throughput(Throughput::Elements(
        DramConfig::default().columns_per_row as u64,
    ));

    let mut sa = prepared_subarray();
    group.bench_function("in_dram_majority_of_three_rows", |b| {
        b.iter(|| {
            sa.maj_rows(
                RowAddr::Data(0),
                RowAddr::Data(1),
                RowAddr::Data(2),
                RowAddr::Data(10),
            )
            .unwrap();
            sa.drain_trace();
        })
    });

    let mut sa = prepared_subarray();
    group.bench_function("in_dram_not_of_a_row", |b| {
        b.iter(|| {
            sa.not_row(RowAddr::Data(1), RowAddr::Data(11)).unwrap();
            sa.drain_trace();
        })
    });

    group.finish();
}

criterion_group!(benches, bench_datapath, bench_primitives);
criterion_main!(benches);
