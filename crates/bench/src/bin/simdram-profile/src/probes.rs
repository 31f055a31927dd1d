//! Layer probes: the workload's own μPrograms and one of its columns, re-run through
//! lower-layer public functions on standalone objects, so each layer's unit cost is
//! measured without the layers above it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use simdram_core::{horizontal_to_vertical, vertical_to_horizontal};
use simdram_dram::{BankStateModel, BankTiming, CommandCosts, CommandTrace, Subarray};
use simdram_logic::{Mig, Operation, WordCircuit};
use simdram_uprog::{
    execute, generate, CompiledProgram, GateNetwork, MicroProgram, RowBinding, UprogError,
};

use crate::workloads::ProbeSpec;

/// Minimum wall time each repeated probe loop runs for.
const PROBE_TIME: Duration = Duration::from_millis(40);

#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeResults {
    /// Synthesis of every program's majority-inverter circuit, in µs.
    pub synth_us: f64,
    /// Gate-network lowering and μProgram generation, in µs.
    pub codegen_us: f64,
    /// Compilation into word-level kernels, in µs.
    pub compile_us: f64,
    pub interp_ns_per_command: f64,
    pub compiled_ns_per_command: f64,
    pub bankstate_ns_per_command: f64,
    pub transpose_ns_per_byte: f64,
}

/// Repeats `sweep` until [`PROBE_TIME`] has passed; returns ns per sweep.
fn time_per_sweep(mut sweep: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut sweeps = 0u64;
    while sweeps < 3 || start.elapsed() < PROBE_TIME {
        sweep();
        sweeps += 1;
    }
    start.elapsed().as_nanos() as f64 / sweeps as f64
}

pub fn run(spec: &ProbeSpec, programs: &[(Operation, usize)]) -> Result<ProbeResults, UprogError> {
    let dram = &spec.config.dram;
    let costs = CommandCosts::new(dram);
    let options = spec.config.codegen;

    // Front end: best of three generations of the whole program set.
    let mut front = [f64::INFINITY; 3];
    let mut generated: Vec<(MicroProgram, CompiledProgram)> = Vec::new();
    for _ in 0..3 {
        let mut phase = [0.0f64; 3];
        generated.clear();
        for &(op, width) in programs {
            let t0 = Instant::now();
            let circuit: WordCircuit<Mig> = WordCircuit::synthesize(op, width);
            let t1 = Instant::now();
            let network = GateNetwork::from_mig(&circuit);
            let program = generate(&network, op, width, options);
            let t2 = Instant::now();
            let compiled = CompiledProgram::compile(&program, &costs)?;
            let t3 = Instant::now();
            phase[0] += (t1 - t0).as_secs_f64();
            phase[1] += (t2 - t1).as_secs_f64();
            phase[2] += (t3 - t2).as_secs_f64();
            generated.push((program, compiled));
        }
        for (best, t) in front.iter_mut().zip(phase) {
            *best = best.min(t * 1e6);
        }
    }

    // Engines: every program once per sweep, on one subarray of the workload's geometry,
    // bound like the machine binds them (operands low, temporaries in the reserved rows).
    let mut sa = Subarray::new(dram);
    let temp_base = dram.rows_per_subarray - dram.reserved_rows;
    let binding = |width: usize| RowBinding {
        a_base: 0,
        b_base: width,
        pred_row: 2 * width,
        out_base: 2 * width + 1,
        temp_base,
    };
    let commands: usize = generated.iter().map(|(p, _)| p.command_count()).sum();
    let mut traces: Vec<CommandTrace> = Vec::with_capacity(generated.len());
    for (program, _) in &generated {
        traces.push(execute(program, &mut sa, &binding(program.width()))?);
        sa.drain_trace();
    }
    let mut failure = None;
    let interp_ns = time_per_sweep(|| {
        for (program, _) in &generated {
            if let Err(err) = execute(program, &mut sa, &binding(program.width())) {
                failure.get_or_insert(err);
            }
            sa.drain_trace();
        }
    });
    let compiled_ns = time_per_sweep(|| {
        for (program, compiled) in &generated {
            if let Err(err) = compiled.execute_in(&mut sa, &binding(program.width()), false) {
                failure.get_or_insert(err);
            }
        }
    });
    if let Some(err) = failure {
        return Err(err);
    }
    let model = BankStateModel::new(dram.timing.clone(), BankTiming::default());
    let replay_ns = time_per_sweep(|| {
        for trace in &traces {
            black_box(model.replay(std::slice::from_ref(trace)));
        }
    });

    // Transposition of one of the workload's columns, as one subarray chunk sees it.
    let lanes = dram.columns_per_row;
    let column = &spec.column[..spec.column.len().min(lanes)];
    let width = spec.column_width;
    let transpose_ns = time_per_sweep(|| {
        let rows = horizontal_to_vertical(black_box(column), width, lanes);
        black_box(vertical_to_horizontal(&rows, width, column.len()));
    });

    let per_command = |ns: f64| {
        if commands == 0 {
            0.0
        } else {
            ns / commands as f64
        }
    };
    Ok(ProbeResults {
        synth_us: front[0],
        codegen_us: front[1],
        compile_us: front[2],
        interp_ns_per_command: per_command(interp_ns),
        compiled_ns_per_command: per_command(compiled_ns),
        bankstate_ns_per_command: per_command(replay_ns),
        transpose_ns_per_byte: transpose_ns / (column.len() * width) as f64 * 8.0,
    })
}
