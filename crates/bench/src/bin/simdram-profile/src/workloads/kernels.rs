//! `kernels` and `kernels_bankstate`: the in-DRAM dataflow of the paper's seven
//! application kernels, issued call for call as `simdram-apps` issues it, at the sizes of
//! `simdram_apps::paper_kernels`.

use simdram_core::{
    CoreError, PlanBuilder, PlanOutput, SimdVector, SimdramConfig, SimdramMachine,
    TimingBackendKind,
};
use simdram_logic::Operation;

use super::{config, BoxError, LibTotals, Modeled, ProbeSpec, Scale, Workload};
use crate::stats::Rng;
use crate::trace::{Layer, Recorder};

type Result<T> = std::result::Result<T, CoreError>;

const TPCH_QUANTITY_LIMIT: u64 = 24;
const TPCH_DISCOUNT_LOW: u64 = 5;
const TPCH_DISCOUNT_HIGH: u64 = 7;
const SCAN_BITS: usize = 12;
const SCAN_BELOW: u64 = 2048;
const BRIGHTNESS_DELTA: u64 = 70;

/// A quantized fully-connected layer, one output neuron per lane: the functional slice
/// of vgg-13, vgg-16 and lenet.
#[derive(Debug)]
struct Linear {
    /// `weights[i][o]` connects input `i` to output `o`.
    weights: Vec<Vec<u64>>,
    inputs: Vec<u64>,
    expected: Vec<u64>,
}

impl Linear {
    fn new(rng: &mut Rng, inputs: usize, outputs: usize) -> Self {
        let weights: Vec<Vec<u64>> = (0..inputs).map(|_| rng.values(outputs, 0, 16)).collect();
        let inputs = rng.values(inputs, 0, 16);
        let expected = (0..outputs)
            .map(|o| {
                weights
                    .iter()
                    .zip(&inputs)
                    .map(|(w, x)| w[o] * x)
                    .sum::<u64>()
                    & 0xFFFF
            })
            .collect();
        Linear {
            weights,
            inputs,
            expected,
        }
    }
}

/// kNN: L1 distance of every reference point (one per lane) to a query.
#[derive(Debug)]
struct Knn {
    /// `features[f][p]` is feature `f` of point `p`.
    features: Vec<Vec<u64>>,
    query: Vec<u64>,
    expected: Vec<u64>,
}

/// TPC-H query 6: predicated revenue per line item.
#[derive(Debug)]
struct Tpch {
    quantity: Vec<u64>,
    discount: Vec<u64>,
    price: Vec<u64>,
    expected: Vec<u64>,
}

#[derive(Debug)]
pub struct Kernels {
    config: SimdramConfig,
    nets: Vec<Linear>,
    knn: Knn,
    tpch: Tpch,
    /// BitWeaving column of `SCAN_BITS`-bit codes and its `< SCAN_BELOW` match bits.
    scan: (Vec<u64>, Vec<u64>),
    /// Greyscale pixels and their saturating `+ BRIGHTNESS_DELTA`.
    image: (Vec<u64>, Vec<u64>),
}

impl Kernels {
    /// `bank_state` selects the `kernels_bankstate` variant: the demo geometry, whose
    /// tiny rows make per-command costs dominate, under the bank-state timing backend.
    pub fn new(seed: u64, scale: Scale, bank_state: bool) -> Self {
        let mut config = match (scale, bank_state) {
            // The paper's row width: each command touches a 65,536-column row.
            (Scale::Full, false) => config(1, 4, 65_536),
            (Scale::Full, true) => config(4, 4, 1_024),
            (Scale::Smoke, _) => config(2, 2, 256),
        };
        if bank_state {
            config.timing_backend = TimingBackendKind::BankState;
        }
        let (net_inputs, knn_features) = match scale {
            Scale::Full => ([32, 32, 24], 16),
            Scale::Smoke => ([3, 3, 2], 4),
        };
        let mut rng = Rng::new(seed);
        let nets = vec![
            Linear::new(&mut rng, net_inputs[0], 64),
            Linear::new(&mut rng, net_inputs[1], 64),
            Linear::new(&mut rng, net_inputs[2], 84),
        ];

        let points = 256;
        let features: Vec<Vec<u64>> = (0..knn_features)
            .map(|_| rng.values(points, 0, 256))
            .collect();
        let mut query = rng.values(knn_features, 0, 256);
        // Each plan takes a pair of query values as constants. Equal constants would be
        // shared by plan compilation, saving a broadcast and making the modeled numbers
        // depend on the seed, so the second of a pair is nudged off the first.
        for pair in query.chunks_mut(2) {
            if let [a, b] = pair {
                if a == b {
                    *b = (*b + 1) % 256;
                }
            }
        }
        let expected = (0..points)
            .map(|p| {
                features
                    .iter()
                    .zip(&query)
                    .map(|(f, &q)| f[p].abs_diff(q))
                    .sum()
            })
            .collect();
        let knn = Knn {
            features,
            query,
            expected,
        };

        let rows = 512;
        let quantity = rng.values(rows, 1, 50);
        let discount = rng.values(rows, 0, 11);
        let price = rng.values(rows, 1, 200);
        let expected = (0..rows)
            .map(|i| {
                let selected = quantity[i] < TPCH_QUANTITY_LIMIT
                    && (TPCH_DISCOUNT_LOW..=TPCH_DISCOUNT_HIGH).contains(&discount[i]);
                if selected {
                    (price[i] * discount[i]) & 0xFFFF
                } else {
                    0
                }
            })
            .collect();
        let tpch = Tpch {
            quantity,
            discount,
            price,
            expected,
        };

        let column = rng.values(512, 0, 1 << SCAN_BITS);
        let matches = column.iter().map(|&v| u64::from(v < SCAN_BELOW)).collect();
        let pixels = rng.values(32 * 16, 0, 256);
        let brightened = pixels
            .iter()
            .map(|&p| (p + BRIGHTNESS_DELTA).min(255))
            .collect();
        Kernels {
            config,
            nets,
            knn,
            tpch,
            scan: (column, matches),
            image: (pixels, brightened),
        }
    }
}

impl Workload for Kernels {
    type State = SimdramMachine;

    fn build(&self) -> std::result::Result<SimdramMachine, BoxError> {
        Ok(SimdramMachine::new(self.config.clone())?)
    }

    fn iterate(&self, m: &mut SimdramMachine, rec: &mut Recorder) {
        for net in &self.nets {
            let out = linear(m, rec, net);
            rec.check(out.as_deref(), &net.expected);
        }
        let out = knn(m, rec, &self.knn);
        rec.check(out.as_deref(), &self.knn.expected);
        let out = tpch(m, rec, &self.tpch);
        rec.check(out.as_deref(), &self.tpch.expected);
        let out = scan(m, rec, &self.scan.0);
        rec.check(out.as_deref(), &self.scan.1);
        let out = brightness(m, rec, &self.image.0);
        rec.check(out.as_deref(), &self.image.1);
    }

    fn episode_len(&self) -> Option<usize> {
        None
    }

    fn totals(&self, m: &SimdramMachine) -> LibTotals {
        LibTotals {
            broadcasts: m.estimate().broadcasts as u64,
            dispatch_windows: m.dispatch_windows_issued(),
            commands: m.device_stats().total_commands() as u64,
            ..LibTotals::default()
        }
    }

    fn modeled(&self, m: &SimdramMachine, iterations: usize) -> Modeled {
        let busy_ns = m.estimate().busy_latency_ns / iterations as f64;
        Modeled {
            busy_ns,
            energy_nj: m.estimate().energy_nj / iterations as f64,
            // One client, one job per iteration, no queueing: every job's turnaround is
            // the iteration's modeled time.
            p99_turnaround_ns: busy_ns,
            ..Modeled::default()
        }
    }

    fn probe_spec(&self) -> ProbeSpec {
        ProbeSpec {
            config: self.config.clone(),
            column: self.tpch.price.clone(),
            column_width: 16,
        }
    }
}

/// Frees vectors inside one `core.alloc_ms` span.
fn free(m: &mut SimdramMachine, rec: &mut Recorder, vectors: impl IntoIterator<Item = SimdVector>) {
    rec.span(Layer::Alloc, || vectors.into_iter().for_each(|v| m.free(v)));
}

fn write(
    m: &mut SimdramMachine,
    rec: &mut Recorder,
    width: usize,
    values: &[u64],
) -> Result<SimdVector> {
    rec.io(Layer::IoWrite, values.len(), width, || {
        m.alloc_and_write(width, values)
    })
}

fn read(m: &mut SimdramMachine, rec: &mut Recorder, v: &SimdVector) -> Result<Vec<u64>> {
    rec.io(Layer::IoRead, v.len(), v.width(), || m.read(v))
}

/// Builds (`core.plan.build_ms`), compiles and runs a plan, returning its one output.
fn run_plan(
    m: &mut SimdramMachine,
    rec: &mut Recorder,
    build: impl FnOnce(&mut PlanBuilder) -> Result<PlanOutput>,
) -> Result<SimdVector> {
    let (builder, out) = rec.span(Layer::PlanBuild, || {
        let mut builder = PlanBuilder::new();
        build(&mut builder).map(|out| (builder, out))
    })?;
    let plan = rec.compile(builder)?;
    let exec = rec.exec(None, || m.run_plan(&plan))?;
    Ok(*exec.output(out))
}

/// `simdram_apps::nn::QuantizedLinear::run_on`.
fn linear(m: &mut SimdramMachine, rec: &mut Recorder, net: &Linear) -> Result<Vec<u64>> {
    let n = net.expected.len();
    let mut acc = rec.span(Layer::Alloc, || m.alloc(16, n))?;
    rec.exec(None, || m.init(&acc, 0))?;
    for (row, &x) in net.weights.iter().zip(&net.inputs) {
        let weights = write(m, rec, 16, row)?;
        let activation = rec.span(Layer::Alloc, || m.alloc(16, n))?;
        rec.exec(None, || m.init(&activation, x))?;
        let (product, _) = rec.exec(Some((Operation::Mul, 16)), || {
            m.binary(Operation::Mul, &weights, &activation)
        })?;
        let (sum, _) = rec.exec(Some((Operation::Add, 16)), || {
            m.binary(Operation::Add, &acc, &product)
        })?;
        free(m, rec, [weights, activation, product, acc]);
        acc = sum;
    }
    let (activated, _) = rec.exec(Some((Operation::Relu, 16)), || {
        m.unary(Operation::Relu, &acc)
    })?;
    let out = read(m, rec, &activated)?;
    free(m, rec, [acc, activated]);
    Ok(out)
}

/// `simdram_apps::knn::KnnDistances::run`: one plan per feature pair, carrying the
/// running distance between plans.
fn knn(m: &mut SimdramMachine, rec: &mut Recorder, k: &Knn) -> Result<Vec<u64>> {
    let n = k.expected.len();
    let mut distance: Option<SimdVector> = None;
    for (group, queries) in k.features.chunks(2).zip(k.query.chunks(2)) {
        let mut features = Vec::with_capacity(group.len());
        for values in group {
            features.push(write(m, rec, 16, values)?);
        }
        let total = run_plan(m, rec, |plan| {
            let mut sum = distance.as_ref().map(|d| plan.input(d));
            for (feature, &q) in features.iter().zip(queries) {
                let feature = plan.input(feature);
                let q = plan.constant(16, n, q)?;
                let diff = plan.sub(feature, q)?;
                let term = plan.abs(diff)?;
                sum = Some(match sum {
                    None => term,
                    Some(s) => plan.add(s, term)?,
                });
            }
            plan.materialize(sum.expect("every feature group is non-empty"))
        })?;
        free(m, rec, distance.take().into_iter().chain(features));
        distance = Some(total);
    }
    let distance = distance.expect("kNN has at least one feature");
    let out = read(m, rec, &distance)?;
    free(m, rec, [distance]);
    Ok(out)
}

/// `simdram_apps::tpch::TpchQuery6::run`: the whole query as one plan.
fn tpch(m: &mut SimdramMachine, rec: &mut Recorder, t: &Tpch) -> Result<Vec<u64>> {
    let n = t.expected.len();
    let quantity = write(m, rec, 8, &t.quantity)?;
    let discount8 = write(m, rec, 8, &t.discount)?;
    let discount16 = write(m, rec, 16, &t.discount)?;
    let price = write(m, rec, 16, &t.price)?;
    let revenue = run_plan(m, rec, |plan| {
        let qty = plan.input(&quantity);
        let disc8 = plan.input(&discount8);
        let disc16 = plan.input(&discount16);
        let price = plan.input(&price);
        let qty_limit = plan.constant(8, n, TPCH_QUANTITY_LIMIT)?;
        let disc_low = plan.constant(8, n, TPCH_DISCOUNT_LOW)?;
        let disc_high = plan.constant(8, n, TPCH_DISCOUNT_HIGH)?;
        let zero = plan.constant(16, n, 0)?;
        let qty_ok = plan.greater(qty_limit, qty)?;
        let disc_ge = plan.greater_equal(disc8, disc_low)?;
        let disc_le = plan.greater_equal(disc_high, disc8)?;
        let disc_ok = plan.min(disc_ge, disc_le)?;
        let selected = plan.min(qty_ok, disc_ok)?;
        let revenue = plan.mul(price, disc16)?;
        let masked = plan.select(selected, revenue, zero)?;
        plan.materialize(masked)
    })?;
    let out = read(m, rec, &revenue)?;
    free(m, rec, [quantity, discount8, discount16, price, revenue]);
    Ok(out)
}

/// `simdram_apps::bitweaving::BitWeavingScan::run` with `LessThan(SCAN_BELOW)`: eager calls.
fn scan(m: &mut SimdramMachine, rec: &mut Recorder, column: &[u64]) -> Result<Vec<u64>> {
    let codes = write(m, rec, SCAN_BITS, column)?;
    let constant = rec.span(Layer::Alloc, || m.alloc(SCAN_BITS, column.len()))?;
    rec.exec(None, || m.init(&constant, SCAN_BELOW))?;
    let (matches, _) = rec.exec(Some((Operation::Greater, SCAN_BITS)), || {
        m.binary(Operation::Greater, &constant, &codes)
    })?;
    free(m, rec, [constant]);
    let out = read(m, rec, &matches)?;
    free(m, rec, [matches, codes]);
    Ok(out)
}

/// `simdram_apps::brightness::Brightness::run`: saturating add as one plan.
fn brightness(m: &mut SimdramMachine, rec: &mut Recorder, pixels: &[u64]) -> Result<Vec<u64>> {
    let n = pixels.len();
    let image = write(m, rec, 8, pixels)?;
    let result = run_plan(m, rec, |plan| {
        let px = plan.input(&image);
        let delta = plan.constant(8, n, BRIGHTNESS_DELTA)?;
        let saturated = plan.constant(8, n, 0xFF)?;
        let sum = plan.add(px, delta)?;
        let no_overflow = plan.greater_equal(sum, px)?;
        let result = plan.select(no_overflow, sum, saturated)?;
        plan.materialize(result)
    })?;
    let out = read(m, rec, &result)?;
    free(m, rec, [image, result]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one data dependence of the kernels' command stream: a knn plan whose two
    /// query constants are equal compiles to one constant broadcast fewer.
    #[test]
    fn knn_query_pairs_never_repeat_a_constant() {
        for seed in 0..1_000 {
            let kernels = Kernels::new(seed, Scale::Full, false);
            for pair in kernels.knn.query.chunks(2) {
                assert!(
                    pair.len() < 2 || pair[0] != pair[1],
                    "seed {seed}: {pair:?}"
                );
            }
        }
    }
}
