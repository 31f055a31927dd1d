//! Deterministic fault injection for triple-row activation (TRA).
//!
//! SIMDRAM's correctness rests on TRA charge sharing, which the paper analyzes under
//! process variation ([`crate::variation`]). This module turns that static analysis into
//! exercised behaviour: a seeded [`FaultModel`] installs per-subarray [`FaultState`]
//! streams that flip sense-amplifier bits during TRAs, in **both** the interpreted and
//! the compiled ([`crate::rowops`]) functional paths.
//!
//! # Determinism contract
//!
//! Fault draws are a pure function of `(model seed, subarray index, TRA stream
//! position, column)` — never of wall-clock, thread schedule or execution mode. The
//! stream position is the subarray's persistent TRA counter plus the μProgram-relative
//! TRA ordinal ([`crate::RowOpBlock::maj_ordinals`]), so:
//!
//! * sequential and threaded broadcast policies inject identically;
//! * the interpreted and compiled functional modes produce **bit-identical data
//!   results**. The compiled path may elide a TRA whose restored rows are all dead —
//!   the interpreted path still executes it, but any bits it corrupts are by
//!   construction never read again, so only the *injected-fault counters* may differ
//!   between modes, never the data;
//! * re-running the same μProgram (e.g. a guarded retry) advances the stream and draws
//!   fresh faults, so transient faults clear on retry while [`FaultModel::RowMap`] weak
//!   columns keep failing.
//!
//! [`FaultModel::Tra`] only flips *marginal* columns — those whose three source cells
//! split 2-vs-1, the worst case the Monte-Carlo model in [`crate::variation`] scores —
//! because a 3-vs-0 column has three cells driving the bitline in the same direction
//! and does not fail under realistic variation.

use crate::variation::{TechnologyNode, VariationModel};

/// Monte-Carlo trials used to calibrate a node's per-TRA failure probability once, at
/// [`FaultModel::tra_for_node`] construction time.
const CALIBRATION_TRIALS: usize = 4_000;
/// Fixed calibration seed: the node → probability mapping is part of the model's
/// identity, independent of the injection seed.
const CALIBRATION_SEED: u64 = 0x51AD_CA1B;
/// Probability that a weak column flips on any given TRA under [`FaultModel::RowMap`].
/// High enough that a weak subarray almost never survives a retry budget (driving
/// quarantine), low enough that two redundant runs disagree with high probability
/// (making the fault *detectable* rather than silently repeated).
const WEAK_FLIP_PROBABILITY: f64 = 0.75;
/// Fraction of subarrays that carry weak columns under [`FaultModel::RowMap`] (1 in 4).
const WEAK_SUBARRAY_DENSITY: u64 = 4;
/// Weak columns per affected subarray under [`FaultModel::RowMap`].
const WEAK_COLUMNS_PER_SUBARRAY: usize = 2;

/// Which faults, if any, a [`crate::DramDevice`] injects during TRAs.
///
/// Selected through `SimdramConfig` in `simdram-core`, or forced by its
/// `SIMDRAM_FAULTS` environment override (`off | tra:<node>:<seed> | rowmap:<seed>`)
/// like the other runtime axes. The default [`FaultModel::Off`] injects nothing and is
/// bit-identical to builds predating the fault subsystem.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum FaultModel {
    /// No injection (the reference behaviour).
    #[default]
    Off,
    /// Transient per-TRA bit flips: every TRA flips each *marginal* column (source
    /// cells split 2-vs-1) independently with `probability`.
    Tra {
        /// Per-TRA, per-marginal-column flip probability in `[0, 1]`.
        probability: f64,
        /// Stream seed; different seeds give statistically independent fault streams.
        seed: u64,
        /// The technology node the probability was calibrated from, when constructed
        /// via [`FaultModel::tra_for_node`].
        node: Option<TechnologyNode>,
    },
    /// Persistent weak-cell map: a seeded subset of subarrays gets fixed weak columns
    /// that flip with high probability on *every* TRA — the repeat offenders the
    /// quarantine machinery in `simdram-core` exists to retire.
    RowMap {
        /// Seed selecting which subarrays and columns are weak.
        seed: u64,
    },
}

impl FaultModel {
    /// A transient-fault model whose flip probability is the Monte-Carlo worst-case
    /// TRA failure probability of `node` ([`VariationModel::tra_failure_probability`]).
    pub fn tra_for_node(node: TechnologyNode, seed: u64) -> Self {
        let probability = VariationModel::for_node(node)
            .tra_failure_probability(CALIBRATION_TRIALS, CALIBRATION_SEED);
        FaultModel::Tra {
            probability,
            seed,
            node: Some(node),
        }
    }

    /// A transient-fault model with an explicit flip probability (clamped to `[0, 1]`),
    /// bypassing node calibration — how tests and benches dial in fault rates high
    /// enough to exercise detection and retry deterministically.
    pub fn tra_with_probability(probability: f64, seed: u64) -> Self {
        FaultModel::Tra {
            probability: probability.clamp(0.0, 1.0),
            seed,
            node: None,
        }
    }

    /// A persistent weak-cell map derived from `seed`.
    pub fn rowmap(seed: u64) -> Self {
        FaultModel::RowMap { seed }
    }

    /// Returns `true` when no faults are injected.
    pub fn is_off(&self) -> bool {
        matches!(self, FaultModel::Off)
    }

    /// Builds the per-subarray injection state for the subarray at device-wide linear
    /// index `subarray_index` (bank-major), or `None` when this model injects nothing
    /// there. Pure in `(self, subarray_index, columns)`.
    pub fn state_for(&self, subarray_index: usize, columns: usize) -> Option<FaultState> {
        match *self {
            FaultModel::Off => None,
            FaultModel::Tra {
                probability, seed, ..
            } => Some(FaultState {
                kind: FaultKind::Tra { probability },
                stream_seed: mix(seed ^ mix(subarray_index as u64)),
                counter: 0,
                injected: 0,
            }),
            FaultModel::RowMap { seed } => {
                let identity = mix(seed ^ mix(subarray_index as u64 ^ 0xD1E5_EA5E));
                if identity % WEAK_SUBARRAY_DENSITY != 0 || columns == 0 {
                    return None;
                }
                let mut weak_columns: Vec<u32> = (0..WEAK_COLUMNS_PER_SUBARRAY)
                    .map(|i| (mix(identity ^ (i as u64 + 1)) % columns as u64) as u32)
                    .collect();
                weak_columns.sort_unstable();
                weak_columns.dedup();
                Some(FaultState {
                    kind: FaultKind::RowMap { weak_columns },
                    stream_seed: mix(seed ^ mix(subarray_index as u64)),
                    counter: 0,
                    injected: 0,
                })
            }
        }
    }
}

/// The flavour of a subarray's installed fault stream (see [`FaultModel`]).
#[derive(Debug, Clone, PartialEq)]
enum FaultKind {
    /// Transient marginal-column flips with this probability.
    Tra {
        /// Per-TRA, per-marginal-column flip probability.
        probability: f64,
    },
    /// Fixed weak columns flipping with [`WEAK_FLIP_PROBABILITY`].
    RowMap {
        /// Sorted, deduplicated weak column indices.
        weak_columns: Vec<u32>,
    },
}

/// Per-subarray fault-injection state: the seeded stream plus the persistent TRA
/// counter that keys it (see the module docs for the determinism contract).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultState {
    kind: FaultKind,
    stream_seed: u64,
    counter: u64,
    injected: u64,
}

impl FaultState {
    /// The subarray's position in its TRA stream: the key of the *next* TRA.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// Total bits flipped by this stream so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Consumes and returns the next interpreted-path TRA key. The interpreted path
    /// executes every TRA in μProgram order, so post-increment reproduces exactly the
    /// `counter_base + ordinal` keys the compiled path computes.
    pub(crate) fn take_key(&mut self) -> u64 {
        let key = self.counter;
        self.counter += 1;
        key
    }

    /// Advances the stream past a compiled block's `tra_total` TRAs (including any the
    /// compiler elided), keeping the stream position mode-independent.
    pub(crate) fn advance(&mut self, tra_count: u64) {
        self.counter += tra_count;
    }

    /// Injects this stream's faults for the TRA at stream position `key` into the
    /// freshly latched majority `sense` words. `is_marginal(col)` reports whether the
    /// three source cells of `col` split 2-vs-1; transient faults only land there.
    pub(crate) fn corrupt_tra<F>(
        &mut self,
        key: u64,
        sense: &mut [u64],
        columns: usize,
        is_marginal: F,
    ) where
        F: Fn(usize) -> bool,
    {
        match &self.kind {
            FaultKind::Tra { probability } => {
                let p = *probability;
                if p <= 0.0 || columns == 0 {
                    return;
                }
                // Geometric-skip sampling: draw the gap to the next *candidate* column
                // directly instead of one coin per column, so realistic (tiny) node
                // probabilities cost ~O(faults), not O(columns), per TRA.
                let stream = mix(self.stream_seed ^ mix(key));
                let mut draws = 0u64;
                let mut col = 0usize;
                loop {
                    let gap = geometric_gap(mix(stream ^ draws), p);
                    draws += 1;
                    if gap >= (columns - col) as u64 {
                        return;
                    }
                    col += gap as usize;
                    if is_marginal(col) {
                        sense[col / 64] ^= 1u64 << (col % 64);
                        self.injected += 1;
                    }
                    col += 1;
                    if col >= columns {
                        return;
                    }
                }
            }
            FaultKind::RowMap { weak_columns } => {
                let threshold = (WEAK_FLIP_PROBABILITY * u64::MAX as f64) as u64;
                for &weak in weak_columns {
                    let col = weak as usize;
                    if col >= columns {
                        continue;
                    }
                    let coin = mix(self.stream_seed ^ mix(key) ^ ((weak as u64 + 1) << 32));
                    if coin <= threshold {
                        sense[col / 64] ^= 1u64 << (col % 64);
                        self.injected += 1;
                    }
                }
            }
        }
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed keyed hash. Fault streams need keyed
/// random access (subarray × stream position × column), which a sequential PRNG cannot
/// give; a statistical-quality mixer is exactly enough for simulation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps one uniform draw to the number of Bernoulli(`p`) failures skipped before the
/// next success (the geometric distribution's gap), saturating at `u64::MAX`.
fn geometric_gap(draw: u64, p: f64) -> u64 {
    if p >= 1.0 {
        return 0;
    }
    // 53 uniform mantissa bits in [0, 1); guard against ln(0).
    let u = ((draw >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    let gap = (1.0 - u).ln() / (1.0 - p).ln();
    if gap >= u64::MAX as f64 {
        u64::MAX
    } else {
        gap as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_the_default_and_installs_nothing() {
        assert!(FaultModel::default().is_off());
        assert!(FaultModel::Off.state_for(3, 256).is_none());
    }

    #[test]
    fn node_calibration_matches_the_variation_model() {
        let model = FaultModel::tra_for_node(TechnologyNode::Nm7, 1);
        let expected = VariationModel::for_node(TechnologyNode::Nm7)
            .tra_failure_probability(CALIBRATION_TRIALS, CALIBRATION_SEED);
        match model {
            FaultModel::Tra { probability, .. } => assert_eq!(probability, expected),
            other => panic!("expected Tra, got {other:?}"),
        }
    }

    #[test]
    fn tra_injection_is_deterministic_and_marginal_only() {
        let model = FaultModel::tra_with_probability(0.5, 11);
        let columns = 192;
        let mut a = model.state_for(0, columns).unwrap();
        let mut b = model.state_for(0, columns).unwrap();
        let mut sense_a = vec![0u64; 3];
        let mut sense_b = vec![0u64; 3];
        // Only even columns marginal: no odd column may ever flip.
        a.corrupt_tra(0, &mut sense_a, columns, |c| c % 2 == 0);
        b.corrupt_tra(0, &mut sense_b, columns, |c| c % 2 == 0);
        assert_eq!(sense_a, sense_b);
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected() > 0, "p=0.5 over 96 marginal columns must flip");
        for word in &sense_a {
            assert_eq!(word & 0xAAAA_AAAA_AAAA_AAAA, 0, "odd column flipped");
        }
        // A different stream position draws a different pattern.
        let mut later = vec![0u64; 3];
        a.corrupt_tra(1, &mut later, columns, |c| c % 2 == 0);
        assert_ne!(later, sense_a);
    }

    #[test]
    fn different_subarrays_draw_independent_streams() {
        let model = FaultModel::tra_with_probability(0.5, 11);
        let columns = 256;
        let mut s0 = model.state_for(0, columns).unwrap();
        let mut s1 = model.state_for(1, columns).unwrap();
        let mut sense0 = vec![0u64; 4];
        let mut sense1 = vec![0u64; 4];
        s0.corrupt_tra(0, &mut sense0, columns, |_| true);
        s1.corrupt_tra(0, &mut sense1, columns, |_| true);
        assert_ne!(sense0, sense1);
    }

    #[test]
    fn interpreted_and_compiled_key_bookkeeping_agree() {
        let model = FaultModel::tra_with_probability(0.1, 3);
        let mut interp = model.state_for(5, 64).unwrap();
        let mut compiled = model.state_for(5, 64).unwrap();
        // Interpreted: three TRAs consume keys 0, 1, 2.
        assert_eq!(interp.take_key(), 0);
        assert_eq!(interp.take_key(), 1);
        assert_eq!(interp.take_key(), 2);
        // Compiled: the block executes ordinals {0, 2} (ordinal 1 elided) and then
        // advances by the full TRA total; the streams end at the same position.
        compiled.advance(3);
        assert_eq!(interp.counter(), compiled.counter());
    }

    #[test]
    fn rowmap_selects_a_seeded_subset_with_stable_weak_columns() {
        let model = FaultModel::rowmap(7);
        let columns = 256;
        let states: Vec<Option<FaultState>> =
            (0..64).map(|i| model.state_for(i, columns)).collect();
        let weak = states.iter().flatten().count();
        assert!(weak > 0, "some subarrays must be weak");
        assert!(weak < 64, "not every subarray may be weak");
        // Same model, same indices → identical maps.
        let again: Vec<Option<FaultState>> = (0..64).map(|i| model.state_for(i, columns)).collect();
        assert_eq!(states, again);
        // Weak columns keep flipping across stream positions (persistent, not
        // transient): over many TRAs each weak column must flip at least once.
        let mut state = states.into_iter().flatten().next().unwrap();
        let mut flipped = vec![0u64; 4];
        for key in 0..64 {
            state.corrupt_tra(key, &mut flipped, columns, |_| true);
        }
        assert!(state.injected() > 32, "weak columns flip at ~0.75 per TRA");
    }

    #[test]
    fn geometric_gap_scales_with_probability() {
        // At p=1 every column is a candidate; at tiny p the expected gap is ~1/p.
        assert_eq!(geometric_gap(12345, 1.0), 0);
        let p = 1e-6;
        let mean: f64 = (0..1000)
            .map(|i| geometric_gap(mix(i), p) as f64)
            .sum::<f64>()
            / 1000.0;
        assert!(
            mean > 0.2 / p && mean < 5.0 / p,
            "mean gap {mean} vs 1/p {}",
            1.0 / p
        );
    }
}
