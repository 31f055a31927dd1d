//! Multi-device scale-out: ranked [`SimdramMachine`]s behind one machine-like API.
//!
//! One SIMDRAM device computes on the subarrays of a single DRAM rank. Scaling past a
//! rank means **sharding**: a [`ShardedMachine`] owns `N` independent devices, splits
//! every vector across them under a [`ShardMap`] placement policy, runs elementwise
//! bbop operations device-locally, and charges an explicit [`LinkModel`] data-movement
//! cost whenever operands have to cross devices ([`ShardedMachine::reshard`], or a
//! binary op whose operands disagree on placement).
//!
//! The design invariants mirror the single-device machine:
//!
//! * **Bit-identity** — results are element-for-element identical to running the same
//!   operation on one large-enough device, for every [`ShardPolicy`] and either
//!   [`crate::ExecutionPolicy`]. Placement decides *where* an element computes, never
//!   what it computes.
//! * **Honest accounting** — each device keeps its own [`MachineEstimate`],
//!   [`simdram_dram::stats::DeviceStats`] and fault/quarantine state
//!   ([`crate::GuardMode`] scope is per device); [`ShardedMachine::estimate`] folds
//!   them into a [`FleetEstimate`] whose makespan is the max over device busy windows
//!   plus the serialized cross-device movement window.
//! * **Capacity waves** — a shard larger than one device's lane capacity is stored as
//!   consecutive *waves* (each at most one device-full). One device runs its waves
//!   back-to-back; `N` devices run theirs concurrently, which is where the modeled
//!   throughput scaling comes from.

use std::sync::atomic::{AtomicU64, Ordering};

use simdram_dram::stats::DeviceStats;
use simdram_logic::Operation;

use crate::config::SimdramConfig;
use crate::error::{CoreError, Result};
use crate::estimate::{BroadcastEstimate, MachineEstimate};
use crate::guard::FaultLog;
use crate::layout::SimdVector;
use crate::machine::SimdramMachine;

/// Monotonic id source so a [`ShardedVector`] cannot be used on another fleet.
static NEXT_FLEET_ID: AtomicU64 = AtomicU64::new(0);

/// How a [`ShardedMachine`] assigns vector elements to devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardPolicy {
    /// Element `i` of an `n`-element vector lives on device `i / ceil(n / devices)`:
    /// each device owns one contiguous index range. Cheap sequential reads, but
    /// appends always land on the last device.
    Contiguous,
    /// Element `i` lives on device `i % devices`: round-robin placement that balances
    /// any prefix of the index space across the fleet.
    Interleaved,
}

/// The placement function of one sharded vector: policy + fleet width.
///
/// A `ShardMap` is pure arithmetic — it never touches a device — so placement
/// questions ("which device owns element 17?") are answerable without I/O, and the
/// movement cost model can count crossing elements exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    devices: usize,
    policy: ShardPolicy,
}

impl ShardMap {
    /// Creates a map over `devices` ranked devices.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for `devices == 0`: no device could own an element.
    pub fn new(devices: usize, policy: ShardPolicy) -> Result<Self> {
        if devices == 0 {
            return Err(CoreError::Shape(
                "a shard map needs at least one device".into(),
            ));
        }
        Ok(ShardMap { devices, policy })
    }

    /// The placement policy.
    pub fn policy(&self) -> ShardPolicy {
        self.policy
    }

    /// Device owning element `index` of an `len`-element vector.
    pub fn device_of(&self, index: usize, len: usize) -> usize {
        match self.policy {
            ShardPolicy::Contiguous => {
                let span = len.div_ceil(self.devices).max(1);
                (index / span).min(self.devices - 1)
            }
            ShardPolicy::Interleaved => index % self.devices,
        }
    }

    /// Global element indices owned by each device, in ascending order per device.
    pub fn partition(&self, len: usize) -> Vec<Vec<usize>> {
        let mut parts: Vec<Vec<usize>> = vec![Vec::new(); self.devices];
        for index in 0..len {
            parts[self.device_of(index, len)].push(index);
        }
        parts
    }

    /// Elements of an `len`-element vector that change devices when re-placed under
    /// `target` — the exact transfer count the [`LinkModel`] charges for.
    pub fn crossing_elements(&self, target: &ShardMap, len: usize) -> usize {
        (0..len)
            .filter(|&i| self.device_of(i, len) != target.device_of(i, len))
            .count()
    }
}

/// Cost model of the inter-device link (one shared interconnect hop per transfer).
///
/// Defaults model a PCIe-class device-to-device path: 500 ns hop setup, 16 Gb/s of
/// usable bandwidth and 10 pJ/byte of transfer energy — three orders of magnitude
/// above in-DRAM operation energy, which is exactly the asymmetry that makes the
/// paper's "avoid data movement" argument quantitative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Fixed per-transfer setup latency, in nanoseconds.
    pub hop_latency_ns: f64,
    /// Usable link bandwidth, in gigabits per second.
    pub gbps: f64,
    /// Transfer energy, in picojoules per byte moved.
    pub energy_pj_per_byte: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            hop_latency_ns: 500.0,
            gbps: 16.0,
            energy_pj_per_byte: 10.0,
        }
    }
}

impl LinkModel {
    /// Latency of one transfer of `bytes` payload bytes, in nanoseconds.
    pub fn transfer_latency_ns(&self, bytes: usize) -> f64 {
        self.hop_latency_ns + (bytes as f64 * 8.0) / self.gbps
    }

    /// Energy of one transfer of `bytes` payload bytes, in nanojoules.
    pub fn transfer_energy_nj(&self, bytes: usize) -> f64 {
        bytes as f64 * self.energy_pj_per_byte / 1_000.0
    }
}

/// Cumulative cross-device movement charged by a [`ShardedMachine`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MovementTotals {
    /// Reshard operations that actually moved elements.
    pub transfers: usize,
    /// Elements that changed devices.
    pub elements: usize,
    /// Payload bytes moved across the link.
    pub bytes: usize,
    /// Serialized link busy time, in nanoseconds.
    pub latency_ns: f64,
    /// Link transfer energy, in nanojoules.
    pub energy_nj: f64,
}

/// One vector sharded across the fleet: per device, the waves holding its elements.
///
/// Treat it as an opaque handle (like [`SimdVector`]): obtain it from
/// [`ShardedMachine::alloc_and_write`] or an operation, read it back with
/// [`ShardedMachine::read`], release it with [`ShardedMachine::free`]. A handle only
/// works on the fleet that made it.
#[derive(Debug)]
pub struct ShardedVector {
    id: u64,
    /// The id of the [`ShardedMachine`] that made the vector.
    fleet: u64,
    width: usize,
    len: usize,
    map: ShardMap,
    /// `parts[d]` = device `d`'s waves, each at most one device capacity, covering the
    /// device's partition indices in ascending order.
    parts: Vec<Vec<SimdVector>>,
}

impl ShardedVector {
    /// Element width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total element count across all devices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector holds no elements (never produced by this module).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Unique handle id within its machine.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of waves the largest device shard needs (1 unless the vector exceeds a
    /// single device's lane capacity).
    pub fn max_waves(&self) -> usize {
        self.parts.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Per-device health snapshot surfaced by [`ShardedMachine::health`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceHealth {
    /// Device rank (index into the fleet).
    pub device: usize,
    /// Compute chunks this device has quarantined (guard-mode scope is per device).
    pub quarantined: Vec<usize>,
    /// Compute chunks still reservable on this device.
    pub free_chunks: usize,
    /// The device's cumulative fault log.
    pub fault_log: FaultLog,
}

/// Fleet-level cost roll-up: per-device estimates, their aggregate, and the movement
/// bill — everything needed to compare `N` devices against one.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEstimate {
    /// Per-device cumulative estimates, in rank order.
    pub per_device: Vec<MachineEstimate>,
    /// Cross-device movement charged so far, as raw link totals.
    pub movement: MovementTotals,
    /// Movement folded through the estimate machinery (one pseudo-broadcast per
    /// transfer, cycles derived from the devices' DRAM clock), so link time shows up
    /// on the same axis as compute time.
    pub movement_estimate: MachineEstimate,
}

impl FleetEstimate {
    /// Sum of per-device busy windows: total device-time consumed.
    pub fn busy_latency_ns(&self) -> f64 {
        self.per_device.iter().map(|e| e.busy_latency_ns).sum()
    }

    /// Fleet makespan: the slowest device's busy window plus the serialized
    /// cross-device movement window. Devices run concurrently; the link does not.
    pub fn makespan_ns(&self) -> f64 {
        let compute = self
            .per_device
            .iter()
            .map(|e| e.busy_latency_ns)
            .fold(0.0f64, f64::max);
        compute + self.movement.latency_ns
    }

    /// Total broadcasts issued across the fleet.
    pub fn broadcasts(&self) -> usize {
        self.per_device.iter().map(|e| e.broadcasts).sum()
    }

    /// Total dynamic energy (compute + movement), in nanojoules.
    pub fn energy_nj(&self) -> f64 {
        self.per_device.iter().map(|e| e.energy_nj).sum::<f64>() + self.movement.energy_nj
    }
}

/// `N` ranked [`SimdramMachine`]s behind one machine-like elementwise API.
///
/// # Example
///
/// ```
/// use simdram_core::{LinkModel, ShardPolicy, ShardedMachine, SimdramConfig};
/// use simdram_logic::Operation;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut fleet = ShardedMachine::new(
///     SimdramConfig::functional_test(),
///     2,
///     ShardPolicy::Interleaved,
///     LinkModel::default(),
/// )?;
/// let a = fleet.alloc_and_write(8, &[1, 2, 3, 4])?;
/// let b = fleet.alloc_and_write(8, &[10, 20, 30, 40])?;
/// let sum = fleet.binary(Operation::Add, &a, &b)?;
/// assert_eq!(fleet.read(&sum)?, vec![11, 22, 33, 44]);
/// // Device-local operands moved nothing across the link.
/// assert_eq!(fleet.movement().elements, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedMachine {
    id: u64,
    devices: Vec<SimdramMachine>,
    policy: ShardPolicy,
    link: LinkModel,
    movement: MovementTotals,
    movement_estimate: MachineEstimate,
    next_id: u64,
}

impl ShardedMachine {
    /// Builds a fleet of `devices` identical machines from one config.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for an empty fleet, plus any
    /// [`SimdramMachine::new`] error.
    pub fn new(
        config: SimdramConfig,
        devices: usize,
        policy: ShardPolicy,
        link: LinkModel,
    ) -> Result<Self> {
        if devices == 0 {
            return Err(CoreError::Shape(
                "a sharded machine needs at least one device".into(),
            ));
        }
        let devices = (0..devices)
            .map(|_| SimdramMachine::new(config.clone()))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedMachine {
            id: NEXT_FLEET_ID.fetch_add(1, Ordering::Relaxed),
            devices,
            policy,
            link,
            movement: MovementTotals::default(),
            movement_estimate: MachineEstimate::new(),
            next_id: 0,
        })
    }

    /// Number of devices in the fleet.
    pub fn devices(&self) -> usize {
        self.devices.len()
    }

    /// The fleet's default placement policy for new vectors.
    pub fn policy(&self) -> ShardPolicy {
        self.policy
    }

    /// Read-only access to one device (rank order), e.g. for per-device assertions.
    pub fn device(&self, rank: usize) -> &SimdramMachine {
        &self.devices[rank]
    }

    /// Elements one device can hold in a single wave (all compute subarrays).
    pub fn wave_capacity(&self) -> usize {
        let d = &self.devices[0];
        d.lanes_per_subarray() * d.compute_chunks()
    }

    /// The shard map of `policy` over this fleet, which is never empty.
    fn map(&self, policy: ShardPolicy) -> ShardMap {
        ShardMap {
            devices: self.devices.len(),
            policy,
        }
    }

    /// Stamps a new handle with the next vector id and this fleet's id.
    fn mint(
        &mut self,
        width: usize,
        len: usize,
        map: ShardMap,
        parts: Vec<Vec<SimdVector>>,
    ) -> ShardedVector {
        let id = self.next_id;
        self.next_id += 1;
        ShardedVector {
            id,
            fleet: self.id,
            width,
            len,
            map,
            parts,
        }
    }

    /// Rejects a handle made by another fleet: its parts name that fleet's devices
    /// and rows.
    fn check(&self, vector: &ShardedVector) -> Result<()> {
        if vector.fleet == self.id {
            Ok(())
        } else {
            Err(CoreError::InvalidHandle(format!(
                "sharded vector {} belongs to another fleet",
                vector.id
            )))
        }
    }

    /// Cumulative cross-device movement totals.
    pub fn movement(&self) -> MovementTotals {
        self.movement
    }

    /// Allocates and writes a vector under the fleet's default policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for empty input, plus any device-level
    /// allocation/write error.
    pub fn alloc_and_write(&mut self, width: usize, values: &[u64]) -> Result<ShardedVector> {
        let policy = self.policy;
        self.alloc_and_write_with(width, values, policy)
    }

    /// Allocates and writes a vector under an explicit placement policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] for empty input, plus any device-level
    /// allocation/write error.
    pub fn alloc_and_write_with(
        &mut self,
        width: usize,
        values: &[u64],
        policy: ShardPolicy,
    ) -> Result<ShardedVector> {
        if values.is_empty() {
            return Err(CoreError::Shape(
                "cannot shard an empty vector across devices".into(),
            ));
        }
        let map = self.map(policy);
        let wave = self.wave_capacity();
        let mut parts: Vec<Vec<SimdVector>> = Vec::with_capacity(self.devices.len());
        for (rank, indices) in map.partition(values.len()).into_iter().enumerate() {
            let mut waves = Vec::new();
            for chunk in indices.chunks(wave) {
                let local: Vec<u64> = chunk.iter().map(|&i| values[i]).collect();
                waves.push(self.devices[rank].alloc_and_write(width, &local)?);
            }
            parts.push(waves);
        }
        Ok(self.mint(width, values.len(), map, parts))
    }

    /// Reads the vector back in global element order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidHandle`] for another fleet's vector, plus any
    /// device-level read error.
    pub fn read(&mut self, vector: &ShardedVector) -> Result<Vec<u64>> {
        self.check(vector)?;
        let mut out = vec![0u64; vector.len];
        let wave = self.wave_capacity();
        for (rank, indices) in vector.map.partition(vector.len).into_iter().enumerate() {
            for (wave_index, chunk) in indices.chunks(wave).enumerate() {
                let local = self.devices[rank].read(&vector.parts[rank][wave_index])?;
                for (&global, value) in chunk.iter().zip(local) {
                    out[global] = value;
                }
            }
        }
        Ok(out)
    }

    /// Releases every device-local wave of the vector. Another fleet's vector is
    /// ignored: its rows are not this fleet's to free.
    pub fn free(&mut self, vector: ShardedVector) {
        if self.check(&vector).is_err() {
            return;
        }
        for (rank, waves) in vector.parts.into_iter().enumerate() {
            for wave in waves {
                self.devices[rank].free(wave);
            }
        }
    }

    /// Elementwise binary bbop across the fleet. Operands must agree in width and
    /// length; if their placements disagree, `b` is resharded to `a`'s map first and
    /// the crossing elements are charged to the [`LinkModel`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidHandle`] for another fleet's operand,
    /// [`CoreError::Shape`] on width/length mismatch, plus any device-level execution
    /// error.
    pub fn binary(
        &mut self,
        op: Operation,
        a: &ShardedVector,
        b: &ShardedVector,
    ) -> Result<ShardedVector> {
        self.check(a)?;
        self.check(b)?;
        if a.width != b.width {
            return Err(CoreError::Shape(format!(
                "sharded operand widths differ: {} vs {} bits",
                a.width, b.width
            )));
        }
        if a.len != b.len {
            return Err(CoreError::Shape(format!(
                "sharded operand lengths differ: {} vs {} elements",
                a.len, b.len
            )));
        }
        if a.map != b.map {
            // Cross-device operands: align `b` to `a`'s placement over the link, run
            // device-locally, then drop the aligned copy.
            let aligned = self.reshard(b, a.map.policy())?;
            let result = self.binary_aligned(op, a, &aligned);
            self.free(aligned);
            return result;
        }
        self.binary_aligned(op, a, b)
    }

    fn binary_aligned(
        &mut self,
        op: Operation,
        a: &ShardedVector,
        b: &ShardedVector,
    ) -> Result<ShardedVector> {
        let mut parts: Vec<Vec<SimdVector>> = Vec::with_capacity(self.devices.len());
        for rank in 0..self.devices.len() {
            let mut waves = Vec::with_capacity(a.parts[rank].len());
            for (wa, wb) in a.parts[rank].iter().zip(&b.parts[rank]) {
                let (out, _) = self.devices[rank].binary(op, wa, wb)?;
                waves.push(out);
            }
            parts.push(waves);
        }
        Ok(self.mint(op.output_width(a.width), a.len, a.map, parts))
    }

    /// Elementwise unary bbop across the fleet (always device-local).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidHandle`] for another fleet's vector, plus any
    /// device-level execution error.
    pub fn unary(&mut self, op: Operation, a: &ShardedVector) -> Result<ShardedVector> {
        self.check(a)?;
        let mut parts: Vec<Vec<SimdVector>> = Vec::with_capacity(self.devices.len());
        for rank in 0..self.devices.len() {
            let mut waves = Vec::with_capacity(a.parts[rank].len());
            for wa in &a.parts[rank] {
                let (out, _) = self.devices[rank].unary(op, wa)?;
                waves.push(out);
            }
            parts.push(waves);
        }
        Ok(self.mint(op.output_width(a.width), a.len, a.map, parts))
    }

    /// Re-places a vector under `policy`, charging the link for every element whose
    /// owning device changes (elements that stay put are free — resharding between
    /// identical maps costs nothing). Returns the new vector; the source stays valid.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidHandle`] for another fleet's vector (before any
    /// movement is charged), plus any device-level read/alloc error.
    pub fn reshard(
        &mut self,
        vector: &ShardedVector,
        policy: ShardPolicy,
    ) -> Result<ShardedVector> {
        self.check(vector)?;
        let target = self.map(policy);
        let moved = vector.map.crossing_elements(&target, vector.len);
        if moved > 0 {
            let bytes = moved * vector.width.div_ceil(8);
            let latency_ns = self.link.transfer_latency_ns(bytes);
            let energy_nj = self.link.transfer_energy_nj(bytes);
            self.movement.transfers += 1;
            self.movement.elements += moved;
            self.movement.bytes += bytes;
            self.movement.latency_ns += latency_ns;
            self.movement.energy_nj += energy_nj;
            // One pseudo-broadcast on the estimate axis: the link busy window with
            // cycles on the devices' DRAM clock, zero DRAM commands.
            let cycles = self.devices[0].config().dram.timing.cycles(latency_ns);
            self.movement_estimate.record(&BroadcastEstimate {
                chunks: moved,
                commands: 0,
                latency_ns,
                cycles,
                energy_nj,
                background_nj: 0.0,
                bank_state: None,
            });
        }
        let values = self.read(vector)?;
        self.alloc_and_write_with(vector.width, &values, policy)
    }

    /// Fleet-level cost roll-up (see [`FleetEstimate`]).
    pub fn estimate(&self) -> FleetEstimate {
        FleetEstimate {
            per_device: self.devices.iter().map(|d| d.estimate().clone()).collect(),
            movement: self.movement,
            movement_estimate: self.movement_estimate.clone(),
        }
    }

    /// Functional command accounting merged across every device.
    pub fn device_stats(&self) -> DeviceStats {
        let mut merged = DeviceStats::new();
        for device in &self.devices {
            merged.merge(device.device_stats());
        }
        merged
    }

    /// Per-device health: quarantine sets, free capacity and fault logs, in rank
    /// order. Quarantine is scoped per device — one device's bad subarray never
    /// blocks another device's chunks.
    pub fn health(&self) -> Vec<DeviceHealth> {
        self.devices
            .iter()
            .enumerate()
            .map(|(device, m)| DeviceHealth {
                device,
                quarantined: m.quarantined_chunks(),
                free_chunks: m.free_chunks(),
                fault_log: m.fault_log(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(devices: usize, policy: ShardPolicy) -> ShardedMachine {
        ShardedMachine::new(
            SimdramConfig::functional_test(),
            devices,
            policy,
            LinkModel::default(),
        )
        .unwrap()
    }

    #[test]
    fn shard_map_partitions_cover_every_index_exactly_once() {
        for policy in [ShardPolicy::Contiguous, ShardPolicy::Interleaved] {
            for devices in [1, 2, 3, 4] {
                for len in [1, 2, 7, 16, 33] {
                    let map = ShardMap::new(devices, policy).unwrap();
                    let parts = map.partition(len);
                    assert_eq!(parts.len(), devices);
                    let mut seen: Vec<usize> = parts.iter().flatten().copied().collect();
                    seen.sort_unstable();
                    assert_eq!(seen, (0..len).collect::<Vec<_>>());
                    for (rank, part) in parts.iter().enumerate() {
                        for &i in part {
                            assert_eq!(map.device_of(i, len), rank);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shard_policies_place_elements_as_documented() {
        let owners = |policy| {
            let map = ShardMap::new(2, policy).unwrap();
            (0..5).map(|i| map.device_of(i, 5)).collect::<Vec<_>>()
        };
        assert_eq!(owners(ShardPolicy::Contiguous), vec![0, 0, 0, 1, 1]);
        assert_eq!(owners(ShardPolicy::Interleaved), vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn foreign_handles_are_rejected_not_indexed() {
        let invalid = |r: Result<ShardedVector>| matches!(r, Err(CoreError::InvalidHandle(_)));
        for policy in [ShardPolicy::Contiguous, ShardPolicy::Interleaved] {
            let mut two = fleet(2, policy);
            let foreign = two.alloc_and_write(8, &[1, 2, 3, 4, 5]).unwrap();
            // A narrower fleet used to index past its devices; a same-width twin used
            // to read its own rows back as if they were the foreign vector's.
            for devices in [1, 2] {
                let mut other = fleet(devices, policy);
                let local = other.alloc_and_write(8, &[9, 9, 9, 9, 9]).unwrap();
                assert!(matches!(
                    other.read(&foreign),
                    Err(CoreError::InvalidHandle(_))
                ));
                assert!(invalid(other.unary(Operation::Abs, &foreign)));
                assert!(invalid(other.binary(Operation::Add, &foreign, &local)));
                assert!(invalid(other.binary(Operation::Add, &local, &foreign)));
                assert!(invalid(other.reshard(&foreign, ShardPolicy::Interleaved)));
                assert_eq!(other.movement(), MovementTotals::default());
                let stray = two.alloc_and_write(8, &[7]).unwrap();
                other.free(stray);
                assert_eq!(other.read(&local).unwrap(), vec![9; 5]);
            }
            assert_eq!(two.read(&foreign).unwrap(), vec![1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn shard_map_rejects_an_empty_fleet() {
        for policy in [ShardPolicy::Contiguous, ShardPolicy::Interleaved] {
            assert!(matches!(ShardMap::new(0, policy), Err(CoreError::Shape(_))));
        }
    }

    #[test]
    fn sharded_elementwise_matches_single_device() {
        let a_vals: Vec<u64> = (0..10u64).map(|i| (i * 37 + 11) & 0xFF).collect();
        let b_vals: Vec<u64> = (0..10u64).map(|i| (i * 91 + 3) & 0xFF).collect();
        let mut solo = SimdramMachine::new(SimdramConfig::functional_test()).unwrap();
        let sa = solo.alloc_and_write(8, &a_vals).unwrap();
        let sb = solo.alloc_and_write(8, &b_vals).unwrap();
        let (expected, _) = solo.binary(Operation::Add, &sa, &sb).unwrap();
        let expected = solo.read(&expected).unwrap();

        for policy in [ShardPolicy::Contiguous, ShardPolicy::Interleaved] {
            let mut m = fleet(3, policy);
            let a = m.alloc_and_write(8, &a_vals).unwrap();
            let b = m.alloc_and_write(8, &b_vals).unwrap();
            let sum = m.binary(Operation::Add, &a, &b).unwrap();
            assert_eq!(m.read(&sum).unwrap(), expected);
            assert_eq!(m.movement().elements, 0);
        }
    }

    #[test]
    fn oversized_shards_split_into_waves_and_still_read_back() {
        let mut m = fleet(2, ShardPolicy::Contiguous);
        // More than 2 × one device's wave capacity forces multiple waves per device.
        let len = m.wave_capacity() * 2 + 3;
        let values: Vec<u64> = (0..len as u64).map(|i| i & 0xFF).collect();
        let v = m.alloc_and_write(8, &values).unwrap();
        assert!(v.max_waves() >= 2);
        assert_eq!(m.read(&v).unwrap(), values);
        let doubled = m.binary(Operation::Add, &v, &v).unwrap();
        let expected: Vec<u64> = values.iter().map(|&x| (x + x) & 0xFF).collect();
        assert_eq!(m.read(&doubled).unwrap(), expected);
        m.free(doubled);
        m.free(v);
    }

    #[test]
    fn cross_device_operands_charge_the_link_model() {
        let mut m = fleet(4, ShardPolicy::Contiguous);
        let vals: Vec<u64> = (0..16u64).collect();
        let a = m
            .alloc_and_write_with(8, &vals, ShardPolicy::Contiguous)
            .unwrap();
        let b = m
            .alloc_and_write_with(8, &vals, ShardPolicy::Interleaved)
            .unwrap();
        assert_eq!(m.movement().transfers, 0);
        let sum = m.binary(Operation::Add, &a, &b).unwrap();
        let expected: Vec<u64> = vals.iter().map(|&x| x + x).collect();
        assert_eq!(m.read(&sum).unwrap(), expected);
        // 16 elements, 4 devices: contiguous [0..4)→0,… vs interleaved i%4 — only the
        // diagonal stays put, so 12 elements crossed in one transfer.
        let movement = m.movement();
        assert_eq!(movement.transfers, 1);
        assert_eq!(movement.elements, 12);
        assert_eq!(movement.bytes, 12);
        assert!(movement.latency_ns > 0.0);
        assert!(movement.energy_nj > 0.0);
        // The movement bill rides the estimate axis and the fleet makespan.
        let estimate = m.estimate();
        assert_eq!(estimate.movement_estimate.broadcasts, 1);
        assert!(estimate.movement_estimate.cycles > 0);
        assert!(estimate.makespan_ns() > estimate.per_device[0].busy_latency_ns);
    }

    #[test]
    fn reshard_between_identical_maps_is_free() {
        let mut m = fleet(2, ShardPolicy::Interleaved);
        let v = m.alloc_and_write(8, &[1, 2, 3, 4]).unwrap();
        let same = m.reshard(&v, ShardPolicy::Interleaved).unwrap();
        assert_eq!(m.movement().transfers, 0);
        assert_eq!(m.read(&same).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn fleet_health_and_stats_aggregate_per_device() {
        let mut m = fleet(2, ShardPolicy::Interleaved);
        let v = m.alloc_and_write(8, &[1, 2, 3, 4]).unwrap();
        let _ = m.unary(Operation::Abs, &v).unwrap();
        let health = m.health();
        assert_eq!(health.len(), 2);
        assert!(health.iter().all(|h| h.quarantined.is_empty()));
        let merged = m.device_stats();
        let per_device_total: usize = (0..m.devices())
            .map(|r| m.device(r).device_stats().total_commands())
            .sum();
        assert_eq!(merged.total_commands(), per_device_total);
        assert!(merged.total_commands() > 0);
        // Both devices computed (interleaved placement touches every rank).
        assert!(m.device(0).device_stats().total_commands() > 0);
        assert!(m.device(1).device_stats().total_commands() > 0);
    }

    #[test]
    fn empty_fleet_and_empty_vectors_are_rejected() {
        assert!(matches!(
            ShardedMachine::new(
                SimdramConfig::functional_test(),
                0,
                ShardPolicy::Contiguous,
                LinkModel::default(),
            ),
            Err(CoreError::Shape(_))
        ));
        let mut m = fleet(2, ShardPolicy::Contiguous);
        assert!(matches!(
            m.alloc_and_write(8, &[]),
            Err(CoreError::Shape(_))
        ));
    }
}
