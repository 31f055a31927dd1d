//! A DRAM bank: a collection of subarrays that can compute in lock-step.
//!
//! SIMDRAM exploits *subarray-level parallelism*: the memory controller broadcasts the same
//! μProgram command stream to many subarrays of a bank simultaneously, so the latency of an
//! operation is paid once per bank while the number of SIMD lanes scales with the number of
//! participating subarrays.

use std::collections::HashMap;

use crate::config::DramConfig;
use crate::error::{DramError, Result};
use crate::subarray::{RowAddr, Subarray};

/// A bank containing `subarrays_per_bank` compute-capable subarrays.
#[derive(Debug, Clone)]
pub struct Bank {
    subarrays: Vec<Subarray>,
}

impl Bank {
    /// Creates a bank with the geometry of `config`.
    pub fn new(config: &DramConfig) -> Self {
        Bank {
            subarrays: (0..config.subarrays_per_bank)
                .map(|_| Subarray::new(config))
                .collect(),
        }
    }

    /// Number of subarrays in the bank.
    pub fn subarray_count(&self) -> usize {
        self.subarrays.len()
    }

    /// Immutable access to a subarray.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::SubarrayOutOfRange`] if the index is invalid.
    pub fn subarray(&self, index: usize) -> Result<&Subarray> {
        self.subarrays
            .get(index)
            .ok_or(DramError::SubarrayOutOfRange {
                subarray: index,
                subarrays: self.subarrays.len(),
            })
    }

    /// Mutable access to a subarray.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::SubarrayOutOfRange`] if the index is invalid.
    pub fn subarray_mut(&mut self, index: usize) -> Result<&mut Subarray> {
        let subarrays = self.subarrays.len();
        self.subarrays
            .get_mut(index)
            .ok_or(DramError::SubarrayOutOfRange {
                subarray: index,
                subarrays,
            })
    }

    /// Iterates over the subarrays.
    pub fn iter(&self) -> impl Iterator<Item = &Subarray> {
        self.subarrays.iter()
    }

    /// Iterates mutably over the subarrays.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Subarray> {
        self.subarrays.iter_mut()
    }

    /// Borrows several subarrays mutably at once, one `&mut` per index in `indices`,
    /// returned in request order.
    ///
    /// This is the bank-local disjoint-borrow primitive behind
    /// [`crate::DramDevice::subarrays_mut`]: a broadcast executor obtains independent
    /// mutable access to every participating subarray up front and can then drive them from
    /// separate threads. Built entirely on safe slice splitting — no aliasing is possible.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::SubarrayOutOfRange`] for an invalid index and
    /// [`DramError::AliasedSubarray`] if the same index appears twice (with `bank: None` —
    /// a bank does not know its own position in the device).
    ///
    /// # Examples
    ///
    /// ```
    /// use simdram_dram::{Bank, BitRow, DramConfig};
    ///
    /// let mut bank = Bank::new(&DramConfig::tiny());
    /// let mut sas = bank.subarrays_mut(&[1, 0])?;
    /// assert_eq!(sas.len(), 2);
    /// sas[0].write_row(0, &BitRow::ones(256)); // subarray 1 (request order)
    /// # Ok::<(), simdram_dram::DramError>(())
    /// ```
    pub fn subarrays_mut(&mut self, indices: &[usize]) -> Result<Vec<&mut Subarray>> {
        let subarrays = self.subarrays.len();
        // index -> request position; insert detects duplicates, lookup keeps the
        // collection pass O(subarrays + indices) instead of quadratic.
        let mut pos_of: HashMap<usize, usize> = HashMap::with_capacity(indices.len());
        for (pos, &idx) in indices.iter().enumerate() {
            if idx >= subarrays {
                return Err(DramError::SubarrayOutOfRange {
                    subarray: idx,
                    subarrays,
                });
            }
            if pos_of.insert(idx, pos).is_some() {
                return Err(DramError::AliasedSubarray {
                    bank: None,
                    subarray: idx,
                });
            }
        }
        let mut slots: Vec<Option<&mut Subarray>> = Vec::with_capacity(indices.len());
        slots.resize_with(indices.len(), || None);
        for (idx, sa) in self.subarrays.iter_mut().enumerate() {
            if let Some(&pos) = pos_of.get(&idx) {
                slots[pos] = Some(sa);
            }
        }
        Ok(slots
            .into_iter()
            .map(|slot| slot.expect("every validated index was visited"))
            .collect())
    }

    /// Broadcasts an `AAP src, dst` command to every subarray whose index is in
    /// `participants` (lock-step SIMD execution).
    ///
    /// # Errors
    ///
    /// Returns an error if any participant index or row address is invalid.
    pub fn broadcast_aap(
        &mut self,
        participants: &[usize],
        src: RowAddr,
        dst: RowAddr,
    ) -> Result<()> {
        for &idx in participants {
            self.subarray_mut(idx)?.aap(src, dst)?;
        }
        Ok(())
    }

    /// Clears all per-subarray command traces.
    pub fn reset_traces(&mut self) {
        for sa in &mut self.subarrays {
            sa.reset_trace();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitrow::BitRow;

    #[test]
    fn bank_has_configured_subarrays() {
        let cfg = DramConfig::tiny();
        let bank = Bank::new(&cfg);
        assert_eq!(bank.subarray_count(), cfg.subarrays_per_bank);
    }

    #[test]
    fn out_of_range_subarray_is_an_error() {
        let mut bank = Bank::new(&DramConfig::tiny());
        assert!(bank.subarray(100).is_err());
        assert!(bank.subarray_mut(100).is_err());
    }

    #[test]
    fn broadcast_aap_touches_all_participants() {
        let cfg = DramConfig::tiny();
        let mut bank = Bank::new(&cfg);
        let pattern = BitRow::splat_word(0xDEAD, cfg.columns_per_row);
        for idx in 0..bank.subarray_count() {
            bank.subarray_mut(idx).unwrap().write_row(0, &pattern);
        }
        bank.broadcast_aap(&[0, 1], RowAddr::Data(0), RowAddr::Data(1))
            .unwrap();
        for idx in 0..2 {
            assert_eq!(
                bank.subarray(idx).unwrap().peek(RowAddr::Data(1)).unwrap(),
                pattern
            );
        }
    }

    #[test]
    fn subarrays_mut_returns_disjoint_borrows_in_request_order() {
        let cfg = DramConfig::tiny();
        let mut bank = Bank::new(&cfg);
        let pattern = BitRow::splat_word(0xBEEF, cfg.columns_per_row);
        {
            let mut sas = bank.subarrays_mut(&[1, 0]).unwrap();
            assert_eq!(sas.len(), 2);
            // Request order: slot 0 is subarray 1.
            sas[0].write_row(3, &pattern);
        }
        assert_eq!(
            bank.subarray(1).unwrap().peek(RowAddr::Data(3)).unwrap(),
            pattern
        );
        assert_ne!(
            bank.subarray(0).unwrap().peek(RowAddr::Data(3)).unwrap(),
            pattern
        );
    }

    #[test]
    fn subarrays_mut_rejects_bad_requests() {
        let mut bank = Bank::new(&DramConfig::tiny());
        assert!(matches!(
            bank.subarrays_mut(&[0, 99]),
            Err(DramError::SubarrayOutOfRange { .. })
        ));
        assert!(matches!(
            bank.subarrays_mut(&[0, 1, 0]),
            Err(DramError::AliasedSubarray {
                bank: None,
                subarray: 0
            })
        ));
        assert!(bank.subarrays_mut(&[]).unwrap().is_empty());
    }

    #[test]
    fn reset_traces_clears_all_subarrays() {
        let cfg = DramConfig::tiny();
        let mut bank = Bank::new(&cfg);
        bank.subarray_mut(0)
            .unwrap()
            .write_row(0, &BitRow::zeros(256));
        bank.reset_traces();
        assert!(bank.subarray(0).unwrap().trace().is_empty());
    }
}
