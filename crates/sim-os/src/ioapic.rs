//! IO-APIC interrupt routing.
//!
//! Linux 2.4 (and Windows NT) in their default SMP configuration deliver
//! every device interrupt to CPU0; the paper's "IRQ affinity" mode writes
//! per-vector bitmasks into `/proc/irq/<n>/smp_affinity` to split the 8
//! NIC vectors between the processors. [`IoApic`] models exactly that
//! static routing table: each vector delivers to the lowest-numbered CPU
//! in its mask.

use sim_core::{CpuId, IrqVector, Result, SimError};

use crate::cpumask::CpuMask;

/// The interrupt router.
///
/// # Example
///
/// ```
/// use sim_core::{CpuId, IrqVector};
/// use sim_os::{CpuMask, IoApic};
///
/// let mut apic = IoApic::new(2);
/// let vec = IrqVector::new(0x19);
/// assert_eq!(apic.route(vec), CpuId::new(0)); // default: everything to CPU0
/// apic.set_affinity(vec, CpuMask::single(CpuId::new(1)))?;
/// assert_eq!(apic.route(vec), CpuId::new(1));
/// # Ok::<(), sim_core::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IoApic {
    cpus: usize,
    /// Programmed routes, indexed by `IrqVector::index()` (vectors are
    /// small integers, so a dense table makes `route` — which sits on the
    /// interrupt-delivery and event-scheduling hot paths — a single
    /// array load). Each entry caches the mask's lowest CPU; `None`
    /// means unprogrammed (defaults to CPU0).
    table: Vec<Option<(CpuMask, CpuId)>>,
    retargets: u64,
}

impl IoApic {
    /// Creates a router for a machine with `cpus` CPUs. All vectors
    /// default to CPU0.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    #[must_use]
    pub fn new(cpus: usize) -> Self {
        assert!(cpus > 0, "need at least one cpu");
        IoApic {
            cpus,
            table: Vec::new(),
            retargets: 0,
        }
    }

    /// Sets the `smp_affinity` mask for `vector`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyAffinityMask`] if the mask selects no CPU
    /// present on this machine (Linux rejects such writes too).
    pub fn set_affinity(&mut self, vector: IrqVector, mask: CpuMask) -> Result<()> {
        let effective = mask.and(CpuMask::all(self.cpus));
        if effective.is_empty() {
            return Err(SimError::EmptyAffinityMask);
        }
        let i = vector.index();
        if self.table.len() <= i {
            self.table.resize(i + 1, None);
        }
        let lowest = effective.first().expect("checked non-empty");
        self.table[i] = Some((effective, lowest));
        Ok(())
    }

    /// The mask currently programmed for `vector` (default: CPU0 only).
    #[must_use]
    pub fn affinity(&self, vector: IrqVector) -> CpuMask {
        match self.table.get(vector.index()) {
            Some(&Some((mask, _))) => mask,
            _ => CpuMask::single(CpuId::new(0)),
        }
    }

    /// Target CPU for a delivery of `vector`: the lowest-numbered CPU in
    /// its mask (static IO-APIC mode — no rotation).
    #[must_use]
    #[inline]
    pub fn route(&self, vector: IrqVector) -> CpuId {
        match self.table.get(vector.index()) {
            Some(&Some((_, lowest))) => lowest,
            _ => CpuId::new(0),
        }
    }

    /// Re-programs `vector` to deliver to exactly `cpu` — the dynamic
    /// counterpart of [`IoApic::set_affinity`], used by directed-steering
    /// policies (Flow Director / aRFS) chasing a flow's consuming core.
    /// Counted separately from static affinity writes so experiments can
    /// report re-steering rates.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyAffinityMask`] if `cpu` is not present on
    /// this machine.
    pub fn retarget(&mut self, vector: IrqVector, cpu: CpuId) -> Result<()> {
        self.set_affinity(vector, CpuMask::single(cpu))?;
        self.retargets += 1;
        Ok(())
    }

    /// Number of dynamic re-targets performed since the last stats reset.
    #[must_use]
    pub fn retargets(&self) -> u64 {
        self.retargets
    }

    /// Resets the re-target counter (keeps routing).
    pub fn reset_stats(&mut self) {
        self.retargets = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_routes_to_cpu0() {
        let apic = IoApic::new(2);
        for v in [0x19u32, 0x1a, 0x27] {
            assert_eq!(apic.route(IrqVector::new(v)), CpuId::new(0));
        }
    }

    #[test]
    fn affinity_redirects() {
        let mut apic = IoApic::new(2);
        let v = IrqVector::new(0x1b);
        apic.set_affinity(v, CpuMask::single(CpuId::new(1)))
            .unwrap();
        assert_eq!(apic.route(v), CpuId::new(1));
        // Others unaffected.
        assert_eq!(apic.route(IrqVector::new(0x19)), CpuId::new(0));
    }

    #[test]
    fn multi_cpu_mask_routes_to_lowest() {
        let mut apic = IoApic::new(4);
        let v = IrqVector::new(0x20);
        apic.set_affinity(v, CpuMask::from_bits(0b1100)).unwrap();
        assert_eq!(apic.route(v), CpuId::new(2));
    }

    #[test]
    fn rejects_offline_cpu_mask() {
        let mut apic = IoApic::new(2);
        let err = apic.set_affinity(IrqVector::new(0x19), CpuMask::single(CpuId::new(7)));
        assert_eq!(err.unwrap_err(), SimError::EmptyAffinityMask);
    }

    #[test]
    fn retarget_redirects_and_counts() {
        let mut apic = IoApic::new(4);
        let v = IrqVector::new(0x19);
        assert_eq!(apic.route(v), CpuId::new(0));
        apic.retarget(v, CpuId::new(3)).unwrap();
        assert_eq!(apic.route(v), CpuId::new(3));
        assert_eq!(apic.retargets(), 1);
        assert!(apic.retarget(v, CpuId::new(9)).is_err());
        assert_eq!(apic.retargets(), 1, "failed retargets are not counted");
        apic.reset_stats();
        assert_eq!(apic.retargets(), 0);
        assert_eq!(apic.route(v), CpuId::new(3), "routing survives reset");
    }
}
