//! CPU affinity bitmasks.

use std::fmt;

use sim_core::CpuId;

/// A set of CPUs, as used for process affinity (`sys_sched_setaffinity`)
/// and interrupt affinity (`/proc/irq/*/smp_affinity`).
///
/// Supports up to 64 CPUs — far beyond the paper's 2P/4P systems.
///
/// # Example
///
/// ```
/// use sim_core::CpuId;
/// use sim_os::CpuMask;
///
/// let mask = CpuMask::single(CpuId::new(1));
/// assert!(mask.contains(CpuId::new(1)));
/// assert!(!mask.contains(CpuId::new(0)));
/// assert_eq!(mask.count(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuMask(u64);

impl CpuMask {
    /// The empty mask (invalid as an affinity; useful as an accumulator).
    pub const EMPTY: CpuMask = CpuMask(0);

    /// A mask containing CPUs `0..cpus`.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` exceeds 64.
    #[must_use]
    pub fn all(cpus: usize) -> Self {
        assert!(cpus <= 64, "at most 64 cpus supported");
        if cpus == 64 {
            CpuMask(u64::MAX)
        } else {
            CpuMask((1u64 << cpus) - 1)
        }
    }

    /// A mask containing exactly one CPU.
    ///
    /// # Panics
    ///
    /// Panics if the CPU index is 64 or more.
    #[must_use]
    pub fn single(cpu: CpuId) -> Self {
        assert!(cpu.index() < 64, "at most 64 cpus supported");
        CpuMask(1u64 << cpu.index())
    }

    /// Builds a mask from raw bits (bit *i* = CPU *i*).
    #[must_use]
    pub const fn from_bits(bits: u64) -> Self {
        CpuMask(bits)
    }

    /// The raw bits.
    #[must_use]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Whether `cpu` is in the mask.
    #[must_use]
    pub fn contains(self, cpu: CpuId) -> bool {
        cpu.index() < 64 && self.0 & (1u64 << cpu.index()) != 0
    }

    /// Returns the mask with `cpu` added.
    #[must_use]
    pub fn with(self, cpu: CpuId) -> Self {
        CpuMask(self.0 | CpuMask::single(cpu).0)
    }

    /// Returns the mask with `cpu` removed.
    #[must_use]
    pub fn without(self, cpu: CpuId) -> Self {
        CpuMask(self.0 & !CpuMask::single(cpu).0)
    }

    /// Set intersection.
    #[must_use]
    pub fn and(self, other: CpuMask) -> Self {
        CpuMask(self.0 & other.0)
    }

    /// Set union.
    #[must_use]
    pub fn or(self, other: CpuMask) -> Self {
        CpuMask(self.0 | other.0)
    }

    /// True if no CPU is in the mask.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of CPUs in the mask.
    #[must_use]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Lowest-numbered CPU in the mask, if any — the CPU a Linux 2.4
    /// IO-APIC in static mode delivers to.
    #[must_use]
    pub fn first(self) -> Option<CpuId> {
        if self.0 == 0 {
            None
        } else {
            Some(CpuId::new(self.0.trailing_zeros()))
        }
    }

    /// Iterates over member CPUs in ascending order.
    pub fn iter(self) -> impl Iterator<Item = CpuId> {
        (0..64)
            .filter(move |i| self.0 & (1u64 << i) != 0)
            .map(CpuId::new)
    }
}

impl Default for CpuMask {
    /// Defaults to "any CPU" on a 64-CPU universe; schedulers intersect
    /// with the actual CPU count.
    fn default() -> Self {
        CpuMask(u64::MAX)
    }
}

impl fmt::Display for CpuMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl FromIterator<CpuId> for CpuMask {
    fn from_iter<I: IntoIterator<Item = CpuId>>(iter: I) -> Self {
        iter.into_iter()
            .fold(CpuMask::EMPTY, |mask, cpu| mask.with(cpu))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_and_single() {
        let m = CpuMask::all(2);
        assert!(m.contains(CpuId::new(0)));
        assert!(m.contains(CpuId::new(1)));
        assert!(!m.contains(CpuId::new(2)));
        assert_eq!(m.count(), 2);
        let s = CpuMask::single(CpuId::new(3));
        assert_eq!(s.count(), 1);
        assert_eq!(s.first(), Some(CpuId::new(3)));
    }

    #[test]
    fn with_without() {
        let m = CpuMask::EMPTY.with(CpuId::new(0)).with(CpuId::new(2));
        assert_eq!(m.count(), 2);
        assert!(!m.without(CpuId::new(0)).contains(CpuId::new(0)));
        assert!(m.without(CpuId::new(0)).contains(CpuId::new(2)));
    }

    #[test]
    fn set_ops() {
        let a = CpuMask::from_bits(0b0011);
        let b = CpuMask::from_bits(0b0110);
        assert_eq!(a.and(b).bits(), 0b0010);
        assert_eq!(a.or(b).bits(), 0b0111);
        assert!(CpuMask::EMPTY.is_empty());
        assert_eq!(CpuMask::EMPTY.first(), None);
    }

    #[test]
    fn iter_ascending() {
        let m = CpuMask::from_bits(0b1010);
        let v: Vec<usize> = m.iter().map(|c| c.index()).collect();
        assert_eq!(v, [1, 3]);
    }

    #[test]
    fn from_iterator() {
        let m: CpuMask = [CpuId::new(0), CpuId::new(5)].into_iter().collect();
        assert_eq!(m.bits(), 0b100001);
    }

    #[test]
    fn sixty_four_cpus() {
        let m = CpuMask::all(64);
        assert_eq!(m.count(), 64);
        assert!(m.contains(CpuId::new(63)));
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn too_many_cpus() {
        let _ = CpuMask::all(65);
    }

    #[test]
    fn display_hex() {
        assert_eq!(CpuMask::from_bits(0xff).to_string(), "0xff");
    }
}
