//! Memory hierarchy geometry.

use serde::{Deserialize, Serialize};

/// Geometry of the per-CPU cache hierarchy and TLBs.
///
/// Defaults ([`MemoryConfig::paper_sut`]) follow the paper's system under
/// test: dual Pentium 4 Xeon MP with 8 KB L1D, 512 KB L2 and a 2 MB
/// last-level (L3) cache. The P4's L2 line is 128 B sectored; we model a
/// uniform 64 B line throughout, which preserves miss *ratios* between
/// affinity modes (both modes see the same geometry).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Number of CPUs (one cache hierarchy each).
    pub cpus: usize,
    /// Cache line size in bytes (applies to every level).
    pub line_size: u32,
    /// L1 data cache capacity in bytes.
    pub l1_size: u32,
    /// L1 associativity.
    pub l1_assoc: u32,
    /// L2 capacity in bytes.
    pub l2_size: u32,
    /// L2 associativity.
    pub l2_assoc: u32,
    /// Last-level cache capacity in bytes.
    pub llc_size: u32,
    /// LLC associativity.
    pub llc_assoc: u32,
    /// Trace-cache stand-in capacity in bytes of code footprint.
    ///
    /// The P4 trace cache holds ~12 K µops; 16 KB of decoded-instruction
    /// footprint is a reasonable stand-in.
    pub tc_size: u32,
    /// Trace-cache associativity.
    pub tc_assoc: u32,
    /// Page size in bytes.
    pub page_size: u32,
    /// Instruction TLB entries.
    pub itlb_entries: u32,
    /// Data TLB entries.
    pub dtlb_entries: u32,
}

impl MemoryConfig {
    /// Most CPUs a memory system supports: directory sharer sets and the
    /// fast-path bump masks are 32-bit CPU masks.
    pub const MAX_CPUS: usize = 32;

    /// Geometry of the paper's system under test for `cpus` processors.
    #[must_use]
    pub fn paper_sut(cpus: usize) -> Self {
        MemoryConfig {
            cpus,
            line_size: 64,
            l1_size: 8 * 1024,
            l1_assoc: 4,
            l2_size: 512 * 1024,
            l2_assoc: 8,
            llc_size: 2 * 1024 * 1024,
            llc_assoc: 8,
            tc_size: 16 * 1024,
            tc_assoc: 8,
            page_size: 4096,
            itlb_entries: 64,
            dtlb_entries: 64,
        }
    }

    /// A tiny geometry for unit tests: misses are easy to provoke.
    #[must_use]
    pub fn tiny(cpus: usize) -> Self {
        MemoryConfig {
            cpus,
            line_size: 64,
            l1_size: 256,
            l1_assoc: 2,
            l2_size: 1024,
            l2_assoc: 2,
            llc_size: 4096,
            llc_assoc: 4,
            tc_size: 512,
            tc_assoc: 2,
            page_size: 4096,
            itlb_entries: 4,
            dtlb_entries: 4,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`sim_core::SimError::InvalidConfig`] if any capacity is not
    /// a positive multiple of the line size, an associativity is zero or
    /// exceeds the number of lines, or the CPU count is outside
    /// `1..=`[`MAX_CPUS`](Self::MAX_CPUS).
    pub fn validate(&self) -> sim_core::Result<()> {
        use sim_core::SimError;
        if self.cpus == 0 {
            return Err(SimError::config("need at least one cpu"));
        }
        if self.cpus > Self::MAX_CPUS {
            return Err(SimError::config(format!(
                "{} cpus exceed the coherence directory's limit of {}",
                self.cpus,
                Self::MAX_CPUS
            )));
        }
        if self.line_size == 0 || !self.line_size.is_power_of_two() {
            return Err(SimError::config("line size must be a power of two"));
        }
        if self.page_size < self.line_size || !self.page_size.is_power_of_two() {
            return Err(SimError::config(
                "page size must be a power of two >= line size",
            ));
        }
        for (name, size, assoc) in [
            ("l1", self.l1_size, self.l1_assoc),
            ("l2", self.l2_size, self.l2_assoc),
            ("llc", self.llc_size, self.llc_assoc),
            ("tc", self.tc_size, self.tc_assoc),
        ] {
            if size == 0 || size % self.line_size != 0 {
                return Err(SimError::config(format!(
                    "{name} size must be a positive multiple of line size"
                )));
            }
            let lines = size / self.line_size;
            if assoc == 0 || assoc > lines {
                return Err(SimError::config(format!(
                    "{name} associativity must be in 1..={lines}"
                )));
            }
            if (lines / assoc) == 0 || !(lines / assoc).is_power_of_two() {
                return Err(SimError::config(format!(
                    "{name} set count must be a power of two"
                )));
            }
        }
        if self.itlb_entries == 0 || self.dtlb_entries == 0 {
            return Err(SimError::config("tlbs need at least one entry"));
        }
        Ok(())
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig::paper_sut(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sut_is_valid() {
        MemoryConfig::paper_sut(2).validate().unwrap();
        MemoryConfig::paper_sut(4).validate().unwrap();
        MemoryConfig::tiny(2).validate().unwrap();
    }

    #[test]
    fn default_matches_paper() {
        let c = MemoryConfig::default();
        assert_eq!(c.llc_size, 2 * 1024 * 1024);
        assert_eq!(c.l2_size, 512 * 1024);
        assert_eq!(c.cpus, 2);
    }

    #[test]
    fn rejects_zero_cpus() {
        let mut c = MemoryConfig::paper_sut(2);
        c.cpus = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn cpu_count_is_limited_to_the_sharer_mask_width() {
        MemoryConfig::paper_sut(MemoryConfig::MAX_CPUS)
            .validate()
            .unwrap();
        let err = MemoryConfig::paper_sut(33).validate().unwrap_err();
        assert!(err.to_string().contains("limit of 32"), "{err}");
    }

    #[test]
    fn rejects_non_power_of_two_line() {
        let mut c = MemoryConfig::paper_sut(2);
        c.line_size = 48;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_zero_assoc() {
        let mut c = MemoryConfig::paper_sut(2);
        c.l2_assoc = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_size_not_multiple_of_line() {
        let mut c = MemoryConfig::paper_sut(2);
        c.l1_size = 1000;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_non_power_of_two_sets() {
        let mut c = MemoryConfig::paper_sut(2);
        // 3 lines per way -> set count 3, not a power of two.
        c.l1_size = 3 * 64;
        c.l1_assoc = 1;
        assert!(c.validate().is_err());
    }
}
