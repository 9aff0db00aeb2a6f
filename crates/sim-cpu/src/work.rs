//! Units of executable work.
//!
//! A [`WorkItem`] describes one execution of a function body: how many
//! instructions retire, what code footprint is fetched, which memory it
//! touches, and its branch statistics. The TCP stack model (`sim-tcp`)
//! builds these from calibrated per-function profiles.

use sim_mem::RegionId;

/// One contiguous data access within a work item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataTouch {
    /// Region touched.
    pub region: RegionId,
    /// Byte offset within the region (wraps at the region size).
    pub offset: u64,
    /// Bytes touched.
    pub bytes: u64,
    /// Whether the touch writes (write-allocate, invalidates remote copies).
    pub write: bool,
}

impl DataTouch {
    /// A read of `bytes` bytes at `offset`.
    #[must_use]
    pub fn read(region: RegionId, offset: u64, bytes: u64) -> Self {
        DataTouch {
            region,
            offset,
            bytes,
            write: false,
        }
    }

    /// A write of `bytes` bytes at `offset`.
    #[must_use]
    pub fn write(region: RegionId, offset: u64, bytes: u64) -> Self {
        DataTouch {
            region,
            offset,
            bytes,
            write: true,
        }
    }
}

/// Inline, fixed-capacity list of [`DataTouch`]es.
///
/// Work items are built on the hot path (one per modelled function call)
/// and no stack function touches more than [`TouchList::CAPACITY`] ranges,
/// so the touches live inline in the `WorkItem` instead of behind a heap
/// allocation. Derefs to `[DataTouch]` for iteration and indexing.
#[derive(Debug, Clone, Copy)]
pub struct TouchList {
    items: [DataTouch; TouchList::CAPACITY],
    len: u8,
}

impl TouchList {
    /// Maximum touches one work item can carry.
    pub const CAPACITY: usize = 4;

    /// An empty list.
    #[must_use]
    pub fn new() -> Self {
        TouchList {
            items: [DataTouch::read(RegionId::PLACEHOLDER, 0, 0); TouchList::CAPACITY],
            len: 0,
        }
    }

    /// Appends a touch.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`TouchList::CAPACITY`] touches.
    pub fn push(&mut self, touch: DataTouch) {
        assert!(
            (self.len as usize) < TouchList::CAPACITY,
            "work item exceeds {} data touches",
            TouchList::CAPACITY
        );
        self.items[self.len as usize] = touch;
        self.len += 1;
    }

    /// The touches as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[DataTouch] {
        &self.items[..self.len as usize]
    }
}

impl Default for TouchList {
    fn default() -> Self {
        TouchList::new()
    }
}

impl std::ops::Deref for TouchList {
    type Target = [DataTouch];

    fn deref(&self) -> &[DataTouch] {
        self.as_slice()
    }
}

impl PartialEq for TouchList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for TouchList {}

impl<'a> IntoIterator for &'a TouchList {
    type Item = &'a DataTouch;
    type IntoIter = std::slice::Iter<'a, DataTouch>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A unit of work for [`crate::Core::execute`].
///
/// Construct with [`WorkItem::new`] and chain the builder-style setters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkItem {
    /// Instructions retired by this execution.
    pub instructions: u64,
    /// Base cycles-per-instruction with a perfect memory system.
    ///
    /// The P4 retires up to 3 µops/cycle, so 0.33 is the floor; code with
    /// long dependency chains or serializing instructions (syscall entry)
    /// carries a higher base.
    pub base_cpi: f64,
    /// Fixed cycles charged regardless of instruction count (e.g. the
    /// privilege-transition cost of a syscall).
    pub fixed_cycles: u64,
    /// Code footprint fetched through the trace cache.
    pub code: Option<(RegionId, u64)>,
    /// Data touches performed, in order.
    pub touches: TouchList,
    /// Fraction of instructions that are branches.
    pub branch_fraction: f64,
    /// Fraction of branches mispredicted.
    pub mispredict_rate: f64,
}

impl WorkItem {
    /// Creates a work item retiring `instructions` instructions with
    /// default base CPI (0.5), no code/data footprint and no branches.
    #[must_use]
    pub fn new(instructions: u64) -> Self {
        WorkItem {
            instructions,
            base_cpi: 0.5,
            fixed_cycles: 0,
            code: None,
            touches: TouchList::new(),
            branch_fraction: 0.0,
            mispredict_rate: 0.0,
        }
    }

    /// Sets the code footprint: `bytes` bytes fetched from `region`.
    #[must_use]
    pub fn code(mut self, region: RegionId, bytes: u64) -> Self {
        self.code = Some((region, bytes));
        self
    }

    /// Adds a data touch.
    #[must_use]
    pub fn touch(mut self, touch: DataTouch) -> Self {
        self.touches.push(touch);
        self
    }

    /// Sets the base CPI.
    ///
    /// # Panics
    ///
    /// Panics if `cpi` is not positive and finite.
    #[must_use]
    pub fn base_cpi(mut self, cpi: f64) -> Self {
        assert!(cpi.is_finite() && cpi > 0.0, "base CPI must be positive");
        self.base_cpi = cpi;
        self
    }

    /// Sets fixed cycles charged on top of per-instruction cost.
    #[must_use]
    pub fn fixed_cycles(mut self, cycles: u64) -> Self {
        self.fixed_cycles = cycles;
        self
    }

    /// Sets the branch fraction (clamped to `[0, 1]`).
    #[must_use]
    pub fn branch_fraction(mut self, f: f64) -> Self {
        self.branch_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Sets the branch mispredict rate (clamped to `[0, 1]`).
    #[must_use]
    pub fn mispredict_rate(mut self, r: f64) -> Self {
        self.mispredict_rate = r.clamp(0.0, 1.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> RegionId {
        let mut t = sim_mem::RegionTable::new(4096);
        t.add("x", 64)
    }

    #[test]
    fn builder_chains() {
        let r = region();
        let w = WorkItem::new(100)
            .code(r, 64)
            .touch(DataTouch::read(r, 0, 32))
            .touch(DataTouch::write(r, 32, 32))
            .base_cpi(0.4)
            .fixed_cycles(250)
            .branch_fraction(0.2)
            .mispredict_rate(0.05);
        assert_eq!(w.instructions, 100);
        assert_eq!(w.code, Some((r, 64)));
        assert_eq!(w.touches.len(), 2);
        assert!(w.touches[1].write);
        assert_eq!(w.fixed_cycles, 250);
    }

    #[test]
    fn fractions_clamped() {
        let w = WorkItem::new(1).branch_fraction(3.0).mispredict_rate(-1.0);
        assert_eq!(w.branch_fraction, 1.0);
        assert_eq!(w.mispredict_rate, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cpi_rejected() {
        let _ = WorkItem::new(1).base_cpi(0.0);
    }
}
