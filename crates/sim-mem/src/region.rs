//! Named memory regions.
//!
//! Higher layers (the TCP stack model, the NIC model) never compute raw
//! addresses; they allocate a [`MemRegion`] per logical object — a
//! connection's TCP context, a socket buffer, a payload buffer, a NIC
//! descriptor ring, a function's code footprint — and touch byte ranges
//! within it. The [`RegionTable`] lays regions out in a flat physical
//! address space, page-aligned so that distinct regions never share a
//! cache line or a page.

use std::fmt;

/// Handle to a region allocated from a [`RegionTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(u32);

impl RegionId {
    /// Placeholder id (`u32::MAX`) for pre-filling fixed-capacity buffers.
    /// Never handed out by a [`RegionTable`] and not valid for lookups.
    pub const PLACEHOLDER: RegionId = RegionId(u32::MAX);

    /// Raw index into the owning table.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region{}", self.0)
    }
}

/// Interned region name: stored compactly, rendered to a `String` only
/// in reports and `Debug` output.
///
/// Machine construction at the million-flow scale allocates six regions
/// per flow; naming each with an eager `format!` costs a heap allocation
/// per region. The dominant shape — `"conn{index}.{field}"` — is carried
/// here as a static prefix, a flow index, and a static suffix, so bulk
/// provisioning performs zero format allocations. Ad-hoc names (NIC
/// queues, IRQ handlers) still flow through [`RegionName::Owned`].
///
/// `Display` and `Debug` observe the *rendered* string, so an interned
/// name is indistinguishable from the eager `String` it replaces in
/// every report and snapshot. Equality is render-based for the same
/// reason: `Static("a.text") == Owned("a.text".into())`.
#[derive(Clone)]
pub enum RegionName {
    /// A fixed label, e.g. `"tcp_v4_rcv.text"` — free to construct.
    Static(&'static str),
    /// An arbitrary pre-rendered name (NIC queues, IRQ handlers).
    Owned(String),
    /// Rendered as `"{prefix}{index}.{suffix}"`, e.g. `conn3.tcp_ctx`.
    Indexed {
        /// Static label before the index (`"conn"`).
        prefix: &'static str,
        /// Flow (or other entity) index.
        index: u32,
        /// Static field label after the dot (`"tcp_ctx"`).
        suffix: &'static str,
    },
}

impl RegionName {
    /// Interned `"{prefix}{index}.{suffix}"` name — no allocation.
    #[must_use]
    pub const fn indexed(prefix: &'static str, index: u32, suffix: &'static str) -> Self {
        RegionName::Indexed {
            prefix,
            index,
            suffix,
        }
    }

    /// Renders the name to an owned `String`, identical to the eager
    /// string the pre-interning code would have built.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            RegionName::Static(s) => (*s).to_string(),
            RegionName::Owned(s) => s.clone(),
            RegionName::Indexed {
                prefix,
                index,
                suffix,
            } => format!("{prefix}{index}.{suffix}"),
        }
    }
}

impl fmt::Display for RegionName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionName::Static(s) => f.write_str(s),
            RegionName::Owned(s) => f.write_str(s),
            RegionName::Indexed {
                prefix,
                index,
                suffix,
            } => write!(f, "{prefix}{index}.{suffix}"),
        }
    }
}

impl fmt::Debug for RegionName {
    /// Debug output matches the old eager-`String` representation
    /// (`"conn3.tcp_ctx"`, quoted), so snapshots and dumps are
    /// variant-blind.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.render())
    }
}

impl PartialEq for RegionName {
    /// Render-based equality: two names are equal iff they render to the
    /// same string, regardless of interning variant.
    fn eq(&self, other: &Self) -> bool {
        use RegionName::{Owned, Static};
        match (self, other) {
            (Static(a), Static(b)) => a == b,
            (Owned(a), Owned(b)) => a == b,
            (Static(a), Owned(b)) | (Owned(b), Static(a)) => *a == b.as_str(),
            _ => self.render() == other.render(),
        }
    }
}

impl Eq for RegionName {}

impl From<&'static str> for RegionName {
    fn from(s: &'static str) -> Self {
        RegionName::Static(s)
    }
}

impl From<String> for RegionName {
    fn from(s: String) -> Self {
        RegionName::Owned(s)
    }
}

/// A contiguous, page-aligned span of simulated physical memory, as the
/// [`RegionTable`] stores it: 24 bytes, the name included.
///
/// A million-flow machine stores six regions per flow, so the record
/// holds only a key into the table's name side table plus the `Indexed`
/// index; [`RegionTable::name`] resolves it. (Records of two tables are
/// compared by their bases, sizes and resolved names: the keys are the
/// table's own.)
#[derive(Debug, Clone, Copy)]
pub struct MemRegion {
    base: u64,
    size: u64,
    /// Entry in the owning table's [`Names`].
    name: u32,
    /// The `Indexed` name's index (0 for the other forms).
    index: u32,
}

impl MemRegion {
    /// First byte address.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Byte address of `offset` within the region, wrapping at the region
    /// size so cyclic buffers (rings, reused payload buffers) can be
    /// touched with a monotonically increasing offset.
    #[must_use]
    pub fn addr(&self, offset: u64) -> u64 {
        self.base + (offset % self.size)
    }
}

/// Name side table shared by [`RegionTable`] and [`RegionPlan`].
///
/// An `Indexed` name is interned: its prefix and suffix are stored once,
/// as an `Indexed` entry whose own index is unused (0), and each region
/// keeps its index beside the key. `Static` and `Owned` names (code,
/// NIC queues, IRQ handlers: a few dozen per machine) get an entry each.
#[derive(Debug, Clone, Default)]
struct Names {
    entries: Vec<RegionName>,
    /// Keys of the interned `Indexed` entries, scanned on insertion: a
    /// machine uses a handful of prefix/suffix pairs.
    indexed: Vec<u32>,
}

impl Names {
    /// Stores `name` and returns its `(key, index)`.
    fn intern(&mut self, name: RegionName) -> (u32, u32) {
        let RegionName::Indexed {
            prefix,
            index,
            suffix,
        } = name
        else {
            return (self.push(name), 0);
        };
        let found = self.indexed.iter().copied().find(|&k| {
            matches!(self.entries[k as usize],
                RegionName::Indexed { prefix: p, suffix: s, .. } if p == prefix && s == suffix)
        });
        let key = found.unwrap_or_else(|| {
            let k = self.push(RegionName::indexed(prefix, 0, suffix));
            self.indexed.push(k);
            k
        });
        (key, index)
    }

    fn push(&mut self, name: RegionName) -> u32 {
        let key = u32::try_from(self.entries.len()).expect("region name count overflows u32");
        self.entries.push(name);
        key
    }

    /// The name stored as `(key, index)`.
    fn get(&self, key: u32, index: u32) -> RegionName {
        match &self.entries[key as usize] {
            RegionName::Indexed { prefix, suffix, .. } => {
                RegionName::indexed(prefix, index, suffix)
            }
            other => other.clone(),
        }
    }

    /// Heap bytes held.
    fn bytes(&self) -> usize {
        size_of_val(self.entries.as_slice())
            + size_of_val(self.indexed.as_slice())
            + self
                .entries
                .iter()
                .map(|n| match n {
                    RegionName::Owned(s) => s.capacity(),
                    _ => 0,
                })
                .sum::<usize>()
    }
}

/// Allocator and directory of all simulated memory regions.
#[derive(Debug, Clone, Default)]
pub struct RegionTable {
    regions: Vec<MemRegion>,
    names: Names,
    next_base: u64,
    page_size: u64,
}

impl RegionTable {
    /// Creates a table that aligns regions to `page_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a positive power of two.
    #[must_use]
    pub fn new(page_size: u64) -> Self {
        assert!(
            page_size > 0 && page_size.is_power_of_two(),
            "page size must be a positive power of two"
        );
        RegionTable {
            regions: Vec::new(),
            names: Names::default(),
            // Leave page 0 unmapped, like a real kernel.
            next_base: page_size,
            page_size,
        }
    }

    /// Allocates a region of at least `size` bytes (rounded up to one line
    /// is the caller's concern; zero-size regions are rounded up to one
    /// byte so `addr()` never divides by zero).
    pub fn add(&mut self, name: impl Into<RegionName>, size: u64) -> RegionId {
        let (name, index) = self.names.intern(name.into());
        self.push(name, index, size)
    }

    /// Appends the region whose name is stored as `(name, index)`.
    fn push(&mut self, name: u32, index: u32, size: u64) -> RegionId {
        let size = size.max(1);
        let id = RegionId(u32::try_from(self.regions.len()).expect("region count overflows u32"));
        self.regions.push(MemRegion {
            base: self.next_base,
            size,
            name,
            index,
        });
        // Advance to the next page boundary past the region.
        let end = self.next_base + size;
        self.next_base = end.div_ceil(self.page_size) * self.page_size;
        id
    }

    /// Allocates every request of `plan` in order, exactly as a loop of
    /// [`add`](Self::add) calls would, interning each distinct plan name
    /// once.
    pub(crate) fn add_plan(&mut self, plan: RegionPlan) -> RegionSpan {
        let span = RegionSpan::new(self.regions.len(), plan.len());
        let keys: Vec<u32> = plan
            .names
            .entries
            .into_iter()
            .map(|n| self.names.intern(n).0)
            .collect();
        self.regions.reserve(plan.entries.len());
        for e in plan.entries {
            self.push(keys[e.name as usize], e.index, e.size);
        }
        span
    }

    /// Looks up a region.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this table.
    #[must_use]
    pub fn get(&self, id: RegionId) -> &MemRegion {
        &self.regions[id.index()]
    }

    /// The region's name ("conn3.tcp_context", "nic0.rx_ring", …).
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this table.
    #[must_use]
    pub fn name(&self, id: RegionId) -> RegionName {
        let r = &self.regions[id.index()];
        self.names.get(r.name, r.index)
    }

    /// The region holding byte `addr`: the last one based at or below it.
    /// Regions tile the address space from their first base, page after
    /// page, so this is the region whose pages hold `addr`, or the last
    /// region for an address past the table's footprint. `None` below the
    /// first region.
    #[must_use]
    pub fn region_of(&self, addr: u64) -> Option<RegionId> {
        let after = self.regions.partition_point(|r| r.base <= addr);
        after.checked_sub(1).map(|i| RegionId(i as u32))
    }

    /// Number of regions allocated.
    #[must_use]
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Returns `true` if no regions have been allocated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Iterates over `(id, region)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RegionId, &MemRegion)> {
        self.regions
            .iter()
            .enumerate()
            .map(|(i, r)| (RegionId(i as u32), r))
    }

    /// Total bytes of simulated memory spanned (including alignment gaps).
    #[must_use]
    pub fn footprint(&self) -> u64 {
        self.next_base
    }

    /// Host bytes the table holds: its records and its name side table.
    #[must_use]
    pub(crate) fn bytes(&self) -> usize {
        size_of_val(self.regions.as_slice()) + self.names.bytes()
    }
}

/// One request of a [`RegionPlan`]: a name stored as the plan's
/// `(name, index)` and a size.
#[derive(Debug, Clone, Copy)]
struct PlanEntry {
    name: u32,
    index: u32,
    size: u64,
}

/// An ordered batch of region requests for
/// [`MemorySystem::add_regions_bulk`](crate::MemorySystem::add_regions_bulk).
///
/// The plan is `(name, size)` requests in allocation order, names stored
/// as the [`RegionTable`] stores them (16 bytes a request); building one
/// costs no formatting when the names are interned
/// ([`RegionName::indexed`]), so a million-flow provisioning pass
/// allocates exactly one large `Vec`.
#[derive(Debug, Default)]
pub struct RegionPlan {
    names: Names,
    entries: Vec<PlanEntry>,
}

impl RegionPlan {
    /// Creates an empty plan with room for `capacity` requests.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        RegionPlan {
            names: Names::default(),
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Appends a region request. Requests are allocated in insertion
    /// order, exactly as an equivalent sequence of `add_region` calls.
    pub fn add(&mut self, name: impl Into<RegionName>, size: u64) {
        let (name, index) = self.names.intern(name.into());
        self.entries.push(PlanEntry { name, index, size });
    }

    /// Number of requests in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the plan holds no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Dense handle range returned by a bulk region allocation: the `len`
/// regions with consecutive ids starting at `first`.
///
/// `RegionId`s are allocated sequentially, so a single bulk call owns a
/// contiguous id range; this span converts a slot index back into the
/// exact `RegionId` the equivalent incremental `add` loop would have
/// returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionSpan {
    first: u32,
    len: u32,
}

impl RegionSpan {
    /// Creates a span covering ids `first .. first + len`.
    #[must_use]
    pub(crate) fn new(first: usize, len: usize) -> Self {
        RegionSpan {
            first: first as u32,
            len: len as u32,
        }
    }

    /// The `i`-th region id in the span.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> RegionId {
        assert!(i < self.len as usize, "region span index out of range");
        RegionId(self.first + i as u32)
    }

    /// Number of regions in the span.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` if the span holds no regions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the span's region ids in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = RegionId> {
        let first = self.first;
        (0..self.len).map(move |i| RegionId(first + i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_page_aligned_and_disjoint() {
        let mut t = RegionTable::new(4096);
        let a = t.add("a", 100);
        let b = t.add("b", 5000);
        let c = t.add("c", 1);
        let (ra, rb, rc) = (t.get(a), t.get(b), t.get(c));
        assert_eq!(ra.base() % 4096, 0);
        assert_eq!(rb.base() % 4096, 0);
        assert!(ra.base() + ra.size() <= rb.base());
        assert!(rb.base() + rb.size() <= rc.base());
    }

    #[test]
    fn page_zero_unmapped() {
        let mut t = RegionTable::new(4096);
        let a = t.add("a", 8);
        assert!(t.get(a).base() >= 4096);
    }

    #[test]
    fn addr_wraps_at_region_size() {
        let mut t = RegionTable::new(4096);
        let a = t.add("ring", 256);
        let r = t.get(a);
        assert_eq!(r.addr(0), r.base());
        assert_eq!(r.addr(256), r.base());
        assert_eq!(r.addr(300), r.base() + 44);
    }

    #[test]
    fn zero_size_rounds_up() {
        let mut t = RegionTable::new(4096);
        let a = t.add("z", 0);
        assert_eq!(t.get(a).size(), 1);
        let _ = t.get(a).addr(17); // must not panic
    }

    #[test]
    fn iter_and_len() {
        let mut t = RegionTable::new(4096);
        t.add("x", 1);
        t.add("y", 1);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let names: Vec<String> = t.iter().map(|(id, _)| t.name(id).render()).collect();
        assert_eq!(names, ["x", "y"]);
    }

    #[test]
    fn interned_names_render_like_eager_strings() {
        let eager = RegionName::Owned("conn3.tcp_ctx".to_string());
        let interned = RegionName::indexed("conn", 3, "tcp_ctx");
        assert_eq!(interned.render(), "conn3.tcp_ctx");
        assert_eq!(format!("{interned}"), format!("{eager}"));
        assert_eq!(format!("{interned:?}"), format!("{eager:?}"));
        assert_eq!(format!("{interned:?}"), "\"conn3.tcp_ctx\"");
        let st = RegionName::Static("tcp_v4_rcv.text");
        assert_eq!(st.render(), "tcp_v4_rcv.text");
        assert_eq!(format!("{st:?}"), "\"tcp_v4_rcv.text\"");
    }

    #[test]
    fn region_name_equality_is_render_based() {
        assert_eq!(
            RegionName::Static("a.text"),
            RegionName::Owned("a.text".to_string())
        );
        assert_eq!(
            RegionName::indexed("conn", 12, "sock"),
            RegionName::Owned("conn12.sock".to_string())
        );
        assert_ne!(
            RegionName::indexed("conn", 12, "sock"),
            RegionName::indexed("conn", 21, "sock")
        );
    }

    #[test]
    fn region_span_indexes_sequential_ids() {
        let span = RegionSpan::new(5, 3);
        assert_eq!(span.len(), 3);
        assert!(!span.is_empty());
        assert_eq!(span.get(0).index(), 5);
        assert_eq!(span.get(2).index(), 7);
        let ids: Vec<usize> = span.iter().map(RegionId::index).collect();
        assert_eq!(ids, [5, 6, 7]);
        assert!(RegionSpan::new(9, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn region_span_bounds_checked() {
        let _ = RegionSpan::new(0, 2).get(2);
    }

    #[test]
    fn a_record_is_24_bytes() {
        assert_eq!(size_of::<MemRegion>(), 24);
    }

    #[test]
    fn indexed_names_share_one_entry_per_prefix_and_suffix() {
        let mut t = RegionTable::new(4096);
        t.add("code.text", 64);
        let ids: Vec<RegionId> = (0..100u32)
            .flat_map(|i| ["tcp_ctx", "sock"].map(|f| RegionName::indexed("conn", i, f)))
            .map(|n| t.add(n, 64))
            .collect();
        t.add(format!("nic{}.rx_ring", 0), 64);
        assert_eq!(t.names.entries.len(), 4);
        assert_eq!(t.name(ids[7]).render(), "conn3.sock");
        assert_eq!(t.name(RegionId(0)).render(), "code.text");
        assert_eq!(t.name(RegionId(201)).render(), "nic0.rx_ring");
    }

    #[test]
    fn a_plan_allocates_like_a_loop_of_adds() {
        let mut looped = RegionTable::new(4096);
        let mut planned = RegionTable::new(4096);
        let mut plan = RegionPlan::with_capacity(8);
        for (i, size) in [0u64, 100, 5000, 4096].into_iter().enumerate() {
            let name = RegionName::indexed("conn", i as u32, "sock");
            looped.add(name.clone(), size);
            plan.add(name, size);
            looped.add("x.text", size);
            plan.add("x.text", size);
        }
        let span = planned.add_plan(plan);
        assert_eq!(span.len(), looped.len());
        for id in span.iter() {
            let (a, b) = (looped.get(id), planned.get(id));
            assert_eq!((a.base(), a.size()), (b.base(), b.size()));
            assert_eq!(looped.name(id), planned.name(id));
        }
        assert_eq!(looped.footprint(), planned.footprint());
    }

    #[test]
    fn region_of_finds_the_region_whose_pages_hold_an_address() {
        let mut t = RegionTable::new(4096);
        let a = t.add("a", 5000);
        let z = t.add("z", 0);
        let b = t.add("b", 64);
        assert_eq!(t.region_of(0), None);
        assert_eq!(t.region_of(4096), Some(a));
        assert_eq!(t.region_of(4096 + 8191), Some(a));
        assert_eq!(t.region_of(3 * 4096 + 64), Some(z));
        assert_eq!(t.region_of(4 * 4096), Some(b));
        // Past the footprint: the last region.
        assert_eq!(t.region_of(100 * 4096), Some(b));
    }

    #[test]
    fn footprint_grows() {
        let mut t = RegionTable::new(4096);
        assert_eq!(t.footprint(), 4096);
        t.add("a", 4097);
        assert_eq!(t.footprint(), 4096 + 8192);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_page_size_rejected() {
        let _ = RegionTable::new(1000);
    }
}
