//! Oprofile-style report rendering.

use sim_core::CpuId;
use sim_cpu::HwEvent;

use crate::profiler::Profiler;
use crate::registry::FunctionRegistry;

/// Converts exact event counts into Oprofile-style *sample* counts.
///
/// Oprofile records one sample every `interval` occurrences of the
/// monitored event; over a long steady-state run the sample distribution
/// converges to the count distribution. The view exposes both so tables
/// can be rendered in the same units as the paper's (samples).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleView {
    /// Events per sample.
    pub interval: u64,
}

impl SampleView {
    /// Creates a view sampling once every `interval` events.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "sampling interval must be positive");
        SampleView { interval }
    }

    /// Sample count corresponding to an exact event count.
    #[must_use]
    pub fn samples(&self, count: u64) -> u64 {
        count / self.interval
    }
}

impl Default for SampleView {
    /// Oprofile's typical machine-clear sampling setup in the paper's
    /// timeframe used small intervals for rare events; 1000 is a neutral
    /// default.
    fn default() -> Self {
        SampleView::new(1000)
    }
}

/// One row of a symbol report: a function and its share of an event.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolRow {
    /// Symbol name.
    pub symbol: String,
    /// Functional group (bin).
    pub group: String,
    /// Exact event count.
    pub count: u64,
    /// Sampled count under the report's view.
    pub samples: u64,
    /// Percentage of the CPU's total for the event.
    pub percent: f64,
}

/// Builds a per-CPU "functions with the most `event`" report, sorted by
/// descending count — the shape of the paper's Table 4.
///
/// Only functions with a non-zero count appear. `limit` truncates the
/// list (use `usize::MAX` for all).
#[must_use]
pub fn symbol_report(
    profiler: &Profiler,
    registry: &FunctionRegistry,
    cpu: CpuId,
    event: HwEvent,
    view: SampleView,
    limit: usize,
) -> Vec<SymbolRow> {
    let total = profiler.cpu_total(cpu).get(event);
    let mut rows: Vec<SymbolRow> = profiler
        .nonzero_on(cpu)
        .filter(|(_, c)| c.get(event) > 0)
        .map(|(f, c)| {
            let count = c.get(event);
            SymbolRow {
                symbol: registry.name(f).to_string(),
                group: registry.group(f).to_string(),
                count,
                samples: view.samples(count),
                percent: if total == 0 {
                    0.0
                } else {
                    100.0 * count as f64 / total as f64
                },
            }
        })
        .collect();
    rows.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.symbol.cmp(&b.symbol)));
    rows.truncate(limit);
    rows
}

/// Renders the report's "memory map" section: one row per region in
/// allocation order — base address, size, and the region's name.
///
/// Names are stored interned ([`sim_mem::RegionName`]) since the bulk
/// provisioning path landed; this is the report surface that resolves
/// them, and the rendering is defined to be byte-identical to the eager
/// `String` names the pre-interning code built (`conn3.tcp_ctx` and
/// friends). A golden snapshot over a per-flow slab pins that promise.
///
/// `limit` truncates the listing (use `usize::MAX` for all); truncation
/// is reported in the header so a clipped map never reads as complete.
#[must_use]
pub fn region_map_report(regions: &sim_mem::RegionTable, limit: usize) -> String {
    let shown = regions.len().min(limit);
    let mut out = format!(
        "memory map: {} regions, {} bytes{}\n{:>12} {:>10}  region\n",
        regions.len(),
        regions.footprint(),
        if shown < regions.len() {
            format!(" (first {shown} shown)")
        } else {
            String::new()
        },
        "base",
        "bytes",
    );
    for (id, r) in regions.iter().take(limit) {
        out.push_str(&format!(
            "{:#012x} {:>10}  {}\n",
            r.base(),
            r.size(),
            regions.name(id)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cpu::PerfCounters;

    #[test]
    fn sample_view_floor_division() {
        let v = SampleView::new(100);
        assert_eq!(v.samples(0), 0);
        assert_eq!(v.samples(99), 0);
        assert_eq!(v.samples(100), 1);
        assert_eq!(v.samples(250), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = SampleView::new(0);
    }

    #[test]
    fn report_sorts_and_percentages() {
        let mut reg = FunctionRegistry::new();
        let f0 = reg.register("tcp_sendmsg", "Engine");
        let f1 = reg.register("IRQ0x19_interrupt", "Driver");
        let f2 = reg.register("alloc_skb", "Buf Mgmt");
        let mut p = Profiler::new(1);
        let cpu = CpuId::new(0);
        let mut d = PerfCounters::default();
        d.bump(HwEvent::MachineClear, 60);
        p.record(cpu, f0, &d);
        let mut d = PerfCounters::default();
        d.bump(HwEvent::MachineClear, 40);
        p.record(cpu, f1, &d);
        // f2 has cycles but no clears: must not appear.
        let mut d = PerfCounters::default();
        d.bump(HwEvent::Cycles, 1000);
        p.record(cpu, f2, &d);

        let rows = symbol_report(
            &p,
            &reg,
            cpu,
            HwEvent::MachineClear,
            SampleView::new(10),
            10,
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].symbol, "tcp_sendmsg");
        assert_eq!(rows[0].count, 60);
        assert_eq!(rows[0].samples, 6);
        assert!((rows[0].percent - 60.0).abs() < 1e-9);
        assert_eq!(rows[1].symbol, "IRQ0x19_interrupt");
        assert_eq!(rows[1].group, "Driver");
    }

    #[test]
    fn report_limit_truncates() {
        let mut reg = FunctionRegistry::new();
        let mut p = Profiler::new(1);
        let cpu = CpuId::new(0);
        for i in 0..5 {
            let f = reg.register(format!("f{i}"), "G");
            let mut d = PerfCounters::default();
            d.bump(HwEvent::Cycles, 10 * (i + 1));
            p.record(cpu, f, &d);
        }
        let rows = symbol_report(&p, &reg, cpu, HwEvent::Cycles, SampleView::default(), 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].symbol, "f4");
    }

    #[test]
    fn report_empty_cpu() {
        let reg = FunctionRegistry::new();
        let p = Profiler::new(2);
        let rows = symbol_report(
            &p,
            &reg,
            CpuId::new(1),
            HwEvent::Cycles,
            SampleView::default(),
            10,
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn region_map_resolves_interned_names_like_eager_strings() {
        use sim_mem::{RegionName, RegionTable};
        let mut interned = RegionTable::new(4096);
        let mut eager = RegionTable::new(4096);
        for flow in 0..3u32 {
            for (suffix, size) in [("tcp_ctx", 1344), ("sock", 1472), ("skb_data", 65536)] {
                interned.add(RegionName::indexed("conn", flow, suffix), size);
                eager.add(format!("conn{flow}.{suffix}"), size);
            }
        }
        let a = region_map_report(&interned, usize::MAX);
        let b = region_map_report(&eager, usize::MAX);
        assert_eq!(a, b, "interned names must render like the eager strings");
        assert!(a.contains("conn2.skb_data"));
        assert!(a.starts_with("memory map: 9 regions"));
    }

    #[test]
    fn region_map_reports_truncation() {
        use sim_mem::RegionTable;
        let mut t = RegionTable::new(4096);
        for i in 0..4u32 {
            t.add(format!("r{i}"), 64);
        }
        let clipped = region_map_report(&t, 2);
        assert!(clipped.contains("(first 2 shown)"));
        assert_eq!(clipped.lines().count(), 4);
        assert!(!region_map_report(&t, 8).contains("shown"));
    }

    #[test]
    fn ties_break_by_name() {
        let mut reg = FunctionRegistry::new();
        let fb = reg.register("bbb", "G");
        let fa = reg.register("aaa", "G");
        let mut p = Profiler::new(1);
        let cpu = CpuId::new(0);
        let mut d = PerfCounters::default();
        d.bump(HwEvent::Cycles, 10);
        p.record(cpu, fb, &d);
        p.record(cpu, fa, &d);
        let rows = symbol_report(&p, &reg, cpu, HwEvent::Cycles, SampleView::default(), 10);
        assert_eq!(rows[0].symbol, "aaa");
        assert_eq!(rows[1].symbol, "bbb");
    }
}
