//! The `(cpu × function)` event matrix.

use sim_core::CpuId;
use sim_cpu::PerfCounters;

use crate::registry::{funcid_from_index, FuncId, FunctionRegistry};

/// Dense per-CPU, per-function event accounting.
///
/// The execution layers call [`record`](Profiler::record) after every
/// function execution (and after every machine-clear attribution); the
/// analysis layer then slices the matrix by CPU, by function or by
/// functional group to regenerate the paper's tables.
///
/// Storage is one flat `cpus × stride` array of counter banks (cpu-major)
/// plus a per-CPU bitset of ever-touched functions, so the common "walk
/// the profile of one CPU" pattern ([`nonzero_on`](Profiler::nonzero_on),
/// drawn on every interrupt for machine-clear attribution) skips the
/// untouched bulk of the row without scanning it.
#[derive(Debug, Clone)]
pub struct Profiler {
    cpus: usize,
    /// Function slots allocated per CPU row (grown on demand).
    stride: usize,
    /// `matrix[cpu * stride + func]`.
    matrix: Vec<PerfCounters>,
    /// One bit per matrix slot, same layout, `stride` padded to whole
    /// words per CPU: set when the slot has ever been recorded to.
    touched: Vec<u64>,
    /// Running per-CPU cycle totals, maintained by [`Profiler::record`] so
    /// hot callers (machine-clear attribution draws every interrupt) don't
    /// re-sum a whole matrix row.
    cycles_on: Vec<u64>,
}

impl Profiler {
    /// Creates a profiler for `cpus` CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    #[must_use]
    pub fn new(cpus: usize) -> Self {
        assert!(cpus > 0, "need at least one cpu");
        let stride = 64;
        Profiler {
            cpus,
            stride,
            matrix: vec![PerfCounters::default(); cpus * stride],
            touched: vec![0; cpus * stride.div_ceil(64)],
            cycles_on: vec![0; cpus],
        }
    }

    /// Number of CPUs this profiler tracks.
    #[must_use]
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    fn words_per_cpu(&self) -> usize {
        self.stride.div_ceil(64)
    }

    /// Re-lays the matrix out with a wider stride so `func` fits.
    fn grow(&mut self, func: FuncId) {
        let new_stride = (func.index() + 1).next_power_of_two().max(64);
        let new_words = new_stride.div_ceil(64);
        let mut matrix = vec![PerfCounters::default(); self.cpus * new_stride];
        let mut touched = vec![0u64; self.cpus * new_words];
        for cpu in 0..self.cpus {
            let old_row = &self.matrix[cpu * self.stride..(cpu + 1) * self.stride];
            matrix[cpu * new_stride..cpu * new_stride + self.stride].copy_from_slice(old_row);
            let old_bits = &self.touched[cpu * self.words_per_cpu()..];
            touched[cpu * new_words..cpu * new_words + self.words_per_cpu()]
                .copy_from_slice(&old_bits[..self.words_per_cpu()]);
        }
        self.stride = new_stride;
        self.matrix = matrix;
        self.touched = touched;
    }

    /// Adds `delta` to the counters of `func` on `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn record(&mut self, cpu: CpuId, func: FuncId, delta: &PerfCounters) {
        let c = cpu.index();
        self.cycles_on[c] += delta.cycles;
        let f = func.index();
        if f >= self.stride {
            self.grow(func);
        }
        let words = self.words_per_cpu();
        self.touched[c * words + f / 64] |= 1 << (f % 64);
        self.matrix[c * self.stride + f] += *delta;
    }

    /// Total cycles recorded on `cpu` — equal to
    /// `cpu_total(cpu).cycles`, but O(1).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn cpu_cycles(&self, cpu: CpuId) -> u64 {
        self.cycles_on[cpu.index()]
    }

    /// Counters for `func` on `cpu` (zero if never recorded).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn counters(&self, cpu: CpuId, func: FuncId) -> PerfCounters {
        if func.index() >= self.stride {
            return PerfCounters::default();
        }
        self.matrix[cpu.index() * self.stride + func.index()]
    }

    /// Counters for `func` summed over all CPUs.
    #[must_use]
    pub fn func_total(&self, func: FuncId) -> PerfCounters {
        (0..self.cpus)
            .map(|c| self.counters(CpuId::new(c as u32), func))
            .sum()
    }

    /// Counters summed over every function on `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn cpu_total(&self, cpu: CpuId) -> PerfCounters {
        self.nonzero_on(cpu).map(|(_, c)| c).sum()
    }

    /// Counters summed over the whole machine.
    #[must_use]
    pub fn total(&self) -> PerfCounters {
        (0..self.cpus)
            .map(|c| self.cpu_total(CpuId::new(c as u32)))
            .sum()
    }

    /// Counters summed over every function in `group` (all CPUs).
    #[must_use]
    pub fn group_total(&self, registry: &FunctionRegistry, group: &str) -> PerfCounters {
        registry
            .functions_in(group)
            .into_iter()
            .map(|f| self.func_total(f))
            .sum()
    }

    /// Functions with non-zero counters on `cpu`, as `(func, counters)`,
    /// in ascending function order. Walks set bits of the touched-set
    /// rather than the whole row.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn nonzero_on(&self, cpu: CpuId) -> impl Iterator<Item = (FuncId, PerfCounters)> + '_ {
        let c = cpu.index();
        let words = self.words_per_cpu();
        let row = &self.matrix[c * self.stride..(c + 1) * self.stride];
        self.touched[c * words..(c + 1) * words]
            .iter()
            .enumerate()
            .flat_map(move |(w, &bits)| {
                let mut rest = bits;
                std::iter::from_fn(move || {
                    if rest == 0 {
                        return None;
                    }
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    Some(w * 64 + bit)
                })
            })
            .filter(move |&i| !row[i].is_empty())
            .map(move |i| (funcid_from_index(i), row[i]))
    }

    /// Zeroes every counter (discard warm-up).
    pub fn reset(&mut self) {
        self.matrix.fill(PerfCounters::default());
        self.touched.fill(0);
        self.cycles_on.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cpu::HwEvent;

    fn delta(cycles: u64, llc: u64) -> PerfCounters {
        let mut d = PerfCounters::default();
        d.bump(HwEvent::Cycles, cycles);
        d.bump(HwEvent::LlcMiss, llc);
        d
    }

    #[test]
    fn record_and_slice() {
        let mut reg = FunctionRegistry::new();
        let f0 = reg.register("tcp_sendmsg", "Engine");
        let f1 = reg.register("alloc_skb", "Buf Mgmt");
        let f2 = reg.register("tcp_v4_rcv", "Engine");
        let mut p = Profiler::new(2);
        let (c0, c1) = (CpuId::new(0), CpuId::new(1));
        p.record(c0, f0, &delta(100, 1));
        p.record(c0, f1, &delta(50, 0));
        p.record(c1, f0, &delta(30, 2));
        p.record(c1, f2, &delta(20, 0));

        assert_eq!(p.counters(c0, f0).cycles, 100);
        assert_eq!(p.counters(c1, f1).cycles, 0);
        assert_eq!(p.func_total(f0).cycles, 130);
        assert_eq!(p.cpu_total(c0).cycles, 150);
        assert_eq!(p.cpu_cycles(c0), p.cpu_total(c0).cycles);
        assert_eq!(p.cpu_cycles(c1), p.cpu_total(c1).cycles);
        assert_eq!(p.total().cycles, 200);
        assert_eq!(p.total().llc_misses, 3);
        assert_eq!(p.group_total(&reg, "Engine").cycles, 150);
    }

    #[test]
    fn record_accumulates() {
        let mut reg = FunctionRegistry::new();
        let f = reg.register("f", "G");
        let mut p = Profiler::new(1);
        p.record(CpuId::new(0), f, &delta(10, 0));
        p.record(CpuId::new(0), f, &delta(15, 1));
        assert_eq!(p.counters(CpuId::new(0), f).cycles, 25);
        assert_eq!(p.counters(CpuId::new(0), f).llc_misses, 1);
    }

    #[test]
    fn unknown_function_reads_zero() {
        let mut reg = FunctionRegistry::new();
        let _ = reg.register("a", "G");
        let late = {
            let mut other = FunctionRegistry::new();
            other.register("a", "G");
            other.register("b", "G")
        };
        let p = Profiler::new(1);
        assert!(p.counters(CpuId::new(0), late).is_empty());
    }

    #[test]
    fn nonzero_on_skips_empty() {
        let mut reg = FunctionRegistry::new();
        let f0 = reg.register("a", "G");
        let f1 = reg.register("b", "G");
        let mut p = Profiler::new(1);
        p.record(CpuId::new(0), f1, &delta(5, 0));
        let v: Vec<_> = p.nonzero_on(CpuId::new(0)).collect();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0, f1);
        assert_ne!(v[0].0, f0);
    }

    #[test]
    fn nonzero_on_is_ascending_across_words() {
        let mut reg = FunctionRegistry::new();
        let funcs: Vec<_> = (0..200)
            .map(|i| reg.register(format!("f{i}"), "G"))
            .collect();
        let mut p = Profiler::new(1);
        // Record out of order, spanning several 64-bit words and a grow.
        for &i in &[150usize, 3, 64, 199, 65, 0] {
            p.record(CpuId::new(0), funcs[i], &delta(i as u64 + 1, 0));
        }
        let seen: Vec<usize> = p
            .nonzero_on(CpuId::new(0))
            .map(|(f, _)| f.index())
            .collect();
        assert_eq!(seen, vec![0, 3, 64, 65, 150, 199]);
        assert_eq!(
            p.cpu_total(CpuId::new(0)).cycles,
            151 + 4 + 65 + 200 + 66 + 1
        );
    }

    #[test]
    fn growth_preserves_earlier_records() {
        let mut reg = FunctionRegistry::new();
        let first = reg.register("first", "G");
        let mut p = Profiler::new(2);
        p.record(CpuId::new(1), first, &delta(7, 1));
        // Force several stride growths.
        for i in 1..300 {
            let f = reg.register(format!("f{i}"), "G");
            p.record(CpuId::new(0), f, &delta(1, 0));
        }
        assert_eq!(p.counters(CpuId::new(1), first).cycles, 7);
        assert_eq!(p.counters(CpuId::new(1), first).llc_misses, 1);
        assert_eq!(p.cpu_total(CpuId::new(0)).cycles, 299);
    }

    #[test]
    fn reset_zeroes() {
        let mut reg = FunctionRegistry::new();
        let f = reg.register("a", "G");
        let mut p = Profiler::new(1);
        p.record(CpuId::new(0), f, &delta(5, 0));
        p.reset();
        assert!(p.total().is_empty());
        assert_eq!(p.cpu_cycles(CpuId::new(0)), 0);
    }

    #[test]
    #[should_panic(expected = "at least one cpu")]
    fn zero_cpus_rejected() {
        let _ = Profiler::new(0);
    }
}
