//! The Linux 2.4 spinlock model (paper Table 2).
//!
//! ```text
//! c02bd319:  lock decb 0x2c(%ebx)    ; atomic decrement, lock=1 when free
//!            js .text.lock.tcp       ; taken only when already held
//!            ...                     ; got it: continue in caller
//! .text.lock.tcp:
//!            cmpb $0x0,0x2c(%ebx)    ; spin: check lock byte
//!            repz nop                ; PAUSE
//!            jle .text.lock.tcp      ; still held: spin again
//!            jmp c02bd319            ; free: retry the atomic acquire
//! ```
//!
//! The paper's observation: under full affinity there is almost no
//! contention, so an acquisition is just `lock decb; js` — two
//! instructions, one (well-predicted) branch. Under no affinity the
//! processor spins, executing three instructions and a branch per
//! iteration, and eats one mispredict on the loop exit. The *ratio* of
//! mispredicted branches therefore looks worse under full affinity (few
//! branches, so the rare mispredict weighs heavily) even though the
//! absolute numbers collapse — exactly the Table 1 "Locks" anomaly.

use serde::{Deserialize, Serialize};
use sim_core::SimRng;

/// Cost model for one acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpinLockCosts {
    /// Cycles for the `lock decb` bus-locked atomic.
    pub atomic_cycles: u64,
    /// Cycles per spin iteration (PAUSE delay plus the compare/branch,
    /// plus the coherence traffic of polling a remotely-held line).
    pub spin_iter_cycles: u64,
    /// Minimum spin iterations when contended.
    pub min_spin: u64,
    /// Maximum spin iterations when contended (exclusive).
    pub max_spin: u64,
    /// Probability that an *uncontended* acquire's `js` branch
    /// mispredicts (cold predictor state / aliasing). Rare, but with only
    /// one branch per acquire each occurrence weighs heavily on the
    /// ratio — the paper's Table 1 "Locks" anomaly.
    pub uncontended_mispredict_rate: f64,
}

impl Default for SpinLockCosts {
    fn default() -> Self {
        SpinLockCosts {
            atomic_cycles: 24,
            spin_iter_cycles: 40,
            min_spin: 50,
            max_spin: 400,
            uncontended_mispredict_rate: 0.03,
        }
    }
}

/// Event accounting for one lock acquisition, to be folded into the
/// "Locks" bin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LockAcquisition {
    /// Instructions retired.
    pub instructions: u64,
    /// Branches retired.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Cycles consumed.
    pub cycles: u64,
    /// Whether the lock was contended.
    pub contended: bool,
    /// Spin iterations executed (0 when uncontended).
    pub spin_iterations: u64,
}

/// Cumulative statistics for one lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpinLockStats {
    /// Total acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that found the lock held.
    pub contended: u64,
    /// Total spin iterations across all acquisitions.
    pub spin_iterations: u64,
}

/// A modelled spinlock.
///
/// Whether an acquisition is contended is the *caller's* decision — in
/// the machine model it depends on whether another CPU is concurrently
/// inside the same connection's critical sections. The lock turns that
/// decision into instruction/branch/cycle accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpinLock {
    name: String,
    costs: SpinLockCosts,
    stats: SpinLockStats,
}

impl SpinLock {
    /// Creates a lock with default costs.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        SpinLock::with_costs(name, SpinLockCosts::default())
    }

    /// Creates a lock with explicit costs.
    ///
    /// # Panics
    ///
    /// Panics if `min_spin >= max_spin`.
    #[must_use]
    pub fn with_costs(name: impl Into<String>, costs: SpinLockCosts) -> Self {
        assert!(costs.min_spin < costs.max_spin, "empty spin range");
        SpinLock {
            name: name.into(),
            costs,
            stats: SpinLockStats::default(),
        }
    }

    /// Lock name (for reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Performs one acquisition.
    ///
    /// `contended` says whether another CPU currently holds the lock;
    /// `rng` draws the spin length when it does. The returned accounting
    /// covers the full acquire (spin included).
    pub fn acquire(&mut self, contended: bool, rng: &mut SimRng) -> LockAcquisition {
        self.stats.acquisitions += 1;
        if !contended {
            // lock decb; js (not taken, almost always predicted).
            let mispredicts = u64::from(rng.chance(self.costs.uncontended_mispredict_rate));
            return LockAcquisition {
                instructions: 2,
                branches: 1,
                mispredicts,
                cycles: self.costs.atomic_cycles + mispredicts * 20,
                contended: false,
                spin_iterations: 0,
            };
        }
        self.stats.contended += 1;
        let iters = rng.range(self.costs.min_spin, self.costs.max_spin);
        self.stats.spin_iterations += iters;
        // Entry: lock decb; js (taken, mispredicted — the uncommon path).
        // Each iteration: cmpb; repz nop; jle (taken).
        // Exit: jle falls through (mispredicted), jmp, retry lock decb; js.
        let instructions = 2 + iters * 3 + 1 + 2;
        let branches = 1 + iters + 1; // js + per-iter jle + jmp (retry js folded)
        let mispredicts = 2; // the js-taken entry and the jle exit
        let cycles = self.costs.atomic_cycles * 2 + iters * self.costs.spin_iter_cycles;
        LockAcquisition {
            instructions,
            branches,
            mispredicts,
            cycles,
            contended: true,
            spin_iterations: iters,
        }
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> SpinLockStats {
        self.stats
    }

    /// Resets counters.
    pub fn reset_stats(&mut self) {
        self.stats = SpinLockStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_is_two_instructions() {
        let mut lock = SpinLock::new("sk_lock");
        let mut rng = SimRng::new(1);
        let a = lock.acquire(false, &mut rng);
        assert_eq!(a.instructions, 2);
        assert_eq!(a.branches, 1);
        assert!(a.mispredicts <= 1);
        assert!(a.cycles >= 24);
        assert!(!a.contended);
    }

    #[test]
    fn contended_scales_with_spin() {
        let mut lock = SpinLock::new("sk_lock");
        let mut rng = SimRng::new(2);
        let a = lock.acquire(true, &mut rng);
        assert!(a.contended);
        assert!(a.spin_iterations >= 50 && a.spin_iterations < 400);
        assert_eq!(a.instructions, 2 + a.spin_iterations * 3 + 3);
        assert_eq!(a.branches, 2 + a.spin_iterations);
        assert_eq!(a.mispredicts, 2);
        assert!(a.cycles > 24);
    }

    #[test]
    fn paper_table1_locks_anomaly_reproduced() {
        // Contended (no affinity) vs uncontended (full affinity): the
        // contended case has far more branches but a *lower* mispredict
        // ratio; the uncontended case has few branches so one mispredict
        // weighs heavily.
        let mut lock = SpinLock::new("l");
        let mut rng = SimRng::new(3);
        let mut no_aff = LockAcquisition::default();
        let mut full_aff = LockAcquisition::default();
        for _ in 0..1000 {
            let c = lock.acquire(true, &mut rng);
            no_aff.instructions += c.instructions;
            no_aff.branches += c.branches;
            no_aff.mispredicts += c.mispredicts;
            let u = lock.acquire(false, &mut rng);
            full_aff.instructions += u.instructions;
            full_aff.branches += u.branches;
            full_aff.mispredicts += u.mispredicts;
        }
        assert!(
            full_aff.instructions * 10 < no_aff.instructions,
            "full-affinity instruction count should be <10% of no-affinity"
        );
        let ratio_no = no_aff.mispredicts as f64 / no_aff.branches as f64;
        let ratio_full = full_aff.mispredicts as f64 / full_aff.branches as f64;
        assert!(
            ratio_full > ratio_no,
            "mispredict *ratio* should look worse under full affinity"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut lock = SpinLock::new("l");
        let mut rng = SimRng::new(4);
        lock.acquire(false, &mut rng);
        lock.acquire(true, &mut rng);
        lock.acquire(true, &mut rng);
        let s = lock.stats();
        assert_eq!(s.acquisitions, 3);
        assert_eq!(s.contended, 2);
        assert!(s.spin_iterations >= 8);
        lock.reset_stats();
        assert_eq!(lock.stats().acquisitions, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut l1 = SpinLock::new("a");
        let mut l2 = SpinLock::new("a");
        let mut r1 = SimRng::new(9);
        let mut r2 = SimRng::new(9);
        for _ in 0..50 {
            assert_eq!(l1.acquire(true, &mut r1), l2.acquire(true, &mut r2));
        }
    }

    #[test]
    #[should_panic(expected = "empty spin range")]
    fn bad_costs_rejected() {
        let costs = SpinLockCosts {
            min_spin: 5,
            max_spin: 5,
            ..SpinLockCosts::default()
        };
        let _ = SpinLock::with_costs("l", costs);
    }
}
