//! Simulated time.
//!
//! All simulation crates measure time in *cycles* of a single global clock.
//! The system under test in the paper runs every processor at the same
//! 2 GHz clock, so a cycle count plus a [`Frequency`] is sufficient to
//! recover wall-clock durations and throughput figures.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// A point in simulated time, measured in clock cycles since simulation
/// start.
///
/// `SimTime` is an absolute timestamp; durations are plain `u64` cycle
/// counts. Arithmetic saturates on overflow rather than wrapping, so a
/// runaway simulation fails loudly (times stop advancing past `u64::MAX`)
/// instead of silently reordering events.
///
/// # Example
///
/// ```
/// use sim_core::SimTime;
///
/// let t = SimTime::ZERO + 250;
/// assert_eq!(t.cycles(), 250);
/// assert_eq!(t - SimTime::from_cycles(50), 200);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The beginning of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time, used as an "infinitely far away"
    /// sentinel for deadlines that are not currently armed.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a timestamp at `cycles` cycles after simulation start.
    #[must_use]
    pub const fn from_cycles(cycles: u64) -> Self {
        SimTime(cycles)
    }

    /// Returns the number of cycles since simulation start.
    #[must_use]
    pub const fn cycles(self) -> u64 {
        self.0
    }

    /// Returns the duration in cycles from `earlier` to `self`, or zero if
    /// `earlier` is actually later (clamped, never negative).
    #[must_use]
    pub const fn saturating_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;

    fn add(self, cycles: u64) -> SimTime {
        SimTime(self.0.saturating_add(cycles))
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, cycles: u64) {
        self.0 = self.0.saturating_add(cycles);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;

    /// Duration in cycles between two timestamps.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when order is not guaranteed.
    fn sub(self, rhs: SimTime) -> u64 {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction went negative");
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

/// A clock frequency, used to convert cycle counts to wall-clock time and
/// throughput.
///
/// # Example
///
/// ```
/// use sim_core::{Frequency, SimTime};
///
/// let f = Frequency::from_ghz(2.0);
/// assert_eq!(f.hertz(), 2_000_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Frequency(u64);

impl Frequency {
    /// Creates a frequency from gigahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive and finite.
    #[must_use]
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "frequency must be positive");
        Frequency((ghz * 1e9) as u64)
    }

    /// Returns the frequency in hertz.
    #[must_use]
    pub const fn hertz(self) -> u64 {
        self.0
    }

    /// Returns the frequency in gigahertz.
    #[must_use]
    pub fn ghz(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Default for Frequency {
    /// The paper's system under test: 2 GHz Pentium 4 Xeon.
    fn default() -> Self {
        Frequency::from_ghz(2.0)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}GHz", self.ghz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_ordering_and_arithmetic() {
        let a = SimTime::from_cycles(100);
        let b = a + 50;
        assert!(b > a);
        assert_eq!(b - a, 50);
        assert_eq!(b.cycles(), 150);
    }

    #[test]
    fn simtime_add_assign() {
        let mut t = SimTime::ZERO;
        t += 10;
        t += 5;
        assert_eq!(t.cycles(), 15);
    }

    #[test]
    fn simtime_saturates_at_max() {
        let t = SimTime::MAX + 1;
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_cycles(10);
        let late = SimTime::from_cycles(30);
        assert_eq!(late.saturating_since(early), 20);
        assert_eq!(early.saturating_since(late), 0);
    }

    #[test]
    fn frequency_conversions() {
        let f = Frequency::from_ghz(2.0);
        assert_eq!(f.hertz(), 2_000_000_000);
        assert!((f.ghz() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn default_frequency_matches_paper_sut() {
        assert_eq!(Frequency::default().hertz(), 2_000_000_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        let _ = Frequency::from_ghz(0.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(SimTime::from_cycles(42).to_string(), "42cy");
        assert_eq!(Frequency::from_ghz(2.0).to_string(), "2.000GHz");
    }
}
