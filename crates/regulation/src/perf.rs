//! Per-core performance-counter abstraction.
//!
//! The SoC-integrated counters §II refers to: each core's memory accesses
//! and transferred bytes, sampled and reset by the regulator every period.

use autoplat_sim::SimTime;

/// A snapshot of one core's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSample {
    /// Memory accesses since the last reset.
    pub accesses: u64,
    /// Bytes transferred since the last reset.
    pub bytes: u64,
}

/// Per-core performance counters.
///
/// # Examples
///
/// ```
/// use autoplat_regulation::PerfCounters;
/// use autoplat_sim::SimTime;
///
/// let mut pmc = PerfCounters::new(4);
/// pmc.record(0, 64, SimTime::ZERO);
/// pmc.record(0, 64, SimTime::ZERO);
/// let s = pmc.sample(0);
/// assert_eq!(s.accesses, 2);
/// assert_eq!(s.bytes, 128);
/// ```
#[derive(Debug, Clone)]
pub struct PerfCounters {
    samples: Vec<CounterSample>,
    totals: Vec<CounterSample>,
    last_event: Vec<Option<SimTime>>,
}

impl PerfCounters {
    /// Creates counters for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        PerfCounters {
            samples: vec![CounterSample::default(); cores],
            totals: vec![CounterSample::default(); cores],
            last_event: vec![None; cores],
        }
    }

    /// Number of cores tracked.
    pub fn cores(&self) -> usize {
        self.samples.len()
    }

    /// Records one access of `bytes` by `core` at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn record(&mut self, core: usize, bytes: u64, now: SimTime) {
        let s = &mut self.samples[core];
        s.accesses += 1;
        s.bytes += bytes;
        let t = &mut self.totals[core];
        t.accesses += 1;
        t.bytes += bytes;
        self.last_event[core] = Some(now);
    }

    /// The current (since-reset) sample of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn sample(&self, core: usize) -> CounterSample {
        self.samples[core]
    }

    /// Lifetime totals for `core` (not affected by [`reset`]).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    ///
    /// [`reset`]: PerfCounters::reset
    pub fn total(&self, core: usize) -> CounterSample {
        self.totals[core]
    }

    /// Time of the core's most recent access, if any.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn last_event(&self, core: usize) -> Option<SimTime> {
        self.last_event[core]
    }

    /// Resets the per-period sample of `core` (totals are preserved).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn reset(&mut self, core: usize) {
        self.samples[core] = CounterSample::default();
    }

    /// Resets every core's per-period sample.
    pub fn reset_all(&mut self) {
        for s in &mut self.samples {
            *s = CounterSample::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut p = PerfCounters::new(2);
        p.record(1, 64, SimTime::from_ns(5.0));
        p.record(1, 32, SimTime::from_ns(9.0));
        assert_eq!(
            p.sample(1),
            CounterSample {
                accesses: 2,
                bytes: 96
            }
        );
        assert_eq!(p.sample(0), CounterSample::default());
        assert_eq!(p.last_event(1), Some(SimTime::from_ns(9.0)));
        assert_eq!(p.last_event(0), None);
    }

    #[test]
    fn reset_preserves_totals() {
        let mut p = PerfCounters::new(1);
        p.record(0, 100, SimTime::ZERO);
        p.reset(0);
        assert_eq!(p.sample(0), CounterSample::default());
        assert_eq!(
            p.total(0),
            CounterSample {
                accesses: 1,
                bytes: 100
            }
        );
        p.record(0, 50, SimTime::ZERO);
        p.reset_all();
        assert_eq!(p.total(0).bytes, 150);
        assert_eq!(p.sample(0).bytes, 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_core_panics() {
        let p = PerfCounters::new(1);
        let _ = p.sample(3);
    }

    #[test]
    fn cores_count() {
        assert_eq!(PerfCounters::new(8).cores(), 8);
    }
}
