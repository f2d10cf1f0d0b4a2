//! Periodic task model.

use autoplat_sim::{SimDuration, SimRng};

/// Criticality of a task, in the ISO 26262 spirit of §II's
//  mixed-criticality integration scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Criticality {
    /// Best-effort / QM workload ("app"-like software).
    BestEffort,
    /// Safety-critical workload (ASIL-rated).
    Critical,
}

/// A periodic task with implicit or constrained deadline.
///
/// Priorities are by index order after sorting — lower `id` is only an
/// identifier; the analysis functions treat **slice order as priority
/// order** (first = highest), which callers establish e.g. by
/// rate-monotonic sorting ([`TaskSet::rate_monotonic`]).
///
/// # Examples
///
/// ```
/// use autoplat_sched::Task;
/// use autoplat_sim::SimDuration;
///
/// let t = Task::new(3, SimDuration::from_us(2.0), SimDuration::from_us(10.0));
/// assert_eq!(t.utilization(), 0.2);
/// assert_eq!(t.deadline, t.period); // implicit deadline
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// Task identifier.
    pub id: u32,
    /// Worst-case execution time.
    pub wcet: SimDuration,
    /// Activation period.
    pub period: SimDuration,
    /// Relative deadline (<= period).
    pub deadline: SimDuration,
    /// Criticality class.
    pub criticality: Criticality,
}

impl Task {
    /// Creates an implicit-deadline best-effort task.
    ///
    /// # Panics
    ///
    /// Panics if `wcet` is zero, `period` is zero, or `wcet > period`.
    pub fn new(id: u32, wcet: SimDuration, period: SimDuration) -> Self {
        assert!(!wcet.is_zero(), "WCET must be non-zero");
        assert!(!period.is_zero(), "period must be non-zero");
        assert!(wcet <= period, "WCET must not exceed the period");
        Task {
            id,
            wcet,
            period,
            deadline: period,
            criticality: Criticality::BestEffort,
        }
    }

    /// Builder-style constrained deadline.
    ///
    /// # Panics
    ///
    /// Panics if `deadline < wcet` or `deadline > period`.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        assert!(
            deadline >= self.wcet && deadline <= self.period,
            "deadline in [wcet, period]"
        );
        self.deadline = deadline;
        self
    }

    /// Builder-style criticality.
    pub fn with_criticality(mut self, criticality: Criticality) -> Self {
        self.criticality = criticality;
        self
    }

    /// CPU utilization `wcet / period`.
    pub fn utilization(&self) -> f64 {
        self.wcet.as_ns() / self.period.as_ns()
    }
}

/// A set of periodic tasks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Creates a task set.
    pub fn new(tasks: Vec<Task>) -> Self {
        TaskSet { tasks }
    }

    /// The tasks, in current (priority) order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Total utilization.
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().map(Task::utilization).sum()
    }

    /// Sorts into rate-monotonic priority order (shortest period first)
    /// and returns self for chaining.
    pub fn rate_monotonic(mut self) -> Self {
        self.tasks.sort_by_key(|t| (t.period, t.id));
        self
    }

    /// Generates a random task set with total utilization ~`target_util`
    /// using a UUniFast-style split, with periods drawn log-uniformly from
    /// `[min_period, max_period]`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, `target_util` is not in `(0, n as f64)`, or
    /// the period range is invalid.
    pub fn generate(
        n: usize,
        target_util: f64,
        min_period: SimDuration,
        max_period: SimDuration,
        rng: &mut SimRng,
    ) -> TaskSet {
        assert!(n > 0, "need at least one task");
        assert!(target_util > 0.0, "utilization must be positive");
        assert!(
            min_period <= max_period && !min_period.is_zero(),
            "invalid period range"
        );
        // UUniFast.
        let mut utils = Vec::with_capacity(n);
        let mut sum = target_util;
        for i in 1..n {
            let next = sum * rng.gen_unit().powf(1.0 / (n - i) as f64);
            utils.push(sum - next);
            sum = next;
        }
        utils.push(sum);
        let (lo, hi) = (min_period.as_ns().ln(), max_period.as_ns().ln());
        let tasks = utils
            .into_iter()
            .enumerate()
            .map(|(i, u)| {
                let period_ns = (lo + rng.gen_unit() * (hi - lo)).exp();
                let wcet_ns = (u.min(1.0) * period_ns).max(1e-3);
                Task::new(
                    i as u32,
                    SimDuration::from_ns(wcet_ns),
                    SimDuration::from_ns(period_ns),
                )
            })
            .collect();
        TaskSet { tasks }
    }
}

impl FromIterator<Task> for TaskSet {
    fn from_iter<I: IntoIterator<Item = Task>>(iter: I) -> Self {
        TaskSet {
            tasks: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let t = Task::new(0, SimDuration::from_us(1.0), SimDuration::from_us(4.0));
        assert_eq!(t.utilization(), 0.25);
        let ts = TaskSet::new(vec![
            t,
            Task::new(1, SimDuration::from_us(2.0), SimDuration::from_us(8.0)),
        ]);
        assert_eq!(ts.utilization(), 0.5);
    }

    #[test]
    fn rate_monotonic_orders_by_period() {
        let ts = TaskSet::new(vec![
            Task::new(0, SimDuration::from_us(1.0), SimDuration::from_us(10.0)),
            Task::new(1, SimDuration::from_us(1.0), SimDuration::from_us(5.0)),
        ])
        .rate_monotonic();
        assert_eq!(ts.tasks()[0].id, 1);
    }

    #[test]
    fn builders() {
        let t = Task::new(0, SimDuration::from_us(1.0), SimDuration::from_us(4.0))
            .with_deadline(SimDuration::from_us(3.0))
            .with_criticality(Criticality::Critical);
        assert_eq!(t.deadline, SimDuration::from_us(3.0));
        assert_eq!(t.criticality, Criticality::Critical);
    }

    #[test]
    #[should_panic(expected = "WCET must not exceed")]
    fn wcet_beyond_period_rejected() {
        let _ = Task::new(0, SimDuration::from_us(5.0), SimDuration::from_us(4.0));
    }

    #[test]
    #[should_panic(expected = "deadline in")]
    fn invalid_deadline_rejected() {
        let _ = Task::new(0, SimDuration::from_us(2.0), SimDuration::from_us(4.0))
            .with_deadline(SimDuration::from_us(1.0));
    }

    #[test]
    fn generate_hits_target_utilization() {
        let mut rng = SimRng::seed_from(42);
        for _ in 0..20 {
            let ts = TaskSet::generate(
                8,
                0.7,
                SimDuration::from_us(1.0),
                SimDuration::from_us(100.0),
                &mut rng,
            );
            assert_eq!(ts.tasks().len(), 8);
            assert!(
                (ts.utilization() - 0.7).abs() < 0.05,
                "got {}",
                ts.utilization()
            );
            for t in ts.tasks() {
                assert!(t.wcet <= t.period);
            }
        }
    }

    #[test]
    fn generate_is_deterministic_per_seed() {
        let mk = || {
            let mut rng = SimRng::seed_from(7);
            TaskSet::generate(
                4,
                0.5,
                SimDuration::from_us(1.0),
                SimDuration::from_us(10.0),
                &mut rng,
            )
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn from_iterator() {
        let ts: TaskSet = (0..3)
            .map(|i| Task::new(i, SimDuration::from_us(1.0), SimDuration::from_us(10.0)))
            .collect();
        assert_eq!(ts.tasks().len(), 3);
    }
}
