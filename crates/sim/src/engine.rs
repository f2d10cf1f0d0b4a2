//! The shared run loop for every event-driven simulator in the workspace.
//!
//! The [`Engine`] owns the clock and the event queue; components implement
//! [`Process`] and react to delivered events, scheduling follow-ups through
//! the [`EventSink`] handle they are given.
//!
//! # Ordering contract
//!
//! Events fire in nondecreasing time order. Events scheduled for the same
//! instant are delivered in the order they were scheduled (FIFO, via the
//! `(time, seq)` key in [`EventQueue`]), so a run is a pure function of the
//! schedule — no `HashMap` iteration order or heap internals leak through.
//! Scheduling into the simulated past panics rather than silently
//! reordering history.
//!
//! # Composition
//!
//! A composed simulator (e.g. the full-platform co-simulation in
//! `autoplat_core`) owns several sub-processes with their own event types
//! and wraps them in one umbrella enum. [`MapSink`] adapts the umbrella
//! sink to a sub-process's native event type, so sub-processes stay
//! reusable in isolation:
//!
//! ```
//! use autoplat_sim::engine::{EventSink, MapSink, Process};
//!
//! enum Top { Sub(u32) }
//!
//! struct Sub;
//! impl Process for Sub {
//!     type Event = u32;
//!     fn handle(&mut self, ev: u32, sink: &mut dyn EventSink<u32>) {
//!         if ev > 0 {
//!             sink.schedule_in(autoplat_sim::SimDuration::from_ns(1.0), ev - 1);
//!         }
//!     }
//! }
//!
//! struct Composed(Sub);
//! impl Process for Composed {
//!     type Event = Top;
//!     fn handle(&mut self, ev: Top, sink: &mut dyn EventSink<Top>) {
//!         match ev {
//!             Top::Sub(inner) => self.0.handle(inner, &mut MapSink::new(sink, Top::Sub)),
//!         }
//!     }
//! }
//! ```
//!
//! # Fault and metrics hooks
//!
//! [`Engine::attach_fault_injector`] filters every delivery through a
//! seeded [`FaultInjector`]: events can be dropped, delayed, or duplicated
//! by class (the [`Process::tag`] of the event), which lets the same fault
//! plans used by the admission control plane perturb any simulator.
//! [`Engine::publish_metrics`] exports delivery counters per tag into a
//! [`MetricsRegistry`].

use std::collections::BTreeMap;

use crate::event::EventQueue;
use crate::fault::{FaultInjector, FaultTally, MessageFault};
use crate::metrics::MetricsRegistry;
use crate::time::{SimDuration, SimTime};

/// Where a [`Process`] schedules follow-up events.
///
/// The concrete implementation handed out by [`Engine`] is [`Scheduler`];
/// [`MapSink`] adapts a sink across event types for composition.
pub trait EventSink<E> {
    /// The current simulated time.
    fn now(&self) -> SimTime;

    /// Schedules `event` at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past, which would break causality.
    fn schedule_at(&mut self, at: SimTime, event: E);

    /// Schedules `event` to fire `delay` after the current time.
    fn schedule_in(&mut self, delay: SimDuration, event: E) {
        let at = self.now() + delay;
        self.schedule_at(at, event);
    }
}

/// Handle through which a [`Process`] schedules follow-up events.
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.schedule(self.now + delay, event);
    }

    /// Schedules `event` at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past, which would break causality.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past ({at} < {})",
            self.now
        );
        self.queue.schedule(at, event);
    }
}

impl<E> EventSink<E> for Scheduler<'_, E> {
    fn now(&self) -> SimTime {
        Scheduler::now(self)
    }

    fn schedule_at(&mut self, at: SimTime, event: E) {
        Scheduler::schedule_at(self, at, event)
    }
}

/// Adapts an [`EventSink`] over event type `A` into one over `B` by mapping
/// every scheduled event through `F: FnMut(B) -> A`.
///
/// This is the composition primitive: a parent process with an umbrella
/// event enum wraps its sink with the enum constructor before delegating to
/// a sub-process (see the module docs for an example).
pub struct MapSink<'a, A, F> {
    inner: &'a mut dyn EventSink<A>,
    map: F,
}

impl<'a, A, F> MapSink<'a, A, F> {
    /// Wraps `inner`, translating scheduled events through `map`.
    pub fn new(inner: &'a mut dyn EventSink<A>, map: F) -> Self {
        MapSink { inner, map }
    }
}

impl<A, B, F: FnMut(B) -> A> EventSink<B> for MapSink<'_, A, F> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn schedule_at(&mut self, at: SimTime, event: B) {
        self.inner.schedule_at(at, (self.map)(event));
    }
}

/// An event-driven simulation component.
pub trait Process {
    /// The event type this process reacts to.
    type Event;

    /// Handles one event delivered at its fire time.
    fn handle(&mut self, event: Self::Event, sink: &mut dyn EventSink<Self::Event>);

    /// A short static label classifying `event`, used for per-class
    /// delivery accounting ([`Engine::publish_metrics`]) and as the message
    /// class consulted by an attached [`FaultInjector`].
    fn tag(&self, _event: &Self::Event) -> &'static str {
        "event"
    }
}

/// The simulation engine: a clock plus an event queue, driving one [`Process`].
///
/// # Examples
///
/// A process that counts down by rescheduling itself:
///
/// ```
/// use autoplat_sim::{Engine, Process, SimDuration, SimTime};
/// use autoplat_sim::engine::EventSink;
///
/// struct Countdown(u32);
///
/// impl Process for Countdown {
///     type Event = ();
///     fn handle(&mut self, _ev: (), sink: &mut dyn EventSink<()>) {
///         if self.0 > 0 {
///             self.0 -= 1;
///             sink.schedule_in(SimDuration::from_ns(10.0), ());
///         }
///     }
/// }
///
/// let mut engine = Engine::new();
/// engine.schedule_at(SimTime::ZERO, ());
/// let mut process = Countdown(3);
/// engine.run(&mut process);
/// assert_eq!(process.0, 0);
/// assert_eq!(engine.now(), SimTime::from_ns(30.0));
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    delivered: u64,
    tag_counts: BTreeMap<&'static str, u64>,
    injector: Option<FaultInjector>,
    /// Cycle granularity presented to the fault injector's cycle clock.
    fault_cycle: SimDuration,
    /// Captured `Clone::clone`, so `Duplicate` faults work without putting
    /// a `Clone` bound on every run method.
    cloner: Option<fn(&E) -> E>,
    faults: FaultTally,
}

impl<E> Engine<E> {
    /// Creates an engine at `t = 0` with an empty queue.
    pub fn new() -> Self {
        Engine::starting_at(SimTime::ZERO)
    }

    /// Creates an engine whose clock starts at `now`, for resuming a
    /// simulator that already carries simulated history.
    pub fn starting_at(now: SimTime) -> Self {
        Engine {
            now,
            queue: EventQueue::new(),
            delivered: 0,
            tag_counts: BTreeMap::new(),
            injector: None,
            fault_cycle: SimDuration::from_ps(1_000),
            cloner: None,
            faults: FaultTally::default(),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of deliveries per event tag (see [`Process::tag`]).
    pub fn tag_counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.tag_counts
    }

    /// Filters every delivery through `injector`, using `cycle` as the
    /// duration of one injector clock cycle (faults are scripted in cycles).
    ///
    /// Dropped events are discarded without delivery; delayed and
    /// duplicated copies are re-enqueued after the scripted cycle count.
    pub fn attach_fault_injector(&mut self, injector: FaultInjector, cycle: SimDuration)
    where
        E: Clone,
    {
        assert!(cycle > SimDuration::ZERO, "fault cycle must be non-zero");
        self.injector = Some(injector);
        self.fault_cycle = cycle;
        self.cloner = Some(|e: &E| e.clone());
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Events discarded by the fault injector.
    pub fn dropped(&self) -> u64 {
        self.faults.dropped
    }

    /// Schedules an initial event at an absolute time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past ({at} < {})",
            self.now
        );
        self.queue.schedule(at, event);
    }

    /// Runs until the queue drains, delivering every event to `process`.
    pub fn run<P: Process<Event = E>>(&mut self, process: &mut P) {
        self.run_until(process, SimTime::MAX);
    }

    /// Runs until the queue drains or the next event would fire after
    /// `deadline`. Events at exactly `deadline` are delivered.
    ///
    /// This is the batched hot path: one peek per *timestamp*, then the
    /// whole same-instant batch drains through
    /// [`EventQueue::pop_if_at`](crate::EventQueue::pop_if_at) — including
    /// events a handler schedules at the instant being drained, which keep
    /// their FIFO position behind the already-scheduled batch.
    pub fn run_until<P: Process<Event = E>>(&mut self, process: &mut P, deadline: SimTime) {
        while let Some(at) = self.queue.peek_time() {
            if at > deadline {
                return;
            }
            assert!(at >= self.now, "event queue violated causality");
            while let Some(event) = self.queue.pop_if_at(at) {
                self.deliver(at, event, process);
            }
        }
    }

    /// Budgeted stepping: delivers at most `max_events` events at or before
    /// `deadline`. Returns the number actually delivered, which is less
    /// than `max_events` only if the run completed.
    pub fn run_budgeted<P: Process<Event = E>>(
        &mut self,
        process: &mut P,
        deadline: SimTime,
        max_events: u64,
    ) -> u64 {
        let mut n = 0;
        while n < max_events {
            if self.step_until(process, deadline).is_none() {
                break;
            }
            n += 1;
        }
        n
    }

    /// Delivers the next pending event, if any, returning its fire time.
    pub fn step<P: Process<Event = E>>(&mut self, process: &mut P) -> Option<SimTime> {
        self.step_until(process, SimTime::MAX)
    }

    /// Delivers the next event at or before `deadline`, skipping (and
    /// counting) any the fault injector discards. Returns the delivered
    /// event's fire time, or `None` if nothing fired.
    fn step_until<P: Process<Event = E>>(
        &mut self,
        process: &mut P,
        deadline: SimTime,
    ) -> Option<SimTime> {
        loop {
            let at = self.queue.peek_time()?;
            if at > deadline {
                return None;
            }
            let (at, event) = self.queue.pop().expect("peeked event exists");
            assert!(at >= self.now, "event queue violated causality");
            if self.deliver(at, event, process) {
                return Some(at);
            }
        }
    }

    /// Fires one popped event: advances the clock to `at` (the simulation
    /// reached that instant even if the injector then discards the event),
    /// filters through the fault injector, and on survival delivers to
    /// `process`. Returns whether the event was actually delivered.
    fn deliver<P: Process<Event = E>>(&mut self, at: SimTime, event: E, process: &mut P) -> bool {
        self.now = at;
        let tag = process.tag(&event);
        let event = match self.filter(at, tag, event) {
            Some(event) => event,
            None => return false,
        };
        self.delivered += 1;
        *self.tag_counts.entry(tag).or_insert(0) += 1;
        let mut sched = Scheduler {
            now: self.now,
            queue: &mut self.queue,
        };
        process.handle(event, &mut sched);
        true
    }

    /// Applies the fault injector to one popped event. Returns the event to
    /// deliver now, or `None` if it was dropped or deferred.
    fn filter(&mut self, at: SimTime, tag: &'static str, event: E) -> Option<E> {
        let Some(injector) = self.injector.as_mut() else {
            return Some(event);
        };
        let cycle = at.as_ps() / self.fault_cycle.as_ps();
        let verdict = injector.on_message(cycle, tag);
        self.apply_fault(at, verdict, event)
    }

    /// The verdict half of [`Engine::filter`], kept out of line so the
    /// fault-free path stays small: with this inside `filter`, the
    /// `cosim_qos` benchmark ran 6–10% slower (2-vCPU host).
    #[cold]
    #[inline(never)]
    fn apply_fault(&mut self, at: SimTime, verdict: MessageFault, event: E) -> Option<E> {
        let cloner = self.cloner;
        let (now, later) = self
            .faults
            .apply(verdict, event, |e| cloner.map(|clone| clone(e)));
        if let Some((cycles, event)) = later {
            self.queue.schedule(at + self.fault_cycle * cycles, event);
        }
        now
    }

    /// Number of still-pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Exports delivery counters: `engine.events_delivered`, per-tag
    /// `engine.events.<tag>`, and the fault-hook counters. The fault
    /// counters export unconditionally (zero without an injector), so
    /// fault-free and faulty runs produce schema-consistent key sets.
    pub fn publish_metrics(&self, metrics: &mut MetricsRegistry) {
        metrics.counter_add("engine.events_delivered", self.delivered);
        for (tag, n) in &self.tag_counts {
            metrics.counter_add(format!("engine.events.{tag}"), *n);
        }
        metrics.counter_add("engine.events_dropped", self.faults.dropped);
        metrics.counter_add("engine.events_delayed", self.faults.delayed);
        metrics.counter_add("engine.events_duplicated", self.faults.duplicated);
        metrics.counter_add(
            "engine.faults_injected",
            self.injector.as_ref().map_or(0, |i| i.injected()),
        );
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl Process for Recorder {
        type Event = u32;
        fn handle(&mut self, event: u32, sink: &mut dyn EventSink<u32>) {
            self.seen.push((sink.now(), event));
            if event < 3 {
                sink.schedule_in(SimDuration::from_ns(1.0), event + 1);
            }
        }
        fn tag(&self, event: &u32) -> &'static str {
            if event.is_multiple_of(2) {
                "even"
            } else {
                "odd"
            }
        }
    }

    #[test]
    fn run_drains_queue_and_advances_clock() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_ns(5.0), 0);
        let mut p = Recorder::default();
        engine.run(&mut p);
        assert_eq!(p.seen.len(), 4);
        assert_eq!(engine.now(), SimTime::from_ns(8.0));
        assert_eq!(engine.delivered(), 4);
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_ns(0.0), 0);
        let mut p = Recorder::default();
        engine.run_until(&mut p, SimTime::from_ns(1.0));
        // events at 0 and 1 ns delivered; 2 and 3 still pending/future
        assert_eq!(p.seen.len(), 2);
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn budgeted_stepping_delivers_exactly_the_budget() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, 0);
        let mut p = Recorder::default();
        let n = engine.run_budgeted(&mut p, SimTime::MAX, 2);
        assert_eq!(n, 2);
        assert_eq!(p.seen.len(), 2);
        assert_eq!(engine.pending(), 1);
        // Finishing the run reports fewer deliveries than the budget.
        let n = engine.run_budgeted(&mut p, SimTime::MAX, 100);
        assert_eq!(n, 2);
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn step_delivers_one_event() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_ns(2.0), 0);
        let mut p = Recorder::default();
        assert_eq!(engine.step(&mut p), Some(SimTime::from_ns(2.0)));
        assert_eq!(p.seen.len(), 1);
    }

    #[test]
    fn tags_are_counted_per_class() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, 0);
        let mut p = Recorder::default();
        engine.run(&mut p);
        assert_eq!(engine.tag_counts().get("even"), Some(&2));
        assert_eq!(engine.tag_counts().get("odd"), Some(&2));
        let mut metrics = MetricsRegistry::new();
        engine.publish_metrics(&mut metrics);
        let json = metrics.to_json();
        assert!(json.contains("engine.events_delivered"));
        assert!(json.contains("engine.events.even"));
    }

    #[test]
    fn fault_injector_drops_scripted_event() {
        // Drop the 2nd "even" delivery (0-based occurrence 1: event value 2).
        let plan = FaultPlan::new().drop_nth("even", 1);
        let mut engine = Engine::new();
        engine.attach_fault_injector(FaultInjector::new(plan, 7), SimDuration::from_ns(1.0));
        engine.schedule_at(SimTime::ZERO, 0);
        let mut p = Recorder::default();
        engine.run(&mut p);
        // 0 (even, delivered), 1, 2 (even, dropped) — chain stops at 2.
        assert_eq!(p.seen.len(), 2);
        assert_eq!(engine.dropped(), 1);
    }

    #[test]
    fn dropped_trailing_event_still_advances_the_clock() {
        // Regression: the chain 0..=3 fires at 5,6,7,8 ns; dropping the
        // trailing event (value 3, second "odd" delivery) must still leave
        // the clock at 8 ns — the simulation logically reached that instant
        // even though nothing was delivered there.
        let plan = FaultPlan::new().drop_nth("odd", 1);
        let mut engine = Engine::new();
        engine.attach_fault_injector(FaultInjector::new(plan, 7), SimDuration::from_ns(1.0));
        engine.schedule_at(SimTime::from_ns(5.0), 0);
        let mut p = Recorder::default();
        engine.run(&mut p);
        assert_eq!(p.seen.len(), 3);
        assert_eq!(engine.dropped(), 1);
        assert_eq!(engine.now(), SimTime::from_ns(8.0));
    }

    #[test]
    fn delayed_trailing_event_advances_the_clock_through_the_delay() {
        // The trailing event (value 3 at 8 ns) is deferred 5 cycles; the
        // clock must follow it to 13 ns, not stall at the original instant.
        let plan = FaultPlan::new().delay_nth("odd", 1, 5);
        let mut engine = Engine::new();
        engine.attach_fault_injector(FaultInjector::new(plan, 7), SimDuration::from_ns(1.0));
        engine.schedule_at(SimTime::from_ns(5.0), 0);
        let mut p = Recorder::default();
        engine.run(&mut p);
        assert_eq!(p.seen.len(), 4);
        assert_eq!(engine.now(), SimTime::from_ns(13.0));
    }

    #[test]
    #[should_panic(expected = "event queue violated causality")]
    fn causality_violation_panics_even_in_release() {
        // The public API cannot schedule into the past, so corrupt the
        // queue directly (same-module access) to pin that the check is a
        // real assert, not a debug_assert compiled out of release builds.
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_ns(10.0), 0u32);
        let mut p = Recorder::default();
        engine.step(&mut p);
        assert_eq!(engine.now(), SimTime::from_ns(10.0));
        engine.queue.schedule(SimTime::from_ns(1.0), 9);
        engine.step(&mut p);
    }

    #[test]
    fn fault_counters_export_even_without_an_injector() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, 0);
        let mut p = Recorder::default();
        engine.run(&mut p);
        let mut metrics = MetricsRegistry::new();
        engine.publish_metrics(&mut metrics);
        // Schema consistency: a fault-free export carries the same keys a
        // faulty one does, just zero-valued.
        assert_eq!(metrics.counter("engine.events_dropped"), 0);
        assert_eq!(metrics.counter("engine.events_delayed"), 0);
        assert_eq!(metrics.counter("engine.events_duplicated"), 0);
        assert_eq!(metrics.counter("engine.faults_injected"), 0);
        let json = metrics.to_json();
        assert!(json.contains("engine.events_dropped"));
        assert!(json.contains("engine.faults_injected"));
    }

    #[test]
    fn fault_injector_delays_scripted_event() {
        let plan = FaultPlan::new().delay_nth("odd", 0, 5);
        let mut engine = Engine::new();
        engine.attach_fault_injector(FaultInjector::new(plan, 7), SimDuration::from_ns(1.0));
        engine.schedule_at(SimTime::ZERO, 0);
        let mut p = Recorder::default();
        engine.run(&mut p);
        // Event 1 (first odd) fires 5 cycles late; the chain completes.
        assert_eq!(p.seen.len(), 4);
        let t1 = p.seen[1].0;
        assert_eq!(t1, SimTime::from_ns(6.0));
    }

    #[test]
    fn fault_injector_duplicates_scripted_event() {
        let plan = FaultPlan::new().duplicate_nth("even", 0, 3);
        let mut engine = Engine::new();
        engine.attach_fault_injector(FaultInjector::new(plan, 7), SimDuration::from_ns(1.0));
        engine.schedule_at(SimTime::ZERO, 0);
        let mut p = Recorder::default();
        engine.run(&mut p);
        // The duplicate of event 0 re-runs the countdown chain from 0.
        assert!(p.seen.len() > 4);
        assert!(p.seen.iter().filter(|(_, e)| *e == 0).count() >= 2);
    }

    #[test]
    fn map_sink_translates_scheduled_events() {
        #[derive(Debug, PartialEq)]
        enum Top {
            Sub(u32),
        }
        struct Sub;
        impl Process for Sub {
            type Event = u32;
            fn handle(&mut self, ev: u32, sink: &mut dyn EventSink<u32>) {
                if ev > 0 {
                    sink.schedule_in(SimDuration::from_ns(1.0), ev - 1);
                }
            }
        }
        struct Composed {
            sub: Sub,
            fired: u32,
        }
        impl Process for Composed {
            type Event = Top;
            fn handle(&mut self, ev: Top, sink: &mut dyn EventSink<Top>) {
                self.fired += 1;
                match ev {
                    Top::Sub(inner) => {
                        self.sub.handle(inner, &mut MapSink::new(sink, Top::Sub));
                    }
                }
            }
        }
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, Top::Sub(3));
        let mut p = Composed { sub: Sub, fired: 0 };
        engine.run(&mut p);
        assert_eq!(p.fired, 4);
        assert_eq!(engine.now(), SimTime::from_ns(3.0));
    }

    #[test]
    fn starting_at_resumes_a_clock() {
        let mut engine = Engine::<u32>::starting_at(SimTime::from_ns(100.0));
        assert_eq!(engine.now(), SimTime::from_ns(100.0));
        engine.schedule_at(SimTime::from_ns(100.0), 9);
        let mut p = Recorder::default();
        engine.step(&mut p);
        assert_eq!(p.seen[0].0, SimTime::from_ns(100.0));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_past_panics() {
        struct Bad;
        impl Process for Bad {
            type Event = ();
            fn handle(&mut self, _e: (), sink: &mut dyn EventSink<()>) {
                sink.schedule_at(SimTime::ZERO, ());
            }
        }
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_ns(10.0), ());
        engine.run(&mut Bad);
    }
}
