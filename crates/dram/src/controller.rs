//! Cycle-approximate DRAM controller simulation (Fig. 4 / Fig. 5): one
//! driver and two arbitration policies.
//!
//! The driver is one kernel [`Process`] that owns everything the
//! controllers share:
//!
//! * the pending arrivals, sorted by `(arrival, id)`, and their
//!   validation;
//! * admission with **back-pressure**: arrivals enter the policy's queues
//!   in order, and admission stops at the first request whose queue is
//!   full until progress frees space;
//! * periodic **refresh** every `tREFI`, costing `tRFC`, issued between
//!   accesses (also inside idle gaps) and closing all rows;
//! * per-bank row-buffer state with the `tRC` activate-to-activate
//!   constraint;
//! * latency, completion, trace and `dram.*` metrics accounting, into one
//!   [`SimOutcome`].
//!
//! A policy keeps only its queues and its next decision. The FR-FCFS
//! policy of this module is the controller the WCD analysis abstracts:
//!
//! * separate **read and write queues** per Fig. 4;
//! * **first-ready** scheduling: row hits are promoted to the front of the
//!   read queue, limited to [`ControllerConfig::n_cap`] consecutive
//!   promotions to avoid starving misses;
//! * **watermark write batching** per Fig. 5: switch to write mode when
//!   the write queue reaches `W_high` (or `W_low` with an empty read
//!   queue, or any depth once no further arrivals can come); switch back
//!   when the write queue empties, or after `N_wd` writes when reads wait.
//!
//! The DPQ policy lives in [`crate::dpq`].
//!
//! Timing is approximated at request granularity (a hit occupies the data
//! bus for `tBurst`; a miss pays the precharge→activate→CAS pipeline and
//! holds its bank for `tRC`), which matches the granularity of the
//! analytic model in [`crate::wcd`].

use std::collections::{BTreeMap, VecDeque};

use autoplat_sim::engine::{Engine, EventSink, Process};
use autoplat_sim::metrics::MetricsRegistry;
use autoplat_sim::{SimDuration, SimTime, Summary, Trace};

use crate::config::ControllerConfig;
use crate::request::{Completion, MasterId, Request, RequestKind};
use crate::timing::DramTiming;

/// Events driving the controller on the shared kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramEvent {
    /// Re-evaluate the controller state machine at the fire time.
    Kick,
}

/// Aggregate outcome of one controller simulation.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Every served request with its completion time, in service order.
    pub completions: Vec<Completion>,
    /// Read latency statistics (ns).
    pub read_latency: Summary,
    /// Write latency statistics (ns).
    pub write_latency: Summary,
    /// Per-master read latency statistics (ns).
    pub read_latency_by_master: BTreeMap<MasterId, Summary>,
    /// Number of requests served as row hits.
    pub row_hits: u64,
    /// Number of requests served as row misses.
    pub row_misses: u64,
    /// Refresh operations performed.
    pub refreshes: u64,
    /// Read↔write mode switches.
    pub mode_switches: u64,
    /// Time the last request completed.
    pub finished_at: SimTime,
    /// Behavioural trace (grants, mode switches, refreshes) when enabled.
    pub trace: Trace,
}

impl SimOutcome {
    /// Row-hit rate over all served requests.
    pub fn hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// The worst observed read latency in nanoseconds, if any read was
    /// served.
    pub fn max_read_latency_ns(&self) -> Option<f64> {
        self.read_latency.max()
    }

    /// The completion record for request `id`, if it was served.
    pub fn completion_of(&self, id: u64) -> Option<&Completion> {
        self.completions.iter().find(|c| c.request.id == id)
    }

    /// The admission depth of request `id` ([`Completion::depth`]), if it
    /// was served.
    pub fn depth_of(&self, id: u64) -> Option<u32> {
        self.completion_of(id).map(|c| c.depth)
    }
}

/// Row-buffer state of one bank.
#[derive(Debug, Clone)]
pub(crate) struct Bank {
    pub(crate) open_row: Option<u64>,
    /// Earliest time the next activate to this bank may start (tRC rule).
    ready_at: SimTime,
}

/// A queued request with its admission depth.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    pub(crate) req: Request,
    pub(crate) depth: u32,
}

/// A policy's next step, executed by the driver.
pub(crate) enum Decision {
    /// Turn the bus around: spend `penalty_ns`, count a mode switch and
    /// trace `tag` with the write-queue depth.
    Switch {
        penalty_ns: f64,
        tag: &'static str,
        write_depth: usize,
    },
    /// Nothing to serve until the next arrival or refresh.
    Wait,
    /// Serve `queued`, as a row hit when `hit` (a miss pays the
    /// precharge→activate→CAS pipeline).
    Serve { queued: Queued, hit: bool },
}

/// An arbitration policy: its request queues and its next decision.
pub(crate) trait Arbiter {
    /// Queues `req` with its admission depth (1-based, counting itself),
    /// or returns `false` when its queue is full.
    fn admit(&mut self, req: Request) -> bool;

    /// True when no request is queued.
    fn is_empty(&self) -> bool;

    /// Picks the next step for a non-empty queue set; `more_arrivals` says
    /// whether requests are still pending admission.
    fn decide(&mut self, banks: &[Bank], more_arrivals: bool) -> Decision;

    /// Samples the policy's queue depths after each serve.
    fn observe(&self, _metrics: &mut MetricsRegistry) {}
}

/// Runs `workload` to completion under `policy` on `banks` banks.
///
/// # Panics
///
/// Panics if any request addresses a bank `>= banks`.
pub(crate) fn simulate<A: Arbiter>(
    timing: &DramTiming,
    banks: u32,
    policy: A,
    workload: impl IntoIterator<Item = Request>,
    trace_enabled: bool,
    metrics: Option<&mut MetricsRegistry>,
) -> SimOutcome {
    let mut pending: Vec<Request> = workload.into_iter().collect();
    for r in &pending {
        assert!(
            r.bank < banks,
            "request {} targets bad bank {}",
            r.id,
            r.bank
        );
    }
    pending.sort_by_key(|r| (r.arrival, r.id));
    let mut run = Run {
        timing,
        policy,
        metrics,
        pending: pending.into(),
        banks: vec![
            Bank {
                open_row: None,
                ready_at: SimTime::ZERO,
            };
            banks as usize
        ],
        next_refresh: SimTime::ZERO + SimDuration::from_ns(timing.t_refi),
        out: SimOutcome {
            completions: Vec::new(),
            read_latency: Summary::new(),
            write_latency: Summary::new(),
            read_latency_by_master: BTreeMap::new(),
            row_hits: 0,
            row_misses: 0,
            refreshes: 0,
            mode_switches: 0,
            finished_at: SimTime::ZERO,
            trace: if trace_enabled {
                Trace::enabled()
            } else {
                Trace::new()
            },
        },
    };

    // Drive the state machine on the shared kernel: every `Kick` executes
    // one decision (admit / refresh / policy step) and re-arms itself at
    // the instant the controller next makes progress.
    let mut engine = Engine::new();
    engine.schedule_at(SimTime::ZERO, DramEvent::Kick);
    engine.run(&mut run);

    let out = run.out;
    if let Some(m) = run.metrics {
        m.counter_add("dram.requests_served", out.completions.len() as u64);
        m.counter_add("dram.row_hits", out.row_hits);
        m.counter_add("dram.row_misses", out.row_misses);
        m.counter_add("dram.refreshes", out.refreshes);
        m.counter_add("dram.mode_switches", out.mode_switches);
        m.gauge_set("dram.hit_rate", out.hit_rate());
        m.gauge_set("dram.finished_at_ns", out.finished_at.as_ns());
    }
    out
}

/// One in-flight controller simulation as a kernel [`Process`].
///
/// Each delivered [`DramEvent::Kick`] runs one step at the fire time.
/// Every step that advances time (refresh, mode-switch penalty, serve,
/// idle wait) schedules the follow-up `Kick` at that instant and returns,
/// so exactly one event is ever pending and the run drains when the
/// workload completes.
struct Run<'a, A> {
    timing: &'a DramTiming,
    policy: A,
    metrics: Option<&'a mut MetricsRegistry>,
    pending: VecDeque<Request>,
    banks: Vec<Bank>,
    next_refresh: SimTime,
    out: SimOutcome,
}

impl<A: Arbiter> Run<'_, A> {
    /// Performs one refresh starting at `start` and returns its end.
    fn refresh(&mut self, start: SimTime) -> SimTime {
        let end = start + SimDuration::from_ns(self.timing.t_rfc);
        for b in &mut self.banks {
            b.open_row = None;
        }
        self.out.refreshes += 1;
        self.out.trace.record(end, "dram", "refresh", None);
        if let Some(m) = self.metrics.as_deref_mut() {
            m.observe("dram.refresh_stall_ns", end.saturating_since(start).as_ns());
        }
        self.next_refresh += SimDuration::from_ns(self.timing.t_refi);
        end
    }

    /// Serves `queued` at `now` and returns its completion time.
    fn serve(&mut self, now: SimTime, Queued { req, depth }: Queued, hit: bool) -> SimTime {
        let t = self.timing;
        let bank = &mut self.banks[req.bank as usize];
        let (begin, finished) = if hit {
            self.out.row_hits += 1;
            (now, now + SimDuration::from_ns(t.t_burst))
        } else {
            self.out.row_misses += 1;
            // Activate cannot start before the bank's tRC window elapses;
            // the precharge+activate+CAS pipeline follows (CWL
            // approximated by CL for writes).
            let begin = now.max(bank.ready_at);
            // The activate issues at `begin + tRP`; the next activate to
            // this bank must trail it by tRC, so the next miss's precharge
            // may start at `begin + tRP + tRAS` (= `begin + tRC`).
            // Back-to-back same-bank misses are therefore spaced by
            // `max(tRC, pipeline)`, which is what
            // [`DramTiming::read_miss_cost`] models.
            bank.ready_at = begin + SimDuration::from_ns(t.t_rp + t.t_ras);
            bank.open_row = Some(req.row);
            (
                begin,
                begin + SimDuration::from_ns(t.t_rp + t.t_rcd + t.t_cl + t.t_burst),
            )
        };
        let lat = finished.saturating_since(req.arrival).as_ns();
        let name = match req.kind {
            RequestKind::Read => {
                self.out.read_latency.record(lat);
                self.out
                    .read_latency_by_master
                    .entry(req.master)
                    .or_default()
                    .record(lat);
                "dram.read_latency_ns"
            }
            RequestKind::Write => {
                self.out.write_latency.record(lat);
                "dram.write_latency_ns"
            }
        };
        if let Some(m) = self.metrics.as_deref_mut() {
            // Depths *after* dequeuing: what the next arrival sees.
            self.policy.observe(m);
            m.observe(name, lat);
        }
        self.out
            .trace
            .record(begin, "dram", "grant", Some(i64::from(req.master.0)));
        self.out.completions.push(Completion {
            request: req,
            finished,
            row_hit: hit,
            depth,
        });
        finished
    }
}

impl<A: Arbiter> Process for Run<'_, A> {
    type Event = DramEvent;

    fn handle(&mut self, _event: DramEvent, sink: &mut dyn EventSink<DramEvent>) {
        let mut now = sink.now();
        self.out.finished_at = now;

        // Admit arrivals up to `now`; a full queue stalls the rest
        // (back-pressure) until progress frees space.
        while let Some(&front) = self.pending.front() {
            if front.arrival > now || !self.policy.admit(front) {
                break;
            }
            self.pending.pop_front();
        }

        if self.policy.is_empty() {
            let Some(next) = self.pending.front() else {
                return; // workload complete: let the engine drain
            };
            // Idle: jump to the next arrival, serving the refreshes that
            // fall inside the gap.
            let arrival = next.arrival;
            while self.next_refresh <= arrival {
                now = self.refresh(self.next_refresh.max(now));
            }
            sink.schedule_at(now.max(arrival), DramEvent::Kick);
            return;
        }

        // Refresh: highest priority once the timer has expired.
        if now >= self.next_refresh {
            let end = self.refresh(now);
            sink.schedule_at(end, DramEvent::Kick);
            return;
        }

        let wake = match self.policy.decide(&self.banks, !self.pending.is_empty()) {
            Decision::Switch {
                penalty_ns,
                tag,
                write_depth,
            } => {
                self.out.mode_switches += 1;
                now += SimDuration::from_ns(penalty_ns);
                self.out
                    .trace
                    .record(now, "dram", tag, Some(write_depth as i64));
                now
            }
            Decision::Wait => self
                .pending
                .front()
                .map_or(SimTime::MAX, |r| r.arrival)
                .min(self.next_refresh),
            Decision::Serve { queued, hit } => self.serve(now, queued, hit),
        };
        sink.schedule_at(wake, DramEvent::Kick);
    }

    fn tag(&self, _event: &DramEvent) -> &'static str {
        "dram.kick"
    }
}

/// Serving direction of the FR-FCFS policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Read,
    Write,
}

/// The FR-FCFS policy: read and write queues, first-ready promotion under
/// `N_cap` and watermark mode switches.
struct FrFcfs<'a> {
    timing: &'a DramTiming,
    cfg: &'a ControllerConfig,
    mode: Mode,
    read_q: VecDeque<Queued>,
    write_q: VecDeque<Queued>,
    promoted_hits: u32,
    batch_served: u32,
}

impl FrFcfs<'_> {
    fn switch(&mut self, to: Mode) -> Decision {
        self.mode = to;
        let t = self.timing;
        let (penalty_ns, tag) = match to {
            Mode::Write => {
                self.batch_served = 0;
                (t.t_rtw, "switch-to-write")
            }
            Mode::Read => {
                self.promoted_hits = 0;
                (t.t_wr + t.t_wtr + t.t_cl, "switch-to-read")
            }
        };
        Decision::Switch {
            penalty_ns,
            tag,
            write_depth: self.write_q.len(),
        }
    }
}

impl Arbiter for FrFcfs<'_> {
    fn admit(&mut self, req: Request) -> bool {
        let (queue, cap) = match req.kind {
            RequestKind::Read => (&mut self.read_q, self.cfg.read_queue_capacity),
            RequestKind::Write => (&mut self.write_q, self.cfg.write_queue_capacity),
        };
        if queue.len() >= cap {
            return false;
        }
        let depth = queue.len() as u32 + 1;
        queue.push_back(Queued { req, depth });
        true
    }

    fn is_empty(&self) -> bool {
        self.read_q.is_empty() && self.write_q.is_empty()
    }

    fn decide(&mut self, banks: &[Bank], more_arrivals: bool) -> Decision {
        let cfg = self.cfg;
        let is_open = |r: &Request| banks[r.bank as usize].open_row == Some(r.row);
        // Watermark policy (Fig. 5). Once no arrival can lift the write
        // queue to `W_low`, an empty read queue drains the writes rather
        // than deadlock.
        match self.mode {
            Mode::Read => {
                let go_write = self.write_q.len() >= cfg.w_high as usize
                    || (self.read_q.is_empty()
                        && (self.write_q.len() >= cfg.w_low as usize || !more_arrivals));
                if go_write && !self.write_q.is_empty() {
                    return self.switch(Mode::Write);
                }
                // Nothing to read and the watermark keeps us out of write
                // mode: wait for the next arrival or refresh.
                if self.read_q.is_empty() {
                    return Decision::Wait;
                }
                // First-ready: prefer the oldest row hit while under the
                // promotion cap.
                let idx = match self.read_q.iter().position(|q| is_open(&q.req)) {
                    Some(i) if self.promoted_hits < cfg.n_cap || i == 0 => i,
                    _ => 0,
                };
                let queued = self.read_q.remove(idx).expect("index in range");
                let hit = is_open(&queued.req);
                if idx > 0 {
                    self.promoted_hits += 1; // only a hit is ever promoted
                } else if !hit {
                    self.promoted_hits = 0;
                }
                Decision::Serve { queued, hit }
            }
            Mode::Write => {
                let go_read = self.write_q.is_empty()
                    || (!self.read_q.is_empty() && self.batch_served >= cfg.n_wd);
                if go_read {
                    return self.switch(Mode::Read);
                }
                let queued = self.write_q.pop_front().expect("write mode implies writes");
                self.batch_served += 1;
                Decision::Serve {
                    hit: is_open(&queued.req),
                    queued,
                }
            }
        }
    }

    fn observe(&self, metrics: &mut MetricsRegistry) {
        metrics.observe("dram.read_queue_depth", self.read_q.len() as f64);
        metrics.observe("dram.write_queue_depth", self.write_q.len() as f64);
    }
}

/// The FR-FCFS controller simulator.
///
/// # Examples
///
/// ```
/// use autoplat_dram::{FrFcfsController, ControllerConfig, Request, RequestKind};
/// use autoplat_dram::request::MasterId;
/// use autoplat_dram::timing::presets::ddr3_1600;
/// use autoplat_sim::SimTime;
///
/// let ctrl = FrFcfsController::new(ddr3_1600(), ControllerConfig::paper(), 8);
/// let reqs = vec![
///     Request::new(0, MasterId(0), RequestKind::Read, 0, 1, SimTime::ZERO),
///     Request::new(1, MasterId(0), RequestKind::Read, 0, 1, SimTime::ZERO),
/// ];
/// let out = ctrl.simulate(reqs, false);
/// assert_eq!(out.completions.len(), 2);
/// assert_eq!(out.row_hits, 1); // second access hits the open row
/// ```
#[derive(Debug, Clone)]
pub struct FrFcfsController {
    timing: DramTiming,
    config: ControllerConfig,
    banks: u32,
}

impl FrFcfsController {
    /// Creates a controller model.
    ///
    /// # Panics
    ///
    /// Panics if the timing or configuration fails validation or `banks`
    /// is zero.
    pub fn new(timing: DramTiming, config: ControllerConfig, banks: u32) -> Self {
        timing.validate().expect("invalid DRAM timing");
        config.validate().expect("invalid controller config");
        assert!(banks > 0, "need at least one bank");
        FrFcfsController {
            timing,
            config,
            banks,
        }
    }

    /// The device timing in use.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// The controller configuration in use.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Number of banks modelled.
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// Runs the workload to completion and reports statistics.
    ///
    /// Requests are admitted to their queue in arrival order; when a queue
    /// is full the arrival stalls (back-pressure) until space frees up.
    ///
    /// # Panics
    ///
    /// Panics if any request addresses a bank `>= self.banks()`.
    pub fn simulate<I>(&self, workload: I, trace_enabled: bool) -> SimOutcome
    where
        I: IntoIterator<Item = Request>,
    {
        self.run(workload, trace_enabled, None)
    }

    /// Like [`simulate`](FrFcfsController::simulate) but also publishes
    /// observability data into `metrics` under the `dram.*` namespace:
    ///
    /// * counters — `dram.requests_served`, `dram.row_hits`,
    ///   `dram.row_misses`, `dram.refreshes`, `dram.mode_switches`;
    /// * histograms — `dram.read_latency_ns`, `dram.write_latency_ns`,
    ///   `dram.read_queue_depth`, `dram.write_queue_depth` (sampled at
    ///   every serve), `dram.refresh_stall_ns` (one sample per refresh);
    /// * gauges — `dram.hit_rate`, `dram.finished_at_ns`.
    pub fn simulate_with_metrics<I>(
        &self,
        workload: I,
        trace_enabled: bool,
        metrics: &mut MetricsRegistry,
    ) -> SimOutcome
    where
        I: IntoIterator<Item = Request>,
    {
        self.run(workload, trace_enabled, Some(metrics))
    }

    fn run<I>(
        &self,
        workload: I,
        trace_enabled: bool,
        metrics: Option<&mut MetricsRegistry>,
    ) -> SimOutcome
    where
        I: IntoIterator<Item = Request>,
    {
        let policy = FrFcfs {
            timing: &self.timing,
            cfg: &self.config,
            mode: Mode::Read,
            read_q: VecDeque::new(),
            write_q: VecDeque::new(),
            promoted_hits: 0,
            batch_served: 0,
        };
        simulate(
            &self.timing,
            self.banks,
            policy,
            workload,
            trace_enabled,
            metrics,
        )
    }
}

/// The controller instance whose worst case the WCD analysis of §IV-A
/// describes: the analysis batches writes whenever `N_wd` of them are
/// available (it has no `W_high` input), so the watermark is lowered to
/// `N_wd`, and writes are modelled at row-hit cost (`N_wd × tBurst` per
/// batch), so the write stream lives on its own bank (bank 1) where its
/// row stays open between batches.
///
/// Use this together with [`adversarial_wcd_workload`] when comparing
/// the simulator against [`crate::wcd::bounds`].
pub fn validation_controller(params: &crate::wcd::WcdParams) -> FrFcfsController {
    let cfg = params.config.with_watermarks(
        params.config.w_low.min(params.config.n_wd),
        params.config.n_wd,
    );
    FrFcfsController::new(params.timing.clone(), cfg, 2)
}

/// The adversarial workload the WCD analysis of §IV-A reasons about,
/// materialized as a request stream for [`FrFcfsController::simulate`]:
/// `N` distinct-row read misses on bank 0 at `t = 0` (the probe is the
/// `N`-th, id `N - 1`), `N_cap` hot-row hits arriving just after, and
/// writes at the token-bucket envelope until `horizon_ns`.
///
/// Both the bench validation sweep and the conformance harness drive the
/// simulator with this stream and compare the probe's completion against
/// [`crate::wcd::bounds`] — run it on [`validation_controller`], which
/// realizes the analysis's batching and row-hit write assumptions.
/// Writes target bank 1 (the analysis charges batches at row-hit cost,
/// which a write stream sharing the read bank would not satisfy) and are
/// emitted at the steady rate `1/r` starting at `t = 0`, which conforms
/// to the `(b, r)` bucket whenever `b >= 1`; the emission count is
/// capped so near-saturation parameters cannot produce unbounded
/// streams.
pub fn adversarial_wcd_workload(params: &crate::wcd::WcdParams, horizon_ns: f64) -> Vec<Request> {
    let n = params.queue_position as u64;
    let mut reqs = Vec::new();
    let mut id = 0u64;
    for i in 0..n {
        reqs.push(Request::new(
            id,
            MasterId(0),
            RequestKind::Read,
            0,
            1000 + i,
            SimTime::ZERO,
        ));
        id += 1;
    }
    for _ in 0..params.config.n_cap {
        reqs.push(Request::new(
            id,
            MasterId(0),
            RequestKind::Read,
            0,
            1000, // hot row opened by the first miss
            SimTime::from_ns(0.05),
        ));
        id += 1;
    }
    let burst = params.writes.burst();
    let rate = params.writes.rate();
    // Greedy emission along the arrival envelope: write k arrives as soon
    // as the bucket admits k+1 writes, i.e. at ((k+1) - b) / r (clamped to
    // 0 — the first floor(b) writes land at t = 0). Cumulative arrivals at
    // any t then equal floor(b + r*t), the tightest conformant stream.
    let count = ((burst + rate * horizon_ns).floor() as u64 + 64).min(200_000);
    for k in 0..count {
        let at = if (k + 1) as f64 <= burst {
            SimTime::ZERO
        } else if rate > 0.0 {
            SimTime::from_ns(((k + 1) as f64 - burst) / rate)
        } else {
            break; // empty bucket: no further writes are ever admitted
        };
        reqs.push(Request::new(id, MasterId(1), RequestKind::Write, 1, 77, at));
        id += 1;
    }
    reqs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::MasterId;
    use crate::timing::presets::ddr3_1600;

    fn read(id: u64, bank: u32, row: u64, at_ns: f64) -> Request {
        Request::new(
            id,
            MasterId(0),
            RequestKind::Read,
            bank,
            row,
            SimTime::from_ns(at_ns),
        )
    }

    fn write(id: u64, bank: u32, row: u64, at_ns: f64) -> Request {
        Request::new(
            id,
            MasterId(1),
            RequestKind::Write,
            bank,
            row,
            SimTime::from_ns(at_ns),
        )
    }

    fn ctrl() -> FrFcfsController {
        FrFcfsController::new(ddr3_1600(), ControllerConfig::paper(), 8)
    }

    #[test]
    fn single_read_miss_latency_is_pipeline() {
        let out = ctrl().simulate([read(0, 0, 5, 0.0)], false);
        let t = ddr3_1600();
        let expect = t.t_rp + t.t_rcd + t.t_cl + t.t_burst;
        assert_eq!(out.completions.len(), 1);
        assert!((out.read_latency.max().expect("one read") - expect).abs() < 1e-9);
        assert_eq!(out.row_misses, 1);
    }

    #[test]
    fn same_row_reads_hit_after_first() {
        let reqs: Vec<_> = (0..10).map(|i| read(i, 0, 7, 0.0)).collect();
        let out = ctrl().simulate(reqs, false);
        assert_eq!(out.row_misses, 1);
        assert_eq!(out.row_hits, 9);
    }

    #[test]
    fn alternating_rows_same_bank_all_miss_at_trc_rate() {
        // Distinct rows so first-ready promotion finds no hits.
        let reqs: Vec<_> = (0..10).map(|i| read(i, 0, i, 0.0)).collect();
        let out = ctrl().simulate(reqs, false);
        assert_eq!(out.row_hits, 0);
        // Steady-state spacing is tRC per miss.
        let t = ddr3_1600();
        let total = out.finished_at.as_ns();
        assert!(
            total >= 9.0 * t.t_rc(),
            "10 same-bank misses must be tRC-limited: {total}"
        );
    }

    #[test]
    fn hit_promotion_respects_cap() {
        // One old miss behind a stream of hits to an open row: at most
        // N_cap hits may jump ahead of the miss.
        let cfg = ControllerConfig::paper().with_n_cap(4);
        let ctrl = FrFcfsController::new(ddr3_1600(), cfg, 8);
        let mut reqs = vec![read(0, 0, 1, 0.0)]; // opens row 1
        reqs.push(read(1, 0, 2, 0.1)); // miss, FCFS-next
        for i in 0..20 {
            reqs.push(read(2 + i, 0, 1, 0.2)); // hits to the open row
        }
        let out = ctrl.simulate(reqs, false);
        // The miss (id 1) must complete before the 5th hit in queue order
        // would, i.e. only 4 of the row-1 hits finish before it.
        let miss_finish = out
            .completions
            .iter()
            .find(|c| c.request.id == 1)
            .expect("served")
            .finished;
        let hits_before = out
            .completions
            .iter()
            .filter(|c| c.request.id >= 2 && c.finished < miss_finish)
            .count();
        assert_eq!(hits_before, 4, "exactly N_cap hits may be promoted");
    }

    #[test]
    fn writes_deferred_until_watermark() {
        // Writes below W_low with reads flowing: writes wait.
        let mut reqs = Vec::new();
        for i in 0..5 {
            reqs.push(write(100 + i, 0, 50, 0.0));
        }
        for i in 0..20 {
            reqs.push(read(i, 0, 1, i as f64 * 10.0));
        }
        let out = ctrl().simulate(reqs, true);
        // All reads complete before any write (watermark never reached
        // until the read stream dries up).
        let last_read = out
            .completions
            .iter()
            .filter(|c| c.request.is_read())
            .map(|c| c.finished)
            .max()
            .expect("reads served");
        let first_write = out
            .completions
            .iter()
            .filter(|c| !c.request.is_read())
            .map(|c| c.finished)
            .min()
            .expect("writes served");
        assert!(last_read < first_write, "writes must be deferred");
    }

    #[test]
    fn high_watermark_triggers_write_mode() {
        let cfg = ControllerConfig::paper().with_watermarks(4, 8);
        let ctrl = FrFcfsController::new(ddr3_1600(), cfg, 8);
        let mut reqs = Vec::new();
        for i in 0..16 {
            reqs.push(write(100 + i, 0, 50, 0.0));
        }
        // A steady read stream so the read queue is never empty.
        for i in 0..50 {
            reqs.push(read(i, 0, 1, i as f64 * 6.0));
        }
        let out = ctrl.simulate(reqs, true);
        assert!(out.trace.count_tag("switch-to-write") >= 1);
        assert!(out.trace.count_tag("switch-to-read") >= 1);
        // Some writes complete before the last read: the batch interleaved.
        let last_read = out
            .completions
            .iter()
            .filter(|c| c.request.is_read())
            .map(|c| c.finished)
            .max()
            .expect("reads");
        let writes_before = out
            .completions
            .iter()
            .filter(|c| !c.request.is_read() && c.finished < last_read)
            .count();
        assert!(
            writes_before >= cfg.n_wd as usize,
            "a full batch must interleave"
        );
    }

    #[test]
    fn refresh_happens_periodically() {
        // Run well past several tREFI.
        let reqs: Vec<_> = (0..500).map(|i| read(i, 0, i, i as f64 * 60.0)).collect();
        let out = ctrl().simulate(reqs, false);
        let expected = (out.finished_at.as_ns() / ddr3_1600().t_refi) as u64;
        assert!(
            out.refreshes >= expected.saturating_sub(1) && out.refreshes <= expected + 1,
            "refreshes {} vs expected ~{expected}",
            out.refreshes
        );
    }

    #[test]
    fn refresh_closes_rows() {
        // A hit stream straddling a refresh: the access right after the
        // refresh misses again.
        let t = ddr3_1600();
        let reqs = vec![read(0, 0, 1, 0.0), read(1, 0, 1, t.t_refi + 300.0)];
        let out = ctrl().simulate(reqs, false);
        assert_eq!(out.row_misses, 2, "row must be closed by the refresh");
    }

    #[test]
    fn banks_are_independent_for_row_state() {
        let reqs = vec![read(0, 0, 1, 0.0), read(1, 1, 1, 0.0), read(2, 0, 1, 0.0)];
        let out = ctrl().simulate(reqs, false);
        assert_eq!(out.row_misses, 2); // one per bank
        assert_eq!(out.row_hits, 1);
    }

    #[test]
    fn metrics_registry_mirrors_outcome() {
        let mut m = MetricsRegistry::new();
        let reqs: Vec<_> = (0..200)
            .map(|i| read(i, 0, i % 3, i as f64 * 8.0))
            .collect();
        let out = ctrl().simulate_with_metrics(reqs, false, &mut m);
        assert_eq!(m.counter("dram.requests_served"), 200);
        assert_eq!(m.counter("dram.row_hits"), out.row_hits);
        assert_eq!(m.counter("dram.row_misses"), out.row_misses);
        assert_eq!(m.counter("dram.refreshes"), out.refreshes);
        assert_eq!(m.counter("dram.mode_switches"), out.mode_switches);
        assert_eq!(m.gauge("dram.hit_rate"), Some(out.hit_rate()));
        assert_eq!(
            m.gauge("dram.finished_at_ns"),
            Some(out.finished_at.as_ns())
        );
        let lat = m.histogram("dram.read_latency_ns").expect("reads observed");
        assert_eq!(lat.count(), 200);
        assert_eq!(lat.max(), out.max_read_latency_ns());
        assert_eq!(
            m.histogram("dram.read_queue_depth")
                .expect("sampled")
                .count(),
            200,
            "queue depth is sampled at every serve"
        );
        if out.refreshes > 0 {
            let stall = m.histogram("dram.refresh_stall_ns").expect("spans ended");
            assert_eq!(stall.count(), out.refreshes);
            let t = ddr3_1600();
            assert!((stall.mean() - t.t_rfc).abs() < 1e-9, "each stall is tRFC");
        }
    }

    #[test]
    fn metrics_do_not_change_simulation() {
        let reqs: Vec<_> = (0..100)
            .map(|i| read(i, 0, i % 5, i as f64 * 12.0))
            .collect();
        let plain = ctrl().simulate(reqs.clone(), false);
        let mut m = MetricsRegistry::new();
        let instrumented = ctrl().simulate_with_metrics(reqs, false, &mut m);
        assert_eq!(plain.finished_at, instrumented.finished_at);
        assert_eq!(plain.row_hits, instrumented.row_hits);
        assert_eq!(plain.completions.len(), instrumented.completions.len());
    }

    #[test]
    fn empty_workload_is_empty_outcome() {
        let out = ctrl().simulate(Vec::new(), false);
        assert!(out.completions.is_empty());
        assert_eq!(out.finished_at, SimTime::ZERO);
        assert_eq!(out.hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "bad bank")]
    fn rejects_out_of_range_bank() {
        let _ = ctrl().simulate([read(0, 99, 0, 0.0)], false);
    }

    #[test]
    fn simulated_wcd_within_analytic_upper_bound() {
        // Adversarial scenario mirroring the WCD analysis: N misses queued
        // ahead of the probe, hits behind an open row, heavy writes.
        use crate::wcd::{upper_bound, WcdParams};
        let n = 8u32;
        let cfg = ControllerConfig::paper();
        let ctrl = FrFcfsController::new(ddr3_1600(), cfg, 1);
        let mut reqs = Vec::new();
        // N misses to distinct rows (the probe is the Nth).
        for i in 0..n as u64 {
            reqs.push(read(i, 0, 1000 + i, 0.0));
        }
        // Hot hits that may be promoted.
        for i in 0..cfg.n_cap as u64 {
            reqs.push(read(100 + i, 0, 1000, 0.05));
        }
        // Saturating writes: 4 Gbps of 8-byte requests = 1 per 16 ns.
        for i in 0..400u64 {
            reqs.push(write(1000 + i, 0, 77, i as f64 * 16.0));
        }
        let out = ctrl.simulate(reqs, false);
        let probe_finish = out
            .completions
            .iter()
            .find(|c| c.request.id == n as u64 - 1)
            .expect("probe served")
            .finished
            .as_ns();
        let bound = upper_bound(&WcdParams {
            timing: ddr3_1600(),
            config: cfg,
            writes: autoplat_netcalc::TokenBucket::new(8.0, 1.0 / 16.0),
            queue_position: n,
        })
        .expect("stable");
        assert!(
            probe_finish <= bound.delay_ns,
            "simulated {probe_finish} ns must be within the analytic bound {} ns",
            bound.delay_ns
        );
    }
}
