//! Dynamic Priority Queue (DPQ) SDRAM arbiter (Shah et al.).
//!
//! The DPQ arbiter targets tight WCET analysis instead of throughput: it
//! keeps one FIFO request queue **per master** and a dynamic priority
//! order over the masters. Whenever a master is granted an access it
//! drops to the lowest priority, so the least-recently-served backlogged
//! master is always served next — a round-robin-like rotation whose key
//! property is a closed-form bounded access latency (see
//! [`crate::wcd::dpq_upper_bound`]):
//!
//! * between two consecutive grants to master *i* (while *i* stays
//!   backlogged) every other master is granted at most once, because a
//!   master granted while *i* waits moves behind *i* and cannot overtake
//!   it again;
//! * therefore the *d*-th queued request of a master completes within
//!   `d·m` accesses of its arrival, plus one access already in flight and
//!   the refreshes falling into the window.
//!
//! The arbiter runs a **close-page** policy: every access pays the full
//! precharge→activate→CAS pipeline and re-arms its bank's `tRC` window.
//! That forfeits row-hit throughput but removes history-dependence from
//! the per-access cost, which is what makes the bound composable.
//!
//! The policy keeps only its per-master FIFOs and its rotation; the
//! controller driver of [`crate::controller`] admits arrivals, refreshes
//! every `tREFI` (costing `tRFC`, between accesses), times the banks and
//! accounts the run, exactly as for FR-FCFS. DPQ runs are therefore
//! deterministic and comparable event-for-event with FR-FCFS runs in the
//! cross-arbiter conformance family.

use std::collections::VecDeque;

use autoplat_sim::SimTime;

use crate::controller::{simulate, Arbiter, Bank, Decision, Queued, SimOutcome};
use crate::request::{MasterId, Request, RequestKind};
use crate::timing::DramTiming;

/// Which arbitration policy a memory controller runs.
///
/// `FrFcfs` is the throughput-oriented baseline of §IV ([Fig. 4/5
/// controller](crate::FrFcfsController)); `Dpq` is the
/// predictability-oriented alternative modelled by [`DpqArbiter`]. The
/// conformance harness checks each policy's simulator against its own
/// analytic bound and [`autoplat-core`'s `search_arbiter_policy`] picks
/// the cheaper bound for a given contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArbiterPolicy {
    /// First-ready first-come-first-served with watermark write batching.
    FrFcfs,
    /// Dynamic Priority Queue: per-master FIFOs, least-recently-served
    /// rotation, close-page accesses.
    Dpq,
}

impl ArbiterPolicy {
    /// Every supported policy, in display order.
    pub const ALL: [ArbiterPolicy; 2] = [ArbiterPolicy::FrFcfs, ArbiterPolicy::Dpq];

    /// Stable lower-case name (CLI flags, metrics labels).
    pub fn name(&self) -> &'static str {
        match self {
            ArbiterPolicy::FrFcfs => "frfcfs",
            ArbiterPolicy::Dpq => "dpq",
        }
    }

    /// Parses [`name`](Self::name) output back into a policy.
    pub fn parse(s: &str) -> Option<ArbiterPolicy> {
        ArbiterPolicy::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// The DPQ arbiter simulator. See the [module docs](self) for the model.
#[derive(Debug, Clone)]
pub struct DpqArbiter {
    timing: DramTiming,
    masters: u32,
    banks: u32,
}

impl DpqArbiter {
    /// Creates an arbiter for `masters` request sources over `banks`
    /// banks.
    ///
    /// # Panics
    ///
    /// Panics if the timing fails validation or either count is zero.
    pub fn new(timing: DramTiming, masters: u32, banks: u32) -> Self {
        timing.validate().expect("invalid DRAM timing");
        assert!(masters > 0, "need at least one master");
        assert!(banks > 0, "need at least one bank");
        DpqArbiter {
            timing,
            masters,
            banks,
        }
    }

    /// The device timing in use.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// Number of masters arbitrated.
    pub fn masters(&self) -> u32 {
        self.masters
    }

    /// Runs the workload to completion. Every completion records its
    /// admission depth ([`Completion::depth`](crate::request::Completion)):
    /// the number of same-master requests it sat behind, plus itself.
    ///
    /// # Panics
    ///
    /// Panics if any request addresses a master `>= self.masters()` or a
    /// bank `>= banks`.
    pub fn simulate<I>(&self, workload: I, trace_enabled: bool) -> SimOutcome
    where
        I: IntoIterator<Item = Request>,
    {
        let workload: Vec<Request> = workload.into_iter().collect();
        for r in &workload {
            assert!(
                r.master.0 < self.masters,
                "request {} names bad master {}",
                r.id,
                r.master.0
            );
        }
        let policy = Dpq {
            queues: vec![VecDeque::new(); self.masters as usize],
            order: (0..self.masters).collect(),
        };
        simulate(
            &self.timing,
            self.banks,
            policy,
            workload,
            trace_enabled,
            None,
        )
    }
}

/// The DPQ policy: one FIFO per master and a least-recently-served
/// rotation over the masters.
struct Dpq {
    queues: Vec<VecDeque<Queued>>,
    /// Masters from highest to lowest priority; a granted master moves to
    /// the back.
    order: VecDeque<u32>,
}

impl Arbiter for Dpq {
    fn admit(&mut self, req: Request) -> bool {
        let q = &mut self.queues[req.master.0 as usize];
        let depth = q.len() as u32 + 1;
        q.push_back(Queued { req, depth });
        true
    }

    fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    fn decide(&mut self, _banks: &[Bank], _more_arrivals: bool) -> Decision {
        // Grant the highest-priority backlogged master and rotate it to
        // the back. Masters without pending requests keep their slot (and
        // thus their priority for when they next issue).
        let pos = self
            .order
            .iter()
            .position(|&m| !self.queues[m as usize].is_empty())
            .expect("driver decides only when backlogged");
        let master = self.order.remove(pos).expect("position valid");
        self.order.push_back(master);
        let queued = self.queues[master as usize]
            .pop_front()
            .expect("queue non-empty");
        // Close-page: never served as a row hit.
        Decision::Serve { queued, hit: false }
    }
}

/// Builds the workload that saturates the DPQ bound: every one of
/// `masters` masters enqueues `depth` distinct-row reads to its own bank
/// at `t = 0`. The **probe** is the last request of the last master
/// (id `masters·depth − 1`): it is admitted at depth `depth` and — with
/// the initial priority order `0..masters` — is served by the final grant
/// of round `depth`, i.e. after exactly `depth·masters` accesses.
pub fn adversarial_dpq_workload(masters: u32, depth: u32) -> Vec<Request> {
    assert!(masters > 0 && depth > 0, "need at least one request");
    let mut reqs = Vec::with_capacity((masters * depth) as usize);
    for m in 0..masters {
        for k in 0..depth {
            let id = (m * depth + k) as u64;
            reqs.push(Request::new(
                id,
                MasterId(m),
                RequestKind::Read,
                m, // bank-per-master: bank conflicts never mask arbitration
                1_000 + k as u64,
                SimTime::ZERO,
            ));
        }
    }
    reqs
}

/// The probe request id of [`adversarial_dpq_workload`].
pub fn adversarial_dpq_probe(masters: u32, depth: u32) -> u64 {
    (masters * depth - 1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::presets::{ddr3_1600, ddr4_2400, lpddr4_3200};

    #[test]
    fn policy_names_round_trip() {
        for p in ArbiterPolicy::ALL {
            assert_eq!(ArbiterPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(ArbiterPolicy::parse("lottery"), None);
    }

    #[test]
    fn single_master_single_request_costs_one_pipeline() {
        let t = ddr3_1600();
        let pipeline = t.t_rp + t.t_rcd + t.t_cl + t.t_burst;
        let arb = DpqArbiter::new(t, 1, 1);
        let out = arb.simulate(adversarial_dpq_workload(1, 1), false);
        assert_eq!(out.completions.len(), 1);
        assert!((out.finished_at.as_ns() - pipeline).abs() < 1e-6);
        assert_eq!(out.depth_of(0), Some(1));
        assert_eq!(out.refreshes, 0);
    }

    #[test]
    fn grants_rotate_least_recently_served() {
        // Three masters, two requests each, all at t=0: grants must cycle
        // 0,1,2,0,1,2 — no master is served twice before the others.
        let arb = DpqArbiter::new(ddr3_1600(), 3, 3);
        let out = arb.simulate(adversarial_dpq_workload(3, 2), true);
        let grants: Vec<i64> = out
            .trace
            .with_tag("grant")
            .map(|e| e.value.expect("grant records master"))
            .collect();
        assert_eq!(grants, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn idle_master_keeps_its_priority() {
        // Master 0 issues late; masters 1 and 2 are backlogged. While 0 is
        // idle it must not rotate, so the moment its request arrives it is
        // still the highest-priority master and is granted next.
        let t = ddr3_1600();
        let pipeline = t.t_rp + t.t_rcd + t.t_cl + t.t_burst;
        let mut reqs = Vec::new();
        for m in 1..3u32 {
            for k in 0..4u32 {
                reqs.push(Request::new(
                    (m * 4 + k) as u64,
                    MasterId(m),
                    RequestKind::Read,
                    m,
                    100 + k as u64,
                    SimTime::ZERO,
                ));
            }
        }
        // Arrives mid-burst, after roughly three grants.
        reqs.push(Request::new(
            99,
            MasterId(0),
            RequestKind::Read,
            0,
            7,
            SimTime::from_ns(2.5 * pipeline),
        ));
        let arb = DpqArbiter::new(t, 3, 3);
        let out = arb.simulate(reqs, true);
        let grants: Vec<i64> = out
            .trace
            .with_tag("grant")
            .map(|e| e.value.expect("grant records master"))
            .collect();
        let first_zero = grants
            .iter()
            .position(|&g| g == 0)
            .expect("master 0 served");
        // Admitted at the kick at t = 3·pipeline (first decision after its
        // arrival) and granted immediately — ahead of the five remaining
        // backlogged requests of masters 1 and 2.
        assert_eq!(first_zero, 3, "grant order was {grants:?}");
    }

    #[test]
    fn depth_at_admission_counts_queue_position() {
        let arb = DpqArbiter::new(ddr4_2400(), 2, 2);
        let out = arb.simulate(adversarial_dpq_workload(2, 3), false);
        for m in 0..2u32 {
            for k in 0..3u32 {
                let id = (m * 3 + k) as u64;
                assert_eq!(out.depth_of(id), Some(k + 1));
            }
        }
    }

    #[test]
    fn refreshes_interleave_without_losing_requests() {
        // Stretch the run far past several tREFI periods.
        let t = lpddr4_3200();
        let refi = t.t_refi;
        let mut reqs = Vec::new();
        for i in 0..10u64 {
            reqs.push(Request::new(
                i,
                MasterId(0),
                RequestKind::Read,
                0,
                i,
                SimTime::from_ns(refi * i as f64),
            ));
        }
        let arb = DpqArbiter::new(t, 1, 1);
        let out = arb.simulate(reqs, false);
        assert_eq!(out.completions.len(), 10);
        assert!(out.refreshes >= 9, "refreshes = {}", out.refreshes);
        // Completion times strictly increase (single master, FIFO).
        for w in out.completions.windows(2) {
            assert!(w[0].finished < w[1].finished);
        }
    }

    #[test]
    fn adversarial_probe_is_the_last_completion_of_round_depth() {
        let t = ddr3_1600();
        let pipeline = t.t_rp + t.t_rcd + t.t_cl + t.t_burst;
        let (masters, depth) = (4u32, 3u32);
        let arb = DpqArbiter::new(t, masters, masters);
        let out = arb.simulate(adversarial_dpq_workload(masters, depth), false);
        let probe = adversarial_dpq_probe(masters, depth);
        let c = out.completion_of(probe).expect("probe served");
        // Banks are per-master, so with >= 2 masters the pipeline (not
        // tRC) paces the bus: the probe finishes after exactly
        // depth·masters back-to-back accesses (no refresh this early).
        let expect = (depth * masters) as f64 * pipeline;
        assert!(
            (c.finished.as_ns() - expect).abs() < 1e-6,
            "probe finished at {} expected {}",
            c.finished.as_ns(),
            expect
        );
    }
}
