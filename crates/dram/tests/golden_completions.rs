//! Pins the DRAM controllers' outputs byte for byte.
//!
//! Each run below is reduced to an FNV-1a digest over its completions,
//! in service order — `(id, finished.as_ns().to_bits(), row_hit)`, plus
//! the admission depth for DPQ runs — followed by the run's counters and
//! `finished_at`. The digests are literals recorded once, so a refactor
//! that moves a single completion by one ULP, reorders two grants or
//! drops a refresh fails here, even where every bound check still
//! passes.

use autoplat_dram::request::{Completion, MasterId};
use autoplat_dram::timing::presets::ddr3_1600;
use autoplat_dram::wcd::{upper_bound, WcdParams};
use autoplat_dram::{
    adversarial_dpq_workload, adversarial_wcd_workload, validation_controller, ControllerConfig,
    DpqArbiter, FrFcfsController, Request, RequestKind,
};
use autoplat_netcalc::arrival::gbps_bucket;
use autoplat_sim::metrics::MetricsRegistry;
use autoplat_sim::SimTime;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes every completion; `depth` adds the admission depth of
    /// policies that record one.
    fn completions(&mut self, completions: &[Completion], depth: impl Fn(u64) -> Option<u32>) {
        self.word(completions.len() as u64);
        for c in completions {
            self.word(c.request.id);
            self.word(c.finished.as_ns().to_bits());
            self.word(u64::from(c.row_hit));
            if let Some(d) = depth(c.request.id) {
                self.word(u64::from(d));
            }
        }
    }
}

fn frfcfs_digest(ctrl: &FrFcfsController, reqs: Vec<Request>) -> u64 {
    let out = ctrl.simulate(reqs, false);
    let mut h = Fnv::new();
    h.completions(&out.completions, |_| None);
    h.word(out.row_hits);
    h.word(out.row_misses);
    h.word(out.refreshes);
    h.word(out.mode_switches);
    h.word(out.finished_at.as_ns().to_bits());
    h.0
}

fn dpq_digest(arb: &DpqArbiter, reqs: Vec<Request>) -> u64 {
    let out = arb.simulate(reqs, false);
    let n = out.completions.len();
    let mut h = Fnv::new();
    h.completions(&out.completions, |id| {
        Some(out.depth_of(id).expect("every served request has a depth"))
    });
    let hits = out.completions.iter().filter(|c| c.row_hit).count();
    h.word(hits as u64);
    h.word((n - hits) as u64);
    h.word(out.refreshes);
    h.word(out.finished_at.as_ns().to_bits());
    h.0
}

fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

/// The Fig. 5 request stream: a steady read stream over eight banks and
/// six write bursts that cross the high watermark.
fn fig5_workload() -> Vec<Request> {
    let mut reqs = Vec::new();
    let mut id = 0u64;
    for i in 0..600u64 {
        let at = SimTime::from_ns(i as f64 * 12.0);
        reqs.push(Request::new(
            id,
            MasterId(0),
            RequestKind::Read,
            (i % 8) as u32,
            i,
            at,
        ));
        id += 1;
    }
    for burst in 0..6u64 {
        for k in 0..30u64 {
            let at = SimTime::from_ns(burst as f64 * 1000.0 + k as f64 * 2.0);
            let bank = ((burst + k) % 8) as u32;
            reqs.push(Request::new(
                id,
                MasterId(1),
                RequestKind::Write,
                bank,
                1000 + k,
                at,
            ));
            id += 1;
        }
    }
    reqs
}

/// A seeded four-master read/write stream over eight banks: ten bursts,
/// 7.5 µs apart, in which every master issues 40 requests 1 ns apart,
/// plus a sparse background stream across the whole span. Each burst
/// overfills a 64-entry queue, and the run spans about ten DDR3 tREFI.
fn seeded_multi_master_workload(seed: u64) -> Vec<Request> {
    let mut state = seed;
    let mut next = move || {
        // SplitMix64.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut reqs = Vec::new();
    let push = |reqs: &mut Vec<Request>, r: u64, master: u32, at_ns: f64| {
        let kind = if r % 10 < 7 {
            RequestKind::Read
        } else {
            RequestKind::Write
        };
        let bank = ((r >> 8) % 8) as u32;
        let row = (r >> 16) % 24;
        let id = reqs.len() as u64;
        reqs.push(Request::new(
            id,
            MasterId(master),
            kind,
            bank,
            row,
            SimTime::from_ns(at_ns),
        ));
    };
    for burst in 0..10u32 {
        let start = f64::from(burst) * 7_500.0;
        for master in 0..4u32 {
            for k in 0..40u32 {
                let r = next();
                push(
                    &mut reqs,
                    r,
                    master,
                    start + f64::from(k) + f64::from(master) * 0.25,
                );
            }
        }
    }
    for _ in 0..400 {
        let r = next();
        let at_ns = (next() % 75_000) as f64 + 0.5;
        push(&mut reqs, r, (r >> 40) as u32 % 4, at_ns);
    }
    reqs
}

#[test]
fn fig5_stream_on_frfcfs() {
    let cfg = ControllerConfig::paper().with_watermarks(8, 24);
    let ctrl = FrFcfsController::new(ddr3_1600(), cfg, 8);
    assert_eq!(
        hex(frfcfs_digest(&ctrl, fig5_workload())),
        "0xc623f0370b51282b"
    );
}

#[test]
fn validation_controller_at_three_write_rates() {
    let mut got = Vec::new();
    for gbps in [1.0, 4.0, 8.0] {
        let params = WcdParams {
            timing: ddr3_1600(),
            config: ControllerConfig::paper(),
            writes: gbps_bucket(gbps, 8, 8),
            queue_position: 16,
        };
        let horizon = upper_bound(&params).expect("stable").delay_ns;
        let reqs = adversarial_wcd_workload(&params, horizon);
        got.push(hex(frfcfs_digest(&validation_controller(&params), reqs)));
    }
    assert_eq!(
        got,
        [
            "0x6d84f6e76227a0cb",
            "0x4ed7ba2f50bec6ef",
            "0xa1c1c7912eb4774a"
        ]
    );
}

#[test]
fn adversarial_dpq_workload_on_dpq() {
    let arb = DpqArbiter::new(ddr3_1600(), 4, 4);
    assert_eq!(
        hex(dpq_digest(&arb, adversarial_dpq_workload(4, 8))),
        "0x5a92c31075310e97"
    );
}

#[test]
fn seeded_stream_fills_the_queues_and_spans_several_refreshes() {
    // The stream must exercise back-pressure and refresh, or the digests
    // below would not pin them.
    let reqs = seeded_multi_master_workload(0x5eed);
    let ctrl = FrFcfsController::new(ddr3_1600(), ControllerConfig::paper(), 8);
    let mut m = MetricsRegistry::new();
    let out = ctrl.simulate_with_metrics(reqs, false, &mut m);
    let cap = ControllerConfig::paper().read_queue_capacity as f64;
    // Depth is sampled at every serve; a write served while the read
    // queue is full samples it at `cap`.
    let deepest = m.histogram("dram.read_queue_depth").and_then(|h| h.max());
    assert_eq!(deepest, Some(cap), "the read queue must fill");
    assert!(out.refreshes >= 5, "only {} refreshes", out.refreshes);
}

#[test]
fn seeded_stream_on_frfcfs() {
    let ctrl = FrFcfsController::new(ddr3_1600(), ControllerConfig::paper(), 8);
    assert_eq!(
        hex(frfcfs_digest(&ctrl, seeded_multi_master_workload(0x5eed))),
        "0x84b63f90a71e3bcc"
    );
}

#[test]
fn seeded_stream_on_dpq() {
    let arb = DpqArbiter::new(ddr3_1600(), 4, 8);
    assert_eq!(
        hex(dpq_digest(&arb, seeded_multi_master_workload(0x5eed))),
        "0x688c9708d2cfa133"
    );
}
