//! Worst-case delay (WCD) bounds for a read miss at an FR-FCFS controller.
//!
//! This is the algorithm of §IV-A of the paper (after Andreozzi et al.,
//! COMPSAC 2020). The delay of a read **miss** entering the read queue at
//! position `N` is bounded as follows:
//!
//! 1. compute the time `T_N` to serve `N` read misses;
//! 2. add the time `T_H` to schedule `N_cap` read hits **back-to-back**
//!    (the time to serve a batch of hits is convex in their number, so
//!    back-to-back placement maximizes the delay — this may be an
//!    infeasible schedule, hence an *upper* bound);
//! 3. compute the largest number of write batches that can be scheduled
//!    within `T` given the token-bucket bound on write arrivals, and add
//!    their overhead;
//! 4. compute the largest number of refreshes within `T` and add their
//!    overhead;
//!
//! steps 3–4 are iterated until `T` converges (every increase of `T` may
//! admit new write batches or refreshes).
//!
//! The **lower bound** constructs an explicit *feasible* schedule (steps
//! 1, 3, 4, with the `N_cap` hits scheduled as soon as possible, possibly
//! partitioned among several write batches); its length lower-bounds the
//! true WCD. When the upper bound's schedule is feasible the two coincide
//! and the WCD is exact; the paper shows the gap is null-to-negligible
//! except near saturation (Table II, last line).

use autoplat_netcalc::TokenBucket;

use crate::config::ControllerConfig;
use crate::timing::DramTiming;

/// Inputs of the WCD analysis.
#[derive(Debug, Clone)]
pub struct WcdParams {
    /// Device timing parameters (Table I).
    pub timing: DramTiming,
    /// Controller configuration (`W_high`, `N_wd`, `N_cap`).
    pub config: ControllerConfig,
    /// Token-bucket bound on write arrivals, in requests (burst) and
    /// requests per nanosecond (rate).
    pub writes: TokenBucket,
    /// Queue position `N` of the read miss under study (1-based: `N = 1`
    /// means the miss is at the head of the read queue).
    pub queue_position: u32,
}

/// A computed WCD bound with its accounting breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WcdBound {
    /// The bound on the delay, in nanoseconds.
    pub delay_ns: f64,
    /// Contribution of the `N` read misses.
    pub miss_time_ns: f64,
    /// Contribution of the `N_cap` promoted read hits.
    pub hit_time_ns: f64,
    /// Number of interfering write batches accounted.
    pub write_batches: u64,
    /// Number of refresh operations accounted.
    pub refreshes: u64,
    /// Fixpoint iterations used (upper bound) or scheduling steps (lower).
    pub iterations: u32,
}

/// Why no finite upper bound exists.
#[derive(Debug, Clone, PartialEq)]
pub enum WcdError {
    /// The write arrival rate saturates the device: each unit of time
    /// admits at least a unit of time of write-batch work, so the fixpoint
    /// diverges. Contains the utilization `ρ >= 1` of batch work.
    Saturated {
        /// Fraction of time consumed by write batches per unit time.
        utilization: f64,
    },
    /// The iteration failed to converge within the internal step limit
    /// (extremely close to saturation). Carries the full state of the
    /// last iteration so callers can see *how far* the fixpoint got.
    NotConverged {
        /// Last value of `T` reached, in nanoseconds.
        last_delay_ns: f64,
        /// Fixpoint iterations performed before giving up.
        iterations: u32,
        /// Write batches accounted in the last iteration.
        write_batches: u64,
        /// Refresh operations accounted in the last iteration.
        refreshes: u64,
    },
    /// Invalid parameters.
    Invalid(String),
}

impl std::fmt::Display for WcdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WcdError::Saturated { utilization } => write!(
                f,
                "write rate saturates the device (batch utilization {utilization:.3} >= 1)"
            ),
            WcdError::NotConverged {
                last_delay_ns,
                iterations,
                write_batches,
                refreshes,
            } => write!(
                f,
                "fixpoint did not converge after {iterations} iterations \
                 (last T = {last_delay_ns:.3} ns, {write_batches} write batches, \
                 {refreshes} refreshes)"
            ),
            WcdError::Invalid(msg) => write!(f, "invalid parameters: {msg}"),
        }
    }
}

impl std::error::Error for WcdError {}

fn check(params: &WcdParams) -> Result<(), WcdError> {
    params.timing.validate().map_err(WcdError::Invalid)?;
    params.config.validate().map_err(WcdError::Invalid)?;
    if params.queue_position == 0 {
        return Err(WcdError::Invalid("queue position N must be >= 1".into()));
    }
    Ok(())
}

/// Upper bound on the WCD of a read miss at queue position `N`.
///
/// Implements steps 1–4 of §IV-A with fixpoint iteration. The refresh
/// count includes one initial refresh that may be in flight when the miss
/// arrives.
///
/// # Errors
///
/// Returns [`WcdError::Saturated`] when the write rate alone saturates the
/// device (no finite bound exists), [`WcdError::NotConverged`] when the
/// fixpoint exceeds the internal iteration limit, and
/// [`WcdError::Invalid`] for inconsistent parameters.
///
/// # Examples
///
/// ```
/// use autoplat_dram::wcd::{upper_bound, WcdParams};
/// use autoplat_dram::{ControllerConfig, timing::presets::ddr3_1600};
/// use autoplat_netcalc::TokenBucket;
///
/// let params = WcdParams {
///     timing: ddr3_1600(),
///     config: ControllerConfig::paper(),
///     writes: TokenBucket::new(8.0, 0.0625), // 4 Gbps of 8-byte writes
///     queue_position: 16,
/// };
/// let bound = upper_bound(&params)?;
/// assert!(bound.delay_ns > 0.0);
/// # Ok::<(), autoplat_dram::wcd::WcdError>(())
/// ```
pub fn upper_bound(params: &WcdParams) -> Result<WcdBound, WcdError> {
    check(params)?;
    let t = &params.timing;
    let cfg = &params.config;
    let n = params.queue_position as f64;

    let d_miss = t.read_miss_cost();
    let d_hit = t.read_hit_cost();
    let c_batch = t.write_batch_cost(cfg.n_wd);

    // Stability: write-batch work plus refresh work admitted per unit
    // time must stay < 1, otherwise the fixpoint diverges.
    let rho = params.writes.rate() * c_batch / cfg.n_wd as f64 + t.t_rfc / t.t_refi;
    if rho >= 1.0 {
        return Err(WcdError::Saturated { utilization: rho });
    }

    let miss_time = n * d_miss;
    let hit_time = cfg.n_cap as f64 * d_hit;
    let base = miss_time + hit_time;

    let mut delay = base;
    let mut batches: u64 = 0;
    let mut refreshes: u64 = 0;
    const MAX_ITER: u32 = 100_000;
    for iter in 1..=MAX_ITER {
        // Step 3: most write batches schedulable within `delay`. With reads
        // always waiting, the controller enters write mode only when a full
        // batch of N_wd writes is available (W_high >= N_wd queued), so the
        // batch count is the number of *complete* batches the arrival curve
        // admits.
        let writes = params.writes.bound(delay).floor();
        let new_batches = (writes / cfg.n_wd as f64).floor() as u64;
        // Step 4: most refreshes within `delay`, plus one potentially in
        // flight at t = 0.
        let new_refreshes = (delay / t.t_refi).floor() as u64 + 1;
        let new_delay = base + new_batches as f64 * c_batch + new_refreshes as f64 * t.t_rfc;
        if !new_delay.is_finite() {
            return Err(WcdError::NotConverged {
                last_delay_ns: delay,
                iterations: iter,
                write_batches: new_batches,
                refreshes: new_refreshes,
            });
        }
        if new_batches == batches && new_refreshes == refreshes {
            return Ok(WcdBound {
                delay_ns: new_delay,
                miss_time_ns: miss_time,
                hit_time_ns: hit_time,
                write_batches: batches,
                refreshes,
                iterations: iter,
            });
        }
        batches = new_batches;
        refreshes = new_refreshes;
        delay = new_delay;
    }
    Err(WcdError::NotConverged {
        last_delay_ns: delay,
        iterations: MAX_ITER,
        write_batches: batches,
        refreshes,
    })
}

/// Lower bound on the WCD: the length of an explicitly constructed
/// *feasible* schedule (a witness), so `lower <= WCD <= upper`.
///
/// The adversarial-but-feasible schedule: a refresh is in flight at
/// `t = 0`; writes arrive greedily at the token-bucket envelope and are
/// served in batches of `N_wd` as soon as a full batch is available;
/// refreshes are served when the timer expires; the `N_cap` hits arrive
/// just before the final miss and are served as late as possible but may
/// be split by intervening write batches (which is what makes this a
/// lower bound — the upper bound assumes they always pack back-to-back).
///
/// # Panics
///
/// Panics if the parameters are invalid (use [`upper_bound`] first to
/// validate) or the schedule exceeds an internal step limit far beyond
/// saturation.
pub fn lower_bound(params: &WcdParams) -> WcdBound {
    check(params).expect("invalid WCD parameters");
    let t = &params.timing;
    let cfg = &params.config;

    let d_miss = t.read_miss_cost();
    let d_hit = t.read_hit_cost();
    let c_batch = t.write_batch_cost(cfg.n_wd);

    let mut now = t.t_rfc; // initial refresh in flight at t = 0
    let mut refreshes: u64 = 1;
    let mut next_refresh = t.t_refi;
    let mut served_writes: f64 = 0.0;
    let mut batches: u64 = 0;
    let mut misses_left = params.queue_position;
    let mut hits_left = cfg.n_cap;
    let mut miss_time = 0.0;
    let mut hit_time = 0.0;
    let mut steps: u32 = 0;
    const MAX_STEPS: u32 = 10_000_000;

    while misses_left > 0 || hits_left > 0 {
        steps += 1;
        assert!(
            steps < MAX_STEPS,
            "lower-bound schedule exceeded step limit"
        );
        // A full write batch available? Serve it first (adversarial).
        let arrived = params.writes.bound(now).floor();
        if arrived - served_writes >= cfg.n_wd as f64 {
            now += c_batch;
            served_writes += cfg.n_wd as f64;
            batches += 1;
            continue;
        }
        // Refresh timer expired?
        if now >= next_refresh {
            now += t.t_rfc;
            next_refresh += t.t_refi;
            refreshes += 1;
            continue;
        }
        // Serve reads: all but the final miss first, then the promoted
        // hits, then the miss under study.
        if misses_left > 1 {
            now += d_miss;
            miss_time += d_miss;
            misses_left -= 1;
        } else if hits_left > 0 {
            now += d_hit;
            hit_time += d_hit;
            hits_left -= 1;
        } else {
            now += d_miss;
            miss_time += d_miss;
            misses_left -= 1;
        }
    }

    WcdBound {
        delay_ns: now,
        miss_time_ns: miss_time,
        hit_time_ns: hit_time,
        write_batches: batches,
        refreshes,
        iterations: steps,
    }
}

/// Both bounds at once, for table generation.
///
/// # Errors
///
/// Propagates [`upper_bound`] errors; the lower bound always exists for
/// valid parameters.
pub fn bounds(params: &WcdParams) -> Result<(WcdBound, WcdBound), WcdError> {
    let upper = upper_bound(params)?;
    let lower = lower_bound(params);
    Ok((lower, upper))
}

/// Inputs of the DPQ bounded-access-latency analysis (Shah et al.).
#[derive(Debug, Clone)]
pub struct DpqParams {
    /// Device timing parameters (Table I).
    pub timing: DramTiming,
    /// Number of masters arbitrated (`m`).
    pub masters: u32,
    /// Queue depth `d` of the request under study at admission, 1-based
    /// and counting the request itself (the `d`-th pending request of its
    /// master): the [`Completion::depth`](crate::request::Completion) of a
    /// DPQ run.
    pub queue_depth: u32,
}

/// Upper bound on the end-to-end latency of the `d`-th queued request of
/// a master under the [DPQ arbiter](crate::dpq::DpqArbiter).
///
/// The least-recently-served rotation guarantees that, while a master
/// stays backlogged, every other master is granted at most once between
/// two consecutive grants to it (a granted master drops behind all
/// waiters). The `d`-th request of a master is therefore served within
/// `d·m` accesses of its arrival, plus one access that may already be in
/// flight (which also covers the admission gap to the next arbitration
/// decision). Every close-page access costs at most
/// `C_acc = max(tRC, tRP + tRCD + tCL + tBurst)`
/// ([`DramTiming::read_miss_cost`]), so
///
/// ```text
/// T = (d·m + 1)·C_acc + R(T)·tRFC,   R(T) = ⌊T / tREFI⌋ + 1
/// ```
///
/// iterated to a fixpoint exactly like the FR-FCFS refresh accounting
/// ([`upper_bound`] step 4). Unlike FR-FCFS, no write-batch term exists:
/// DPQ has no mode switching, writes are ordinary accesses already
/// counted in the `d·m` window. The fixpoint always converges for valid
/// timing (`tRFC < tREFI`).
///
/// In the returned [`WcdBound`], `miss_time_ns` carries the
/// `(d·m + 1)·C_acc` access term, `hit_time_ns` is zero (close-page:
/// there are no row hits) and `write_batches` is zero.
///
/// # Errors
///
/// Returns [`WcdError::Invalid`] for invalid timing, `masters == 0` or
/// `queue_depth == 0`, and [`WcdError::NotConverged`] if the refresh
/// fixpoint hits the internal iteration limit (unreachable for valid
/// timing).
///
/// # Examples
///
/// ```
/// use autoplat_dram::wcd::{dpq_upper_bound, DpqParams};
/// use autoplat_dram::timing::presets::ddr3_1600;
///
/// let bound = dpq_upper_bound(&DpqParams {
///     timing: ddr3_1600(),
///     masters: 4,
///     queue_depth: 1,
/// })?;
/// // Head-of-queue request among 4 masters: 5 accesses + 1 refresh.
/// assert!(bound.delay_ns > 4.0 * ddr3_1600().read_miss_cost());
/// # Ok::<(), autoplat_dram::wcd::WcdError>(())
/// ```
pub fn dpq_upper_bound(params: &DpqParams) -> Result<WcdBound, WcdError> {
    params.timing.validate().map_err(WcdError::Invalid)?;
    if params.masters == 0 {
        return Err(WcdError::Invalid("need at least one master".into()));
    }
    if params.queue_depth == 0 {
        return Err(WcdError::Invalid("queue depth d must be >= 1".into()));
    }
    let t = &params.timing;
    let c_acc = t.read_miss_cost();
    let accesses = params.queue_depth as f64 * params.masters as f64 + 1.0;
    let base = accesses * c_acc;

    let mut delay = base;
    let mut refreshes: u64 = 0;
    const MAX_ITER: u32 = 100_000;
    for iter in 1..=MAX_ITER {
        let new_refreshes = (delay / t.t_refi).floor() as u64 + 1;
        let new_delay = base + new_refreshes as f64 * t.t_rfc;
        if new_refreshes == refreshes {
            return Ok(WcdBound {
                delay_ns: new_delay,
                miss_time_ns: base,
                hit_time_ns: 0.0,
                write_batches: 0,
                refreshes,
                iterations: iter,
            });
        }
        refreshes = new_refreshes;
        delay = new_delay;
    }
    Err(WcdError::NotConverged {
        last_delay_ns: delay,
        iterations: MAX_ITER,
        write_batches: 0,
        refreshes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::presets::ddr3_1600;
    use autoplat_netcalc::arrival::gbps_bucket;

    /// The paper's Table II setup: DDR3-1600, W_high=55, N_wd=16, N_cap=16,
    /// burst of 8 write requests, BL8 × x8 device → 8 bytes per request.
    fn table2_params(gbps: f64, n: u32) -> WcdParams {
        WcdParams {
            timing: ddr3_1600(),
            config: ControllerConfig::paper(),
            writes: gbps_bucket(gbps, 8, 8),
            queue_position: n,
        }
    }

    #[test]
    fn lower_never_exceeds_upper() {
        for gbps in [1.0, 4.0, 5.0, 6.0, 7.0, 8.0] {
            for n in [1, 4, 16, 32] {
                let p = table2_params(gbps, n);
                if let Ok(u) = upper_bound(&p) {
                    let l = lower_bound(&p);
                    assert!(
                        l.delay_ns <= u.delay_ns + 1e-6,
                        "lower {} > upper {} at {gbps} Gbps N={n}",
                        l.delay_ns,
                        u.delay_ns
                    );
                }
            }
        }
    }

    #[test]
    fn upper_bound_monotone_in_queue_position() {
        let mut last = 0.0;
        for n in 1..=32 {
            let b = upper_bound(&table2_params(4.0, n)).expect("stable");
            assert!(b.delay_ns > last, "WCD must grow with N");
            last = b.delay_ns;
        }
    }

    #[test]
    fn upper_bound_monotone_in_write_rate() {
        let mut last = 0.0;
        for gbps in [0.0, 2.0, 4.0, 5.0, 6.0, 7.0] {
            let b = upper_bound(&table2_params(gbps, 16)).expect("stable");
            assert!(b.delay_ns >= last, "WCD must grow with write rate");
            last = b.delay_ns;
        }
    }

    #[test]
    fn table2_shape_microseconds_and_superlinear() {
        // Shape targets from Table II: ~2 µs at 4 Gbps growing superlinearly
        // towards 7 Gbps, with the bound gap exploding near saturation.
        let d4 = upper_bound(&table2_params(4.0, 16))
            .expect("stable")
            .delay_ns;
        let d5 = upper_bound(&table2_params(5.0, 16))
            .expect("stable")
            .delay_ns;
        let d6 = upper_bound(&table2_params(6.0, 16))
            .expect("stable")
            .delay_ns;
        let d7 = upper_bound(&table2_params(7.0, 16))
            .expect("stable")
            .delay_ns;
        assert!(d4 > 1500.0 && d4 < 3000.0, "4 Gbps WCD ~2 µs, got {d4}");
        assert!(d7 > d6 && d6 > d5 && d5 > d4);
        // Superlinear growth: the last step is the largest.
        assert!(
            d7 - d6 > d5 - d4,
            "growth must accelerate: {d4} {d5} {d6} {d7}"
        );
    }

    #[test]
    fn gap_grows_towards_saturation() {
        let gap = |gbps: f64| {
            let p = table2_params(gbps, 16);
            let u = upper_bound(&p).expect("stable").delay_ns;
            let l = lower_bound(&p).delay_ns;
            u - l
        };
        let g4 = gap(4.0);
        let g7 = gap(7.0);
        assert!(g4 >= 0.0);
        assert!(g7 > g4, "gap must widen near saturation: {g4} vs {g7}");
    }

    #[test]
    fn saturation_is_detected() {
        // Push the write rate to the point where batch work alone
        // saturates: rho = r * C_batch / N_wd >= 1.
        let t = ddr3_1600();
        let c_batch = t.write_batch_cost(16);
        let r_sat = 16.0 / c_batch;
        let p = WcdParams {
            timing: t,
            config: ControllerConfig::paper(),
            writes: autoplat_netcalc::TokenBucket::new(8.0, r_sat * 1.01),
            queue_position: 4,
        };
        match upper_bound(&p) {
            Err(WcdError::Saturated { utilization }) => assert!(utilization >= 1.0),
            other => panic!("expected saturation, got {other:?}"),
        }
    }

    #[test]
    fn zero_write_rate_zero_burst_has_no_batches() {
        let p = WcdParams {
            timing: ddr3_1600(),
            config: ControllerConfig::paper(),
            writes: autoplat_netcalc::TokenBucket::new(0.0, 0.0),
            queue_position: 8,
        };
        let u = upper_bound(&p).expect("stable");
        assert_eq!(u.write_batches, 0);
        // 8 misses + 16 hits + 1 refresh.
        let t = ddr3_1600();
        let expect = 8.0 * t.read_miss_cost() + 16.0 * t.read_hit_cost() + t.t_rfc;
        assert!((u.delay_ns - expect).abs() < 1e-9);
    }

    #[test]
    fn refreshes_accumulate_on_long_schedules() {
        // A deep queue position stretches the schedule past several tREFI.
        let p = table2_params(4.0, 200);
        let u = upper_bound(&p).expect("stable");
        assert!(
            u.refreshes >= 2,
            "long schedule must include >= 2 refreshes"
        );
        let l = lower_bound(&p);
        assert!(l.refreshes >= 2);
    }

    #[test]
    fn breakdown_adds_up_in_upper_bound() {
        let p = table2_params(5.0, 16);
        let u = upper_bound(&p).expect("stable");
        let t = ddr3_1600();
        let total = u.miss_time_ns
            + u.hit_time_ns
            + u.write_batches as f64 * t.write_batch_cost(16)
            + u.refreshes as f64 * t.t_rfc;
        assert!((total - u.delay_ns).abs() < 1e-9);
    }

    #[test]
    fn queue_position_zero_is_invalid() {
        let mut p = table2_params(4.0, 1);
        p.queue_position = 0;
        assert!(matches!(upper_bound(&p), Err(WcdError::Invalid(_))));
    }

    #[test]
    fn works_for_other_technologies() {
        use crate::timing::presets::{ddr4_2400, lpddr4_3200};
        for timing in [ddr4_2400(), lpddr4_3200()] {
            let p = WcdParams {
                timing,
                config: ControllerConfig::paper(),
                writes: gbps_bucket(4.0, 8, 8),
                queue_position: 16,
            };
            let (l, u) = bounds(&p).expect("stable");
            assert!(l.delay_ns <= u.delay_ns);
            assert!(u.delay_ns > 0.0);
        }
    }

    #[test]
    fn not_converged_carries_final_iteration_diagnostics() {
        // A write rate at (1 - 1e-10) of the saturation rate keeps
        // rho < 1, so the Saturated guard passes, but the fixpoint
        // D* ~ base / (1 - rho) sits ~1e10 iterations of batch work away:
        // the loop must give up at its internal limit and report the full
        // state of the last iteration instead of spinning or panicking.
        let t = ddr3_1600();
        let cfg = ControllerConfig::paper();
        let c_batch = t.write_batch_cost(cfg.n_wd);
        let r_crit = (1.0 - t.t_rfc / t.t_refi) * cfg.n_wd as f64 / c_batch;
        let p = WcdParams {
            timing: t.clone(),
            config: cfg,
            writes: TokenBucket::new(8.0, r_crit * (1.0 - 1e-10)),
            queue_position: 16,
        };
        match upper_bound(&p) {
            Err(WcdError::NotConverged {
                last_delay_ns,
                iterations,
                write_batches,
                refreshes,
            }) => {
                assert_eq!(iterations, 100_000, "must run to the internal limit");
                assert!(
                    last_delay_ns > 16.0 * t.read_miss_cost(),
                    "last T must carry the partial fixpoint, got {last_delay_ns}"
                );
                assert!(
                    write_batches > 0,
                    "diverging iteration is driven by write batches"
                );
                assert!(refreshes >= 1, "the in-flight refresh is always counted");
            }
            other => panic!("expected NotConverged with diagnostics, got {other:?}"),
        }
    }

    #[test]
    fn dpq_bound_counts_accesses_and_refreshes() {
        let t = ddr3_1600();
        let b = dpq_upper_bound(&DpqParams {
            timing: t.clone(),
            masters: 3,
            queue_depth: 2,
        })
        .expect("converges");
        // (2·3 + 1) accesses + the in-flight refresh; the window is far
        // shorter than tREFI so exactly one refresh is accounted.
        let expect = 7.0 * t.read_miss_cost() + t.t_rfc;
        assert!((b.delay_ns - expect).abs() < 1e-9, "got {}", b.delay_ns);
        assert_eq!(b.refreshes, 1);
        assert_eq!(b.write_batches, 0);
        assert_eq!(b.hit_time_ns, 0.0);
    }

    #[test]
    fn dpq_bound_monotone_in_depth_and_masters() {
        let t = ddr3_1600();
        let bound = |m: u32, d: u32| {
            dpq_upper_bound(&DpqParams {
                timing: t.clone(),
                masters: m,
                queue_depth: d,
            })
            .expect("converges")
            .delay_ns
        };
        let mut last = 0.0;
        for d in 1..=32 {
            let b = bound(4, d);
            assert!(b > last, "bound must grow with depth");
            last = b;
        }
        let mut last = 0.0;
        for m in 1..=8 {
            let b = bound(m, 8);
            assert!(b > last, "bound must grow with master count");
            last = b;
        }
    }

    #[test]
    fn dpq_bound_rejects_degenerate_inputs() {
        let t = ddr3_1600();
        for (m, d) in [(0, 1), (1, 0)] {
            let r = dpq_upper_bound(&DpqParams {
                timing: t.clone(),
                masters: m,
                queue_depth: d,
            });
            assert!(matches!(r, Err(WcdError::Invalid(_))));
        }
    }

    #[test]
    fn dpq_simulation_never_exceeds_its_bound() {
        use crate::dpq::{adversarial_dpq_workload, DpqArbiter};
        use crate::timing::presets::{ddr4_2400, lpddr4_3200};
        for timing in [ddr3_1600(), ddr4_2400(), lpddr4_3200()] {
            for masters in [1u32, 2, 4] {
                for depth in [1u32, 4, 16, 32] {
                    let arb = DpqArbiter::new(timing.clone(), masters, masters);
                    let out = arb.simulate(adversarial_dpq_workload(masters, depth), false);
                    for c in &out.completions {
                        let d = c.depth;
                        let b = dpq_upper_bound(&DpqParams {
                            timing: timing.clone(),
                            masters,
                            queue_depth: d,
                        })
                        .expect("converges");
                        let lat = c.finished.saturating_since(c.request.arrival).as_ns();
                        assert!(
                            lat <= b.delay_ns + 1e-6,
                            "m={masters} d={d}: sim {lat} > bound {}",
                            b.delay_ns
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn error_display() {
        let e = WcdError::Saturated { utilization: 1.2 };
        assert!(e.to_string().contains("saturates"));
        let e = WcdError::NotConverged {
            last_delay_ns: 5.0,
            iterations: 100_000,
            write_batches: 42,
            refreshes: 7,
        };
        let msg = e.to_string();
        assert!(msg.contains("converge"));
        assert!(msg.contains("100000 iterations"), "{msg}");
        assert!(msg.contains("42 write batches"), "{msg}");
        assert!(msg.contains("7 refreshes"), "{msg}");
        let e = WcdError::Invalid("x".into());
        assert!(e.to_string().contains("x"));
    }
}
