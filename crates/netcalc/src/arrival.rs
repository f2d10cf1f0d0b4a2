//! Arrival curves: upper bounds on the traffic a flow may generate.
//!
//! The paper's §IV-A uses the **token bucket** as the general, enforceable
//! model of rate-limited traffic: a process `R(t)` is conformant to the
//! shaping curve `α(τ) = b + r·τ` iff `R(t+τ) − R(t) ≤ α(τ)` for all
//! `t, τ > 0`. The burst `b` captures near-simultaneous arrivals from
//! multiple masters; the rate `r` is their aggregate average rate.

use crate::curve::PiecewiseLinear;

/// A token-bucket (σ, ρ) arrival curve `α(t) = b + r·t`.
///
/// # Examples
///
/// ```
/// use autoplat_netcalc::TokenBucket;
///
/// // The paper's Table II scenario: 8-request burst, rate in requests/ns.
/// let writes = TokenBucket::new(8.0, 0.0078125);
/// assert_eq!(writes.bound(0.0), 8.0);
/// assert!((writes.bound(1000.0) - (8.0 + 7.8125)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucket {
    burst: f64,
    rate: f64,
}

impl TokenBucket {
    /// Creates a token bucket with burst `b >= 0` and rate `r >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is negative or not finite.
    pub fn new(burst: f64, rate: f64) -> Self {
        assert!(burst.is_finite() && burst >= 0.0, "invalid burst {burst}");
        assert!(rate.is_finite() && rate >= 0.0, "invalid rate {rate}");
        TokenBucket { burst, rate }
    }

    /// The burst parameter `b` (vertical offset).
    pub fn burst(&self) -> f64 {
        self.burst
    }

    /// The sustained rate `r` (slope).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The arrival bound `α(t) = b + r·t` for `t >= 0`.
    ///
    /// Note: by the standard σρ convention the bound at `t = 0` is `b`
    /// (the whole burst may arrive instantaneously).
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or not finite.
    pub fn bound(&self, t: f64) -> f64 {
        assert!(t.is_finite() && t >= 0.0, "invalid horizon {t}");
        self.burst + self.rate * t
    }

    /// Largest number of *whole items* that can arrive within a window of
    /// length `t` (floor of the bound) — the quantity the FR-FCFS WCD
    /// analysis iterates on.
    pub fn max_items(&self, t: f64) -> u64 {
        self.bound(t).floor().max(0.0) as u64
    }

    /// The curve as a general piecewise-linear object.
    pub fn to_curve(&self) -> PiecewiseLinear {
        PiecewiseLinear::affine(self.burst, self.rate)
    }

    /// Min-plus convolution of two token buckets (the combined constraint of
    /// passing through both shapers): exact for σρ curves, the pointwise
    /// minimum — burst/rate of whichever curve is lower in each regime.
    pub fn convolve(&self, other: &TokenBucket) -> PiecewiseLinear {
        self.to_curve().min(&other.to_curve())
    }

    /// Aggregates independent flows sharing a resource: bursts and rates add.
    pub fn aggregate<I: IntoIterator<Item = TokenBucket>>(flows: I) -> TokenBucket {
        let mut burst = 0.0;
        let mut rate = 0.0;
        for f in flows {
            burst += f.burst;
            rate += f.rate;
        }
        TokenBucket { burst, rate }
    }

    /// Scales the bucket to different units (e.g. requests → bytes).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(&self, factor: f64) -> TokenBucket {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid factor {factor}"
        );
        TokenBucket {
            burst: self.burst * factor,
            rate: self.rate * factor,
        }
    }
}

/// Builds a token bucket from a line rate in **gigabits per second** and a
/// burst in requests, for requests of `bytes_per_request` bytes — the
/// parameterization of the paper's Table II ("write rate 4–7 Gbps,
/// burst of 8").
///
/// The returned bucket counts **requests** and its rate is in
/// **requests per nanosecond**.
///
/// # Examples
///
/// ```
/// use autoplat_netcalc::arrival::gbps_bucket;
///
/// let b = gbps_bucket(4.0, 8, 64);
/// assert_eq!(b.burst(), 8.0);
/// // 4 Gbps = 0.5 GB/s = 0.5 B/ns; / 64 B per request = 0.0078125 req/ns.
/// assert!((b.rate() - 0.0078125).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if `gbps` is negative/not finite or `bytes_per_request` is zero.
pub fn gbps_bucket(gbps: f64, burst_requests: u32, bytes_per_request: u32) -> TokenBucket {
    assert!(gbps.is_finite() && gbps >= 0.0, "invalid rate {gbps} Gbps");
    assert!(bytes_per_request > 0, "request size must be non-zero");
    let bytes_per_ns = gbps / 8.0; // Gbit/s == bit/ns; /8 -> bytes/ns
    let requests_per_ns = bytes_per_ns / bytes_per_request as f64;
    TokenBucket::new(burst_requests as f64, requests_per_ns)
}

/// Fits the minimal token bucket of a given `rate` to an observed
/// arrival trace `(time, amount)`: the smallest burst `b` such that
/// `α(t) = b + r·t` upper-bounds every window of the trace. This is the
/// profiling primitive behind §II's "automated profiling" — measure a
/// workload, fit its envelope, feed the contract to admission control.
///
/// Returns a bucket with burst 0 for an empty trace.
///
/// # Panics
///
/// Panics if `rate` is negative/not finite, any amount is negative, or
/// the trace times are not non-decreasing.
///
/// # Examples
///
/// ```
/// use autoplat_netcalc::arrival::fit_token_bucket;
/// use autoplat_netcalc::conformance::first_violation;
///
/// let trace = [(0.0, 3.0), (5.0, 1.0), (6.0, 4.0)];
/// let tb = fit_token_bucket(&trace, 0.5);
/// // The fitted bucket admits the trace...
/// assert_eq!(first_violation(&tb, &trace), None);
/// // ...and is minimal: shrinking the burst breaks conformance.
/// let smaller = autoplat_netcalc::TokenBucket::new(tb.burst() - 0.01, 0.5);
/// assert!(first_violation(&smaller, &trace).is_some());
/// ```
pub fn fit_token_bucket(trace: &[(f64, f64)], rate: f64) -> TokenBucket {
    assert!(rate.is_finite() && rate >= 0.0, "invalid rate {rate}");
    for w in trace.windows(2) {
        assert!(w[1].0 >= w[0].0, "trace times must be non-decreasing");
    }
    // Minimal burst = max over windows (j..=i) of (cum - r * span).
    let mut burst: f64 = 0.0;
    for i in 0..trace.len() {
        let (ti, _) = trace[i];
        let mut cum = 0.0;
        for j in (0..=i).rev() {
            let (tj, aj) = trace[j];
            assert!(aj >= 0.0, "negative arrival amount");
            cum += aj;
            burst = burst.max(cum - rate * (ti - tj));
        }
    }
    TokenBucket::new(burst, rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_is_affine() {
        let tb = TokenBucket::new(5.0, 2.0);
        assert_eq!(tb.bound(0.0), 5.0);
        assert_eq!(tb.bound(3.0), 11.0);
    }

    #[test]
    fn max_items_floors() {
        let tb = TokenBucket::new(1.5, 0.4);
        assert_eq!(tb.max_items(0.0), 1);
        assert_eq!(tb.max_items(1.0), 1); // 1.9
        assert_eq!(tb.max_items(2.0), 2); // 2.3
    }

    #[test]
    fn to_curve_matches_bound() {
        let tb = TokenBucket::new(3.0, 0.5);
        let c = tb.to_curve();
        for i in 0..50 {
            let t = i as f64 * 0.37;
            assert!((c.value(t) - tb.bound(t)).abs() < 1e-12);
        }
    }

    #[test]
    fn convolve_is_pointwise_min() {
        let a = TokenBucket::new(10.0, 1.0);
        let b = TokenBucket::new(2.0, 3.0);
        let c = a.convolve(&b);
        for i in 0..100 {
            let t = i as f64 * 0.1;
            assert!((c.value(t) - a.bound(t).min(b.bound(t))).abs() < 1e-9);
        }
    }

    #[test]
    fn aggregate_adds_components() {
        let total = TokenBucket::aggregate([
            TokenBucket::new(1.0, 0.5),
            TokenBucket::new(2.0, 0.25),
            TokenBucket::new(0.0, 1.0),
        ]);
        assert_eq!(total.burst(), 3.0);
        assert_eq!(total.rate(), 1.75);
    }

    #[test]
    fn scale_converts_units() {
        let reqs = TokenBucket::new(8.0, 0.0078125);
        let bytes = reqs.scale(64.0);
        assert_eq!(bytes.burst(), 512.0);
        assert!((bytes.rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gbps_bucket_table2_rates() {
        // Table II write rates with 64 B requests.
        for (gbps, expect) in [
            (4.0, 0.0078125),
            (5.0, 0.009765625),
            (6.0, 0.01171875),
            (7.0, 0.013671875),
        ] {
            let b = gbps_bucket(gbps, 8, 64);
            assert!((b.rate() - expect).abs() < 1e-12, "{gbps} Gbps");
        }
    }

    #[test]
    #[should_panic(expected = "invalid burst")]
    fn rejects_negative_burst() {
        let _ = TokenBucket::new(-1.0, 0.0);
    }

    #[test]
    fn fit_empty_trace_is_zero_burst() {
        let tb = fit_token_bucket(&[], 1.0);
        assert_eq!(tb.burst(), 0.0);
    }

    #[test]
    fn fit_single_impulse() {
        let tb = fit_token_bucket(&[(10.0, 7.0)], 2.0);
        assert_eq!(tb.burst(), 7.0);
    }

    #[test]
    fn fit_is_conformant_and_minimal() {
        use crate::conformance::first_violation;
        let trace = [(0.0, 2.0), (1.0, 2.0), (2.0, 2.0), (10.0, 1.0)];
        for rate in [0.1, 0.5, 1.0, 3.0] {
            let tb = fit_token_bucket(&trace, rate);
            assert_eq!(first_violation(&tb, &trace), None, "rate {rate}");
            if tb.burst() > 0.01 {
                let tighter = TokenBucket::new(tb.burst() - 0.01, rate);
                assert!(
                    first_violation(&tighter, &trace).is_some(),
                    "rate {rate}: burst not minimal"
                );
            }
        }
    }

    #[test]
    fn fit_higher_rate_needs_no_more_burst() {
        let trace = [(0.0, 1.0), (2.0, 3.0), (7.0, 2.0), (7.5, 4.0)];
        let mut last = f64::INFINITY;
        for rate in [0.0, 0.5, 1.0, 2.0] {
            let b = fit_token_bucket(&trace, rate).burst();
            assert!(b <= last, "burst must shrink as the rate grows");
            last = b;
        }
        // At rate 0 the burst is the total volume.
        assert_eq!(fit_token_bucket(&trace, 0.0).burst(), 10.0);
    }

    #[test]
    #[should_panic(expected = "request size must be non-zero")]
    fn gbps_bucket_rejects_zero_request() {
        let _ = gbps_bucket(1.0, 1, 0);
    }
}
