//! Service curves: lower bounds on the service a component guarantees.
//!
//! The workhorse is the **rate-latency** curve `β(t) = R·[t − T]⁺`, but the
//! paper's §IV-A derives a DRAM service curve as the polyline joining points
//! `(t_N, N)` — "the curve that joins points (t_N, N) is a service curve for
//! this system" — so this module also builds curves from measured or
//! computed sample points ([`from_samples`]).

use crate::curve::PiecewiseLinear;

/// A rate-latency service curve `β(t) = R · max(0, t − T)`.
///
/// # Examples
///
/// ```
/// use autoplat_netcalc::RateLatency;
///
/// let beta = RateLatency::new(2.0, 3.0);
/// assert_eq!(beta.guarantee(2.0), 0.0);
/// assert_eq!(beta.guarantee(5.0), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLatency {
    rate: f64,
    latency: f64,
}

impl RateLatency {
    /// Creates a rate-latency curve with service rate `R > 0` and initial
    /// latency `T >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive or `latency` is negative
    /// or either is not finite.
    pub fn new(rate: f64, latency: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "invalid rate {rate}");
        assert!(
            latency.is_finite() && latency >= 0.0,
            "invalid latency {latency}"
        );
        RateLatency { rate, latency }
    }

    /// The guaranteed service rate `R`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The worst-case initial latency `T`.
    pub fn latency(&self) -> f64 {
        self.latency
    }

    /// The guaranteed cumulative service by time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or not finite.
    pub fn guarantee(&self, t: f64) -> f64 {
        assert!(t.is_finite() && t >= 0.0, "invalid horizon {t}");
        self.rate * (t - self.latency).max(0.0)
    }

    /// The curve as a general piecewise-linear object.
    pub fn to_curve(&self) -> PiecewiseLinear {
        if self.latency == 0.0 {
            PiecewiseLinear::new(vec![(0.0, 0.0)], self.rate)
        } else {
            PiecewiseLinear::new(vec![(0.0, 0.0), (self.latency, 0.0)], self.rate)
        }
    }

    /// Min-plus convolution with another rate-latency curve: the closed
    /// form `β₁ ⊗ β₂ = (min(R₁, R₂), T₁ + T₂)` — the end-to-end guarantee
    /// of traversing both servers in sequence.
    pub fn convolve(&self, other: &RateLatency) -> RateLatency {
        RateLatency {
            rate: self.rate.min(other.rate),
            latency: self.latency + other.latency,
        }
    }

    /// The tightest rate-latency curve *lower-bounding* a non-decreasing
    /// piecewise-linear curve with eventual positive slope: rate is the
    /// curve's smallest positive long-run feasible rate, latency the
    /// largest pseudo-inverse gap. Returns `None` if the curve never grows.
    pub fn lower_bound_of(curve: &PiecewiseLinear) -> Option<RateLatency> {
        let rate = curve.final_slope();
        if rate <= 0.0 {
            return None;
        }
        // β(t) = R (t − T)⁺ lower-bounds f iff T >= t − f(t)/R for all t.
        // For PL f the sup is attained at a breakpoint or in the tail
        // (where it is constant because slopes match).
        let mut latency: f64 = 0.0;
        for &(x, y) in curve.breakpoints() {
            latency = latency.max(x - y / rate);
        }
        Some(RateLatency {
            rate,
            latency: latency.max(0.0),
        })
    }
}

/// Builds a service curve from sample points `(t_i, s_i)`: the polyline
/// joining `(0, 0)` and the samples, extended beyond the last sample with
/// the slope of the final segment.
///
/// This is exactly how §IV-A turns the WCD bound points `(t_N, N)` into a
/// DRAM service curve usable in compositional analysis.
///
/// # Examples
///
/// ```
/// use autoplat_netcalc::service::from_samples;
///
/// let beta = from_samples(&[(100.0, 1.0), (180.0, 2.0), (260.0, 3.0)]);
/// assert_eq!(beta.value(0.0), 0.0);
/// assert_eq!(beta.value(180.0), 2.0);
/// assert_eq!(beta.value(340.0), 4.0); // extended at 1 item / 80 time
/// ```
///
/// # Panics
///
/// Panics if `samples` is empty, not strictly increasing in `t`, or starts
/// at `t <= 0`.
pub fn from_samples(samples: &[(f64, f64)]) -> PiecewiseLinear {
    assert!(!samples.is_empty(), "need at least one sample point");
    assert!(samples[0].0 > 0.0, "sample times must be positive");
    for w in samples.windows(2) {
        assert!(w[1].0 > w[0].0, "sample times must be strictly increasing");
    }
    let mut points = Vec::with_capacity(samples.len() + 1);
    points.push((0.0, 0.0));
    points.extend_from_slice(samples);
    let final_slope = if samples.len() >= 2 {
        let (x0, y0) = samples[samples.len() - 2];
        let (x1, y1) = samples[samples.len() - 1];
        (y1 - y0) / (x1 - x0)
    } else {
        samples[0].1 / samples[0].0
    };
    PiecewiseLinear::new(points, final_slope)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarantee_matches_formula() {
        let b = RateLatency::new(4.0, 2.0);
        assert_eq!(b.guarantee(0.0), 0.0);
        assert_eq!(b.guarantee(2.0), 0.0);
        assert_eq!(b.guarantee(3.0), 4.0);
    }

    #[test]
    fn to_curve_matches_guarantee() {
        let b = RateLatency::new(1.5, 0.7);
        let c = b.to_curve();
        for i in 0..100 {
            let t = i as f64 * 0.05;
            assert!((c.value(t) - b.guarantee(t)).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_latency_curve() {
        let b = RateLatency::new(2.0, 0.0);
        assert_eq!(b.to_curve().value(3.0), 6.0);
    }

    #[test]
    fn convolve_closed_form() {
        let a = RateLatency::new(4.0, 1.0);
        let b = RateLatency::new(2.0, 3.0);
        let c = a.convolve(&b);
        assert_eq!(c.rate(), 2.0);
        assert_eq!(c.latency(), 4.0);
    }

    #[test]
    fn convolution_is_commutative_and_associative() {
        let a = RateLatency::new(4.0, 1.0);
        let b = RateLatency::new(2.0, 3.0);
        let c = RateLatency::new(3.0, 0.5);
        assert_eq!(a.convolve(&b), b.convolve(&a));
        assert_eq!(a.convolve(&b).convolve(&c), a.convolve(&b.convolve(&c)));
    }

    #[test]
    fn from_samples_polyline() {
        let beta = from_samples(&[(10.0, 1.0), (30.0, 2.0)]);
        assert_eq!(beta.value(0.0), 0.0);
        assert_eq!(beta.value(10.0), 1.0);
        assert_eq!(beta.value(20.0), 1.5);
        assert_eq!(beta.value(50.0), 3.0);
    }

    #[test]
    fn from_single_sample_extends_by_average_rate() {
        let beta = from_samples(&[(20.0, 4.0)]);
        assert_eq!(beta.value(40.0), 8.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_samples_rejects_unsorted() {
        let _ = from_samples(&[(10.0, 1.0), (5.0, 2.0)]);
    }

    #[test]
    fn lower_bound_of_recovers_rate_latency() {
        let rl = RateLatency::new(3.0, 2.0);
        let back = RateLatency::lower_bound_of(&rl.to_curve()).expect("positive slope");
        assert!((back.rate() - 3.0).abs() < 1e-12);
        assert!((back.latency() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lower_bound_of_sample_curve_is_below_curve() {
        let beta = from_samples(&[(100.0, 1.0), (150.0, 3.0), (300.0, 6.0)]);
        let rl = RateLatency::lower_bound_of(&beta).expect("grows");
        for i in 0..300 {
            let t = i as f64;
            assert!(
                rl.guarantee(t) <= beta.value(t) + 1e-9,
                "rate-latency must lower-bound at t={t}"
            );
        }
    }

    #[test]
    fn lower_bound_of_flat_curve_is_none() {
        assert!(RateLatency::lower_bound_of(&PiecewiseLinear::constant(5.0)).is_none());
    }
}
