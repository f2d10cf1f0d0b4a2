//! Exact piecewise-linear curves on `[0, ∞)`.
//!
//! A [`PiecewiseLinear`] curve is a list of breakpoints `(x, y)` (sorted by
//! `x`, starting at `x = 0`) joined by straight segments, extended beyond
//! the last breakpoint with a constant `final_slope`. All network-calculus
//! objects in this crate (token buckets, rate-latency curves, DRAM service
//! curves) lower- or upper-bound cumulative processes with such curves, and
//! every operator here is **exact** on this representation — no sampling.

use std::fmt;

/// Tolerance used when merging duplicate breakpoints.
const EPS: f64 = 1e-12;

/// A piecewise-linear function on `[0, ∞)`.
///
/// # Examples
///
/// ```
/// use autoplat_netcalc::PiecewiseLinear;
///
/// // A rate-latency curve: 0 until t=2, then slope 3.
/// let beta = PiecewiseLinear::new(vec![(0.0, 0.0), (2.0, 0.0)], 3.0);
/// assert_eq!(beta.value(1.0), 0.0);
/// assert_eq!(beta.value(4.0), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    points: Vec<(f64, f64)>,
    final_slope: f64,
}

impl PiecewiseLinear {
    /// Creates a curve from breakpoints and a final slope.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, if the first breakpoint is not at
    /// `x = 0`, if the `x` coordinates are not strictly increasing, or if
    /// any coordinate is not finite.
    pub fn new(points: Vec<(f64, f64)>, final_slope: f64) -> Self {
        assert!(!points.is_empty(), "curve needs at least one breakpoint");
        assert!(
            points[0].0.abs() < EPS,
            "first breakpoint must be at x = 0, got {}",
            points[0].0
        );
        assert!(final_slope.is_finite(), "final slope must be finite");
        for w in points.windows(2) {
            assert!(
                w[1].0 > w[0].0,
                "breakpoints must be strictly increasing in x: {} !< {}",
                w[0].0,
                w[1].0
            );
        }
        for &(x, y) in &points {
            assert!(
                x.is_finite() && y.is_finite(),
                "non-finite breakpoint ({x}, {y})"
            );
        }
        let mut pl = PiecewiseLinear {
            points,
            final_slope,
        };
        pl.points[0].0 = 0.0;
        pl.normalize();
        pl
    }

    /// The constant-zero curve.
    pub fn zero() -> Self {
        PiecewiseLinear {
            points: vec![(0.0, 0.0)],
            final_slope: 0.0,
        }
    }

    /// A constant curve `f(t) = c`.
    pub fn constant(c: f64) -> Self {
        PiecewiseLinear {
            points: vec![(0.0, c)],
            final_slope: 0.0,
        }
    }

    /// An affine curve `f(t) = offset + slope · t`.
    pub fn affine(offset: f64, slope: f64) -> Self {
        PiecewiseLinear {
            points: vec![(0.0, offset)],
            final_slope: slope,
        }
    }

    /// Removes collinear interior breakpoints.
    fn normalize(&mut self) {
        if self.points.len() < 2 {
            return;
        }
        let mut out: Vec<(f64, f64)> = Vec::with_capacity(self.points.len());
        out.push(self.points[0]);
        for i in 1..self.points.len() {
            let (x, y) = self.points[i];
            // Slope of incoming segment.
            let (px, py) = *out.last().expect("out is non-empty");
            let slope_in = (y - py) / (x - px);
            // Slope of outgoing segment.
            let slope_out = if i + 1 < self.points.len() {
                let (nx, ny) = self.points[i + 1];
                (ny - y) / (nx - x)
            } else {
                self.final_slope
            };
            if (slope_in - slope_out).abs() > EPS {
                out.push((x, y));
            }
        }
        self.points = out;
    }

    /// Evaluates the curve at `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or not finite.
    pub fn value(&self, t: f64) -> f64 {
        assert!(
            t.is_finite() && t >= 0.0,
            "curve evaluated at invalid t = {t}"
        );
        let (lx, ly) = *self.points.last().expect("curve has breakpoints");
        if t >= lx {
            return ly + self.final_slope * (t - lx);
        }
        // Find the segment containing t: last breakpoint with x <= t.
        let idx = match self
            .points
            .binary_search_by(|&(x, _)| x.partial_cmp(&t).expect("finite"))
        {
            Ok(i) => return self.points[i].1,
            Err(i) => i - 1, // i >= 1 because points[0].0 == 0 <= t
        };
        let (x0, y0) = self.points[idx];
        let (x1, y1) = self.points[idx + 1];
        y0 + (y1 - y0) * (t - x0) / (x1 - x0)
    }

    /// The breakpoints of the curve.
    pub fn breakpoints(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Slope after the last breakpoint.
    pub fn final_slope(&self) -> f64 {
        self.final_slope
    }

    /// The long-run growth rate (identical to [`final_slope`]).
    ///
    /// [`final_slope`]: PiecewiseLinear::final_slope
    pub fn long_run_rate(&self) -> f64 {
        self.final_slope
    }

    /// Pseudo-inverse: the earliest `t` with `f(t) >= y`, or `None` if the
    /// curve never reaches `y`.
    ///
    /// Defined for non-decreasing curves; on a plateau the left edge is
    /// returned.
    pub fn inverse(&self, y: f64) -> Option<f64> {
        if self.points[0].1 >= y {
            return Some(0.0);
        }
        for i in 1..self.points.len() {
            let (x0, y0) = self.points[i - 1];
            let (x1, y1) = self.points[i];
            if y1 >= y {
                if y1 == y0 {
                    return Some(x1);
                }
                return Some(x0 + (y - y0) * (x1 - x0) / (y1 - y0));
            }
        }
        let (lx, ly) = *self.points.last().expect("non-empty");
        if ly >= y {
            return Some(lx);
        }
        if self.final_slope > 0.0 {
            Some(lx + (y - ly) / self.final_slope)
        } else {
            None
        }
    }

    /// True if the curve never decreases (all segment slopes `>= 0`).
    pub fn is_non_decreasing(&self) -> bool {
        if self.final_slope < -EPS {
            return false;
        }
        self.points.windows(2).all(|w| w[1].1 >= w[0].1 - EPS)
    }

    /// Pointwise sum `f + g`.
    pub fn add(&self, other: &PiecewiseLinear) -> PiecewiseLinear {
        let xs = merged_xs(self, other);
        let points: Vec<(f64, f64)> = xs
            .iter()
            .map(|&x| (x, self.value(x) + other.value(x)))
            .collect();
        PiecewiseLinear::new(points, self.final_slope + other.final_slope)
    }

    /// Pointwise scaling `c · f`.
    pub fn scale(&self, c: f64) -> PiecewiseLinear {
        PiecewiseLinear::new(
            self.points.iter().map(|&(x, y)| (x, c * y)).collect(),
            c * self.final_slope,
        )
    }

    /// Horizontal right-shift by `dt >= 0`:
    /// `g(t) = f(t - dt)` for `t >= dt`, `g(t) = f(0)` before.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or not finite.
    pub fn shift_right(&self, dt: f64) -> PiecewiseLinear {
        assert!(dt.is_finite() && dt >= 0.0, "invalid shift {dt}");
        if dt == 0.0 {
            return self.clone();
        }
        let mut points = vec![(0.0, self.points[0].1)];
        for &(x, y) in &self.points {
            points.push((x + dt, y));
        }
        // The first original breakpoint is at dt; dedupe against (0, f(0)).
        PiecewiseLinear::new(points, self.final_slope)
    }

    /// Pointwise minimum `min(f, g)`, exact (intersections become
    /// breakpoints).
    pub fn min(&self, other: &PiecewiseLinear) -> PiecewiseLinear {
        combine(self, other, f64::min)
    }

    /// Pointwise maximum `max(f, g)`, exact.
    pub fn max(&self, other: &PiecewiseLinear) -> PiecewiseLinear {
        combine(self, other, f64::max)
    }

    /// The non-negative part `max(f, 0)`.
    pub fn clamp_non_negative(&self) -> PiecewiseLinear {
        self.max(&PiecewiseLinear::zero())
    }

    /// The greatest convex function below this curve (its convex lower
    /// hull). For a service curve this is a **sound relaxation**: any
    /// guarantee the hull gives, the original curve gives too — and the
    /// hull is convex, so it can enter [`convolve_convex`] chains.
    ///
    /// The hull of the linear tail keeps this curve's [`final_slope`].
    ///
    /// [`convolve_convex`]: crate::ops::convolve_convex
    /// [`final_slope`]: PiecewiseLinear::final_slope
    pub fn convex_lower_hull(&self) -> PiecewiseLinear {
        // Monotone-chain lower hull over the breakpoints plus a far point
        // representing the linear tail.
        let (lx, ly) = *self.points.last().expect("non-empty");
        let span = lx.max(1.0);
        let far = (lx + span * 1e6, ly + self.final_slope * span * 1e6);
        let mut pts: Vec<(f64, f64)> = self.points.clone();
        pts.push(far);
        let mut hull: Vec<(f64, f64)> = Vec::with_capacity(pts.len());
        for p in pts {
            while hull.len() >= 2 {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                // Remove b if it lies on or above the segment a→p.
                let cross = (b.0 - a.0) * (p.1 - a.1) - (b.1 - a.1) * (p.0 - a.0);
                if cross <= EPS {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(p);
        }
        // Drop the synthetic far point; its direction becomes the slope.
        let far = hull.pop().expect("hull is non-empty");
        let last = *hull.last().expect("the origin is always on the hull");
        let final_slope = (far.1 - last.1) / (far.0 - last.0);
        PiecewiseLinear::new(hull, final_slope)
    }
}

impl fmt::Display for PiecewiseLinear {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PL[")?;
        for (i, (x, y)) in self.points.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({x:.4}, {y:.4})")?;
        }
        write!(f, "] slope {:.4}", self.final_slope)
    }
}

/// Collects the union of breakpoint x-coordinates of two curves.
fn merged_xs(a: &PiecewiseLinear, b: &PiecewiseLinear) -> Vec<f64> {
    let mut xs: Vec<f64> = a
        .points
        .iter()
        .chain(b.points.iter())
        .map(|&(x, _)| x)
        .collect();
    xs.sort_by(|p, q| p.partial_cmp(q).expect("finite"));
    xs.dedup_by(|p, q| (*p - *q).abs() < EPS);
    xs
}

/// Exact pointwise combination of two PL curves under `sel` (min or max).
fn combine(a: &PiecewiseLinear, b: &PiecewiseLinear, sel: fn(f64, f64) -> f64) -> PiecewiseLinear {
    let mut xs = merged_xs(a, b);
    // Add intersection points between consecutive sample xs.
    let mut extra = Vec::new();
    let far = xs.last().copied().unwrap_or(0.0) + 1.0;
    let mut probe = xs.clone();
    probe.push(far);
    for w in probe.windows(2) {
        let (x0, x1) = (w[0], w[1]);
        let fa0 = a.value(x0);
        let fb0 = b.value(x0);
        let sa = segment_slope(a, x0);
        let sb = segment_slope(b, x0);
        let d0 = fa0 - fb0;
        let dslope = sa - sb;
        if dslope.abs() > EPS {
            let xc = x0 - d0 / dslope;
            if xc > x0 + EPS && xc < x1 - EPS {
                extra.push(xc);
            }
        }
    }
    // Intersection in the open-ended tail region.
    {
        let x0 = *xs.last().expect("non-empty");
        let d0 = a.value(x0) - b.value(x0);
        let dslope = a.final_slope - b.final_slope;
        if dslope.abs() > EPS {
            let xc = x0 - d0 / dslope;
            if xc > x0 + EPS {
                extra.push(xc);
            }
        }
    }
    xs.extend(extra);
    xs.sort_by(|p, q| p.partial_cmp(q).expect("finite"));
    xs.dedup_by(|p, q| (*p - *q).abs() < EPS);

    let points: Vec<(f64, f64)> = xs
        .iter()
        .map(|&x| (x, sel(a.value(x), b.value(x))))
        .collect();
    // Final slope: whichever curve is selected at infinity.
    let lx = *xs.last().expect("non-empty");
    let (va, vb) = (a.value(lx), b.value(lx));
    let slope = if (va - vb).abs() < EPS {
        sel(a.final_slope, b.final_slope)
    } else if sel(va, vb) == va {
        a.final_slope
    } else {
        b.final_slope
    };
    PiecewiseLinear::new(points, slope)
}

/// Slope of the segment of `f` that starts at breakpoint-or-later `x`
/// (i.e. the right-derivative at `x`).
fn segment_slope(f: &PiecewiseLinear, x: f64) -> f64 {
    let pts = &f.points;
    let (lx, _) = *pts.last().expect("non-empty");
    if x >= lx - EPS {
        return f.final_slope;
    }
    let mut i = 0;
    while i + 1 < pts.len() && pts[i + 1].0 <= x + EPS {
        i += 1;
    }
    let (x0, y0) = pts[i];
    let (x1, y1) = pts[i + 1];
    (y1 - y0) / (x1 - x0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate_latency(rate: f64, latency: f64) -> PiecewiseLinear {
        if latency == 0.0 {
            PiecewiseLinear::new(vec![(0.0, 0.0)], rate)
        } else {
            PiecewiseLinear::new(vec![(0.0, 0.0), (latency, 0.0)], rate)
        }
    }

    #[test]
    fn value_interpolates_and_extends() {
        let f = PiecewiseLinear::new(vec![(0.0, 1.0), (2.0, 5.0)], 0.5);
        assert_eq!(f.value(0.0), 1.0);
        assert_eq!(f.value(1.0), 3.0);
        assert_eq!(f.value(2.0), 5.0);
        assert_eq!(f.value(4.0), 6.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_points() {
        let _ = PiecewiseLinear::new(vec![(0.0, 0.0), (2.0, 1.0), (1.0, 2.0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "first breakpoint")]
    fn rejects_nonzero_origin() {
        let _ = PiecewiseLinear::new(vec![(1.0, 0.0)], 0.0);
    }

    #[test]
    fn normalize_drops_collinear_points() {
        let f = PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 4.0), (3.0, 7.0)], 3.0);
        // (1,2) and (2,4) lie on slope-2 then slope-3 lines; (1,2) collinear
        // with (0,0)->(2,4), and (2,4)->(3,7) collinear with final slope 3.
        assert_eq!(f.breakpoints(), &[(0.0, 0.0), (2.0, 4.0)]);
    }

    #[test]
    fn inverse_basic() {
        let f = rate_latency(2.0, 3.0); // 0 until 3, then slope 2
        assert_eq!(f.inverse(0.0), Some(0.0));
        assert_eq!(f.inverse(4.0), Some(5.0));
        let flat = PiecewiseLinear::constant(1.0);
        assert_eq!(flat.inverse(2.0), None);
        assert_eq!(flat.inverse(1.0), Some(0.0));
    }

    #[test]
    fn inverse_returns_left_edge_of_plateau() {
        let f = PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 2.0), (3.0, 2.0)], 1.0);
        // f reaches 2 at t=1 and stays there until 3.
        assert_eq!(f.inverse(2.0), Some(1.0));
    }

    #[test]
    fn add_and_scale() {
        let f = PiecewiseLinear::affine(1.0, 2.0);
        let g = rate_latency(3.0, 1.0);
        let s = f.add(&g);
        assert_eq!(s.value(0.0), 1.0);
        assert_eq!(s.value(1.0), 3.0);
        assert_eq!(s.value(2.0), 5.0 + 3.0);
        let d = f.scale(2.0);
        assert_eq!(d.value(3.0), 14.0);
    }

    #[test]
    fn shift_right_moves_breakpoints() {
        let f = PiecewiseLinear::affine(0.0, 1.0);
        let g = f.shift_right(2.0);
        assert_eq!(g.value(1.0), 0.0);
        assert_eq!(g.value(5.0), 3.0);
    }

    #[test]
    fn min_of_crossing_lines_has_intersection_breakpoint() {
        let f = PiecewiseLinear::affine(0.0, 2.0); // 2t
        let g = PiecewiseLinear::affine(3.0, 1.0); // 3 + t
        let m = f.min(&g); // cross at t = 3
        assert_eq!(m.value(0.0), 0.0);
        assert_eq!(m.value(3.0), 6.0);
        assert_eq!(m.value(5.0), 8.0); // follows g after crossing
        assert!(m.breakpoints().iter().any(|&(x, _)| (x - 3.0).abs() < 1e-9));
        assert_eq!(m.final_slope(), 1.0);
    }

    #[test]
    fn max_of_crossing_lines() {
        let f = PiecewiseLinear::affine(0.0, 2.0);
        let g = PiecewiseLinear::affine(3.0, 1.0);
        let m = f.max(&g);
        assert_eq!(m.value(0.0), 3.0);
        assert_eq!(m.value(3.0), 6.0);
        assert_eq!(m.value(5.0), 10.0);
        assert_eq!(m.final_slope(), 2.0);
    }

    #[test]
    fn min_max_sample_agreement() {
        let f = PiecewiseLinear::new(vec![(0.0, 0.0), (2.0, 6.0), (5.0, 7.0)], 2.0);
        let g = PiecewiseLinear::new(vec![(0.0, 1.0), (3.0, 4.0)], 1.5);
        let mn = f.min(&g);
        let mx = f.max(&g);
        for i in 0..200 {
            let t = i as f64 * 0.05;
            let (fv, gv) = (f.value(t), g.value(t));
            assert!(
                (mn.value(t) - fv.min(gv)).abs() < 1e-9,
                "min mismatch at {t}"
            );
            assert!(
                (mx.value(t) - fv.max(gv)).abs() < 1e-9,
                "max mismatch at {t}"
            );
        }
    }

    #[test]
    fn tail_intersection_is_found() {
        // Curves that only cross after the last breakpoint.
        let f = PiecewiseLinear::affine(0.0, 1.0);
        let g = PiecewiseLinear::new(vec![(0.0, 10.0), (1.0, 10.0)], 0.0);
        let m = f.min(&g); // crosses at t = 10
        assert_eq!(m.value(9.0), 9.0);
        assert_eq!(m.value(11.0), 10.0);
    }

    #[test]
    fn clamp_non_negative() {
        let f = PiecewiseLinear::affine(-2.0, 1.0);
        let g = f.clamp_non_negative();
        assert_eq!(g.value(0.0), 0.0);
        assert_eq!(g.value(1.0), 0.0);
        assert_eq!(g.value(3.0), 1.0);
    }

    #[test]
    fn is_non_decreasing() {
        assert!(PiecewiseLinear::affine(1.0, 0.0).is_non_decreasing());
        assert!(rate_latency(2.0, 1.0).is_non_decreasing());
        let dec = PiecewiseLinear::new(vec![(0.0, 5.0), (1.0, 3.0)], 0.0);
        assert!(!dec.is_non_decreasing());
    }

    #[test]
    fn convex_hull_of_convex_curve_is_identity() {
        let f = rate_latency(2.0, 3.0);
        let h = f.convex_lower_hull();
        for i in 0..100 {
            let t = i as f64 * 0.25;
            assert!((h.value(t) - f.value(t)).abs() < 1e-9);
        }
        assert!((h.final_slope() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn convex_hull_lower_bounds_staircase() {
        // A staircase-like curve with alternating flat/steep segments.
        let f = PiecewiseLinear::new(
            vec![(0.0, 0.0), (1.0, 0.0), (2.0, 3.0), (4.0, 3.5), (5.0, 6.0)],
            1.0,
        );
        let h = f.convex_lower_hull();
        // Below the curve everywhere...
        for i in 0..200 {
            let t = i as f64 * 0.05;
            assert!(h.value(t) <= f.value(t) + 1e-9, "hull above curve at {t}");
        }
        // ...convex (non-decreasing slopes)...
        let bps = h.breakpoints();
        let mut last_slope = f64::NEG_INFINITY;
        for w in bps.windows(2) {
            let s = (w[1].1 - w[0].1) / (w[1].0 - w[0].0);
            assert!(s >= last_slope - 1e-9, "hull not convex");
            last_slope = s;
        }
        assert!(h.final_slope() >= last_slope - 1e-9);
        // ...and touches the curve at the hull vertices.
        for &(x, y) in bps {
            assert!(
                (f.value(x) - y).abs() < 1e-9,
                "hull vertex off the curve at {x}"
            );
        }
    }

    #[test]
    fn convex_hull_usable_in_convolution() {
        use crate::ops::convolve_convex;
        let bumpy = PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 2.5), (3.0, 5.0)], 1.0);
        let hull = bumpy.convex_lower_hull();
        let other = rate_latency(1.5, 0.5);
        let conv = convolve_convex(&hull, &other);
        assert!(conv.is_non_decreasing());
    }

    #[test]
    fn display_is_nonempty() {
        let f = PiecewiseLinear::affine(1.0, 2.0);
        assert!(f.to_string().contains("PL["));
    }
}
