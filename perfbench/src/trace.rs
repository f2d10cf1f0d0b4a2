//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions. Nothing here reaches into the program: a
//! span covers exactly one call the benchmark makes.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span, used as the parent of nested spans.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the call crosses, e.g. `campaign.cosim.new`.
    pub name: &'static str,
    /// The campaign point index or run number the call belongs to.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created; equal to `start` while open.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Aggregate of every span of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration in seconds.
    pub total_s: f64,
    /// Summed duration minus the time covered by child spans.
    pub self_s: f64,
}

/// Span recorder. Spans stay in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<SpanId>) -> SpanId {
        let now = self.now();
        self.spans.push(Span {
            name,
            id,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: SpanId) {
        self.spans[span].end = self.now();
    }

    /// Runs `f` inside a span with no children.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, id, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of the spans named `name`, in opening order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Summed duration in seconds of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.seconds();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            let t = out.entry(s.name).or_insert(SpanTotals {
                count: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
            t.count += 1;
            t.total_s += s.seconds();
            t.self_s += s.seconds() - children;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.open("outer", 0, None);
        t.leaf("inner", 0, Some(outer), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(outer);
        let totals = t.totals();
        let outer = &totals["outer"];
        let inner = &totals["inner"];
        assert_eq!(outer.count, 1);
        assert!(inner.total_s >= 0.002);
        assert!(outer.total_s >= inner.total_s);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-12);
        assert_eq!(t.durations("inner").len(), 1);
    }
}
