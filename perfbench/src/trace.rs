//! In-memory span recording for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions (`<layer>.<call>`), kept in memory and reduced when
//! the run ends. A disabled tracer runs the same closures without reading
//! a clock, which is what the trace overhead is measured against.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (one learn, one check, one delta) the span belongs to.
    pub op: u32,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The layer a span is charged to: the part of its name before the
    /// first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    op: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Attributes the spans that follow to operation `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Per-operation totals of the spans named `name`, in milliseconds, one
/// entry per operation that has any.
pub fn per_op_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_op: BTreeMap<u32, Duration> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_op.entry(s.op).or_default() += s.duration();
    }
    by_op.values().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// Each layer's share of the self time of the operation trees (spans
/// under an `op.*` root, the root included: a root is charged its glue
/// time). Spans under other roots, such as separate per-layer passes,
/// are left out.
pub fn layer_shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut root: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        // A parent is always recorded before its children.
        root.push(s.parent.map_or(i, |p| root[p]));
    }
    let mut shares: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut total = 0.0;
    for (i, (s, t)) in spans.iter().zip(&selfs).enumerate() {
        if spans[root[i]].layer() == "op" {
            *shares.entry(s.layer()).or_default() += t.as_secs_f64();
            total += t.as_secs_f64();
        }
    }
    if total > 0.0 {
        shares.values_mut().for_each(|v| *v /= total);
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100] ─ a [10,40] ─ c [20,30]
        //            └ b [50,90]
        let spans = vec![
            span("op.learn", 0, 100, None),
            span("pyast.parse", 10, 40, Some(0)),
            span("solver.solve", 50, 90, Some(0)),
            span("intern.len", 20, 30, Some(1)),
        ];
        let ms: Vec<u64> = self_times(&spans)
            .iter()
            .map(|d| d.as_millis() as u64)
            .collect();
        assert_eq!(ms, [30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("core.fanout", 0, 100, None),
            span("pyast.parse", 10, 60, Some(0)),
            span("pyast.parse", 40, 80, Some(0)),
            span("propgraph.build", 90, 130, Some(0)),
        ];
        // Children cover [10,80] and [90,100]: 80 ms of the parent's 100.
        assert_eq!(self_times(&spans)[0], Duration::from_millis(20));
    }

    #[test]
    fn shares_sum_to_one_by_layer() {
        let spans = vec![
            span("op.learn", 0, 100, None),
            span("pyast.parse", 0, 30, Some(0)),
            span("pyast.parse", 30, 60, Some(0)),
            span("solver.solve", 60, 90, Some(0)),
            span("pass.frontend", 100, 200, None),
            span("pyast.parse", 100, 200, Some(4)),
        ];
        let shares = layer_shares(&spans);
        assert!(
            !shares.contains_key("pass"),
            "non-operation roots are left out"
        );
        assert!((shares["pyast"] - 0.6).abs() < 1e-9);
        assert!((shares["solver"] - 0.3).abs() < 1e-9);
        assert!((shares["op"] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_op(3);
        let v = t.span("op.check", |t| t.span("taint.find", |_| 7));
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[1].parent, s[1].op), (Some(0), 3));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert_eq!(per_op_ms(s, "taint.find").len(), 1);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("op.check", |t| t.span("taint.find", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
