//! In-memory span recorder for the traced run.
//!
//! A span holds a name, start and end (ns since the recorder was made),
//! its parent span and the id of the unit of work it belongs to. Spans
//! stay in memory and are written once, when the benchmark ends. A
//! disabled recorder runs the wrapped call and records nothing, so the
//! untraced run pays no clock reads for it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call this span wraps.
    pub name: &'static str,
    /// Start, ns since the recorder origin.
    pub start: u64,
    /// End, ns since the recorder origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The unit of work (run, round, search, scenario) the span serves.
    pub unit: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans and exact counts.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// A recorder; `enabled = false` makes every call a pass-through.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
            counts: BTreeMap::new(),
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, unit: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            unit,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        self.last_closed = Some(idx);
        out
    }

    /// Duration of the most recently recorded span that closed, in ns
    /// (0 when disabled).
    pub fn last_closed_ns(&self) -> u64 {
        self.last_closed.map_or(0, |i| self.spans[i].dur())
    }

    /// Adds `n` to the exact count `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// The exact count `name` (0 if never added to).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64)
            .collect()
    }

    /// Total duration (ns) of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum()
    }

    /// Total self time (ns) of every span named `name`.
    pub fn total_self_ns(&self, name: &str) -> u64 {
        let children = children_index(&self.spans);
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, _)| self_time(&self.spans, &children, i))
            .sum()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{}}}",
                s.name, s.start, s.end, s.unit
            );
        }
        out
    }
}

/// For every span, the indices of its direct children.
pub fn children_index(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut children = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    children
}

/// Self time of span `idx`: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (work
/// fanned out to several threads) or run past the parent; each instant
/// of the parent's interval is subtracted at most once.
pub fn self_time(spans: &[Span], children: &[Vec<usize>], idx: usize) -> u64 {
    let parent = &spans[idx];
    let mut iv: Vec<(u64, u64)> = children[idx]
        .iter()
        .map(|&c| {
            (
                spans[c].start.clamp(parent.start, parent.end),
                spans[c].end.clamp(parent.start, parent.end),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    parent.dur() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            start,
            end,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // 0..100 with children 10..30 and 40..50; 20..25 is a grandchild
        // and must not be subtracted from the root a second time.
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 25, Some(1)),
            span(40, 50, Some(0)),
        ];
        let ch = children_index(&spans);
        assert_eq!(self_time(&spans, &ch, 0), 70);
        assert_eq!(self_time(&spans, &ch, 1), 15);
        assert_eq!(self_time(&spans, &ch, 2), 5);
        assert_eq!(self_time(&spans, &ch, 3), 10);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two children overlap on 20..30 and one runs past the parent's
        // end: covered = 10..40 (30) + 90..100 (10).
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 40, Some(0)),
            span(90, 130, Some(0)),
            span(15, 35, Some(0)),
        ];
        let ch = children_index(&spans);
        assert_eq!(self_time(&spans, &ch, 0), 60);
    }

    #[test]
    fn recorder_nests_and_reports_last_closed() {
        let mut rec = Recorder::new(true);
        let v = rec.span("outer", 7, |rec| rec.span("inner", 7, |_| 41) + 1);
        assert_eq!(v, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].unit, 7);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(rec.last_closed_ns(), spans[0].dur());
        assert_eq!(rec.total_self_ns("outer"), spans[0].dur() - spans[1].dur());
        assert_eq!(rec.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", 0, |_| 3), 3);
        rec.add("c", 5);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.count("c"), 0);
    }
}
