//! Driver-side spans: one per `open` / `send` / `recv` / `close`, each
//! the child of the lockstep round that issued it.
//!
//! Spans live in a preallocated vector and are written out only when the
//! run ends. Once the vector is full the driver keeps reading its clocks
//! (so the traced run's overhead stays constant) but stores nothing;
//! rounds are recorded whole or not at all, so every stored parent has
//! all of its children.

use serde::value::Value;
use std::time::Instant;

/// Marks a span that belongs to no stream (a round).
pub const NO_STREAM: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Driver stream slot, or [`NO_STREAM`].
    pub stream: u32,
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    capacity: usize,
    /// Rounds that found the log full.
    pub rounds_dropped: u64,
}

impl SpanLog {
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            capacity,
            rounds_dropped: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a round span if the log still has room for it and its
    /// `children`; the returned index parents the round's child spans.
    pub fn open_round(&mut self, children: usize, at: Instant) -> Option<u32> {
        if self.spans.len() + 1 + children > self.capacity {
            self.rounds_dropped += 1;
            return None;
        }
        let start_ns = self.ns(at);
        self.spans.push(Span {
            name: "round",
            start_ns,
            end_ns: start_ns,
            parent: None,
            stream: NO_STREAM,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Records one client call inside an open round (no-op for a dropped
    /// round).
    pub fn child(
        &mut self,
        round: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
        stream: usize,
    ) {
        if round.is_none() {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: round,
            stream: stream as u32,
        });
    }

    pub fn close_round(&mut self, round: Option<u32>, at: Instant) {
        if let Some(index) = round {
            self.spans[index as usize].end_ns = self.ns(at);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_value(&self) -> Value {
        Value::Seq(
            self.spans
                .iter()
                .map(|s| {
                    Value::Map(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("start_ns".into(), Value::Int(s.start_ns as i128)),
                        ("end_ns".into(), Value::Int(s.end_ns as i128)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::Int(p as i128)),
                        ),
                        (
                            "stream".into(),
                            if s.stream == NO_STREAM {
                                Value::Null
                            } else {
                                Value::Int(s.stream as i128)
                            },
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover. Overlapping children are subtracted once
/// (the union of their intervals, clipped to the parent), so a parent
/// fully covered twice over still has self time 0, never negative.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    // Sweep children in start order, remembering per parent how far its
    // interval is already covered.
    let mut order: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent.is_some())
        .collect();
    order.sort_by_key(|&i| (spans[i].start_ns, spans[i].end_ns));
    let mut covered_until: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for i in order {
        let p = spans[i].parent.expect("filtered on parent") as usize;
        let start = spans[i].start_ns.max(covered_until[p]);
        let end = spans[i].end_ns.min(spans[p].end_ns);
        if end > start {
            own[p] -= end - start;
            covered_until[p] = end;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            stream: NO_STREAM,
        }
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let spans = [
            span("round", 0, 100, None),
            span("send", 10, 30, Some(0)),
            span("recv", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = [
            span("round", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 45, 50, Some(0)),
        ];
        // Union of the children is [10, 80): 70 ns covered, not 95.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_order_does_not_matter() {
        let spans = [
            span("late", 90, 140, Some(2)),
            span("early", 0, 20, Some(2)),
            span("round", 10, 100, None),
        ];
        // [10, 20) + [90, 100) covered.
        assert_eq!(self_times_ns(&spans)[2], 70);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span("round", 0, 100, None),
            span("recv", 20, 80, Some(0)),
            span("inner", 30, 40, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 50, 10]);
    }

    #[test]
    fn a_full_log_drops_whole_rounds() {
        let mut log = SpanLog::with_capacity(3);
        let t = Instant::now();
        let first = log.open_round(2, t);
        assert_eq!(first, Some(0));
        log.child(first, "send", t, t, 0);
        log.child(first, "recv", t, t, 0);
        log.close_round(first, t);
        let second = log.open_round(2, t);
        assert_eq!(second, None);
        log.child(second, "send", t, t, 0);
        log.close_round(second, t);
        assert_eq!(log.spans().len(), 3);
        assert_eq!(log.rounds_dropped, 1);
    }
}
