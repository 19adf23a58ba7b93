//! The benchmark's own span recorder: one span around each call into a
//! layer of the program, kept in memory and written out at exit.
//!
//! A recorder belongs to one thread. A span's parent is the span that
//! was open when it started; its self time is its duration minus the
//! part of that interval its children cover.

use std::time::Instant;

use crate::layers::JsonValue;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or `NO_PARENT`.
    pub parent: u32,
    /// The op (statement execution) this span belongs to.
    pub op: u32,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Recorder {
    /// `epoch` is shared by the recorders of one run, so their spans
    /// line up in the trace file.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Recorder {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Spans recorded from now on carry this op id.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name` (just runs it when disabled).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in nanoseconds: duration minus the union of
/// the children's intervals (clipped to the parent, so overlapping or
/// overhanging children are never subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (start, end) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if start < end {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Chrome trace events (`ph: "X"`), one track per recorder.
pub fn chrome_trace(tracks: &[&[Span]]) -> JsonValue {
    let mut events = Vec::new();
    for (tid, spans) in tracks.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1.0
            } else {
                f64::from(s.parent)
            };
            events.push(JsonValue::obj([
                ("name", JsonValue::str(s.name)),
                ("ph", JsonValue::str("X")),
                ("ts", JsonValue::Num(s.start_ns as f64 / 1e3)),
                ("dur", JsonValue::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", JsonValue::Num(1.0)),
                ("tid", JsonValue::Num(tid as f64)),
                (
                    "args",
                    JsonValue::obj([
                        ("span", JsonValue::Num(id as f64)),
                        ("parent", JsonValue::Num(parent)),
                        ("op", JsonValue::Num(f64::from(s.op))),
                    ]),
                ),
            ]));
        }
    }
    JsonValue::obj([("traceEvents", JsonValue::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span("op", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("a.inner", 15, 25, 1),
            span("b", 50, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root: they sum to its duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = [
            span("op", 0, 100, NO_PARENT),
            span("x", 10, 60, 0),
            span("y", 40, 80, 0),  // overlaps x
            span("z", 90, 130, 0), // overhangs the parent
            span("w", 20, 30, 0),  // inside x's interval
        ];
        // Union of children inside [0,100] = [10,80] ∪ [90,100] = 80.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorder_links_parents_and_ops() {
        let mut rec = Recorder::new(true, Instant::now());
        rec.set_op(7);
        rec.span("outer", |rec| {
            rec.span("inner", |_| ());
        });
        let mut off = Recorder::new(false, Instant::now());
        assert_eq!(off.span("ignored", |_| 5), 5);
        assert!(off.spans().is_empty());
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", NO_PARENT, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", 0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let json = chrome_trace(&[s]).render();
        assert!(json.contains("\"traceEvents\"") && json.contains("\"inner\""));
    }
}
