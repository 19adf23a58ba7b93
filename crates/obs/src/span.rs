//! Span types and the builders that record them.
//!
//! Two span shapes cover the whole query lifecycle:
//!
//! * [`Span`] — a named **phase** (queue wait, cache lookup, prepare,
//!   execute) with explicit parent links, recorded by the service worker
//!   or a harness experiment through a [`QueryTraceBuilder`].
//! * [`OpSpan`] — one **operator evaluation** inside the relational
//!   executor, recorded by an [`OpTraceBuilder`] that the interpreter
//!   drives from its existing materialisation points: one span per
//!   evaluation (a shared node's reused occurrences get none), so summing
//!   `rows` per node reproduces the `explain_analyze` actuals exactly.
//!
//! All timestamps are microseconds relative to a [`TraceClock`] epoch, so
//! spans from the service worker and from the executor share one timeline
//! and a Chrome-trace export nests them by plain time containment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Identifier of a recorded span; `0` means "no parent" (a root span).
pub type SpanId = u64;

/// A monotonic microsecond clock anchored at an epoch. Cheap to copy;
/// every builder that should share a timeline is handed the same clock.
#[derive(Clone, Copy, Debug)]
pub struct TraceClock {
    epoch: Instant,
}

impl TraceClock {
    /// A clock anchored at "now".
    pub fn new() -> Self {
        TraceClock {
            epoch: Instant::now(),
        }
    }

    /// Microseconds elapsed since the epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Microseconds between the epoch and `t` (0 when `t` predates it).
    pub fn us_of(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_micros() as u64)
    }
}

impl Default for TraceClock {
    fn default() -> Self {
        TraceClock::new()
    }
}

/// A tag value attached to a phase span.
#[derive(Debug, Clone, PartialEq)]
pub enum TagValue {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
}

impl From<bool> for TagValue {
    fn from(v: bool) -> Self {
        TagValue::Bool(v)
    }
}
impl From<u64> for TagValue {
    fn from(v: u64) -> Self {
        TagValue::Int(v)
    }
}
impl From<usize> for TagValue {
    fn from(v: usize) -> Self {
        TagValue::Int(v as u64)
    }
}
impl From<f64> for TagValue {
    fn from(v: f64) -> Self {
        TagValue::Num(v)
    }
}
impl From<&str> for TagValue {
    fn from(v: &str) -> Self {
        TagValue::Str(v.to_string())
    }
}
impl From<String> for TagValue {
    fn from(v: String) -> Self {
        TagValue::Str(v)
    }
}

/// One lifecycle phase of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    /// Parent span id; `0` for a root.
    pub parent: SpanId,
    /// Phase name: `"query"`, `"queue"`, `"cache"`, `"prepare"`,
    /// `"execute"` in the service; experiment-defined in the harness.
    pub name: &'static str,
    /// Start, microseconds since the trace clock's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    pub tags: Vec<(&'static str, TagValue)>,
}

impl Span {
    /// End timestamp (start + duration).
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }

    /// Whether `other` lies entirely within this span's time range.
    pub fn contains(&self, start_us: u64, end_us: u64) -> bool {
        self.start_us <= start_us && end_us <= self.end_us()
    }
}

/// One evaluation of one physical operator.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSpan {
    /// Pre-order plan node id.
    pub node: u32,
    /// Operator kind (`PhysOp::kind()`), e.g. `"HashJoin"`.
    pub kind: &'static str,
    /// Start, microseconds since the trace clock's epoch.
    pub start_us: u64,
    /// Inclusive duration (this evaluation plus its children).
    pub dur_us: u64,
    /// Exclusive duration: `dur_us` minus time spent in child
    /// evaluations — what this operator itself cost.
    pub self_us: u64,
    /// The planner's row estimate for the node.
    pub est_rows: f64,
    /// Rows materialised by this evaluation.
    pub rows: usize,
}

impl OpSpan {
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

/// A complete trace of one query: phase spans plus (for the relational
/// backend) per-operator spans, all on one clock.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Tracer-unique id, also the Chrome-trace `tid` so every query gets
    /// its own track in Perfetto.
    pub trace_id: u64,
    /// The query text (canonical form when traced by the service).
    pub query: String,
    /// Phase spans, in recording order.
    pub phases: Vec<Span>,
    /// Per-operator spans (empty for non-relational execution).
    pub ops: Vec<OpSpan>,
    /// End-to-end duration of the traced query in microseconds.
    pub total_us: u64,
}

impl QueryTrace {
    /// The first phase span with the given name, if any.
    pub fn phase(&self, name: &str) -> Option<&Span> {
        self.phases.iter().find(|s| s.name == name)
    }

    /// Sum of `rows` over this node's operator spans — equals the
    /// `explain_analyze` actual for the node.
    pub fn op_rows(&self, node: u32) -> usize {
        self.ops
            .iter()
            .filter(|s| s.node == node)
            .map(|s| s.rows)
            .sum()
    }
}

/// An open phase span handed out by [`QueryTraceBuilder::begin`].
#[derive(Debug)]
#[must_use = "an unfinished span is silently dropped"]
pub struct PendingSpan {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start_us: u64,
}

/// Records the phase spans of one query. Single-threaded and lock-free;
/// span ids come from a shared atomic sequence so ids stay unique across
/// concurrent workers of one tracer.
#[derive(Debug)]
pub struct QueryTraceBuilder {
    clock: TraceClock,
    ids: Arc<AtomicU64>,
    trace_id: u64,
    query: String,
    spans: Vec<Span>,
    /// Stack of open span ids; `begin` nests under the top.
    open: Vec<SpanId>,
    ops: Vec<OpSpan>,
}

impl QueryTraceBuilder {
    pub(crate) fn new(
        clock: TraceClock,
        ids: Arc<AtomicU64>,
        trace_id: u64,
        query: String,
    ) -> Self {
        QueryTraceBuilder {
            clock,
            ids,
            trace_id,
            query,
            spans: Vec::new(),
            open: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// A builder with its own clock and id sequence, for standalone use
    /// (harness experiments) outside any [`crate::Tracer`].
    pub fn standalone(query: impl Into<String>) -> Self {
        QueryTraceBuilder::new(
            TraceClock::new(),
            Arc::new(AtomicU64::new(1)),
            1,
            query.into(),
        )
    }

    /// The clock this builder stamps spans with.
    pub fn clock(&self) -> TraceClock {
        self.clock
    }

    fn next_id(&self) -> SpanId {
        self.ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a phase span starting now, nested under the innermost open
    /// span (a root span when none is open).
    pub fn begin(&mut self, name: &'static str) -> PendingSpan {
        let id = self.next_id();
        let parent = self.open.last().copied().unwrap_or(0);
        self.open.push(id);
        PendingSpan {
            id,
            parent,
            name,
            start_us: self.clock.now_us(),
        }
    }

    /// Closes a span opened with [`begin`](Self::begin), returning its
    /// duration in microseconds.
    pub fn end(&mut self, pending: PendingSpan) -> u64 {
        self.end_tagged(pending, Vec::new())
    }

    /// Closes a span and attaches tags; returns the duration.
    pub fn end_tagged(&mut self, pending: PendingSpan, tags: Vec<(&'static str, TagValue)>) -> u64 {
        let end = self.clock.now_us();
        let dur = end.saturating_sub(pending.start_us);
        // Tolerate out-of-order ends: drop this id wherever it sits.
        if let Some(pos) = self.open.iter().rposition(|&id| id == pending.id) {
            self.open.remove(pos);
        }
        self.spans.push(Span {
            id: pending.id,
            parent: pending.parent,
            name: pending.name,
            start_us: pending.start_us,
            dur_us: dur,
            tags,
        });
        dur
    }

    /// Records a span from explicit timestamps — used by the service to
    /// back-fill phases it measured with plain `Instant`s (queue wait is
    /// only known at pickup). Returns the span id for use as a parent.
    pub fn add_span(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start_us: u64,
        dur_us: u64,
        tags: Vec<(&'static str, TagValue)>,
    ) -> SpanId {
        let id = self.next_id();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_us,
            dur_us,
            tags,
        });
        id
    }

    /// Attaches the per-operator spans of the execution.
    pub fn set_ops(&mut self, ops: Vec<OpSpan>) {
        self.ops = ops;
    }

    /// Finalises the trace. `total_us` is derived from the span extent
    /// so it covers back-filled spans too.
    pub fn finish(self) -> QueryTrace {
        let start = self.spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let end = self
            .spans
            .iter()
            .map(Span::end_us)
            .chain(self.ops.iter().map(OpSpan::end_us))
            .max()
            .unwrap_or(start);
        QueryTrace {
            trace_id: self.trace_id,
            query: self.query,
            phases: self.spans,
            ops: self.ops,
            total_us: end.saturating_sub(start),
        }
    }
}

/// Upper bound on stored operator spans per execution: a runaway
/// fixpoint keeps counting rows but stops allocating span memory.
pub const OP_SPAN_CAP: usize = 65_536;

/// Records per-operator spans inside the relational interpreter. Owned
/// by the (single-threaded) interpreter, so recording is two `Vec`
/// pushes and an `Instant` read per operator — no locks, no atomics.
///
/// The builder also maintains the per-node `actuals` vector that
/// `explain_analyze` renders, which is what unifies the explain path
/// and the tracer on one recording.
#[derive(Debug)]
pub struct OpTraceBuilder {
    clock: TraceClock,
    actuals: Vec<usize>,
    spans: Vec<OpSpan>,
    /// Child-time accumulators for the open evaluations: `enter` pushes
    /// a zero, `exit` pops its own accumulator and adds its inclusive
    /// duration to the new top, so `self_us = dur - children`.
    stack: Vec<u64>,
}

impl OpTraceBuilder {
    /// A builder for a plan of `node_count` pre-order nodes, stamping
    /// spans against `clock`.
    pub fn new(node_count: usize, clock: TraceClock) -> Self {
        OpTraceBuilder {
            clock,
            actuals: vec![0; node_count],
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Marks the start of one operator evaluation; returns the start
    /// timestamp to hand back to [`exit`](Self::exit).
    pub fn enter(&mut self) -> u64 {
        self.stack.push(0);
        self.clock.now_us()
    }

    /// Marks the end of a successful evaluation of node `node` that
    /// materialised `rows` rows.
    pub fn exit(
        &mut self,
        node: u32,
        kind: &'static str,
        est_rows: f64,
        rows: usize,
        start_us: u64,
    ) {
        let dur = self.clock.now_us().saturating_sub(start_us);
        let children = self.stack.pop().unwrap_or(0);
        if let Some(top) = self.stack.last_mut() {
            *top += dur;
        }
        if let Some(n) = self.actuals.get_mut(node as usize) {
            *n += rows;
        }
        if self.spans.len() < OP_SPAN_CAP {
            self.spans.push(OpSpan {
                node,
                kind,
                start_us,
                dur_us: dur,
                self_us: dur.saturating_sub(children),
                est_rows,
                rows,
            });
        }
    }

    /// Unwinds one evaluation frame after an error; the time still
    /// charges to the enclosing operator so outer self-times stay sane.
    pub fn exit_err(&mut self, start_us: u64) {
        let dur = self.clock.now_us().saturating_sub(start_us);
        self.stack.pop();
        if let Some(top) = self.stack.last_mut() {
            *top += dur;
        }
    }

    /// Rows recorded so far for `node`.
    pub fn rows_of(&self, node: u32) -> usize {
        self.actuals.get(node as usize).copied().unwrap_or(0)
    }

    /// Consumes the builder: `(actuals, spans)`.
    pub fn finish(self) -> (Vec<usize>, Vec<OpSpan>) {
        (self.actuals, self.spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_nests_and_times_phases() {
        let mut tb = QueryTraceBuilder::standalone("q");
        let root = tb.begin("query");
        let inner = tb.begin("execute");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tb.end(inner);
        tb.end(root);
        let trace = tb.finish();
        assert_eq!(trace.phases.len(), 2);
        let (exec, query) = (&trace.phases[0], &trace.phases[1]);
        assert_eq!(exec.name, "execute");
        assert_eq!(query.name, "query");
        assert_eq!(exec.parent, query.id);
        assert_eq!(query.parent, 0);
        assert!(exec.dur_us >= 2_000);
        assert!(query.contains(exec.start_us, exec.end_us()));
        assert!(trace.total_us >= query.dur_us);
    }

    #[test]
    fn add_span_backfills_with_explicit_times() {
        let mut tb = QueryTraceBuilder::standalone("q");
        let root = tb.add_span("query", 0, 10, 100, vec![("rows", 7usize.into())]);
        tb.add_span("queue", root, 10, 40, Vec::new());
        tb.add_span("execute", root, 50, 60, Vec::new());
        let trace = tb.finish();
        assert_eq!(trace.total_us, 100);
        let queue = trace.phase("queue").unwrap();
        assert_eq!(queue.parent, root);
        let query = trace.phase("query").unwrap();
        assert!(query.contains(queue.start_us, queue.end_us()));
        assert_eq!(query.tags, vec![("rows", TagValue::Int(7))],);
    }

    #[test]
    fn op_builder_accumulates_actuals_and_self_time() {
        let clock = TraceClock::new();
        let mut ob = OpTraceBuilder::new(3, clock);
        // Node 0 (parent) evaluates node 1 (child) twice inside it.
        let s0 = ob.enter();
        let s1 = ob.enter();
        ob.exit(1, "NodeScan", 4.0, 5, s1);
        let s1 = ob.enter();
        ob.exit(1, "NodeScan", 4.0, 3, s1);
        ob.exit(0, "HashJoin", 10.0, 8, s0);
        assert_eq!(ob.rows_of(1), 8);
        let (actuals, spans) = ob.finish();
        assert_eq!(actuals, vec![8, 8, 0]);
        assert_eq!(spans.len(), 3);
        let parent = spans.last().unwrap();
        assert_eq!(parent.node, 0);
        assert_eq!(parent.rows, 8);
        // Parent inclusive time covers both child spans; self time is
        // inclusive minus children.
        let child_total: u64 = spans[..2].iter().map(|s| s.dur_us).sum();
        assert!(parent.dur_us >= child_total);
        assert_eq!(parent.self_us, parent.dur_us - child_total);
        // Summing span rows per node reproduces the actuals.
        let sum1: usize = spans.iter().filter(|s| s.node == 1).map(|s| s.rows).sum();
        assert_eq!(sum1, actuals[1]);
    }

    #[test]
    fn op_builder_error_unwind_keeps_stack_consistent() {
        let clock = TraceClock::new();
        let mut ob = OpTraceBuilder::new(2, clock);
        let s0 = ob.enter();
        let s1 = ob.enter();
        ob.exit_err(s1);
        ob.exit(0, "Union", 1.0, 2, s0);
        let (actuals, spans) = ob.finish();
        assert_eq!(actuals, vec![2, 0]);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].node, 0);
    }
}
