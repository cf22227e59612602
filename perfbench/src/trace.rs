//! The traced run's recorder: spans kept in memory (name, start, end,
//! parent, operation id) plus per-operation counts, aggregated into the
//! per-layer metrics and written out one line per span when the run ends.
//!
//! A disabled tracer records nothing and never reads the clock, so the
//! untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
pub type SpanId = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(&'static str, u64, f64)>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Open a span of operation `op`; the innermost open span is its
    /// parent.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id {
            self.spans[id].end = self.origin.elapsed().as_secs_f64();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Run `f` inside a span.
    pub fn leaf<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Record a count (cells, PODEM calls, bytes) of operation `op`.
    pub fn count(&mut self, name: &'static str, op: u64, value: f64) {
        if self.on {
            self.counts.push((name, op, value));
        }
    }

    /// Move another thread's spans and counts into this tracer. Both must
    /// share the same origin.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.counts.extend(other.counts);
    }

    /// Total milliseconds spent in spans named `name`, per operation.
    pub fn per_op(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op).or_insert(0.0) += s.ms();
        }
        out
    }

    /// Median over operations of the time spent in spans named `name`.
    pub fn median_ms(&self, name: &str) -> f64 {
        crate::stats::median(&self.per_op(name).into_values().collect::<Vec<_>>())
    }

    /// Sum of counts named `name`, per operation.
    pub fn counts_per_op(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for (n, op, v) in &self.counts {
            if *n == name {
                *out.entry(*op).or_insert(0.0) += v;
            }
        }
        out
    }

    /// Mean over operations of the count named `name`.
    pub fn mean_count(&self, name: &str) -> f64 {
        crate::stats::mean(&self.counts_per_op(name).into_values().collect::<Vec<_>>())
    }

    /// Sum over every operation of the count named `name`.
    pub fn total_count(&self, name: &str) -> f64 {
        self.counts_per_op(name).values().sum()
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// Per span name: (spans, total ms, total self ms).
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let own = self.self_ms();
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += s.ms();
            e.2 += own;
        }
        out
    }

    /// Write one line per span and per count.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self.self_ms();
        for (s, own) in self.spans.iter().zip(own) {
            let parent = s.parent.map_or("-", |p| self.spans[p].name);
            writeln!(
                w,
                "span op={} name={} parent={} start_us={:.1} dur_us={:.1} self_us={:.1}",
                s.op,
                s.name,
                parent,
                s.start * 1e6,
                s.ms() * 1e3,
                own * 1e3
            )?;
        }
        for (name, op, v) in &self.counts {
            writeln!(w, "count op={op} name={name} value={v}")?;
        }
        w.flush()
    }
}
