//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around each
//! call into a layer's public API. They stay in memory and are written
//! once, at exit, as Chrome trace-event JSON (`chrome://tracing`,
//! Perfetto). When the recorder is disabled a span is a plain call.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The `i`-th set-up (dataset, index build, staging).
    Setup(usize),
    /// The `i`-th measured repetition.
    Rep(usize),
    /// Output checks and reporting after the measured phase.
    Check,
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `anns.build`.
    pub name: Cow<'static, str>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Phase the span ran in.
    pub phase: Phase,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// The recorder. Single-threaded: the benchmark calls every layer from
/// one thread (the layers' own worker pools are inside the spans).
pub struct Tracer {
    enabled: Cell<bool>,
    phase: Cell<Phase>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder, initially enabled or not.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled: Cell::new(enabled),
            phase: Cell::new(Phase::Setup(0)),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Switches recording on or off (between spans only).
    pub fn set_enabled(&self, enabled: bool) {
        debug_assert!(self.open.borrow().is_empty(), "toggled inside a span");
        self.enabled.set(enabled);
    }

    /// Sets the phase that subsequent spans are tagged with.
    pub fn set_phase(&self, phase: Phase) {
        self.phase.set(phase);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a plain call when disabled).
    pub fn span<T>(&self, name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            spans.push(Span {
                name: name.into(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: open.last().copied(),
                phase: self.phase.get(),
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let out = f();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        self.open.borrow_mut().pop();
        out
    }

    /// A copy of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Seconds of each span not covered by its child spans.
pub fn self_secs(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own
}

/// Chrome trace-event JSON ("X" complete events, µs timestamps); the
/// parent span index and the phase go into `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let phase = match s.phase {
            Phase::Setup(i) => format!("setup {i}"),
            Phase::Rep(i) => format!("rep {i}"),
            Phase::Check => "check".to_string(),
        };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"phase\":\"{phase}\"}}}}",
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let t = Tracer::new(true);
        t.span("core.stage", || {
            t.span("anns.build", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let own = self_secs(&spans);
        assert!(own[0] < spans[0].secs() && own[0] >= 0.0);
        assert!(chrome_json(&spans).contains("\"cat\":\"anns\""));

        let off = Tracer::new(false);
        assert_eq!(off.span("vector.gen", || 7), 7);
        assert!(off.spans().is_empty());
    }
}
