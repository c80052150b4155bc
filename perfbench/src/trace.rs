//! In-memory span recorder written out once as Chrome trace-event JSON.
//!
//! Spans are recorded by the benchmark around its calls into the
//! program, never inside it: a span per layer call, a span per
//! `Engine::step`, and the step's `step_timings()` stage split attached
//! as child spans laid out in execution order. Each span has a name, a
//! start, an end and a parent. Nothing is written until the run ends.
//! With tracing off every call is a no-op.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use pedsim_core::engine::{Stage, StepTimings};

/// Marker returned by [`Tracer::open`] while tracing is off.
const OFF: usize = usize::MAX;

/// Stages in the order the step pipeline executes them (the metrics
/// observation runs before the lifecycle).
const EXEC_ORDER: [Stage; 6] = [
    Stage::Init,
    Stage::InitialCalc,
    Stage::Tour,
    Stage::Movement,
    Stage::Metrics,
    Stage::Lifecycle,
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call or stage name.
    pub name: &'static str,
    /// The module group the span belongs to.
    pub cat: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// Duration.
    pub dur: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Placed from a reported duration rather than timed around a call
    /// (stage splits, jobs inside a batch).
    pub derived: bool,
}

/// The span recorder.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Self {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off between passes.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, cat: &'static str) -> usize {
        if !self.on {
            return OFF;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            cat,
            start: self.origin.elapsed(),
            dur: Duration::ZERO,
            parent: self.stack.last().copied(),
            derived: false,
        });
        self.stack.push(id);
        id
    }

    /// Close the span `id` returned by [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        if id == OFF {
            return;
        }
        let end = self.origin.elapsed();
        debug_assert_eq!(self.stack.last(), Some(&id), "spans close innermost first");
        self.stack.pop();
        let span = &mut self.spans[id];
        span.dur = end.saturating_sub(span.start);
    }

    /// Attach a child of `parent` placed at `offset` from its start.
    pub fn derived(
        &mut self,
        parent: usize,
        name: &'static str,
        cat: &'static str,
        offset: Duration,
        dur: Duration,
    ) -> usize {
        if parent == OFF {
            return OFF;
        }
        let start = self.spans[parent].start + offset;
        self.spans.push(Span {
            name,
            cat,
            start,
            dur,
            parent: Some(parent),
            derived: true,
        });
        self.spans.len() - 1
    }

    /// Attach a step's stage split (a `step_timings()` delta) to `parent`
    /// as consecutive child spans in execution order from the parent's
    /// start.
    pub fn stages(&mut self, parent: usize, split: &StepTimings) {
        if parent == OFF {
            return;
        }
        let mut at = Duration::ZERO;
        for stage in EXEC_ORDER {
            let d = split.of(stage);
            self.derived(parent, stage.name(), "pedsim-core::engine::pipeline", at, d);
            at += d;
        }
    }

    /// Duration of a closed span.
    pub fn dur(&self, id: usize) -> Duration {
        if id == OFF {
            Duration::ZERO
        } else {
            self.spans[id].dur
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur.saturating_sub(c))
            .collect()
    }

    /// Total and self time per `(cat, name)`, in first-seen order.
    pub fn by_layer(&self) -> Vec<LayerTime> {
        let selfs = self.self_times();
        let mut out: Vec<LayerTime> = Vec::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let i = match out.iter().position(|l| l.cat == s.cat && l.name == s.name) {
                Some(i) => i,
                None => {
                    out.push(LayerTime {
                        cat: s.cat,
                        name: s.name,
                        count: 0,
                        total: Duration::ZERO,
                        own: Duration::ZERO,
                    });
                    out.len() - 1
                }
            };
            out[i].count += 1;
            out[i].total += s.dur;
            out[i].own += own;
        }
        out
    }

    /// The trace as Chrome trace-event JSON (`{"traceEvents": [...]}`,
    /// viewable in Perfetto or `chrome://tracing`).
    pub fn chrome_json(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 120 + 64);
        s.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"derived\":{}}}}}",
                span.name,
                span.cat,
                span.start.as_secs_f64() * 1e6,
                span.dur.as_secs_f64() * 1e6,
                span.derived
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Aggregated time of one layer.
#[derive(Debug, Clone)]
pub struct LayerTime {
    /// Module group.
    pub cat: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Spans recorded.
    pub count: usize,
    /// Summed span durations.
    pub total: Duration,
    /// Summed self time (duration minus direct children).
    pub own: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let a = t.open("pass", "bench");
        let b = t.open("work", "bench");
        std::thread::sleep(Duration::from_millis(2));
        t.close(b);
        t.close(a);
        let selfs = t.self_times();
        assert_eq!(selfs[0], t.dur(a) - t.dur(b));
        assert_eq!(t.spans()[b].parent, Some(a));
        assert!(t.chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.open("pass", "bench");
        t.derived(a, "x", "bench", Duration::ZERO, Duration::from_millis(1));
        t.close(a);
        assert!(t.spans().is_empty());
    }
}
