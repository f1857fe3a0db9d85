//! Benchmark-owned spans: one per call into a layer, buffered in memory
//! and written as a Chrome trace when the run ends. Tracing inside the
//! crates is a later issue; these spans wrap the public calls from outside.

use std::time::Instant;

/// Index of a span in its [`Tracer`]; `NONE` marks a root.
pub type SpanId = usize;
pub const NONE: SpanId = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the tracer's epoch.
    pub start_us: f64,
    pub end_us: f64,
    pub parent: SpanId,
    pub request: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Span buffer. A disabled tracer records nothing, so the untraced pass
/// runs the same code with one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            self.spans[id].end_us = self.now_us();
        }
    }

    /// Records a child whose duration a layer *reported* (a phase of
    /// `Response.breakdown`, the server's `queue_time`): it is laid out
    /// from `offset_us` after the parent's start.
    pub fn reported(
        &mut self,
        name: &'static str,
        parent: SpanId,
        offset_us: f64,
        dur_us: f64,
    ) -> SpanId {
        if parent == NONE {
            return NONE;
        }
        let start = self.spans[parent].start_us + offset_us;
        let request = self.spans[parent].request;
        self.spans.push(Span {
            name,
            start_us: start,
            end_us: start + dur_us,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span named `name`, in microseconds.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if span.parent != NONE {
                children[span.parent].push((span.start_us, span.end_us));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| self_time_us((s.start_us, s.end_us), &mut children[i]))
            .collect()
    }

    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }
}

/// Chrome trace (`chrome://tracing`, Perfetto) of several tracers, one
/// process per tracer (a rung of the ladder), one lane per request, the
/// parent span recorded in `args`.
pub fn chrome_trace_json(tracers: &[(&str, &Tracer)]) -> String {
    let mut events = Vec::new();
    for (pid, (label, tracer)) in tracers.iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{label}\"}}}}"
        ));
        for (i, s) in tracer.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                -1
            } else {
                s.parent as i64
            };
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"request\":{}}}}}",
                s.name,
                s.start_us,
                s.duration_us(),
                s.request % 64,
                s.request
            ));
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

/// A span's duration minus the part of its interval that its children
/// cover: overlapping children are merged first and anything outside the
/// parent is clipped, so no microsecond is subtracted twice.
pub fn self_time_us(parent: (f64, f64), children: &mut [(f64, f64)]) -> f64 {
    children.sort_by(|a, b| a.partial_cmp(b).expect("span times are never NaN"));
    let mut covered = 0.0;
    let mut cursor = parent.0;
    for &(start, end) in children.iter() {
        let start = start.max(cursor);
        let end = end.min(parent.1);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    (parent.1 - parent.0 - covered).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_covered_interval_once() {
        // Disjoint children.
        assert_eq!(
            self_time_us((0.0, 100.0), &mut [(10.0, 20.0), (50.0, 70.0)]),
            70.0
        );
        // Overlapping children cover 10..40 once, not 10..30 plus 20..40.
        assert_eq!(
            self_time_us((0.0, 100.0), &mut [(20.0, 40.0), (10.0, 30.0)]),
            70.0
        );
        // A child nested in another child adds nothing.
        assert_eq!(
            self_time_us((0.0, 100.0), &mut [(10.0, 60.0), (20.0, 30.0)]),
            50.0
        );
        // Children are clipped to the parent.
        assert_eq!(
            self_time_us((10.0, 50.0), &mut [(0.0, 20.0), (45.0, 90.0)]),
            25.0
        );
        assert_eq!(self_time_us((0.0, 10.0), &mut []), 10.0);
        assert_eq!(
            self_time_us((0.0, 10.0), &mut [(0.0, 10.0), (2.0, 30.0)]),
            0.0
        );
    }

    #[test]
    fn tracer_links_parents_and_reports_self_time() {
        let mut t = Tracer::new(true);
        let root = t.begin("request", NONE, 9);
        let child = t.begin("serve", root, 9);
        t.end(child);
        t.end(root);
        t.reported("prefill", child, 0.0, 0.0);
        assert_eq!(t.len(), 3);
        assert_eq!(t.spans()[1].parent, root);
        assert_eq!(t.spans()[2].request, 9);
        let own = t.self_times_us("request")[0];
        let total = t.spans()[root].duration_us();
        let inner = t.spans()[child].duration_us();
        assert!((own - (total - inner)).abs() < 1e-6);
        let json = chrome_trace_json(&[("core", &t)]);
        assert!(json.contains("\"name\":\"serve\"") && json.contains("\"parent\":0"));
        assert!(json.contains("\"name\":\"core\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("request", NONE, 1);
        t.end(id);
        t.reported("queue", id, 0.0, 5.0);
        assert_eq!(t.len(), 0);
    }
}
