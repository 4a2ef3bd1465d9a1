//! Spans recorded around calls into each layer, their self times, and
//! their export as Chrome trace-event JSON (opens in Perfetto and
//! `chrome://tracing`).
//!
//! The traced run records one span for the whole run and then replays,
//! outside it, the layer calls the run makes internally. Each replay
//! span names the run's span as its parent, so a parent's self time is
//! its duration minus the *durations* of its children, wherever those
//! children were recorded — not minus the overlap of their intervals.

use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc::Allocs;

/// One closed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `algos.bucket_sort`.
    pub name: &'static str,
    /// Index of this span within its trace.
    pub id: usize,
    /// The span this one is attributed to, if any.
    pub parent: Option<usize>,
    /// Which traced run the span belongs to.
    pub run: u32,
    /// Start, in ns since the trace began.
    pub start_ns: u64,
    /// End, in ns since the trace began.
    pub end_ns: u64,
    /// Allocations made inside the span (zero when counting is off).
    pub allocs: Allocs,
}

impl Span {
    /// Wall-clock duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder; written out once, when the run ends.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Allocs)>,
    run: u32,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Tag spans opened from now on with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("trace shorter than 584 years")
    }

    /// Open a span attributed to `parent`; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            run: self.run,
            start_ns,
            end_ns: start_ns,
            allocs: Allocs::default(),
        });
        self.open.push((id, Allocs::now()));
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let (top, at_begin) = self.open.pop().expect("end without an open span");
        assert_eq!(top, id, "spans must close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = Allocs::now().since(at_begin);
    }

    /// Record `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "trace read with spans still open");
        &self.spans
    }

    /// Total duration, in seconds, of the spans named `name` in run `run`.
    pub fn total_s(&self, name: &str, run: u32) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name && s.run == run)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum()
    }
}

/// Each span's self time in ns: its duration minus its children's
/// durations, floored at zero. Indexed like `spans`, whose ids must be
/// their positions.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Render the spans as a Chrome trace-event JSON document: one
/// complete (`"ph": "X"`) event per span on the track of its run, with
/// id, parent, run, allocations and self time in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans);
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let layer = s.name.split('.').next().unwrap_or(s.name);
        write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{layer}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {parent}, \
             \"run\": {}, \"allocs\": {}, \"alloc_bytes\": {}, \"self_us\": {:.3}}}}}",
            s.name,
            s.run,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.run,
            s.allocs.calls,
            s.allocs.bytes,
            self_ns[i] as f64 / 1e3,
        )
        .expect("writing to a String cannot fail");
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t.x",
            id,
            parent,
            run: 0,
            start_ns,
            end_ns,
            allocs: Allocs::default(),
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times_ns(&[span(0, None, 5, 12)]), vec![7]);
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0,100) > a [10,40) > b [15,25); root > c [50,90)
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root");
    }

    #[test]
    fn replayed_children_outside_the_parent_still_count() {
        // A run of 100 ns whose layer calls are replayed afterwards.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 120, 150),
            span(2, Some(0), 150, 190),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 40]);
    }

    #[test]
    fn children_longer_than_the_parent_floor_at_zero() {
        let spans = [span(0, None, 0, 10), span(1, Some(0), 20, 50)];
        assert_eq!(self_times_ns(&spans), vec![0, 30]);
    }

    #[test]
    fn recorder_nests_and_attributes() {
        let mut t = Trace::new();
        t.set_run(3);
        let root = t.begin("core.execute", None);
        t.span("algos.keygen", Some(root), || std::hint::black_box(1 + 1));
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_close_panics() {
        let mut t = Trace::new();
        let a = t.begin("t.a", None);
        let _b = t.begin("t.b", Some(a));
        t.end(a);
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let spans = [span(0, None, 0, 2000), span(1, Some(0), 500, 1500)];
        let json = chrome_json(&spans);
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.contains("\"parent\": null"));
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"self_us\": 1.000"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
