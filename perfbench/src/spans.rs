//! In-memory spans for the traced run, written out when it ends.
//!
//! Phases (a world run, a layer replay, a cache pass) are recorded one
//! span each, with their parent. Calls into a layer are far too many to
//! keep one by one, so each call site aggregates into a [`CallTimer`] and
//! becomes one span that carries its call count and summed self time.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times individual calls and sums their durations.
#[derive(Default)]
pub struct CallTimer {
    pub calls: u64,
    total: Duration,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl CallTimer {
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.total += t1 - t0;
        self.calls += 1;
        self.first.get_or_insert(t0);
        self.last = Some(t1);
        out
    }

    /// Adds a batch of `calls` calls timed together.
    pub fn add_batch(&mut self, calls: u64, t0: Instant, t1: Instant) {
        self.total += t1 - t0;
        self.calls += calls;
        self.first.get_or_insert(t0);
        self.last = Some(t1);
    }

    /// Mean self time per call with `overhead_ns` (the timer's own cost
    /// per call) taken off; 0 when nothing was called.
    pub fn ns_per_call(&self, overhead_ns: f64) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        (self.total.as_nanos() as f64 / self.calls as f64 - overhead_ns).max(0.0)
    }
}

/// The cost of one [`CallTimer::time`] around an empty call, in ns: the
/// median of several batches, so a descheduled batch does not skew it.
pub fn timer_overhead_ns() -> f64 {
    const CALLS: u64 = 200_000;
    let mut batches = Vec::new();
    for _ in 0..5 {
        let mut t = CallTimer::default();
        for i in 0..CALLS {
            t.time(|| black_box(i));
        }
        batches.push(t.ns_per_call(0.0));
    }
    crate::metrics::median(&batches)
}

struct Span {
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
    /// Aggregated call spans: (calls, self time in ns).
    calls: Option<(u64, f64)>,
}

/// The span store of one traced run.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    overhead_ns: f64,
}

impl Spans {
    pub fn new(overhead_ns: f64) -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            overhead_ns,
        }
    }

    /// Opens a phase span; close it with [`Spans::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start: now,
            end: now,
            calls: None,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Records a call site's timer as one aggregated span and returns its
    /// calibrated ns per call.
    pub fn calls(&mut self, name: impl Into<String>, parent: Option<usize>, t: &CallTimer) -> f64 {
        let per_call = t.ns_per_call(self.overhead_ns);
        let at = |i: Option<Instant>| i.map_or(Duration::ZERO, |i| i.duration_since(self.origin));
        self.spans.push(Span {
            name: name.into(),
            parent,
            start: at(t.first),
            end: at(t.last),
            calls: Some((t.calls, per_call * t.calls as f64)),
        });
        per_call
    }

    /// Renders every span as JSON: id, name, parent, start and end (ns
    /// since the run began) and self time — the span's duration less its
    /// phase children, or the summed calibrated call time of an
    /// aggregated span.
    pub fn to_json(&self) -> String {
        let mut rows = Vec::with_capacity(self.spans.len());
        for (id, s) in self.spans.iter().enumerate() {
            let ns = |d: Duration| d.as_nanos();
            let self_ns = match s.calls {
                Some((_, self_ns)) => self_ns,
                None => {
                    let children: Duration = self
                        .spans
                        .iter()
                        .filter(|c| c.parent == Some(id) && c.calls.is_none())
                        .map(|c| c.end - c.start)
                        .sum();
                    (s.end - s.start).saturating_sub(children).as_nanos() as f64
                }
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let calls = s
                .calls
                .map_or(String::new(), |(c, _)| format!(", \"calls\": {c}"));
            rows.push(format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}{calls}}}",
                peas_sim::report_json::json_escape(&s.name),
                ns(s.start),
                ns(s.end),
                crate::metrics::json_number(self_ns)
            ));
        }
        format!("[\n  {}\n]", rows.join(",\n  "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_self_time_excludes_children() {
        let mut s = Spans::new(0.0);
        let root = s.open("root", None);
        let child = s.open("child", Some(root));
        std::thread::sleep(Duration::from_millis(2));
        s.close(child);
        s.close(root);
        let json = s.to_json();
        assert!(json.contains("\"name\": \"child\", \"parent\": 0"));
        let root_self = s.spans[0].end - s.spans[0].start - (s.spans[1].end - s.spans[1].start);
        assert!(root_self < Duration::from_millis(2));
    }

    #[test]
    fn call_timer_subtracts_overhead_and_never_goes_negative() {
        let mut t = CallTimer::default();
        assert_eq!(t.ns_per_call(10.0), 0.0);
        t.time(|| std::thread::sleep(Duration::from_millis(1)));
        assert!(t.ns_per_call(0.0) >= 1e6);
        assert_eq!(t.ns_per_call(1e12), 0.0);
    }
}
