//! Span recorder plus the percentile and self-time helpers the benchmark
//! reports with.
//!
//! Spans are kept in memory while a run measures and written out once at
//! the end, one JSON object per line. Every span carries the request id it
//! belongs to and the id of the span that caused it, so a request's layer
//! calls hang off one parent span.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval, in microseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request_id: String,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Thread-safe in-memory span store.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds from the recorder's origin to `at`.
    pub fn offset_us(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Stores a finished span and returns its id.
    pub fn record(
        &self,
        parent: Option<u64>,
        request_id: &str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("span store poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            request_id: request_id.to_string(),
            name,
            start_us: self.offset_us(start),
            end_us: self.offset_us(end),
        });
        id
    }

    /// Times `f` as a child of `parent` and records it.
    pub fn time<T>(
        &self,
        parent: Option<u64>,
        request_id: &str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(parent, request_id, name, start, Instant::now());
        out
    }

    /// Reserves a parent span id whose interval is filled in by
    /// [`Recorder::close`] once its children have run.
    pub fn open(&self, request_id: &str, name: &'static str) -> (u64, Instant) {
        let start = Instant::now();
        let id = self.record(None, request_id, name, start, start);
        (id, start)
    }

    /// Sets the end of a span opened with [`Recorder::open`].
    pub fn close(&self, id: u64) {
        let end = self.offset_us(Instant::now());
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans[id as usize - 1].end_us = end;
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Durations (µs) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_us)
        .collect()
}

/// A percentile together with the number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`; NaN stands for a
/// failed request and sorts above every number, so failures count as
/// missing any latency limit. An empty input gives value 0 with 0 samples.
pub fn percentile(values: &[f64], q: f64) -> Percentile {
    if values.is_empty() {
        return Percentile {
            value: 0.0,
            samples: 0,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Percentile {
        value: sorted[rank - 1],
        samples: sorted.len(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).value
}

/// Time inside `parent` not covered by any of `children`, which may nest in
/// or overlap one another; the parts of a child outside the parent do not
/// count.
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (lo, hi) = parent;
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut run: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    (hi - lo - covered).max(0.0)
}

/// Self time of every span: its duration minus what its direct children
/// cover.
pub fn self_times(spans: &[Span]) -> Vec<(u64, f64)> {
    let mut children: std::collections::HashMap<u64, Vec<(f64, f64)>> = Default::default();
    for c in spans {
        if let Some(p) = c.parent {
            children.entry(p).or_default().push((c.start_us, c.end_us));
        }
    }
    spans
        .iter()
        .map(|p| {
            let kids = children.get(&p.id).map_or(&[][..], Vec::as_slice);
            (p.id, self_time((p.start_us, p.end_us), kids))
        })
        .collect()
}

/// Writes every span as one JSON line, with its self time.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (span, (_, self_us)) in spans.iter().zip(selfs) {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request_id\":{:?},\"name\":{:?},\
             \"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{self_us:.3}}}",
            span.id, span.request_id, span.name, span.start_us, span.end_us
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_counts_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.5),
            Percentile {
                value: 50.0,
                samples: 100
            }
        );
        assert_eq!(percentile(&v, 0.99).value, 99.0);
        assert_eq!(percentile(&v, 1.0).value, 100.0);
        assert_eq!(percentile(&v, 0.0).value, 1.0);
        assert_eq!(percentile(&[], 0.5).samples, 0);
    }

    #[test]
    fn failed_requests_sort_above_every_latency() {
        let v = [1.0, f64::NAN, 2.0, f64::NAN];
        assert!(percentile(&v, 0.99).value.is_nan());
        assert_eq!(percentile(&v, 0.5).value, 2.0);
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 5.0), (4.0, 7.0)]), 4.0);
    }

    #[test]
    fn self_time_counts_nested_children_once() {
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 8.0), (2.0, 3.0)]), 3.0);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time((0.0, 10.0), &[(-5.0, 2.0), (9.0, 20.0)]), 7.0);
        assert_eq!(self_time((0.0, 10.0), &[(-5.0, 20.0)]), 0.0);
    }

    #[test]
    fn recorder_links_children_to_their_parent() {
        let rec = Recorder::new();
        let (parent, _) = rec.open("r1", "request");
        rec.time(Some(parent), "r1", "layer", || std::hint::black_box(1 + 1));
        rec.close(parent);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].request_id, "r1");
        assert!(spans[0].end_us >= spans[1].end_us);
        let selfs = self_times(&spans);
        let parent_self = selfs[0].1;
        assert!(parent_self <= spans[0].duration_us() - spans[1].duration_us() + 1e-9);
    }
}
