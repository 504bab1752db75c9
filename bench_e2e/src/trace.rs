//! Span recorder: outside-in tracing from the benchmark's own files.
//!
//! Spans are recorded *around* calls into a layer's public functions — one
//! span per boundary call (poll, finish, checkpoint, …) and one per
//! [`CHUNK`]-arrival run of push calls — plus a log-bucket histogram of the
//! individual call durations. Everything stays in memory until
//! [`Recorder::write_jsonl`]; a disabled recorder does nothing, which is how
//! every timed phase runs.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Push calls covered by one chunk span.
pub const CHUNK: usize = 256;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.boundary` name.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Power-of-two histogram of durations: bucket `b` holds `[2^b, 2^(b+1))` ns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 64],
    count: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; 64],
            count: 0,
        }
    }
}

impl LogHistogram {
    /// Add one duration.
    pub fn record(&mut self, ns: u64) {
        self.buckets[ns.max(1).ilog2() as usize] += 1;
        self.count += 1;
    }

    /// Upper edge (ns) of the bucket holding the given percentile — an upper
    /// bound at the histogram's factor-of-two resolution. 0 when empty.
    pub fn percentile_ns(&self, percentile: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * u64::from(percentile)).div_ceil(100).max(1);
        let mut seen = 0;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << (bucket + 1).min(63);
            }
        }
        u64::MAX
    }
}

/// In-memory span store for one workload.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    calls: BTreeMap<&'static str, LogHistogram>,
}

impl Recorder {
    /// A recorder for `workload`; disabled recorders drop everything.
    pub fn new(workload: &'static str, enabled: bool) -> Self {
        Recorder {
            enabled,
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            calls: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.len().checked_sub(2).map(|i| self.open[i]),
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = end_ns;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Time one boundary call into the per-call histogram of `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.calls.entry(name).or_default().record(ns);
        out
    }

    /// The per-call histogram of `name`, if any call was recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.calls.get(name)
    }

    /// Total duration of all spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Write one JSON object per span, then one per histogram.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self_times(&self.spans);
        for (id, (span, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"self_ns\":{self_ns}}}",
                self.workload, span.name, span.start_ns, span.end_ns
            )?;
        }
        for (name, hist) in &self.calls {
            let buckets: Vec<String> = hist
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(b, n)| format!("[{b},{n}]"))
                .collect();
            writeln!(
                out,
                "{{\"workload\":\"{}\",\"histogram\":\"{name}\",\"count\":{},\
                 \"log2_ns_buckets\":[{}]}}",
                self.workload,
                hist.count,
                buckets.join(",")
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part its direct children
/// cover (children of one parent never overlap — one thread records them).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("replay", 0, 1_000, None),
            span("push_chunk", 100, 400, Some(0)),
            span("poll", 400, 450, Some(0)),
            span("inner", 150, 250, Some(1)),
        ];
        // The grandchild shrinks only its own parent.
        assert_eq!(self_times(&spans), vec![650, 200, 50, 100]);
    }

    #[test]
    fn recorder_nests_spans_and_sums_by_name() {
        let mut rec = Recorder::new("w", true);
        rec.begin("outer");
        rec.span("inner", || std::hint::black_box(1 + 1));
        rec.span("inner", || ());
        rec.end();
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[0].parent, None);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, Some(0));
        assert!(rec.open.is_empty());
        assert_eq!(
            self_times(&rec.spans)[0] + rec.total_ns("inner"),
            rec.total_ns("outer")
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new("w", false);
        rec.span("s", || ());
        assert_eq!(rec.call("c", || 7), 7);
        assert!(rec.spans.is_empty());
        assert!(rec.histogram("c").is_none());
    }

    #[test]
    fn histogram_percentile_is_a_bucket_upper_edge() {
        let mut hist = LogHistogram::default();
        for _ in 0..99 {
            hist.record(700); // bucket [512, 1024)
        }
        hist.record(70_000); // bucket [65536, 131072)
        assert_eq!(hist.count, 100);
        assert_eq!(hist.percentile_ns(50), 1024);
        assert_eq!(hist.percentile_ns(99), 1024);
        assert_eq!(hist.percentile_ns(100), 131_072);
        assert_eq!(LogHistogram::default().percentile_ns(99), 0);
    }
}
