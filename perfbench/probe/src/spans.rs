//! In-memory span recorder for the traced benchmark run.
//!
//! Each span carries a name, start, end, its parent span and a request id
//! shared by the spans of one request (a cell's `SimKey` or a serve job).
//! Spans are kept in memory and written out as JSON lines when the probe
//! finishes, so recording costs a clock read and a vector push.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One span; `end_ns` is set when it is closed.
pub struct Span {
    pub id: u64,
    parent: u64,
    name: &'static str,
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans relative to a fixed epoch. A disabled tracer records
/// nothing and hands out span id 0.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` under `parent` (0 for none).
    pub fn record<R>(&self, name: &'static str, parent: u64, req: u64, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, parent, req);
        let out = f();
        self.close(open);
        out
    }

    /// Starts a span that encloses other spans; its `id` parents them.
    pub fn open(&self, name: &'static str, parent: u64, req: u64) -> Span {
        let id = if self.on { self.next_id.fetch_add(1, Ordering::Relaxed) } else { 0 };
        Span { id, parent, name, req, start_ns: self.now_ns(), end_ns: 0 }
    }

    /// Ends a span started by [`Tracer::open`].
    pub fn close(&self, mut span: Span) {
        if !self.on {
            return;
        }
        span.end_ns = self.now_ns();
        self.spans.lock().expect("span list lock poisoned by a panicking recorder").push(span);
    }

    /// Durations in nanoseconds of every recorded span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let spans = self.spans.lock().expect("span list lock poisoned by a panicking recorder");
        spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock poisoned by a panicking recorder");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Median of `xs` (0 for an empty list).
pub fn median(xs: &[u64]) -> u64 {
    let mut v = xs.to_vec();
    v.sort_unstable();
    v.get(v.len() / 2).copied().unwrap_or(0)
}
