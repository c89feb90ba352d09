//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, the request it
//! belongs to, start and end on a monotonic clock, and the span that
//! caused it. Spans stay in memory while the run measures and are
//! written out once it ends. A disabled recorder only runs the closure,
//! so the untraced passes pay one branch per layer call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Per-thread span log. `origin` is shared by every recorder of a run so
/// merged logs share one time axis.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index (`None` when disabled).
    pub fn open(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Renames a closed span; the serve workload learns a request's
    /// outcome bucket only after the call returns.
    pub fn rename(&mut self, id: Option<usize>, name: &'static str) {
        if let Some(id) = id {
            self.spans[id].name = name;
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(request, name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Appends `other`'s spans, re-basing its parent links.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name aggregate of a span log.
#[derive(Default)]
pub struct Layer {
    pub durations_ns: Vec<u64>,
    pub self_ns: u64,
}

/// Groups spans by name. A span's self time is its duration minus the
/// time its direct children cover (children never overlap: each thread
/// records its calls one after another).
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns = vec![0_u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let layer = out.entry(s.name).or_default();
        let duration = s.end_ns - s.start_ns;
        layer.durations_ns.push(duration);
        layer.self_ns += duration.saturating_sub(covered);
    }
    out
}

/// Writes the span log as tab-separated lines: index, request, name,
/// start, end, parent (`-` for a root).
pub fn write_tsv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 48);
    out.push_str("span\trequest\tname\tstart_ns\tend_ns\tparent\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{}\t{parent}",
            s.request, s.name, s.start_ns, s.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
