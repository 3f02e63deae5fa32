//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer's public function; nothing inside the program is instrumented. A
//! frame is one root span whose children are the layer calls. All spans of
//! one frame share its frame id, and every span names the span that caused
//! it. Spans stay in memory for the whole run and are summarised at the end.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug)]
struct Span {
    name: &'static str,
    frame: u32,
    parent: Option<SpanId>,
    start: Instant,
    end: Option<Instant>,
    /// Benchmark-only work inside a frame (counter probes): subtracted from
    /// the frame's wall time and never attributed to a layer.
    excluded: bool,
}

impl Span {
    fn ms(&self) -> f64 {
        let end = self.end.expect("span closed before it is summarised");
        end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// The recorder: a flat span list plus the stack of open spans.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
    open: Vec<SpanId>,
    frames: u32,
}

/// Per-frame summary derived from the spans of one root.
#[derive(Debug)]
pub struct FrameTrace {
    /// Root duration minus excluded (benchmark-only) spans, ms.
    pub frame_ms: f64,
    /// Self time per layer span name, ms.
    pub self_ms: BTreeMap<&'static str, f64>,
}

impl FrameTrace {
    /// Share of the frame covered by layer spans (Σ self time ÷ frame).
    pub fn coverage(&self) -> f64 {
        self.self_ms.values().sum::<f64>() / self.frame_ms
    }
}

impl Recorder {
    /// Opens the root span of a new frame.
    pub fn begin_frame(&mut self, name: &'static str) -> SpanId {
        assert!(self.open.is_empty(), "frames do not nest");
        self.frames += 1;
        self.push(name, false)
    }

    /// Opens a layer span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        self.push(name, false)
    }

    /// Opens a benchmark-only span whose time is removed from the frame.
    pub fn enter_excluded(&mut self, name: &'static str) -> SpanId {
        self.push(name, true)
    }

    fn push(&mut self, name: &'static str, excluded: bool) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            frame: self.frames,
            parent: self.open.last().copied(),
            start: Instant::now(),
            end: None,
            excluded,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        let now = Instant::now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = Some(now);
    }

    /// Duration of the closed span `id`, ms.
    pub fn span_ms(&self, id: SpanId) -> f64 {
        self.spans[id].ms()
    }

    /// Summarises the closed frame rooted at `root`.
    pub fn summarise(&self, root: SpanId) -> FrameTrace {
        let frame = self.spans[root].frame;
        let mut children_ms: BTreeMap<SpanId, f64> = BTreeMap::new();
        let mut excluded_ms = 0.0;
        let members: Vec<SpanId> = (root..self.spans.len())
            .filter(|&i| self.spans[i].frame == frame)
            .collect();
        for &i in &members {
            let span = &self.spans[i];
            if let Some(parent) = span.parent {
                *children_ms.entry(parent).or_default() += span.ms();
            }
            if span.excluded {
                excluded_ms += span.ms();
            }
        }
        let mut trace = FrameTrace {
            frame_ms: self.spans[root].ms() - excluded_ms,
            self_ms: BTreeMap::new(),
        };
        for &i in &members[1..] {
            let span = &self.spans[i];
            if !span.excluded {
                let own = span.ms() - children_ms.get(&i).copied().unwrap_or(0.0);
                *trace.self_ms.entry(span.name).or_default() += own;
            }
        }
        trace
    }
}
