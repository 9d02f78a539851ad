//! From-outside spans: the benchmark times the calls it makes into each
//! layer, in both clocks, without touching the library. Spans stay in
//! memory during a rep; they are summarised between reps and the last
//! traced rep's spans are written as Chrome-trace JSON when the run ends.

use madsim_net::time;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` is an index into the same node's span list.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    /// The workload op this call belongs to.
    pub op: u32,
    pub node: u8,
    pub wall_ns: (u64, u64),
    pub virt_ns: (u64, u64),
}

/// Handle returned by [`Tracer::begin`]; `None` while tracing is off.
pub type SpanId = Option<u32>;

/// Per-node-thread span recorder. With tracing off, `begin`/`end` are one
/// branch each, so the untraced run pays nothing measurable.
pub struct Tracer {
    enabled: bool,
    node: u8,
    base: Instant,
    op: u32,
    open: Option<u32>,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `base` is shared by every node of a rep so wall stamps compare.
    pub fn new(enabled: bool, node: usize, base: Instant) -> Self {
        Tracer {
            enabled,
            node: node as u8,
            base,
            op: 0,
            open: None,
            spans: Vec::new(),
        }
    }

    pub fn reserve(&mut self, spans: usize) {
        if self.enabled {
            self.spans.reserve(spans);
        }
    }

    pub fn set_op(&mut self, op: usize) {
        self.op = op as u32;
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.open,
            op: self.op,
            node: self.node,
            wall_ns: (0, 0),
            virt_ns: (time::now().as_nanos(), 0),
        });
        self.open = Some(id);
        // Wall start is read last and wall end first, so the recorder's own
        // work falls outside the span.
        self.spans[id as usize].wall_ns.0 = self.base.elapsed().as_nanos() as u64;
        Some(id)
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let wall_end = self.base.elapsed().as_nanos() as u64;
        let s = &mut self.spans[id as usize];
        s.wall_ns.1 = wall_end;
        s.virt_ns.1 = time::now().as_nanos();
        self.open = s.parent;
    }

    /// Time one call.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }
}

/// Per-name summary of one node's spans of one rep.
#[derive(Default)]
pub struct SpanStats {
    /// Wall self time (span minus its direct children) of every call, ns.
    pub self_wall_ns: Vec<u64>,
    /// Sum of virtual durations, ns.
    pub virt_ns: u64,
}

/// Group one node's spans by name, with self time = span − children.
pub fn summarize(spans: &[Span], into: &mut BTreeMap<&'static str, SpanStats>) {
    let mut child_wall = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_wall[p as usize] += s.wall_ns.1 - s.wall_ns.0;
        }
    }
    for (i, s) in spans.iter().enumerate() {
        let e = into.entry(s.name).or_default();
        e.self_wall_ns
            .push((s.wall_ns.1 - s.wall_ns.0).saturating_sub(child_wall[i]));
        e.virt_ns += s.virt_ns.1 - s.virt_ns.0;
    }
}

/// At most this many spans per node go to the trace file: enough to read a
/// few hundred ops in a viewer without writing hundreds of megabytes.
const FILE_SPANS_PER_NODE: usize = 20_000;

/// Chrome-trace ("Trace Event Format") JSON of the given per-node span
/// lists: `ts`/`dur` are wall µs, the virtual clock rides in `args`.
pub fn chrome_json(nodes: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    for spans in nodes {
        for (i, s) in spans.iter().take(FILE_SPANS_PER_NODE).enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s
                .parent
                .map_or("null".to_string(), |p| format!("\"{}.{p}\"", s.node));
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":\"{}.{i}\",\"parent\":{parent},\"op\":{},\
                 \"virt_start_us\":{:.3},\"virt_dur_us\":{:.3}}}}}",
                s.name,
                s.node,
                s.wall_ns.0 as f64 / 1e3,
                (s.wall_ns.1 - s.wall_ns.0) as f64 / 1e3,
                s.node,
                s.op,
                s.virt_ns.0 as f64 / 1e3,
                (s.virt_ns.1 - s.virt_ns.0) as f64 / 1e3,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}
