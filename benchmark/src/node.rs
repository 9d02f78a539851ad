//! What one node thread records during a rep, and how the per-node records
//! fold into one [`Rep`].

use crate::payload::Check;
use crate::trace::{Span, Tracer};
use madeleine::{Channel, RecvMode, SendMode, Stats};
use madsim_net::time;
use madsim_net::world::NodeEnv;
use madsim_net::{Frame, Mailbox, World, WorldBuilder};
use std::collections::BTreeMap;
use std::time::Instant;

/// How a rep is instrumented.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// No instrumentation: the end-to-end numbers come from these reps.
    Plain,
    /// The benchmark's own spans around every call (`--trace 1`).
    Spans,
    /// The library's `Channel::enable_trace()` on, benchmark spans off
    /// (prices the library tracer: `trace.enabled_overhead_pct`).
    LibTrace,
}

/// Parameters of one rep.
#[derive(Clone, Copy)]
pub struct RepCfg {
    pub seed: u64,
    pub mode: Mode,
    /// Self-test hook: flip one byte of the first timed payload a node
    /// receives before verifying it, so the run must report a failure.
    pub corrupt: bool,
}

/// Exact event counts read off `Stats` and the mailbox, by name. Summed
/// over nodes unless the name says whose side it is.
pub type Counts = BTreeMap<&'static str, u64>;

/// One node's record of a rep.
pub struct NodeOut {
    pub timed_wall_ns: (u64, u64),
    pub timed_virt_us: f64,
    /// Per-op wall latency samples taken on this node.
    pub lat_ns: Vec<u64>,
    /// Raw wall stamps (ns since the rep's base), one per message, for
    /// latencies that start on one node and end on the other.
    pub stamps_ns: Vec<u64>,
    pub ops: u64,
    pub msgs: u64,
    pub failed: u64,
    pub counts: Counts,
    pub spans: Vec<Span>,
}

/// Pin the calling node thread to one of the CPUs this process may use
/// (node `n` to the `n`-th, wrapping). Left to the scheduler, the node
/// threads of a fresh world share a core in some reps and not in others,
/// and a hand-off within a core costs about half of one across cores: a
/// one-in-flight workload then has two speeds (29 vs 53 µs per `rpc_mix`
/// op) and a run reports whichever its reps mostly drew. Threads the
/// library spawns from a node thread inherit its CPU.
pub fn pin_node_thread(node: usize) {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the byte size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } < 0 {
        return;
    }
    let cpus: Vec<usize> = (0..allowed.len() * 64)
        .filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.len() < 2 {
        return;
    }
    let cpu = cpus[node % cpus.len()];
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte size passed. A
    // failure leaves the thread unpinned, which only costs steadiness.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Per-node state while a rep runs.
pub struct NodeCtx<'e> {
    pub env: &'e NodeEnv,
    pub tr: Tracer,
    base: Instant,
    timed: bool,
    corrupt_armed: bool,
    out: NodeOut,
}

impl<'e> NodeCtx<'e> {
    pub fn new(env: &'e NodeEnv, cfg: RepCfg, base: Instant) -> Self {
        pin_node_thread(env.id());
        NodeCtx {
            env,
            tr: Tracer::new(cfg.mode == Mode::Spans, env.id(), base),
            base,
            timed: false,
            corrupt_armed: cfg.corrupt,
            out: NodeOut {
                timed_wall_ns: (0, 0),
                timed_virt_us: 0.0,
                lat_ns: Vec::new(),
                stamps_ns: Vec::new(),
                ops: 0,
                msgs: 0,
                failed: 0,
                counts: Counts::new(),
                spans: Vec::new(),
            },
        }
    }

    pub fn id(&self) -> usize {
        self.env.id()
    }

    /// Wall ns since the rep's shared base.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Record one op's wall latency (timed phase only).
    #[inline]
    pub fn lat_since(&mut self, t0_ns: u64) {
        if self.timed {
            let now = self.now_ns();
            self.out.lat_ns.push(now - t0_ns);
        }
    }

    /// Record a raw wall stamp for the next message (timed phase only).
    #[inline]
    pub fn stamp_now(&mut self) {
        if self.timed {
            let now = self.now_ns();
            self.out.stamps_ns.push(now);
        }
    }

    /// Account one attempted op.
    #[inline]
    pub fn op_done(&mut self) {
        self.out.ops += 1;
    }

    /// Account one received application message: verified, or failed.
    #[inline]
    pub fn msg(&mut self, ok: bool) {
        if ok {
            self.out.msgs += 1;
        } else {
            self.out.failed += 1;
        }
    }

    /// Account a failed op that delivered no message (`MadError`).
    pub fn fail(&mut self) {
        self.out.failed += 1;
    }

    /// The self-test's fault: flips a byte of `buf` once per node per rep,
    /// in the timed phase.
    #[inline]
    pub fn maybe_corrupt(&mut self, buf: &mut [u8]) {
        if self.corrupt_armed && self.timed {
            self.corrupt_armed = false;
            let last = buf.len() - 1;
            buf[last] ^= 0x01;
        }
    }

    /// Run `warm` fully verified warm-up ops, then `timed` timed ops, each
    /// phase entered through a world barrier. `op` gets the op's global
    /// index (warm-up ops first) and how strictly to verify. `stats` are
    /// the channels whose counters are attributed to the timed phase.
    pub fn drive(
        &mut self,
        warm: usize,
        timed: usize,
        stats: &[&Channel],
        mut op: impl FnMut(&mut Self, usize, Check),
    ) {
        self.env.barrier();
        for i in 0..warm {
            self.tr.set_op(i);
            op(self, i, Check::Full);
        }
        self.out.lat_ns.reserve(timed);
        self.out.stamps_ns.reserve(timed);
        self.tr.reserve(timed * 16);
        self.out.ops = 0;
        self.out.msgs = 0;
        self.env.barrier();
        let before = raw_counts(stats, self.env);
        self.timed = true;
        let virt0 = time::now();
        self.out.timed_wall_ns.0 = self.now_ns();
        for i in warm..warm + timed {
            self.tr.set_op(i);
            op(self, i, Check::Edges);
        }
        self.out.timed_wall_ns.1 = self.now_ns();
        self.out.timed_virt_us = time::now().saturating_since(virt0).as_micros_f64();
        self.timed = false;
        for ((name, after), (_, before)) in raw_counts(stats, self.env).into_iter().zip(before) {
            *self.out.counts.entry(name).or_default() += after - before;
        }
    }

    /// Add a count that is not a `Stats` delta (e.g. payload bytes moved).
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.out.counts.entry(name).or_default() += n;
    }

    pub fn finish(mut self) -> NodeOut {
        self.out.spans = std::mem::take(&mut self.tr.spans);
        self.out
    }
}

/// The counters behind the per-layer count metrics, read through getters
/// only. Node 0 is the sender of every one-directional workload, so the
/// stripe and rail counters — sender-side by construction — are reported
/// under `n0.` names and never summed with the receiver's zeros.
fn raw_counts(chans: &[&Channel], env: &NodeEnv) -> Vec<(&'static str, u64)> {
    let sum = |f: &dyn Fn(&Stats) -> u64| chans.iter().map(|c| f(c.stats())).sum::<u64>();
    let sender = env.id() == 0;
    let side = |f: &dyn Fn(&Stats) -> u64| if sender { sum(f) } else { 0 };
    let inbox = |f: &dyn Fn(&Mailbox<Frame>) -> u64| {
        // All rails of a network share one inbox per node.
        let own = env.adapters().iter().filter(|a| a.rail() == 0);
        own.map(|a| f(a.inbox())).sum::<u64>()
    };
    vec![
        ("messages", sum(&|s| s.messages())),
        ("commits", sum(&|s| s.commits())),
        ("copied_bytes", sum(&|s| s.copied_bytes())),
        ("tm_copied_bytes", sum(&|s| s.tm_copied_bytes())),
        ("borrowed_bytes", sum(&|s| s.borrowed_bytes())),
        ("buffers_sent", sum(&|s| s.buffers_sent())),
        ("pool_hits", sum(&|s| s.pool_hits())),
        ("pool_misses", sum(&|s| s.pool_misses())),
        ("batches", sum(&|s| s.batches())),
        ("batched_packets", sum(&|s| s.batched_packets())),
        ("batch_flush_full", sum(&|s| s.batch_flush_reasons().1)),
        ("batch_frame_bytes", sum(&|s| s.batch_frame_bytes())),
        ("batch_payload_bytes", sum(&|s| s.batch_payload_bytes())),
        (
            "tm_bytes",
            sum(&|s| s.tm_breakdown().iter().map(|&(_, _, b)| b).sum()),
        ),
        ("n0.stripes", side(&|s| s.stripes())),
        ("n0.rail0_bytes", side(&|s| s.rail_traffic(0).1)),
        ("n0.rail1_bytes", side(&|s| s.rail_traffic(1).1)),
        (
            "cq_spins",
            chans.iter().map(|c| c.completions().spins()).sum(),
        ),
        ("mailbox_shard_hits", inbox(&|m| m.shard_hits())),
        ("mailbox_ring_overflows", inbox(&|m| m.ring_overflows())),
        ("mailbox_full_scans", inbox(&|m| m.full_scans())),
    ]
}

/// `WorldBuilder::build`, timed: `(world, wall µs)`.
pub fn build_world(b: WorldBuilder) -> (World, f64) {
    let t = Instant::now();
    let world = b.build();
    (world, t.elapsed().as_secs_f64() * 1e6)
}

/// One message of one CHEAPER/CHEAPER block out, every Table 1 call under
/// its own span.
pub fn send_one(tr: &mut Tracer, ch: &Channel, dst: usize, data: &[u8]) {
    let s = tr.begin("send");
    let mut msg = tr.span("begin_packing", || ch.begin_packing(dst));
    tr.span("pack", || {
        msg.pack(data, SendMode::Cheaper, RecvMode::Cheaper)
    });
    tr.span("end_packing", || msg.end_packing());
    tr.end(s);
}

/// The receiving side of [`send_one`]: `buf` must have the block's length.
pub fn recv_one(tr: &mut Tracer, ch: &Channel, buf: &mut [u8]) {
    let s = tr.begin("recv");
    let mut msg = tr.span("begin_unpacking", || ch.begin_unpacking());
    tr.span("unpack", || {
        msg.unpack(buf, SendMode::Cheaper, RecvMode::Cheaper)
    });
    tr.span("end_unpacking", || msg.end_unpacking());
    tr.end(s);
}

/// One rep of a workload, folded over its nodes.
pub struct Rep {
    /// Rep start (before input generation) → first timed op, wall s.
    pub setup_s: f64,
    /// `WorldBuilder::build`, wall µs.
    pub build_us: f64,
    /// Wall seconds of the timed section (first node in → last node out).
    pub timed_s: f64,
    pub msgs: u64,
    pub ops: u64,
    pub failed: u64,
    /// Per-op wall latency, ns.
    pub lat_ns: Vec<u64>,
    /// Virtual µs per op, as the workload defines it.
    pub virt_us_per_op: f64,
    pub counts: Counts,
    /// Spans per node (empty unless `Mode::Spans`).
    pub spans: Vec<Vec<Span>>,
    /// `paper_curves` only: `(point, bytes, one-way virtual µs)`.
    pub points: Vec<(&'static str, usize, f64)>,
}

impl Rep {
    /// Fold node records. `lat_ns` and `virt_us_per_op` are workload
    /// specific: the caller fills them from the returned node records.
    pub fn fold(mut nodes: Vec<NodeOut>, build_us: f64) -> (Rep, Vec<NodeOut>) {
        let start = nodes.iter().map(|n| n.timed_wall_ns.0).min().unwrap_or(0);
        let end = nodes.iter().map(|n| n.timed_wall_ns.1).max().unwrap_or(0);
        let mut counts = Counts::new();
        for n in &nodes {
            for (k, v) in &n.counts {
                *counts.entry(k).or_default() += v;
            }
        }
        let rep = Rep {
            setup_s: start as f64 / 1e9,
            build_us,
            timed_s: (end - start) as f64 / 1e9,
            msgs: nodes.iter().map(|n| n.msgs).sum(),
            ops: nodes[0].ops,
            failed: nodes.iter().map(|n| n.failed).sum(),
            lat_ns: Vec::new(),
            virt_us_per_op: 0.0,
            counts,
            spans: nodes
                .iter_mut()
                .map(|n| std::mem::take(&mut n.spans))
                .collect(),
            points: Vec::new(),
        };
        (rep, nodes)
    }
}
