//! The **rail** layer of the channel stack, and the stripe engine.
//!
//! Madeleine II is "multi-protocol, *multi-adapter*" (paper §1, Fig. 2):
//! a node may own several NICs on one fabric. A [`Rail`] is one such
//! adapter's worth of channel machinery — a protocol module (PMM) with
//! its transmission modules, plus the buffer pool its BMMs and static
//! buffers draw from. A channel owns `1..N` rails and a
//! [`RailScheduler`] that decides which rail carries what:
//!
//! * **Small / EXPRESS packets** stay on the connection's *home rail*
//!   (`connection index mod n_rails`, skipping quarantined rails), so
//!   per-connection ordering is trivially preserved and distinct
//!   connections spread round-robin over the rails.
//! * **Large CHEAPER blocks** (`send_CHEAPER`, `receive_CHEAPER`, length
//!   ≥ the stripe threshold) are **striped**: split into MTU-ish chunks
//!   that round-robin over every alive rail, each chunk preceded by a
//!   10-byte stripe header (prologue, rail id, chunk offset, chunk
//!   length; see [`crate::wire`]) so reassembly is positional — no
//!   inter-rail ordering is needed, and per-connection order is preserved
//!   because the whole striped block is committed before pack/unpack
//!   continues.
//!
//! Each rail's chunks are sent by a dedicated thread with its own
//! virtual clock (the same trick the world uses for node threads), so
//! the rails' synchronous long-message protocols overlap in virtual
//! time; the caller's clock is advanced to the latest rail's finish.
//!
//! ### Failover
//!
//! On a fault-armed fabric the receiver acknowledges every chunk with a
//! raw control frame (the stripe layer's own kind, distinct from every
//! stack's), routed over its lowest alive rail — all rails of a network
//! share the node's inbound mailbox, so the sender collects acks from
//! any rail. A chunk whose ack does not arrive within the bounded wait
//! gets its rail **quarantined** ([`TraceEvent::RailDown`]) and is
//! re-striped over the survivors; when no rail survives the send fails
//! with [`MadError::ChannelDown`]. On a fault-free fabric none of this
//! machinery arms: no acks, no timeouts, zero extra frames.

use crate::batch::BatchPolicy;
use crate::error::{MadError, MadResult};
use crate::flags::{RecvMode, SendMode};
use crate::pmm::Pmm;
use crate::pool::BufPool;
use crate::stats::Stats;
use crate::trace::{TraceEvent, Tracer};
use crate::wire::{self, STRIPE_CLASS_LEN, STRIPE_HEADER_LEN};
use madsim_net::time::{self, ClockHandle, VDuration, VTime};
use madsim_net::{Adapter, Frame, NodeId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Frame kind of stripe-layer chunk acknowledgments. Stacks use small
/// kind values; this lives far above them so the shared mailbox never
/// confuses an ack with protocol traffic.
const KIND_STRIPE_ACK: u16 = 0xE1;
/// Virtual latency charged to a stripe ack control frame.
const ACK_LAT_US: f64 = 1.0;
/// Real-time bound on the sender's per-round ack wait (mirrors the
/// drivers' fault-armed waits).
const ACK_WAIT: Duration = Duration::from_millis(2_000);
/// Real-time bound on the receive side of a striped block making no
/// progress at all (several chunk-level waits may each consume their own
/// bounded wait before this trips).
const RECV_STALL: Duration = Duration::from_millis(8_000);

/// One adapter's worth of channel machinery: a protocol module and the
/// buffer pool its transmission modules draw from.
pub struct Rail {
    id: usize,
    pmm: Arc<dyn Pmm>,
    pool: BufPool,
    /// The adapter underneath, when the rail was built by a session over
    /// a simulated fabric. Extension channels (e.g. the gateway's
    /// virtual channels) have none — they are single-rail by contract.
    adapter: Option<Adapter>,
    /// Cleared when the rail is quarantined after a link failure.
    alive: AtomicBool,
    /// The owning channel's cached live-rail bitmask (bit `id`), cleared
    /// together with `alive` so hot wait paths can test one word instead
    /// of re-walking every rail.
    live_mask: OnceLock<Arc<AtomicU64>>,
}

impl Rail {
    pub(crate) fn new(
        id: usize,
        pmm: Arc<dyn Pmm>,
        pool: BufPool,
        adapter: Option<Adapter>,
    ) -> Self {
        Rail {
            id,
            pmm,
            pool,
            adapter,
            alive: AtomicBool::new(true),
            live_mask: OnceLock::new(),
        }
    }

    /// Hook the rail up to its channel's live-rail mask (set once at
    /// channel construction).
    pub(crate) fn attach_live_mask(&self, mask: Arc<AtomicU64>) {
        let _ = self.live_mask.set(mask);
    }

    /// Rail index within its channel (0-based, dense).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The protocol module driving this rail.
    pub fn pmm(&self) -> &Arc<dyn Pmm> {
        &self.pmm
    }

    /// The rail's buffer pool.
    pub fn pool(&self) -> &BufPool {
        &self.pool
    }

    /// Is this rail still in service? Always `true` on a fault-free
    /// fabric — quarantine happens only on observed link failures.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Mark the rail out of service. Returns `true` iff this call made
    /// the transition (so the caller records the trace event once).
    fn mark_down(&self) -> bool {
        let was_alive = self.alive.swap(false, Ordering::AcqRel);
        if let Some(mask) = self.live_mask.get() {
            mask.fetch_and(!(1u64 << self.id), Ordering::AcqRel);
        }
        was_alive
    }

    /// Quarantine the rail after a link failure, recording the event
    /// exactly once.
    pub(crate) fn quarantine(&self, stats: &Stats, tracer: &Tracer) {
        if self.mark_down() {
            stats.record_failover();
            tracer.record(TraceEvent::RailDown { rail: self.id });
        }
    }

    /// Is the rail's world fault-armed? World-global (a `FaultPlan`
    /// covers every adapter identically), so any rail answers for the
    /// whole channel, identically at both ends.
    pub(crate) fn faulty(&self) -> bool {
        self.adapter.as_ref().is_some_and(|a| a.faulty())
    }

    fn reachable_to(&self, peer: NodeId) -> bool {
        self.adapter.as_ref().is_none_or(|a| a.reachable_to(peer))
    }
}

/// The channel's rail-selection policy (see module docs).
pub struct RailScheduler {
    /// Large CHEAPER blocks at least this long are striped.
    pub(crate) stripe_threshold: usize,
    /// Stripe chunk size.
    pub(crate) stripe_chunk: usize,
    /// Small-packet coalescing policy (see [`crate::batch`]); off unless
    /// the channel spec asked for batching.
    pub(crate) batch: BatchPolicy,
}

impl RailScheduler {
    pub(crate) fn new(stripe_threshold: usize, stripe_chunk: usize) -> Self {
        assert!(stripe_chunk > 0, "stripe chunk must be positive");
        assert!(stripe_threshold > 0, "stripe threshold must be positive");
        RailScheduler {
            stripe_threshold,
            stripe_chunk,
            batch: BatchPolicy::off(),
        }
    }

    /// Enable small-packet batching with the given policy.
    pub(crate) fn with_batching(mut self, batch: BatchPolicy) -> Self {
        assert!(
            batch.max_packets >= 1,
            "batch packet count must be positive"
        );
        assert!(batch.max_bytes > 0, "batch byte threshold must be positive");
        assert!(
            batch.flush_us > 0.0,
            "batch flush deadline must be positive"
        );
        self.batch = batch;
        self
    }

    /// Should a block with these emission flags be striped? Must be a
    /// pure, symmetric function of its arguments (like `Pmm::select`):
    /// both endpoints evaluate it independently. `n_rails` is the
    /// *configured* rail count, identical on every member.
    pub(crate) fn should_stripe(
        &self,
        len: usize,
        smode: SendMode,
        rmode: RecvMode,
        n_rails: usize,
    ) -> bool {
        n_rails > 1
            && smode == SendMode::Cheaper
            && rmode == RecvMode::Cheaper
            && len >= self.stripe_threshold
    }

    /// Home rail of the connection with member index `conn_index`:
    /// `conn_index mod n`, advanced past quarantined rails.
    pub(crate) fn home_rail(&self, conn_index: usize, rails: &[Rail]) -> usize {
        let n = rails.len();
        let start = conn_index % n;
        for k in 0..n {
            let r = (start + k) % n;
            if rails[r].is_alive() {
                return r;
            }
        }
        // Every rail is down; let the send path surface the error.
        start
    }

    /// Split `0..len` into stripe chunks: `(offset, length)` pairs in
    /// offset order.
    fn chunks(&self, len: usize) -> Vec<(usize, usize)> {
        let mut v = Vec::with_capacity(len.div_ceil(self.stripe_chunk));
        let mut off = 0;
        while off < len {
            let l = self.stripe_chunk.min(len - off);
            v.push((off, l));
            off += l;
        }
        v
    }
}

/// Everything the stripe engine needs from the channel, borrowed for one
/// striped block.
pub(crate) struct StripeCtx<'c> {
    pub rails: &'c [Rail],
    pub sched: &'c RailScheduler,
    pub me: NodeId,
    pub stats: &'c Arc<Stats>,
    pub tracer: &'c Arc<Tracer>,
    /// Demultiplexing tag of this block's ack frames: unique per
    /// (channel, connection direction, block) — both endpoints derive it
    /// from their per-connection stripe-block counters, so no extra wire
    /// traffic is needed to agree on it.
    pub ack_tag: u64,
}

/// One stripe chunk as an `(offset, len)` span of the source block.
type ChunkSpan = (usize, usize);
/// One rail sender thread's outcome: rail id, final virtual clock,
/// chunks that made it, chunks abandoned after a transport error.
type RailOutcome = (usize, VTime, Vec<ChunkSpan>, Vec<ChunkSpan>);

/// Stripe `data` to `dst` across the context's alive rails.
pub(crate) fn stripe_send(ctx: &StripeCtx<'_>, dst: NodeId, data: &[u8]) -> MadResult<()> {
    assert!(
        data.len() <= u32::MAX as usize,
        "striped blocks are limited to 4 GiB"
    );
    let faulty = ctx.rails.iter().any(Rail::faulty);
    let mut todo = ctx.sched.chunks(data.len());
    ctx.stats.record_stripe();
    ctx.tracer.record(TraceEvent::Stripe {
        len: data.len(),
        chunks: todo.len(),
        rails: ctx.rails.iter().filter(|r| r.is_alive()).count(),
    });
    let mut round = 0;
    while !todo.is_empty() {
        round += 1;
        if round > ctx.rails.len() + 1 {
            return Err(MadError::ChannelDown);
        }
        let alive: Vec<&Rail> = ctx.rails.iter().filter(|r| r.is_alive()).collect();
        if alive.is_empty() {
            return Err(MadError::ChannelDown);
        }
        // Round-robin the remaining chunks over the alive rails.
        let mut spans: Vec<Vec<(usize, usize)>> = vec![Vec::new(); alive.len()];
        for (i, c) in todo.iter().enumerate() {
            spans[i % alive.len()].push(*c);
        }
        let start = time::now();
        // One sender thread per rail, each with its own virtual clock
        // seeded at `start`, so the rails' synchronous long-message
        // protocols overlap in virtual time. Contention for the shared
        // host PCI bus is modeled by the bus's reservation timeline.
        let outcomes: Vec<RailOutcome> = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for (rail, span) in alive.iter().zip(&spans) {
                if span.is_empty() {
                    continue;
                }
                let rail: &Rail = rail;
                handles.push(s.spawn(move || {
                    let clock = ClockHandle::new();
                    clock.advance_to(start);
                    let prev = time::install_clock(clock.clone());
                    let (sent, failed) = send_span(ctx, rail, dst, span, data);
                    time::restore_clock(prev);
                    (rail.id(), clock.now(), sent, failed)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("rail sender thread panicked"))
                .collect()
        });
        let mut failed_chunks = Vec::new();
        let mut sent_chunks: Vec<(usize, (usize, usize))> = Vec::new();
        let mut makespan = start;
        for (rail_id, end, sent, failed) in outcomes {
            makespan = makespan.max(end);
            sent_chunks.extend(sent.into_iter().map(|c| (rail_id, c)));
            if !failed.is_empty() {
                ctx.rails[rail_id].quarantine(ctx.stats, ctx.tracer);
                failed_chunks.extend(failed);
            }
        }
        time::advance_to(makespan);
        todo = failed_chunks;
        if faulty && !sent_chunks.is_empty() {
            for (rail_id, chunk) in wait_acks(ctx, dst, &sent_chunks) {
                ctx.rails[rail_id].quarantine(ctx.stats, ctx.tracer);
                todo.push(chunk);
            }
        }
    }
    Ok(())
}

/// Send one rail's span of chunks, in order. Returns the chunks that
/// made it and the ones abandoned after the first transport error.
fn send_span(
    ctx: &StripeCtx<'_>,
    rail: &Rail,
    dst: NodeId,
    span: &[ChunkSpan],
    data: &[u8],
) -> (Vec<ChunkSpan>, Vec<ChunkSpan>) {
    let mut sent = Vec::with_capacity(span.len());
    for (i, &(off, len)) in span.iter().enumerate() {
        if send_chunk(ctx, rail, dst, off, len, data).is_err() {
            return (sent, span[i..].to_vec());
        }
        ctx.stats.record_borrowed(len);
        ctx.stats
            .record_rail_traffic(rail.id(), STRIPE_HEADER_LEN + len);
        sent.push((off, len));
    }
    (sent, Vec::new())
}

/// Send one chunk: stripe header on the protocol's small path, then the
/// payload by reference through the TM the Switch picks for its size.
/// The header's TM is selected on the canonical [`STRIPE_CLASS_LEN`].
fn send_chunk(
    ctx: &StripeCtx<'_>,
    rail: &Rail,
    dst: NodeId,
    off: usize,
    len: usize,
    data: &[u8],
) -> MadResult<()> {
    let hdr = wire::encode_stripe_header(rail.id(), off, len);
    let hdr_tm = rail
        .pmm
        .select(STRIPE_CLASS_LEN, SendMode::Cheaper, RecvMode::Express);
    rail.pmm.tm(hdr_tm).send_buffer(dst, &hdr)?;
    let tm = rail.pmm.select(len, SendMode::Cheaper, RecvMode::Cheaper);
    rail.pmm.tm(tm).send_buffer(dst, &data[off..off + len])?;
    ctx.stats.record_buffer_sent();
    ctx.stats.record_tm_traffic(tm, len);
    Ok(())
}

/// Collect this round's chunk acks (fault-armed fabrics only). Returns
/// the chunks whose ack never came, with the rail that carried them.
fn wait_acks(
    ctx: &StripeCtx<'_>,
    dst: NodeId,
    sent: &[(usize, (usize, usize))],
) -> Vec<(usize, (usize, usize))> {
    // All rails of a network share the node's inbound mailbox, so any
    // adapter sees acks regardless of which rail carried them.
    let Some(adapter) = ctx.rails.iter().find_map(|r| r.adapter.as_ref()) else {
        return Vec::new();
    };
    let mut pending: std::collections::HashMap<u64, (usize, (usize, usize))> = sent
        .iter()
        .map(|&(rail_id, c)| (c.0 as u64, (rail_id, c)))
        .collect();
    let deadline = Instant::now() + ACK_WAIT;
    while !pending.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        let Some(frame) =
            adapter
                .inbox()
                .recv_from_timeout(dst, KIND_STRIPE_ACK, |f| f.tag == ctx.ack_tag, left)
        else {
            break;
        };
        time::advance_to(frame.arrival);
        if let Some(off) = wire::decode_stripe_ack(&frame.payload) {
            pending.remove(&off);
        }
    }
    pending.into_values().collect()
}

/// Reassemble a striped block from `src` into `dst`, mirroring
/// [`stripe_send`].
pub(crate) fn stripe_recv(ctx: &StripeCtx<'_>, src: NodeId, dst: &mut [u8]) -> MadResult<()> {
    if ctx.rails.iter().any(Rail::faulty) {
        stripe_recv_dynamic(ctx, src, dst)
    } else {
        stripe_recv_mirror(ctx, src, dst)
    }
}

/// Fault-free reassembly: the sender's chunk layout is a pure function
/// of the block length and the rail count (all rails alive, round-robin
/// by chunk index), so the receiver mirrors it deterministically —
/// harvesting every rail's next stripe header (and posting the bulk
/// TM's prefetch, so rendezvous protocols overlap across rails) before
/// blocking on payloads in chunk order.
fn stripe_recv_mirror(ctx: &StripeCtx<'_>, src: NodeId, dst: &mut [u8]) -> MadResult<()> {
    let total = dst.len();
    let chunks = ctx.sched.chunks(total);
    let n = ctx.rails.len();
    let mut queues: Vec<std::collections::VecDeque<(usize, usize)>> =
        vec![std::collections::VecDeque::new(); n];
    for (i, c) in chunks.iter().enumerate() {
        queues[i % n].push_back(*c);
    }
    let mut awaiting: Vec<Option<(usize, usize)>> = vec![None; n];
    for c in 0..chunks.len() {
        // Keep one header harvested (and one prefetch posted) per rail.
        for r in 0..n {
            if awaiting[r].is_some() {
                continue;
            }
            let Some(&(exp_off, exp_len)) = queues[r].front() else {
                continue;
            };
            let rail = &ctx.rails[r];
            recv_stripe_header(rail, src, Some((exp_off, exp_len)))?;
            let tm = rail
                .pmm
                .select(exp_len, SendMode::Cheaper, RecvMode::Cheaper);
            rail.pmm.tm(tm).prefetch(src);
            queues[r].pop_front();
            awaiting[r] = Some((exp_off, exp_len));
        }
        let r = c % n;
        let (off, len) = awaiting[r].take().expect("harvested just above");
        let rail = &ctx.rails[r];
        let tm = rail.pmm.select(len, SendMode::Cheaper, RecvMode::Cheaper);
        rail.pmm
            .tm(tm)
            .receive_buffer(src, &mut dst[off..off + len])?;
        ctx.stats.record_rail_traffic(r, STRIPE_HEADER_LEN + len);
    }
    Ok(())
}

/// Fault-armed reassembly: the sender's layout is unknowable (rails
/// quarantine and chunks re-stripe mid-block), so chunks are accepted in
/// whatever order the rails deliver them, keyed by the stripe header's
/// offset, and every received chunk is acknowledged so the sender can
/// tell loss from latency.
fn stripe_recv_dynamic(ctx: &StripeCtx<'_>, src: NodeId, dst: &mut [u8]) -> MadResult<()> {
    let total = dst.len();
    let n = ctx.rails.len();
    let mut got = std::collections::HashSet::new();
    let mut received = 0usize;
    let mut awaiting: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut stall_since = Instant::now();
    while received < total {
        let mut progressed = false;
        // Phase A: harvest announced stripe headers (at most one
        // outstanding per rail, so stream protocols stay parseable) and
        // post the bulk TM's prefetch immediately.
        for rail in ctx.rails {
            let r = rail.id();
            if !rail.is_alive() || awaiting[r].is_some() {
                continue;
            }
            if !rail.reachable_to(src) {
                rail.quarantine(ctx.stats, ctx.tracer);
                continue;
            }
            if rail.pmm.poll_incoming() != Some(src) {
                continue;
            }
            match recv_stripe_header(rail, src, None) {
                Ok((off, len)) => {
                    if off.checked_add(len).is_none_or(|end| end > total) {
                        return Err(MadError::corrupt(format!(
                            "stripe chunk ({off}, {len}) from node {src} overflows \
                             a {total}-byte block"
                        )));
                    }
                    let tm = rail.pmm.select(len, SendMode::Cheaper, RecvMode::Cheaper);
                    rail.pmm.tm(tm).prefetch(src);
                    awaiting[r] = Some((off, len));
                    progressed = true;
                }
                Err(MadError::CorruptStream(what)) => {
                    return Err(MadError::CorruptStream(what));
                }
                Err(_) => rail.quarantine(ctx.stats, ctx.tracer),
            }
        }
        // Phase B: pull one outstanding payload (lowest rail first).
        if let Some(r) = (0..n).find(|&r| awaiting[r].is_some()) {
            let (off, len) = awaiting[r].take().expect("just found");
            let rail = &ctx.rails[r];
            let tm = rail.pmm.select(len, SendMode::Cheaper, RecvMode::Cheaper);
            match rail
                .pmm
                .tm(tm)
                .receive_buffer(src, &mut dst[off..off + len])
            {
                Ok(()) => {
                    // Duplicates happen when a chunk's ack was lost and
                    // the sender re-striped it; the payload bytes are
                    // identical, only the accounting dedups.
                    if got.insert(off) {
                        received += len;
                    }
                    ctx.stats.record_rail_traffic(r, STRIPE_HEADER_LEN + len);
                    send_ack(ctx, src, off);
                    progressed = true;
                }
                Err(_) => rail.quarantine(ctx.stats, ctx.tracer),
            }
        }
        if progressed {
            stall_since = Instant::now();
        } else {
            if ctx.rails.iter().all(|r| !r.is_alive()) || stall_since.elapsed() >= RECV_STALL {
                return Err(MadError::ChannelDown);
            }
            std::thread::yield_now();
        }
    }
    Ok(())
}

/// Receive one stripe header on `rail` and return the chunk span it
/// names. Both reassembly paths read headers here: the mirror path passes
/// the span its deterministic layout `expect`s, the dynamic path (which
/// cannot know the sender's layout) passes `None`.
fn recv_stripe_header(rail: &Rail, src: NodeId, expect: Option<ChunkSpan>) -> MadResult<ChunkSpan> {
    let tm = rail
        .pmm
        .select(STRIPE_CLASS_LEN, SendMode::Cheaper, RecvMode::Express);
    let mut hdr = [0u8; STRIPE_HEADER_LEN];
    rail.pmm.tm(tm).receive_buffer(src, &mut hdr)?;
    check_stripe_header(&hdr, rail.id(), src, expect)
}

/// Validate received stripe-header bytes: a well-formed header, naming
/// the rail it arrived on and (when the layout is known) the expected span.
fn check_stripe_header(
    hdr: &[u8],
    rail: usize,
    src: NodeId,
    expect: Option<ChunkSpan>,
) -> MadResult<ChunkSpan> {
    let h = wire::decode_stripe_header(hdr)?;
    if h.rail != rail {
        return Err(MadError::corrupt(format!(
            "stripe header for rail {} from node {src} arrived on rail {rail}",
            h.rail
        )));
    }
    let span = (h.off, h.len);
    if expect.is_some_and(|e| e != span) {
        return Err(MadError::corrupt(format!(
            "stripe chunk {span:?} from node {src} does not match the \
             deterministic layout (expected {expect:?})"
        )));
    }
    Ok(span)
}

/// Acknowledge the chunk at `off` toward `dst`, routed over the lowest
/// alive-and-reachable rail (fault-armed receivers only).
fn send_ack(ctx: &StripeCtx<'_>, dst: NodeId, off: usize) {
    let adapter = ctx
        .rails
        .iter()
        .find(|r| r.is_alive() && r.reachable_to(dst))
        .and_then(|r| r.adapter.as_ref())
        .or_else(|| ctx.rails.iter().find_map(|r| r.adapter.as_ref()));
    let Some(adapter) = adapter else { return };
    let frame = Frame {
        src: ctx.me,
        kind: KIND_STRIPE_ACK,
        tag: ctx.ack_tag,
        arrival: time::now() + VDuration::from_micros_f64(ACK_LAT_US),
        payload: bytes::Bytes::copy_from_slice(&wire::encode_stripe_ack(off)),
    };
    adapter.send_raw_control(dst, frame);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmm::SendPolicy;
    use crate::tm::{TmId, TransmissionModule};

    /// A PMM with no transfer methods: enough to exercise the scheduler's
    /// pure logic without a fabric underneath.
    struct NullPmm;

    impl Pmm for NullPmm {
        fn name(&self) -> &'static str {
            "null"
        }
        fn tms(&self) -> &[Arc<dyn TransmissionModule>] {
            &[]
        }
        fn select(&self, _len: usize, _smode: SendMode, _rmode: RecvMode) -> TmId {
            0
        }
        fn policy(&self, _id: TmId) -> SendPolicy {
            SendPolicy::Eager
        }
        fn wait_incoming(&self) -> NodeId {
            unreachable!("null PMM carries no traffic")
        }
        fn poll_incoming(&self) -> Option<NodeId> {
            None
        }
    }

    fn test_rails(n: usize) -> Vec<Rail> {
        (0..n)
            .map(|i| Rail::new(i, Arc::new(NullPmm), BufPool::new(Stats::new()), None))
            .collect()
    }

    #[test]
    fn chunking_covers_the_block_exactly() {
        let sched = RailScheduler::new(256, 100);
        let chunks = sched.chunks(250);
        assert_eq!(chunks, vec![(0, 100), (100, 100), (200, 50)]);
        assert_eq!(sched.chunks(100), vec![(0, 100)]);
        assert!(sched.chunks(0).is_empty());
    }

    #[test]
    fn stripe_header_must_name_its_rail_and_the_mirror_span() {
        let hdr = wire::encode_stripe_header(1, 4096, 1024);
        assert_eq!(check_stripe_header(&hdr, 1, 0, None).unwrap(), (4096, 1024));
        let span = Some((4096, 1024));
        assert_eq!(check_stripe_header(&hdr, 1, 0, span).unwrap(), (4096, 1024));
        for bad in [
            check_stripe_header(&hdr, 0, 0, None),
            check_stripe_header(&hdr, 1, 0, Some((4096, 512))),
            check_stripe_header(&hdr, 1, 0, Some((0, 1024))),
            check_stripe_header(&hdr[..9], 1, 0, None),
        ] {
            assert!(matches!(bad, Err(MadError::CorruptStream(_))), "{bad:?}");
        }
    }

    #[test]
    fn striping_needs_cheaper_both_ways_and_rails() {
        let sched = RailScheduler::new(1000, 500);
        use RecvMode as R;
        use SendMode as S;
        assert!(sched.should_stripe(1000, S::Cheaper, R::Cheaper, 2));
        assert!(
            !sched.should_stripe(999, S::Cheaper, R::Cheaper, 2),
            "below threshold"
        );
        assert!(
            !sched.should_stripe(1000, S::Cheaper, R::Cheaper, 1),
            "single rail"
        );
        assert!(!sched.should_stripe(1000, S::Safer, R::Cheaper, 2));
        assert!(!sched.should_stripe(1000, S::Later, R::Cheaper, 2));
        assert!(!sched.should_stripe(1000, S::Cheaper, R::Express, 2));
    }

    #[test]
    fn home_rail_round_robins_and_skips_dead() {
        let sched = RailScheduler::new(1000, 500);
        let rails = test_rails(3);
        assert_eq!(sched.home_rail(0, &rails), 0);
        assert_eq!(sched.home_rail(1, &rails), 1);
        assert_eq!(sched.home_rail(5, &rails), 2);
        let stats = Stats::new();
        let tracer = Tracer::new();
        rails[1].quarantine(&stats, &tracer);
        assert!(!rails[1].is_alive());
        assert_eq!(sched.home_rail(1, &rails), 2, "skips the dead rail");
        assert_eq!(sched.home_rail(4, &rails), 2);
        assert_eq!(stats.failovers(), 1);
        // A second quarantine of the same rail records nothing new.
        rails[1].quarantine(&stats, &tracer);
        assert_eq!(stats.failovers(), 1);
    }
}
