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
//! The send side is one resumable state machine, [`StripeSend`], polled
//! on the calling thread — the data path spawns no threads. Each rail
//! has a queue of chunks, at most one frame parked on a peer event (a
//! stripe header's credit wait, a payload's rendezvous; the payload is a
//! zero-copy slice of the posted block) and its own virtual clock,
//! installed around that rail's TM calls, so the rails' long-message
//! protocols overlap in virtual time. Frames leave in the order the
//! receiver consumes them (`StripeSend::held`). Blocking `pack` spins the
//! machine to completion; a posted op parks it between progress ticks
//! (`OpState::StripePartial`), so the CTSs arrive while the caller computes.
//!
//! ### Failover
//!
//! On a fault-armed fabric the receiver acknowledges every chunk with a
//! raw control frame (the stripe layer's own kind, distinct from every
//! stack's), routed over its lowest alive rail — all rails of a network
//! share the node's inbound mailbox, so the sender collects acks from
//! any rail. A rail whose TM reports a transport error is **quarantined**
//! ([`TraceEvent::RailDown`]), and so is one whose chunk stays
//! unacknowledged past the bounded wait; each round deals what is left
//! over the survivors, and when no rail survives the send
//! fails with [`MadError::ChannelDown`]. On a fault-free fabric none of
//! this machinery arms: no acks, no timeouts, zero extra frames.

use crate::batch::BatchPolicy;
use crate::error::{MadError, MadResult};
use crate::flags::{RecvMode, SendMode};
use crate::pmm::Pmm;
use crate::pool::BufPool;
use crate::stats::Stats;
use crate::tm::{TmId, TmPending, TmSend, TmStep};
use crate::trace::{TraceEvent, Tracer};
use crate::wire::{self, STRIPE_CLASS_LEN, STRIPE_HEADER_LEN};
use bytes::Bytes;
use madsim_net::time::{self, ClockHandle, VDuration, VTime};
use madsim_net::{Adapter, Frame, NodeId};
use std::collections::VecDeque;
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
    /// The TM that carries batch frames on this rail — the small EXPRESS
    /// path, selected symmetrically on both ends — and the largest frame
    /// it carries, looked up once here instead of per packet.
    batch_tm: TmId,
    batch_frame_cap: usize,
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
        let batch_tm = pmm.select(wire::MSG_CLASS_LEN, SendMode::Cheaper, RecvMode::Express);
        // (A PMM without TMs — a test double — batches nothing.)
        let batch_frame_cap = pmm
            .tms()
            .get(batch_tm as usize)
            .map_or(0, |tm| tm.caps().buffer_cap);
        Rail {
            id,
            pmm,
            pool,
            adapter,
            batch_tm,
            batch_frame_cap,
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

    /// The TM carrying this rail's batch frames.
    pub(crate) fn batch_tm(&self) -> TmId {
        self.batch_tm
    }

    /// The batch TM's frame budget.
    pub(crate) fn batch_frame_cap(&self) -> usize {
        self.batch_frame_cap
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

/// One rail's share of a striped block in flight.
#[derive(Default)]
struct Lane {
    /// Rail-local virtual clock, installed around this rail's TM calls.
    clock: ClockHandle,
    /// Chunks assigned to this rail and not retired yet.
    queue: VecDeque<ChunkSpan>,
    /// Has the front chunk's stripe header shipped (its payload is next)?
    header_out: bool,
    /// The front chunk's next frame, parked on a credit return or a CTS.
    parked: Option<Box<dyn TmPending>>,
}

/// A striped block on its way to `dst`: one resumable state machine over
/// every rail (see the module docs), polled with `try_advance`.
pub(crate) struct StripeSend {
    dst: NodeId,
    data: Bytes,
    /// Fault-armed fabric: chunks are acknowledged, rails can fail.
    faulty: bool,
    /// Indexed by rail id.
    lanes: Vec<Lane>,
    /// Chunks waiting for the next round: the whole block at first, then
    /// whatever a failed rail left unsent or unacknowledged.
    todo: Vec<ChunkSpan>,
    /// Fault-armed fabrics: shipped chunks awaiting their ack, by rail.
    unacked: Vec<(usize, ChunkSpan)>,
    /// Real-time bound on this round's ack wait, armed once the lanes drain.
    ack_deadline: Option<Instant>,
    rounds: usize,
    /// Frames shipped so far (the sweep loop's progress mark).
    shipped: usize,
    /// Latest virtual instant any rail (or ack) reached.
    makespan: VTime,
}

impl StripeSend {
    /// Plan the striped send of `data`; nothing ships until the first
    /// `try_advance`. The rails' clocks start at the caller's instant.
    pub(crate) fn new(ctx: &StripeCtx<'_>, dst: NodeId, data: Bytes) -> Self {
        assert!(
            data.len() <= u32::MAX as usize,
            "striped blocks are limited to 4 GiB"
        );
        let todo = ctx.sched.chunks(data.len());
        ctx.stats.record_stripe();
        ctx.tracer.record(TraceEvent::Stripe {
            len: data.len(),
            chunks: todo.len(),
            rails: ctx.rails.iter().filter(|r| r.is_alive()).count(),
        });
        StripeSend {
            dst,
            data,
            faulty: ctx.rails.iter().any(Rail::faulty),
            lanes: ctx.rails.iter().map(|_| Lane::default()).collect(),
            todo,
            unacked: Vec::new(),
            ack_deadline: None,
            rounds: 0,
            shipped: 0,
            makespan: time::now(),
        }
    }

    /// Advance every rail as far as it goes. `Ok(Some(t))` once the last
    /// chunk retired (on a fault-armed fabric: was acknowledged), the
    /// latest rail at virtual instant `t`; `Ok(None)` while frames are
    /// parked on credit returns, CTSs or acks; `Err` when no rail survived.
    pub(crate) fn try_advance(&mut self, ctx: &StripeCtx<'_>) -> MadResult<Option<VTime>> {
        loop {
            // Sweep until nothing ships: one rail's progress releases the
            // frames another holds back.
            let parked = loop {
                let shipped = self.shipped;
                let mut parked = false;
                for r in 0..self.lanes.len() {
                    parked |= self.advance_lane(ctx, r);
                }
                if self.shipped == shipped {
                    break parked;
                }
            };
            self.collect_acks(ctx);
            if parked {
                return Ok(None);
            }
            if !self.unacked.is_empty() {
                let deadline = *self
                    .ack_deadline
                    .get_or_insert_with(|| Instant::now() + ACK_WAIT);
                if Instant::now() < deadline {
                    return Ok(None);
                }
                // An ack that never came condemns the rail that carried
                // the chunk; the chunk is re-striped over the survivors.
                for (r, chunk) in self.unacked.drain(..) {
                    ctx.rails[r].quarantine(ctx.stats, ctx.tracer);
                    self.todo.push(chunk);
                }
            }
            if self.todo.is_empty() {
                return Ok(Some(self.makespan));
            }
            self.deal_round(ctx)?;
        }
    }

    /// Start a round: deal the waiting chunks round-robin over the alive
    /// rails, whose clocks resume at the latest instant reached so far.
    fn deal_round(&mut self, ctx: &StripeCtx<'_>) -> MadResult<()> {
        self.rounds += 1;
        let alive: Vec<usize> = ctx
            .rails
            .iter()
            .filter(|r| r.is_alive())
            .map(Rail::id)
            .collect();
        if alive.is_empty() || self.rounds > ctx.rails.len() + 1 {
            return Err(MadError::ChannelDown);
        }
        self.ack_deadline = None;
        for (i, chunk) in self.todo.drain(..).enumerate() {
            self.lanes[alive[i % alive.len()]].queue.push_back(chunk);
        }
        for &r in &alive {
            self.lanes[r].clock.advance_to(self.makespan);
        }
        Ok(())
    }

    /// Run rail `r`'s lane under its own clock; a transport error
    /// quarantines the rail and hands its chunks back for the next round.
    /// Returns whether the lane still waits (on the peer or another rail).
    fn advance_lane(&mut self, ctx: &StripeCtx<'_>, r: usize) -> bool {
        let prev = time::install_clock(self.lanes[r].clock.clone());
        let ran = self.run_lane(ctx, r);
        time::restore_clock(prev);
        let lane = &mut self.lanes[r];
        self.makespan = self.makespan.max(lane.clock.now());
        match ran {
            Ok(parked) => parked,
            Err(_) => {
                ctx.rails[r].quarantine(ctx.stats, ctx.tracer);
                (lane.parked, lane.header_out) = (None, false);
                self.todo.extend(lane.queue.drain(..));
                false
            }
        }
    }

    /// Push rail `r`'s chunks as far as they go: stripe header on the
    /// small path (TM selected on the canonical [`STRIPE_CLASS_LEN`]), then
    /// the payload, a zero-copy slice of the block, through the TM the
    /// Switch picks for its size. `Ok(true)`: a frame is parked or held.
    fn run_lane(&mut self, ctx: &StripeCtx<'_>, r: usize) -> MadResult<bool> {
        let rail = &ctx.rails[r];
        loop {
            let header_out = self.lanes[r].header_out;
            let Some(&(off, len)) = self.lanes[r].queue.front() else {
                return Ok(false);
            };
            if !self.faulty && self.held(ctx, r, (off, len), header_out) {
                return Ok(true);
            }
            let lane = &mut self.lanes[r];
            let tm = if header_out {
                rail.pmm.select(len, SendMode::Cheaper, RecvMode::Cheaper)
            } else {
                rail.pmm
                    .select(STRIPE_CLASS_LEN, SendMode::Cheaper, RecvMode::Express)
            };
            let step = match lane.parked.take() {
                Some(mut cont) => match cont.try_advance()? {
                    TmStep::Done(at) => TmSend::Done(at),
                    TmStep::Pending => TmSend::Pending(cont),
                },
                None => {
                    let frame = if header_out {
                        self.data.slice(off..off + len)
                    } else {
                        Bytes::copy_from_slice(&wire::encode_stripe_header(r, off, len))
                    };
                    rail.pmm.tm(tm).post_send(self.dst, frame)?
                }
            };
            match step {
                TmSend::Done(at) => {
                    time::advance_to(at);
                    self.shipped += 1;
                }
                TmSend::Pending(cont) => {
                    lane.parked = Some(cont);
                    return Ok(true);
                }
            }
            if header_out {
                ctx.stats.record_buffer_sent();
                ctx.stats.record_tm_traffic(tm, len);
                ctx.stats.record_borrowed(len);
                ctx.stats.record_rail_traffic(r, STRIPE_HEADER_LEN + len);
                if self.faulty {
                    self.unacked.push((r, (off, len)));
                }
                lane.queue.pop_front();
            }
            lane.header_out = !header_out;
        }
    }

    /// Must rail `r` hold back the next frame of its chunk? On a fault-free
    /// fabric frames leave in the order the mirroring receiver consumes
    /// them — every rail's first header, then payloads in chunk order, a
    /// rail's next header right behind its payload — so a send that blocks
    /// until the receiver drains it (a stream ring smaller than a chunk)
    /// never waits on a frame this thread has yet to ship, and the bus
    /// bookings do not depend on which poll sees a CTS first. Where the
    /// bulk TM parks on a rendezvous (its post cannot block), a rail's next
    /// header also waits while the chunk next in line sits on a
    /// lower-numbered rail, so that rail's DMA is booked ahead of a header
    /// stamped inside its bus window (the bus timeline never splits one
    /// transfer around another). A fault-armed receiver takes chunks in
    /// any order: nothing is held.
    fn held(&self, ctx: &StripeCtx<'_>, r: usize, (off, len): ChunkSpan, out: bool) -> bool {
        let first_round = self.lanes.len() * ctx.sched.stripe_chunk;
        let heads = self.lanes.iter().enumerate();
        let mut heads = heads.filter_map(|(i, l)| Some((l.queue.front()?.0, i, l.header_out)));
        if out {
            return heads.any(|(o, _, out)| o < off || (o < first_round && !out));
        }
        let pmm = &ctx.rails[r].pmm;
        let bulk = pmm.tm(pmm.select(len, SendMode::Cheaper, RecvMode::Cheaper));
        off >= first_round && bulk.rendezvous() && heads.min().is_some_and(|(_, i, _)| i < r)
    }

    /// Harvest the chunk acks that have arrived. All rails of a network
    /// share the node's inbound mailbox, so any adapter sees every ack.
    fn collect_acks(&mut self, ctx: &StripeCtx<'_>) {
        let Some(adapter) = ctx.rails.iter().find_map(|r| r.adapter.as_ref()) else {
            return;
        };
        while !self.unacked.is_empty() {
            let ack = |f: &Frame| f.tag == ctx.ack_tag;
            let Some(frame) = adapter
                .inbox()
                .try_recv_from(self.dst, KIND_STRIPE_ACK, ack)
            else {
                return;
            };
            self.makespan = self.makespan.max(frame.arrival);
            if let Some(off) = wire::decode_stripe_ack(&frame.payload) {
                self.unacked.retain(|&(_, (o, _))| o as u64 != off);
            }
        }
    }
}

/// Reassemble a striped block from `src` into `dst`, mirroring
/// [`StripeSend`].
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
