//! Adaptive wire-level batching: the per-connection **SendBatch** layer.
//!
//! The paper's emission flags already license the library to *delay* a
//! block and pick the cheapest transfer moment (`send_LATER`,
//! `send_CHEAPER`, Table 1). This module exercises that license at the
//! wire level: consecutive small packets bound for the same peer and rail
//! coalesce into one **multi-envelope frame** — a compact header followed
//! by a per-packet `{len, flags}` envelope table and the concatenated
//! payloads — so a burst of tiny messages pays the per-frame fixed cost
//! (kernel traversal, descriptor post, ARQ ack round) once instead of
//! per packet. The receive side splits the frame back into individual
//! deliveries with unchanged per-packet semantics, ordering, and sequence
//! numbers.
//!
//! ## Wire format
//!
//! The frame layout lives in [`crate::wire`] (the one module that defines
//! every on-wire byte): a prologue byte and an explicit body length, the
//! first envelope `seq` and the packet count, an envelope table of
//! `(len << 2 | flags)` varints, then the concatenated payloads.
//!
//! Envelope `seq` is a per-connection *batch packet* counter assigned at
//! flush time; the receiver demands exact continuity, which turns any
//! lost, duplicated, or reordered batch frame that slips past the
//! transport into a loud [`MadError::CorruptStream`] instead of silent
//! misdelivery. `flags` bit 0 marks a user-EXPRESS packet, bit 1 the
//! channel's internal message header (both diagnostic: routing is fully
//! determined by the symmetric pack/unpack mirror).
//!
//! ## Flush policy
//!
//! An open batch closes — and its frame ships — on the first of:
//!
//! * **Express**: a user-EXPRESS packet is appended (it rides *inside*
//!   the closing frame, so latency-sensitive traffic is never held);
//! * **Full**: the packet-count or payload-byte threshold from
//!   [`ChannelSpec::with_batching`](crate::config::ChannelSpec::with_batching)
//!   is reached, or the next packet would overflow the TM's frame budget;
//! * **Explicit**: `end_packing`, [`Channel::flush`](crate::channel::Channel::flush),
//!   or an ordering barrier (a non-batchable block, a striped block, a
//!   blocking send entering the connection) closes it;
//! * **Deadline**: a progress-engine tick observes the batch has been
//!   open longer than the configured flush deadline.
//!
//! ## What batches
//!
//! The eligibility test ([`batchable`]) is a pure, symmetric function of
//! the packet length and send mode — both endpoints evaluate it
//! independently, like `Pmm::select` (messages are not self-described).
//! `send_LATER` blocks never batch (appending copies immediately, which
//! would break LATER's deferred-read contract); blocks at or above the
//! stripe threshold never reach the batch layer (the stripe check runs
//! first); and rendezvous-class long messages exceed the frame budget, so
//! they keep their dedicated wire exchange. With batching disabled (the
//! default, `batch_packets == 1`) this module is bypassed entirely and
//! the wire byte stream is identical to the pre-batching library.
//!
//! A dropped or corrupted batch frame is retransmitted *as a unit* by the
//! transport's existing ARQ — the frame is one `send_buffer` call, well
//! under the ARQ segment size.

use crate::connection::Connection;
use crate::error::{MadError, MadResult};
use crate::flags::SendMode;
use crate::pool::PooledBuf;
use crate::rail::Rail;
use crate::stats::Stats;
use crate::trace::{TraceEvent, Tracer};
use crate::wire::{self, BATCH_CLASS_ENV_LEN, BATCH_CLASS_HDR_LEN};
use bytes::Bytes;
use madsim_net::time::{self, VDuration, VTime};
use madsim_net::NodeId;
use std::collections::VecDeque;

/// Envelope flag: the packet was packed `receive_EXPRESS` by the user.
const FLAG_EXPRESS: u32 = 1 << 0;
/// Envelope flag: the packet is the channel's internal message header.
const FLAG_INTERNAL: u32 = 1 << 1;

/// What closed a batch (the `batch_flush_reason` breakdown in
/// [`Stats`] and the [`TraceEvent::BatchFlush`] payload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// A user-EXPRESS packet entered the batch.
    Express,
    /// A size/count threshold (or the TM frame budget) was hit.
    Full,
    /// An explicit flush or ordering barrier.
    Explicit,
    /// A progress tick found the batch past its flush deadline.
    Deadline,
}

/// The per-channel batching knobs, owned by the
/// [`RailScheduler`](crate::rail::RailScheduler).
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Packets per frame before a Full flush. `1` = batching off.
    pub max_packets: usize,
    /// Payload bytes per frame before a Full flush.
    pub max_bytes: usize,
    /// Virtual-µs deadline after the first append before a progress tick
    /// flushes the batch.
    pub flush_us: f64,
}

impl BatchPolicy {
    /// The disabled policy (classic one-frame-per-packet wire format).
    pub(crate) fn off() -> Self {
        BatchPolicy {
            max_packets: 1,
            max_bytes: crate::config::DEFAULT_BATCH_BYTES,
            flush_us: crate::config::DEFAULT_BATCH_FLUSH_US,
        }
    }

    /// Is the batch layer in play at all?
    pub fn enabled(&self) -> bool {
        self.max_packets > 1
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy::off()
    }
}

/// Is a packet of `len` bytes sent with `smode` carried inside a batch
/// frame? Pure and symmetric: the receiver evaluates it with the
/// destination length and the mirrored send mode and must reach the same
/// answer. `frame_cap` is the batch TM's `buffer_cap` (identical on both
/// ends of a protocol). The budget check uses the canonical
/// classification lengths — they bound the encoded header and envelope,
/// and the test must not depend on varint widths only the sender knows.
pub(crate) fn batchable(
    policy: &BatchPolicy,
    len: usize,
    smode: SendMode,
    frame_cap: usize,
) -> bool {
    policy.enabled()
        && smode != SendMode::Later
        && len <= policy.max_bytes
        && BATCH_CLASS_HDR_LEN + BATCH_CLASS_ENV_LEN + len <= frame_cap
}

/// A packet handed to [`append`] and staged in a send batch.
pub(crate) enum BatchItem {
    /// A blocking-path packet, copied into pooled memory before the
    /// append (`len` filled).
    Pooled(PooledBuf, usize),
    /// A posted-op block, held zero-copy until the frame is assembled.
    Owned(Bytes),
    /// A posted-op internal header whose sequence number is claimed only
    /// at flush time — cancelling the op before any flush leaves no gap
    /// in the peer's sequence space.
    DeferredHeader,
    /// A deferred header once the flush has claimed its sequence number
    /// and encoded it (never handed to `append`).
    Header(wire::HeaderBytes),
}

impl BatchItem {
    fn len(&self) -> usize {
        match self {
            BatchItem::Pooled(_, len) => *len,
            BatchItem::Owned(b) => b.len(),
            BatchItem::DeferredHeader => crate::channel::HEADER_LEN,
            BatchItem::Header(h) => h.len(),
        }
    }
}

struct PendingPacket {
    ticket: u64,
    data: BatchItem,
    flags: u32,
}

/// The send side of one connection's batch layer.
pub(crate) struct SendBatch {
    pending: VecDeque<PendingPacket>,
    /// Payload bytes currently staged (envelopes excluded).
    bytes: usize,
    /// Deadline armed by the first append of an open batch.
    deadline: Option<VTime>,
    /// Next append ticket (tickets are per-connection, strictly
    /// increasing; posted ops retire when a flush covers their last one —
    /// the watermark is [`Connection::batch_flushed`]).
    next_ticket: u64,
    /// Virtual instant of the most recent flush.
    last_flush_at: VTime,
    /// Next envelope sequence number to assign at flush.
    env_seq: u32,
    /// A failed flush poisons the batch: the staged packets are gone, so
    /// every later append/flush (and every op parked on a ticket no
    /// earlier frame shipped) reports this error instead of silently
    /// re-ordering.
    err: Option<MadError>,
}

impl SendBatch {
    pub(crate) fn new() -> Self {
        SendBatch {
            pending: VecDeque::new(),
            bytes: 0,
            deadline: None,
            next_ticket: 1,
            last_flush_at: VTime::ZERO,
            env_seq: 0,
            err: None,
        }
    }

    /// What the flushes so far did: the virtual instant of the most
    /// recent one that shipped (what the tickets at or below
    /// [`Connection::batch_flushed`] retire with) and, once one has failed,
    /// the poison (what every ticket above it retires with).
    pub(crate) fn flush_outcome(&self) -> (VTime, Option<MadError>) {
        (self.last_flush_at, self.err.clone())
    }

    /// Is the batch open (packets staged, frame not shipped)?
    #[cfg(test)]
    pub(crate) fn is_open(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Is the batch open and past its flush deadline at `now`?
    pub(crate) fn deadline_due(&self, now: VTime) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    /// Remove the never-flushed packets of a cancelled op (tickets in
    /// `first..=last`). The caller guarantees no flush covered them.
    pub(crate) fn cancel_tickets(&mut self, first: u64, last: u64) {
        self.pending.retain(|p| {
            let cancelled = p.ticket >= first && p.ticket <= last;
            if cancelled {
                self.bytes -= p.data.len();
            }
            !cancelled
        });
        if self.pending.is_empty() {
            self.deadline = None;
        }
    }
}

/// The receive side: packets split out of arrived batch frames, awaiting
/// their `unpack` calls.
pub(crate) struct RecvBatch {
    queue: VecDeque<(Bytes, u32)>,
    /// Next expected envelope sequence number.
    env_seq: u32,
    /// Rail the queued packets arrived on (valid while non-empty).
    rail: usize,
}

impl RecvBatch {
    pub(crate) fn new() -> Self {
        RecvBatch {
            queue: VecDeque::new(),
            env_seq: 0,
            rail: 0,
        }
    }

    /// Are split-out packets awaiting delivery?
    pub(crate) fn has_queued(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Rail the queued packets arrived on.
    pub(crate) fn rail(&self) -> usize {
        self.rail
    }
}

/// Everything the batch layer needs from the channel, borrowed for one
/// append/flush/receive.
pub(crate) struct BatchCtx<'a> {
    pub conn: &'a Connection,
    pub rail: &'a Rail,
    pub stats: &'a Stats,
    pub tracer: &'a Tracer,
    pub host: &'a crate::config::HostModel,
    pub me: NodeId,
    pub policy: &'a BatchPolicy,
}

impl BatchCtx<'_> {
    /// The longest frame [`append`] can build: it flushes at `max_packets`
    /// packets or once `max_bytes` payload bytes are staged, and no
    /// batchable packet exceeds `max_bytes` or the TM's budget.
    fn max_frame_len(&self) -> usize {
        let p = self.policy;
        let table = p.max_packets.saturating_mul(BATCH_CLASS_ENV_LEN);
        let payload = p.max_bytes.saturating_mul(2);
        self.rail.batch_frame_cap().min(
            BATCH_CLASS_HDR_LEN
                .saturating_add(table)
                .saturating_add(payload),
        )
    }
}

/// Append one packet to the connection's send batch `b` (the caller holds
/// its lock, so a message's header and blocks go in under one hold),
/// flushing first if the packet would not fit and afterwards if a
/// threshold tripped or the packet is user-EXPRESS. Returns the packet's
/// ticket (posted ops park on their last one).
pub(crate) fn append(
    ctx: &BatchCtx<'_>,
    b: &mut SendBatch,
    data: BatchItem,
    express: bool,
    internal: bool,
) -> MadResult<u64> {
    let flags = if express { FLAG_EXPRESS } else { 0 } | if internal { FLAG_INTERNAL } else { 0 };
    let len = data.len();
    if let Some(e) = &b.err {
        return Err(e.clone());
    }
    // Would this packet overflow the TM's frame budget? Close the open
    // frame first (a Full flush: the frame is as full as it can get).
    let projected =
        BATCH_CLASS_HDR_LEN + (b.pending.len() + 1) * BATCH_CLASS_ENV_LEN + b.bytes + len;
    if !b.pending.is_empty() && projected > ctx.rail.batch_frame_cap() {
        flush_locked(ctx, b, FlushReason::Full)?;
    }
    if b.pending.is_empty() {
        b.deadline = Some(time::now() + VDuration::from_micros_f64(ctx.policy.flush_us));
    }
    let ticket = b.next_ticket;
    b.next_ticket += 1;
    b.bytes += len;
    b.pending.push_back(PendingPacket {
        ticket,
        data,
        flags,
    });
    if express {
        flush_locked(ctx, b, FlushReason::Express)?;
    } else if b.pending.len() >= ctx.policy.max_packets || b.bytes >= ctx.policy.max_bytes {
        flush_locked(ctx, b, FlushReason::Full)?;
    }
    Ok(ticket)
}

/// Close the connection's open batch (if any) and ship its frame.
pub(crate) fn flush(ctx: &BatchCtx<'_>, reason: FlushReason) -> MadResult<()> {
    let mut b = ctx.conn.send_batch().lock();
    flush_locked(ctx, &mut b, reason)
}

fn flush_locked(ctx: &BatchCtx<'_>, b: &mut SendBatch, reason: FlushReason) -> MadResult<()> {
    if let Some(e) = &b.err {
        return Err(e.clone());
    }
    if b.pending.is_empty() {
        return Ok(());
    }
    let count = b.pending.len();
    // Deferred headers claim their message sequence numbers *first*, in
    // batch order — so cancelled ops left no gap and flushed ops get
    // exactly the stream position their frame occupies. The encoded
    // header length depends on that sequence number, so the claims must
    // precede the envelope table.
    for p in b.pending.iter_mut() {
        if matches!(p.data, BatchItem::DeferredHeader) {
            let hdr = wire::encode_msg_header(ctx.me, ctx.conn.next_send_seq());
            p.data = BatchItem::Header(hdr);
        }
    }
    let payload_bytes: usize = b.pending.iter().map(|p| p.data.len()).sum();
    // Envelope table first (lengths are known up front), payloads after.
    let packets = b.pending.iter().map(|p| (p.data.len(), p.flags));
    let mut frame = wire::encode_batch_frame(b.env_seq, packets);
    b.env_seq = b.env_seq.wrapping_add(count as u32);
    for p in &b.pending {
        match &p.data {
            BatchItem::Pooled(buf, len) => frame.extend_from_slice(&buf.raw()[..*len]),
            BatchItem::Owned(bytes) => frame.extend_from_slice(bytes),
            BatchItem::Header(hdr) => frame.extend_from_slice(hdr),
            BatchItem::DeferredHeader => unreachable!("encoded above"),
        }
    }
    // The staging gather is a real generic-layer copy; charge it.
    time::advance(ctx.host.memcpy(frame.len()));
    ctx.stats.record_copy(payload_bytes);
    let dst = ctx.conn.peer();
    let tm = ctx.rail.batch_tm();
    let sent = ctx.rail.pmm().tm(tm).send_buffer(dst, &frame);
    // Win or lose, the staged packets are consumed and their tickets
    // resolved — but a lost frame poisons the batch and leaves the
    // watermark where the last shipped frame put it, so an op parked on a
    // ticket whose bytes died retires with the poison, and one an earlier
    // frame delivered still completes.
    b.pending.clear();
    b.bytes = 0;
    b.deadline = None;
    if let Err(e) = sent {
        b.err = Some(e.clone());
        ctx.conn.poison_batch();
        return Err(e);
    }
    b.last_flush_at = time::now();
    ctx.conn.set_batch_flushed(b.next_ticket - 1);
    ctx.stats.record_batch(reason, count);
    ctx.stats.record_buffer_sent();
    ctx.stats.record_tm_traffic(tm, frame.len());
    ctx.stats.record_rail_traffic(ctx.rail.id(), frame.len());
    ctx.stats.record_batch_bytes(frame.len(), payload_bytes);
    ctx.tracer.record(TraceEvent::BatchFlush {
        dst,
        packets: count,
        bytes: payload_bytes,
        reason,
    });
    Ok(())
}

/// Deliver the next batched packet from `src` into `dst`: split a new
/// frame off the wire if the queue is empty, then pop the head packet
/// (whose length must equal `dst.len()` — the pack/unpack mirror
/// guarantees it on a correct program).
pub(crate) fn recv_into(ctx: &BatchCtx<'_>, src: NodeId, dst: &mut [u8]) -> MadResult<()> {
    let mut rb = ctx.conn.recv_batch().lock();
    if rb.queue.is_empty() {
        receive_frame(ctx, src, &mut rb)?;
    }
    let (payload, _flags) = rb.queue.pop_front().expect("frame split just above");
    if payload.len() != dst.len() {
        return Err(MadError::corrupt(format!(
            "batched packet from node {src} is {} bytes where the unpack \
             expects {} (asymmetric pack/unpack?)",
            payload.len(),
            dst.len()
        )));
    }
    dst.copy_from_slice(&payload);
    time::advance(ctx.host.memcpy(dst.len()));
    ctx.stats.record_copy(dst.len());
    Ok(())
}

/// Receive one batch frame from `src` and split it into the queue.
fn receive_frame(ctx: &BatchCtx<'_>, src: NodeId, rb: &mut RecvBatch) -> MadResult<()> {
    let tm = ctx.rail.pmm().tm(ctx.rail.batch_tm());
    let frame: Bytes = if tm.caps().static_buffers {
        // Static-buffer stacks deliver the frame whole; keep the arrival
        // bytes alive past the buffer release so the per-packet payloads
        // stay zero-copy.
        let buf = tm.receive_static_buffer(src)?;
        let bytes = buf
            .shared_bytes()
            .expect("receive_static_buffer wraps arrival bytes");
        tm.release_static_buffer(buf);
        bytes
    } else {
        // Stream stacks: the prologue byte, then the body length one
        // varint byte at a time (its width is unknown until a byte clears
        // the continuation bit), then the whole body in one exact read.
        let mut pro = [0u8; 1];
        tm.receive_buffer(src, &mut pro)?;
        let mut varint = Vec::with_capacity(wire::MAX_VARINT);
        loop {
            let mut byte = [0u8; 1];
            tm.receive_buffer(src, &mut byte)?;
            varint.push(byte[0]);
            if byte[0] & wire::VARINT_CONT == 0 || varint.len() == wire::MAX_VARINT {
                break;
            }
        }
        let mut pos = 0;
        let body = wire::read_varint(&varint, &mut pos)?;
        // A larger claim than any conforming sender's frame is corruption,
        // and must not size an allocation.
        let body = usize::try_from(body)
            .ok()
            .filter(|&b| b <= ctx.max_frame_len())
            .ok_or_else(|| {
                MadError::corrupt(format!(
                    "batch frame from node {src} claims a {body}-byte body"
                ))
            })?;
        let mut whole = Vec::with_capacity(1 + varint.len() + body);
        whole.push(pro[0]);
        whole.extend_from_slice(&varint);
        let at = whole.len();
        whole.resize(at + body, 0);
        tm.receive_buffer(src, &mut whole[at..])?;
        Bytes::from(whole)
    };
    split_frame(ctx, src, rb, frame)
}

/// Split a whole batch frame into per-packet queue entries, validating
/// the envelope sequence continuity.
fn split_frame(ctx: &BatchCtx<'_>, src: NodeId, rb: &mut RecvBatch, frame: Bytes) -> MadResult<()> {
    let (envelopes, payload_at) = wire::parse_batch_frame(&frame, src)?;
    let mut off = payload_at;
    for (i, env) in envelopes.iter().enumerate() {
        if env.seq != rb.env_seq {
            return Err(MadError::corrupt(format!(
                "batch envelope seq {} from node {src} where {} was \
                 expected (lost or replayed batch frame)",
                env.seq, rb.env_seq
            )));
        }
        rb.env_seq = rb.env_seq.wrapping_add(1);
        let Some(end) = off.checked_add(env.len).filter(|&end| end <= frame.len()) else {
            return Err(MadError::corrupt(format!(
                "batch envelope {i} from node {src} overruns its frame"
            )));
        };
        rb.queue.push_back((frame.slice(off..end), env.flags));
        off = end;
    }
    if off != frame.len() {
        return Err(MadError::corrupt(format!(
            "batch frame from node {src} carries {} trailing bytes",
            frame.len() - off
        )));
    }
    rb.rail = ctx.rail.id();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_off_by_default_and_enabled_above_one() {
        assert!(!BatchPolicy::default().enabled());
        let on = BatchPolicy {
            max_packets: 2,
            max_bytes: 1024,
            flush_us: 5.0,
        };
        assert!(on.enabled());
    }

    #[test]
    fn batchable_mirrors_len_mode_and_budget() {
        let p = BatchPolicy {
            max_packets: 16,
            max_bytes: 4096,
            flush_us: 20.0,
        };
        assert!(batchable(&p, 64, SendMode::Cheaper, usize::MAX));
        assert!(batchable(&p, 64, SendMode::Safer, usize::MAX));
        assert!(
            !batchable(&p, 64, SendMode::Later, usize::MAX),
            "LATER defers the read; batching copies now"
        );
        assert!(!batchable(&p, 4097, SendMode::Cheaper, usize::MAX));
        // A packet must fit an empty frame of the TM's budget.
        let tight = BATCH_CLASS_HDR_LEN + BATCH_CLASS_ENV_LEN + 64;
        assert!(batchable(&p, 64, SendMode::Cheaper, tight));
        assert!(!batchable(&p, 65, SendMode::Cheaper, tight));
        assert!(
            !batchable(&BatchPolicy::off(), 64, SendMode::Cheaper, usize::MAX),
            "disabled policy batches nothing"
        );
    }

    #[test]
    fn cancel_tickets_removes_pending_and_disarms_deadline() {
        let mut b = SendBatch::new();
        b.pending.push_back(PendingPacket {
            ticket: 1,
            data: BatchItem::Owned(Bytes::from_static(b"abcd")),
            flags: 0,
        });
        b.pending.push_back(PendingPacket {
            ticket: 2,
            data: BatchItem::DeferredHeader,
            flags: FLAG_INTERNAL,
        });
        b.bytes = 4 + crate::channel::HEADER_LEN;
        b.deadline = Some(VTime::from_nanos(1));
        b.cancel_tickets(1, 2);
        assert!(!b.is_open());
        assert_eq!(b.bytes, 0);
        assert!(!b.deadline_due(VTime::from_nanos(100)), "deadline disarmed");
    }
}
