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
//! transport's existing ARQ — the frame is one buffer to its TM, well under
//! the ARQ segment size.

use crate::bmm;
use crate::connection::Connection;
use crate::error::{MadError, MadResult};
use crate::flags::SendMode;
use crate::pool::PooledBuf;
use crate::rail::Rail;
use crate::stats::Stats;
use crate::trace::{TraceEvent, Tracer};
use crate::wire::{self, BatchCursor, BATCH_CLASS_ENV_LEN, BATCH_CLASS_HDR_LEN};
use bytes::Bytes;
use madsim_net::time::{self, VDuration, VTime};
use madsim_net::NodeId;

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

/// A packet handed to [`append`] and held in a send batch until its frame
/// ships. The frame is gathered from these where they lie: nothing here is
/// copied again before the transmission module reads it.
pub(crate) enum BatchItem {
    /// A blocking-path packet, captured into pooled memory before the
    /// append (`len` filled).
    Pooled(PooledBuf, usize),
    /// A posted-op block, owned by the batch.
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

    fn bytes(&self) -> &[u8] {
        match self {
            BatchItem::Pooled(buf, len) => &buf.raw()[..*len],
            BatchItem::Owned(bytes) => bytes,
            BatchItem::Header(hdr) => hdr,
            BatchItem::DeferredHeader => unreachable!("encoded when the flush begins"),
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
    pending: Vec<PendingPacket>,
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
    /// Header + envelope table of the frame being flushed, kept between
    /// flushes for its capacity.
    table: Vec<u8>,
}

impl SendBatch {
    pub(crate) fn new() -> Self {
        SendBatch {
            pending: Vec::new(),
            bytes: 0,
            deadline: None,
            next_ticket: 1,
            last_flush_at: VTime::ZERO,
            env_seq: 0,
            err: None,
            table: Vec::new(),
        }
    }

    /// What the flushes so far did: the virtual instant of the most
    /// recent one that shipped (what the tickets at or below
    /// [`Connection::batch_flushed`] retire with) and, once one has failed,
    /// the poison (what every ticket above it retires with).
    pub(crate) fn flush_outcome(&self) -> (VTime, Option<MadError>) {
        (self.last_flush_at, self.err.clone())
    }

    /// Is the batch open and past its flush deadline at `now`?
    pub(crate) fn deadline_due(&self, now: VTime) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }

    /// The batch just emptied: disarm its deadline and say so where
    /// nobody needs the lock to read it.
    fn closed(&mut self, conn: &Connection) {
        self.bytes = 0;
        self.deadline = None;
        conn.set_batch_open(false);
    }
}

/// Remove the never-flushed packets with tickets in `first..=last` (a
/// cancelled op's, an aborted message's) from `conn`'s send batch. `false`
/// — and nothing removed — if a flush already covered `first`: the packets
/// are on the wire.
pub(crate) fn cancel_tickets(conn: &Connection, first: u64, last: u64) -> bool {
    let mut b = conn.send_batch().lock();
    if conn.batch_flushed() >= first {
        return false;
    }
    b.pending.retain(|p| p.ticket < first || p.ticket > last);
    b.bytes = b.pending.iter().map(|p| p.data.len()).sum();
    if b.pending.is_empty() {
        b.closed(conn);
    }
    true
}

/// The receive side: a cursor over the arrived frame whose packets the
/// mirrored `unpack` calls are consuming.
pub(crate) struct RecvBatch {
    cursor: BatchCursor,
    /// Next expected envelope sequence number.
    env_seq: u32,
}

impl RecvBatch {
    pub(crate) fn new() -> Self {
        RecvBatch {
            cursor: BatchCursor::empty(),
            env_seq: 0,
        }
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
    /// The longest frame body [`append`] can build: it flushes at
    /// `max_packets` packets or once `max_bytes` payload bytes are staged,
    /// and no batchable packet exceeds `max_bytes` or the TM's budget.
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
        ctx.conn.set_batch_open(true);
    }
    let ticket = b.next_ticket;
    b.next_ticket += 1;
    b.bytes += len;
    b.pending.push(PendingPacket {
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
    if ctx.conn.batch_idle() {
        return Ok(());
    }
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
    // The frame exists exactly once, where it travels from: the table
    // below and every packet's own bytes, handed over as one group.
    let packets = b.pending.iter().map(|p| (p.data.len(), p.flags));
    let payload_bytes = wire::encode_batch_frame(&mut b.table, b.env_seq, packets);
    let frame_len = b.table.len() + payload_bytes;
    b.env_seq = b.env_seq.wrapping_add(count as u32);
    let mut parts = Vec::with_capacity(1 + count);
    parts.push(&b.table[..]);
    parts.extend(b.pending.iter().map(|p| p.data.bytes()));
    let dst = ctx.conn.peer();
    let tm = ctx.rail.batch_tm();
    let via = &*ctx.rail.pmm().tms()[tm as usize];
    let sent = bmm::send_group(via, tm, dst, &parts, ctx.host, ctx.stats);
    drop(parts);
    // Win or lose, the staged packets are consumed and their tickets
    // resolved — but a lost frame poisons the batch and leaves the
    // watermark where the last shipped frame put it, so an op parked on a
    // ticket whose bytes died retires with the poison, and one an earlier
    // frame delivered still completes.
    b.pending.clear();
    b.closed(ctx.conn);
    if let Err(e) = sent {
        b.err = Some(e.clone());
        ctx.conn.poison_batch();
        return Err(e);
    }
    b.last_flush_at = time::now();
    ctx.conn.set_batch_flushed(b.next_ticket - 1);
    ctx.stats.record_batch(reason, count);
    ctx.stats.record_rail_traffic(ctx.rail.id(), frame_len);
    ctx.stats.record_batch_bytes(frame_len, payload_bytes);
    ctx.tracer.record(TraceEvent::BatchFlush {
        dst,
        packets: count,
        bytes: payload_bytes,
        reason,
    });
    Ok(())
}

/// Deliver the next batched packet from `src` into `dst`: take a new frame
/// off the wire if the cursor `rb` is spent, then copy out the packet it
/// points at (whose length must equal `dst.len()` — the pack/unpack mirror
/// guarantees it on a correct program). That copy is the only one between
/// the arrival buffer and the user's memory.
pub(crate) fn recv_into(
    ctx: &BatchCtx<'_>,
    rb: &mut RecvBatch,
    src: NodeId,
    dst: &mut [u8],
) -> MadResult<()> {
    if rb.cursor.left() == 0 {
        receive_frame(ctx, src, rb)?;
    }
    if rb.cursor.left() == 1 {
        ctx.conn.set_recv_queued(None);
    }
    let (payload, _flags) = rb.cursor.next_packet().expect("frames hold a packet");
    if payload.len() != dst.len() {
        return Err(MadError::corrupt(format!(
            "batched packet from node {src} is {} bytes where the unpack \
             expects {} (asymmetric pack/unpack?)",
            payload.len(),
            dst.len()
        )));
    }
    dst.copy_from_slice(payload);
    time::advance(ctx.host.memcpy(dst.len()));
    ctx.stats.record_copy(dst.len());
    Ok(())
}

/// Receive one batch frame from `src`, whole and in the buffer it arrived
/// in, and point the cursor at its first packet.
fn receive_frame(ctx: &BatchCtx<'_>, src: NodeId, rb: &mut RecvBatch) -> MadResult<()> {
    let tm = &*ctx.rail.pmm().tms()[ctx.rail.batch_tm() as usize];
    let frame: Bytes = if tm.caps().static_buffers {
        // The arrival bytes outlive the buffer's release.
        let buf = tm.receive_static_buffer(src)?;
        let bytes = buf
            .shared_bytes()
            .expect("receive_static_buffer wraps arrival bytes");
        tm.release_static_buffer(buf);
        bytes
    } else {
        let max_body = ctx.max_frame_len();
        tm.receive_delimited(src, &mut |head| wire::batch_frame_len(head, src, max_body))?
    };
    let (cursor, first_seq) = BatchCursor::open(frame, src)?;
    if first_seq != rb.env_seq {
        return Err(MadError::corrupt(format!(
            "batch envelope seq {first_seq} from node {src} where {} was \
             expected (lost or replayed batch frame)",
            rb.env_seq
        )));
    }
    rb.env_seq = rb.env_seq.wrapping_add(cursor.left() as u32);
    rb.cursor = cursor;
    ctx.conn.set_recv_queued(Some(ctx.rail.id()));
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
        let conns = crate::connection::Connections::new(0, &[0, 1]);
        let conn = conns.get(1).unwrap();
        {
            let mut b = conn.send_batch().lock();
            for (ticket, data, flags) in [
                (1, BatchItem::Owned(Bytes::from_static(b"abcd")), 0),
                (2, BatchItem::DeferredHeader, FLAG_INTERNAL),
                (3, BatchItem::Owned(Bytes::from_static(b"xy")), 0),
            ] {
                b.pending.push(PendingPacket {
                    ticket,
                    data,
                    flags,
                });
            }
            b.bytes = 6 + crate::channel::HEADER_LEN;
            b.deadline = Some(VTime::from_nanos(1));
            conn.set_batch_open(true);
        }
        assert!(cancel_tickets(conn, 1, 2));
        assert_eq!(conn.send_batch().lock().bytes, 2);
        assert!(conn.batch_open(), "ticket 3 is still staged");
        assert!(cancel_tickets(conn, 3, 3));
        let b = conn.send_batch().lock();
        assert!(b.pending.is_empty() && !conn.batch_open());
        assert_eq!(b.bytes, 0);
        assert!(!b.deadline_due(VTime::from_nanos(100)), "deadline disarmed");
        drop(b);
        conn.set_batch_flushed(5);
        assert!(
            !cancel_tickets(conn, 4, 5),
            "a flush covered them: on the wire"
        );
    }
}
