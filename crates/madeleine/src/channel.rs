//! Channels, connections, and the message construction interface
//! (paper §2, Table 1; Switch Module of §4).
//!
//! | paper | here |
//! |---|---|
//! | `mad_begin_packing` | [`Channel::begin_packing`] |
//! | `mad_pack` | [`OutgoingMessage::pack`] |
//! | `mad_end_packing` | [`OutgoingMessage::end_packing`] |
//! | `mad_begin_unpacking` | [`Channel::begin_unpacking`] |
//! | `mad_unpack` | [`IncomingMessage::unpack`] |
//! | `mad_end_unpacking` | [`IncomingMessage::end_unpacking`] |
//!
//! The channel stack has three layers:
//!
//! * [`crate::connection`] — per-peer ordering state (sequence numbers,
//!   stripe-block counters) in lock-free atomics;
//! * [`crate::rail`] — one adapter's worth of machinery (PMM + TMs +
//!   buffer pool) and the stripe engine;
//! * [`Channel`] (this module) — the pack/unpack API, owning `1..N`
//!   rails and the `RailScheduler` that routes traffic across them.
//!
//! The Switch Module is one cursor per direction. Each block is routed by
//! `ChannelCore::route` — the stripe engine, the connection's batch, or
//! the TM the PMM selects — identically on both ends; when the route
//! differs from the previous block's, the open BMM is flushed (*commit*)
//! before the next takes over, so delivery order is preserved across
//! transfer methods; the end of the message performs the terminal commit
//! (mirrored by *checkout* on the receive side). The send cursor
//! (`SendSwitch`) is resumable and has two drivers: a blocking
//! [`OutgoingMessage`] spins it where it would park, a posted message
//! (`MessageSendOp`) parks it between progress ticks — same routes, same
//! BMMs, same wire bytes. On a multirail channel a message's ordinary
//! blocks ride its connection's *home rail*; large CHEAPER blocks are
//! striped across every alive rail (see [`crate::rail`]) after the home
//! rail's BMM is committed, so per-connection order still holds.
//!
//! ### The internal message header
//!
//! Every message opens with a short library header (prologue byte, source
//! node, per-connection sequence number; see [`crate::wire`]) packed
//! through the ordinary machinery with `(send_CHEAPER, receive_EXPRESS)`
//! and flushed eagerly, so it always rides the protocol's small-message
//! path and announces the message to the peer immediately. The header is
//! how `begin_unpacking` learns the sender of the next incoming message —
//! and doubles as a wire-level integrity check (sequence gaps and
//! interleaving corruption panic loudly). It travels on the home rail,
//! which is how the receiver learns which rail carries the rest of the
//! message's un-striped blocks.

use crate::batch::{self, BatchCtx, BatchItem, FlushReason, RecvBatch, SendBatch};
use crate::bmm::{RecvBmm, SendBmm};
use crate::config::HostModel;
use crate::connection::{Connection, Connections};
use crate::error::{MadError, MadResult};
use crate::flags::{RecvMode, SendMode};
use crate::pmm::Pmm;
use crate::polling::PollPolicy;
use crate::pool::{BufPool, PooledBuf};
use crate::progress::{Completions, OpId, OpState, OpStep, ProgressEngine, StepOutcome};
use crate::rail::{self, Rail, RailScheduler, StripeCtx, StripeSend};
use crate::stats::{Stats, StatsSnapshot};
use crate::tm::{PendingKind, TmId};
use crate::trace::{TraceEvent, Tracer};
use crate::wire;
use bytes::Bytes;
use madsim_net::time::{self, VDuration, VTime};
use madsim_net::NodeId;
use parking_lot::MutexGuard;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Canonical classification length of the internal message header: what
/// both ends feed the symmetric TM-selection and batch-eligibility tests
/// for a header block (the encoded header is shorter, but its length
/// depends on the sequence number, which the classification must not).
pub use crate::wire::MSG_CLASS_LEN as HEADER_LEN;

/// A closed world for communication (paper §2.1): a set of point-to-point
/// connections over one network interface and `1..N` adapters (rails).
/// In-order delivery is guaranteed per connection within a channel.
pub struct Channel {
    name: String,
    /// What posted ops need of the channel, shared with them.
    core: Arc<ChannelCore>,
    peers: Vec<NodeId>,
    /// Outgoing messages begun but not yet finalized (must stay ≤ 1:
    /// forgetting `end_packing` would silently lose queued blocks).
    open_tx: AtomicUsize,
    /// Incoming messages begun but not yet finalized.
    open_rx: AtomicUsize,
    /// Cached liveness of the rails, bit `i` set while rail `i` is in
    /// service. Maintained by [`Rail::quarantine`]; the hot wait paths
    /// test one word per scan instead of re-walking every rail's flag.
    live_mask: Arc<AtomicU64>,
    /// How engine-driving waits behave when no op can move (see
    /// [`crate::polling`]).
    poll: PollPolicy,
    /// The nonblocking-op state machines of this channel (see
    /// [`crate::progress`]).
    engine: ProgressEngine,
}

/// The part of a channel its in-flight nonblocking ops work with. They
/// outlive any one call frame, so it sits behind one `Arc`: posting a
/// message bumps one reference count.
struct ChannelCore {
    /// The rails, indexed by rail id. Single-rail channels behave exactly
    /// like the pre-multirail library.
    rails: Vec<Rail>,
    sched: RailScheduler,
    /// Per-peer ordering state (frozen table, atomics inside).
    conns: Arc<Connections>,
    me: NodeId,
    stats: Arc<Stats>,
    host: HostModel,
    /// Optional message-path tracer (see [`crate::trace`]), shared with
    /// the protocol drivers so TMs can record fault-recovery events
    /// (retransmissions, credit timeouts) into the channel's stream.
    tracer: Arc<Tracer>,
    /// Base of this channel's stripe-ack demultiplexing tags (the channel
    /// index within the session config; see [`crate::rail`]).
    ack_base: u64,
}

/// Where the Switch sends a block (see [`ChannelCore::route`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    Stripe,
    Batch,
    Tm(TmId),
}

impl ChannelCore {
    fn conn(&self, peer: NodeId) -> &Connection {
        self.conns.get(peer).expect("membership checked")
    }

    /// Home rail of connection `conn` (0 on single-rail channels).
    fn home_rail(&self, conn: &Connection) -> usize {
        if self.rails.len() > 1 {
            self.sched.home_rail(conn.index(), &self.rails)
        } else {
            0
        }
    }

    /// The stripe engine's borrowed view of the channel for one striped
    /// block from `sender` (see [`crate::rail`] for the ack-tag scheme:
    /// unique per (channel, connection direction, block), derived on both
    /// endpoints from their per-connection stripe-block counters).
    fn stripe_ctx(&self, sender: NodeId, block: u64) -> StripeCtx<'_> {
        let tag = (self.ack_base << 40) | ((sender as u64 & 0xFFF) << 28) | (block & 0x0FFF_FFFF);
        StripeCtx {
            rails: &self.rails,
            sched: &self.sched,
            me: self.me,
            stats: &self.stats,
            tracer: &self.tracer,
            ack_tag: tag,
        }
    }

    /// The batch layer's borrowed view of the channel for one
    /// append/flush/receive on the connection toward/from `peer`.
    fn batch_ctx(&self, peer: NodeId, rail: usize) -> BatchCtx<'_> {
        BatchCtx {
            conn: self.conn(peer),
            rail: &self.rails[rail],
            stats: &self.stats,
            tracer: &self.tracer,
            host: &self.host,
            me: self.me,
            policy: &self.sched.batch,
        }
    }

    /// The Switch step (paper §4.1) for a block classified as `len` bytes
    /// sent `(smode, rmode)` on home rail `rail`: striped over every rail,
    /// inside a batch frame, or through the TM the PMM selects. Pure and
    /// symmetric — the receiver evaluates it with the mirrored arguments
    /// and must agree, which is why both directions route here and nowhere
    /// else.
    fn route(&self, rail: usize, len: usize, smode: SendMode, rmode: RecvMode) -> Route {
        let r = &self.rails[rail];
        if self
            .sched
            .should_stripe(len, smode, rmode, self.rails.len())
        {
            Route::Stripe
        } else if batch::batchable(&self.sched.batch, len, smode, r.batch_frame_cap()) {
            Route::Batch
        } else {
            Route::Tm(r.pmm().select(len, smode, rmode))
        }
    }

    /// The internal header of message `seq`, built directly in pooled
    /// memory: no stack staging array, no per-message allocation — a warm
    /// 64-byte slab per send.
    fn header_buf(&self, seq: u32) -> PooledBuf {
        let hdr = wire::encode_msg_header(self.me, seq);
        let mut buf = self.rails[0].pool().checkout(hdr.len());
        // Every encoded byte goes on the wire and recycled slabs carry
        // stale bytes, so the full span is written.
        buf.spare_mut()[..hdr.len()].copy_from_slice(&hdr);
        buf.advance(hdr.len());
        buf
    }

    /// Flush the open send batch toward `peer`, if any (no-op with
    /// batching disabled).
    fn flush_batch(&self, peer: NodeId, rail: usize, reason: FlushReason) -> MadResult<()> {
        if !self.sched.batch.enabled() {
            return Ok(());
        }
        batch::flush(&self.batch_ctx(peer, rail), reason)
    }
}

impl Channel {
    /// The general constructor: a channel over `rails.len()` rails. The
    /// session builds one driver stack per adapter and passes them here;
    /// [`with_pmm`](Self::with_pmm) is the single-rail special case.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn multirail(
        name: String,
        rails: Vec<Rail>,
        sched: RailScheduler,
        me: NodeId,
        peers: Vec<NodeId>,
        host: HostModel,
        stats: Arc<Stats>,
        tracer: Arc<Tracer>,
        ack_base: u64,
        poll: PollPolicy,
    ) -> Arc<Self> {
        assert!(!rails.is_empty(), "a channel needs at least one rail");
        assert!(rails.len() <= 64, "the live-rail mask is one u64");
        let conns = Arc::new(Connections::new(me, &peers));
        let engine = ProgressEngine::new(Arc::clone(&conns), Arc::clone(&stats));
        let live_mask = Arc::new(AtomicU64::new(u64::MAX >> (64 - rails.len())));
        for r in &rails {
            r.attach_live_mask(Arc::clone(&live_mask));
        }
        Arc::new(Channel {
            name,
            core: Arc::new(ChannelCore {
                rails,
                sched,
                conns,
                me,
                stats,
                host,
                tracer,
                ack_base,
            }),
            peers,
            open_tx: AtomicUsize::new(0),
            open_rx: AtomicUsize::new(0),
            live_mask,
            poll,
            engine,
        })
    }

    /// Extension constructor: a single-rail channel over a custom protocol
    /// module. This is how the inter-cluster extension (`mad-gateway`)
    /// plugs its Generic Transmission Module under the unchanged generic
    /// layer (paper §6.1: the forwarding mechanism is inserted *between*
    /// BMMs and TMs). The tracer is the caller's, so the protocol module
    /// underneath can record its events (e.g. failovers) into the same
    /// stream the channel's pack/unpack events land in.
    pub fn with_pmm(
        name: String,
        pmm: Arc<dyn Pmm>,
        me: NodeId,
        peers: Vec<NodeId>,
        host: HostModel,
        stats: Arc<Stats>,
        tracer: Arc<Tracer>,
    ) -> Arc<Self> {
        let pool = BufPool::new(Arc::clone(&stats));
        let rails = vec![Rail::new(0, pmm, pool, None)];
        let sched = RailScheduler::new(
            crate::config::DEFAULT_STRIPE_THRESHOLD,
            crate::config::DEFAULT_STRIPE_CHUNK,
        );
        let poll = PollPolicy::default();
        Self::multirail(name, rails, sched, me, peers, host, stats, tracer, 0, poll)
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// This node's id in the session.
    pub fn me(&self) -> NodeId {
        self.core.me
    }

    /// All members of the channel (including this node).
    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// Copy/traffic counters of this channel.
    pub fn stats(&self) -> &Arc<Stats> {
        &self.core.stats
    }

    /// The channel-lifetime buffer pool: headers, SAFER captures and (via
    /// the session's driver wiring) protocol static buffers all draw from
    /// it, so steady-state traffic reuses warm slabs across messages. Rail
    /// 0's on a multirail channel; each further rail has its own.
    pub fn pool(&self) -> &BufPool {
        self.core.rails[0].pool()
    }

    /// The protocol module driving this channel — rail 0's on a multirail
    /// channel (exposed for extensions such as the inter-cluster gateway,
    /// which are single-rail by contract).
    pub fn pmm(&self) -> &Arc<dyn Pmm> {
        self.core.rails[0].pmm()
    }

    /// The channel's rails, indexed by rail id.
    pub fn rails(&self) -> &[Rail] {
        &self.core.rails
    }

    /// The per-peer connection table.
    pub fn connections(&self) -> &Connections {
        &self.core.conns
    }

    /// The host-side cost model of this channel's session.
    pub fn host(&self) -> HostModel {
        self.core.host
    }

    /// Start recording Switch/commit/checkout events on this channel.
    pub fn enable_trace(&self) {
        self.core.tracer.enable();
    }

    /// The channel's tracer (query recorded events, clear, disable).
    pub fn tracer(&self) -> &Tracer {
        &self.core.tracer
    }

    /// Close every connection's open send batch and put its frame on the
    /// wire (an Explicit flush; see [`crate::batch`]). Small packets and
    /// whole posted messages can otherwise linger until a size threshold
    /// or a progress-tick deadline ships them — call this at the end of a
    /// burst when the peer needs the data *now*. A no-op (and always `Ok`)
    /// when batching is disabled.
    pub fn flush(&self) -> MadResult<()> {
        if !self.core.sched.batch.enabled() {
            return Ok(());
        }
        let mut result = Ok(());
        // Flush every peer even if one fails: its error is recorded
        // (first failure wins) and its batch is poisoned. An idle peer
        // costs two loads: no batch lock, no op-slab lock.
        for conn in self.core.conns.iter().filter(|c| !c.batch_idle()) {
            result = result.and(self.flush_peer(conn));
        }
        result
    }

    /// [`flush`](Self::flush) for one connection, retiring the posted ops
    /// its frame covered (a frame that fails to ship fails them).
    fn flush_peer(&self, conn: &Connection) -> MadResult<()> {
        let rail = self.core.home_rail(conn);
        let r = self
            .core
            .flush_batch(conn.peer(), rail, FlushReason::Explicit);
        self.engine.flushed(conn);
        r
    }

    /// Flush every send batch that a progress tick finds past its
    /// deadline; the tick that follows retires the ops they covered.
    /// Flush errors poison the affected batch and fail those ops.
    fn flush_due_batches(&self) {
        if !self.core.sched.batch.enabled() {
            return;
        }
        let now = time::now();
        for conn in self.core.conns.iter() {
            if conn.batch_open() && conn.send_batch().lock().deadline_due(now) {
                let rail = self.core.home_rail(conn);
                let _ = self
                    .core
                    .flush_batch(conn.peer(), rail, FlushReason::Deadline);
            }
        }
    }

    /// The peer (and arrival rail) of batched packets that arrived in a
    /// frame an earlier message did not use up, if any — checked before
    /// blocking on the wire: one arrived frame can span several messages,
    /// so the next message may be entirely in memory with nothing left on
    /// the fabric. Peers are scanned in peer order for determinism, one
    /// load each.
    fn queued_batch_source(&self) -> Option<(NodeId, usize)> {
        let mut conns = self.core.conns.iter();
        conns.find_map(|c| Some((c.peer(), c.recv_queued()?)))
    }

    /// Initiate a new outgoing message to `dst` (paper: `mad_begin_packing`).
    ///
    /// # Panics
    /// Panics if `dst` is not a member of this channel or is this node —
    /// and on transport failure while sending the message header; use
    /// [`begin_packing_checked`](Self::begin_packing_checked) to receive
    /// that failure as a value instead.
    pub fn begin_packing<'a>(&self, dst: NodeId) -> OutgoingMessage<'_, 'a> {
        self.expect("begin_packing", self.begin_packing_checked(dst))
    }

    /// Sending to a non-member or to oneself is API misuse, not a fabric
    /// fault: it panics.
    fn check_dst(&self, dst: NodeId) {
        let name = &self.name;
        assert!(
            self.peers.contains(&dst),
            "node {dst} is not a member of channel {name:?}"
        );
        assert_ne!(dst, self.core.me, "cannot send to self on channel {name:?}");
    }

    /// The panicking flavour of a `try_` / `_checked` call.
    fn expect<T>(&self, what: &str, r: MadResult<T>) -> T {
        r.unwrap_or_else(|e| panic!("{what} on channel {:?} failed: {e}", self.name))
    }

    /// [`begin_packing`](Self::begin_packing) that surfaces transport
    /// failures (the internal header is transmitted eagerly, so a dead
    /// peer is detected here). Membership violations still panic: they
    /// are API misuse, not fabric faults. On a multirail channel a header
    /// that fails to send quarantines its rail and retries on the
    /// survivors before giving up.
    pub fn begin_packing_checked<'a>(&self, dst: NodeId) -> MadResult<OutgoingMessage<'_, 'a>> {
        self.check_dst(dst);
        assert_eq!(
            self.open_tx.fetch_add(1, Ordering::AcqRel),
            0,
            "begin_packing on channel {:?} while a previous outgoing message \
             was never end_packing'ed (its queued blocks are lost)",
            self.name
        );
        time::advance(VDuration::from_micros_f64(self.core.host.begin_op_us));
        let conn = self.core.conn(dst);
        let multirail = self.core.rails.len() > 1;
        let rail = self.core.home_rail(conn);
        // Ordering fence: nonblocking ops already posted toward this peer
        // must hit the wire before a blocking message claims the next
        // sequence number, or the peer would see the stream out of order.
        // Ops parked in `Batched` retire only when their frame ships, so
        // the fence flushes the connection's open batch up front and
        // between ticks (a flush error poisons the batch and fails the
        // parked ops, which terminates the drain).
        if let Err(e) = self.core.flush_batch(dst, rail, FlushReason::Explicit) {
            self.open_tx.fetch_sub(1, Ordering::AcqRel);
            return Err(e);
        }
        self.engine.drain_conn(conn, || {
            let _ = self.core.flush_batch(dst, rail, FlushReason::Explicit);
        });
        let seq = conn.next_send_seq();
        self.core.tracer.record(TraceEvent::BeginPacking { dst });
        if multirail {
            self.core
                .tracer
                .record(TraceEvent::RailSelect { dst, rail });
        }
        let stats_at_begin = if self.core.tracer.is_enabled() {
            Some(self.core.stats.snapshot())
        } else {
            None
        };
        let mut msg = OutgoingMessage {
            chan: self,
            sw: SendSwitch {
                dst,
                rail,
                ..Default::default()
            },
            done: false,
            stats_at_begin,
        };
        let mut attempts = 0;
        loop {
            let header = Src::Header(Some(seq));
            let (smode, rmode) = (SendMode::Cheaper, RecvMode::Express);
            let e = match msg.drive(|sw, d| sw.emit(d, header, HEADER_LEN, smode, rmode)) {
                Ok(()) => return Ok(msg),
                Err(e) => e,
            };
            attempts += 1;
            // Multirail failover: a header that could not be sent marks
            // its rail down; the message restarts on the survivors. Wire
            // corruption is not a rail failure, so it is not retried.
            if multirail
                && !matches!(e, MadError::CorruptStream(_))
                && attempts < self.core.rails.len()
            {
                self.core.rails[msg.sw.rail].quarantine(&self.core.stats, &self.core.tracer);
                if msg.sw.rehome(&self.core) {
                    continue;
                }
            }
            msg.abort();
            return Err(e);
        }
    }

    /// Has some peer started sending a message on this channel? (A `true`
    /// guarantees the next [`begin_unpacking`](Self::begin_unpacking) will
    /// not block waiting for an announcement.)
    pub fn has_incoming(&self) -> bool {
        // Batched packets of an arrived frame count: it can span several
        // messages, so the next message may already be in memory.
        if self.queued_batch_source().is_some() {
            return true;
        }
        let live = self.live_mask.load(Ordering::Acquire);
        self.core
            .rails
            .iter()
            .any(|r| live & (1 << r.id()) != 0 && r.pmm().poll_incoming().is_some())
    }

    /// Non-blocking [`begin_unpacking`](Self::begin_unpacking): `None`
    /// when no message has been announced yet.
    pub fn try_begin_unpacking<'a>(&self) -> Option<IncomingMessage<'_, 'a>> {
        if self.has_incoming() {
            Some(self.begin_unpacking())
        } else {
            None
        }
    }

    /// Initiate reception of the next incoming message on this channel
    /// (paper: `mad_begin_unpacking`). Blocks until a message arrives;
    /// the returned connection identifies the sender.
    ///
    /// # Panics
    /// Panics on a corrupt or out-of-sequence header; use
    /// [`begin_unpacking_checked`](Self::begin_unpacking_checked) to
    /// receive those conditions as [`MadError`] values instead.
    pub fn begin_unpacking<'a>(&self) -> IncomingMessage<'_, 'a> {
        self.expect("begin_unpacking", self.begin_unpacking_checked())
    }

    /// [`begin_unpacking`](Self::begin_unpacking) that surfaces wire-level
    /// damage — bad header magic, a source mismatch, or a sequence gap —
    /// as [`MadError::CorruptStream`] (and transport failures as their
    /// respective errors) instead of panicking. On error the incoming
    /// message is abandoned and the channel returns to the idle receive
    /// state.
    pub fn begin_unpacking_checked<'a>(&self) -> MadResult<IncomingMessage<'_, 'a>> {
        assert_eq!(
            self.open_rx.fetch_add(1, Ordering::AcqRel),
            0,
            "begin_unpacking on channel {:?} while a previous incoming message \
             was never end_unpacking'ed (its deferred blocks were never filled)",
            self.name
        );
        time::advance(VDuration::from_micros_f64(self.core.host.begin_op_us));
        // Our own open send batches flush before we block on the fabric:
        // a batched request still sitting in its batch while we wait for
        // the response is a self-inflicted deadlock. Errors poison the
        // affected batch and surface on the send side.
        let _ = self.flush();
        // The announcing header rides the sender's home rail, which makes
        // the rail that announced the message the rail that carries its
        // un-striped blocks — no negotiation needed. Batched packets
        // already in memory win over the fabric: a frame that spanned
        // several messages announced them all at once.
        let (src, rail) = if let Some(queued) = self.queued_batch_source() {
            queued
        } else if self.core.rails.len() == 1 {
            (self.core.rails[0].pmm().wait_incoming(), 0)
        } else {
            self.wait_incoming_multirail()
        };
        self.core.tracer.record(TraceEvent::BeginUnpacking { src });
        let mut msg = IncomingMessage {
            chan: self,
            src,
            rail,
            cur_tm: None,
            bmm: None,
            batch: None,
            done: false,
        };
        match self.check_header(&mut msg) {
            Ok(()) => Ok(msg),
            Err(e) => {
                msg.abort();
                Err(e)
            }
        }
    }

    /// The rail every sender announces to *this node* on: member lists are
    /// identical everywhere, so a peer's connection index for us equals our
    /// own member-list position, and its scheduler pins our announcements
    /// to `home_rail` of that index (advanced past quarantined rails).
    fn my_announce_rail(&self) -> usize {
        let my_index = self
            .peers
            .iter()
            .position(|&p| p == self.core.me)
            .expect("channel member list includes self");
        self.core.sched.home_rail(my_index, &self.core.rails)
    }

    /// Wait for an announced message (multirail only — a single rail uses
    /// its PMM's blocking wait directly). Liveness is read once per scan
    /// from the channel's cached mask — one atomic word instead of a
    /// per-rail flag walk on this hot loop.
    ///
    /// Rails are scanned in wrap order starting from [`my_announce_rail`]
    /// (Self::my_announce_rail), because stripe chunks ride the same
    /// per-rail streams as announcements: a chunk that lands on a
    /// non-announce rail before we notice the header must not be
    /// mistaken for one. When the first pending rail found is *not* the
    /// announce rail, the frame is either a failover announcement (the
    /// sender quarantined our announce rail) or such a racing chunk —
    /// and since a message's header is sent strictly before its stripe
    /// chunks (the striped block is the op's next frame), observing the
    /// chunk guarantees the header is visible by now. One rescan from
    /// the announce rail therefore settles it: the first hit in wrap
    /// order is a genuine announcement.
    fn wait_incoming_multirail(&self) -> (NodeId, usize) {
        loop {
            let start = self.my_announce_rail();
            let n = self.core.rails.len();
            let live = self.live_mask.load(Ordering::Acquire);
            let scan = || {
                (0..n).map(|k| (start + k) % n).find_map(|r| {
                    if live & (1 << r) == 0 {
                        return None;
                    }
                    self.core.rails[r].pmm().poll_incoming().map(|src| (src, r))
                })
            };
            match scan() {
                Some(hit) if hit.1 == start => return hit,
                Some(_) => {
                    if let Some(hit) = scan() {
                        return hit;
                    }
                }
                None => {}
            }
            time::check_abort();
            std::thread::yield_now();
        }
    }

    /// Read and validate the internal message header of `msg`.
    ///
    /// The header is variable-length and the TMs deliver exact-length
    /// reads, so the receiver *predicts*: it encodes the header the sender
    /// must have produced (same source — the announcing connection; same
    /// sequence number — the connection's expected counter) and receives
    /// exactly those bytes. Matching bytes prove source and sequence in one
    /// comparison; a mismatch is decoded field-by-field for a precise
    /// diagnostic.
    fn check_header(&self, msg: &mut IncomingMessage<'_, '_>) -> MadResult<()> {
        let src = msg.src;
        let Some(conn) = self.core.conns.get(src) else {
            return Err(MadError::corrupt(format!(
                "message from node {src}, which is not a member of channel {:?}",
                self.name
            )));
        };
        let expect = wire::encode_msg_header(src, conn.expected_recv_seq());
        let mut header = [0u8; wire::HeaderBytes::CAP];
        let got = &mut header[..expect.len()];
        let (smode, rmode) = (SendMode::Cheaper, RecvMode::Express);
        msg.absorb(got, HEADER_LEN, smode, rmode, None)?;
        // If the wait went through an interrupt path, the wakeup latency
        // counts from the arrival we just synchronized with.
        time::advance(crate::polling::take_pending_wakeup_charge());
        if *got != *expect {
            return Err(self.diagnose_header(src, got));
        }
        let accepted = conn.accept_recv_seq(conn.expected_recv_seq());
        debug_assert!(accepted, "single-open-incoming guard held");
        Ok(())
    }

    /// Name the field a mismatched header differs in.
    fn diagnose_header(&self, src: NodeId, got: &[u8]) -> MadError {
        let Ok(h) = wire::decode_msg_header(got) else {
            return MadError::corrupt(format!(
                "corrupt message header on channel {:?} (asymmetric pack/unpack?)",
                self.name
            ));
        };
        if h.src != src {
            return MadError::corrupt(format!(
                "header source does not match announcing connection on {:?}",
                self.name
            ));
        }
        MadError::corrupt(format!(
            "message sequence gap from node {src} on channel {:?} (got seq {})",
            self.name, h.seq
        ))
    }

    // ------------------------------------------------------------------
    // Nonblocking ops (see `crate::progress` for the state machine).
    // ------------------------------------------------------------------

    /// Post a whole message to `dst` as a **nonblocking op**: the call
    /// returns an [`OpId`] immediately; the message's frames ship as the
    /// progress engine ticks (every frame that *can* go — short frames
    /// with credits available — goes inside this call). The wire bytes are
    /// identical to a `begin_packing`/`pack`/`end_packing` sequence over
    /// the same blocks, so the peer receives it with the ordinary blocking
    /// unpack API.
    ///
    /// Each block is `(data, smode, rmode)`; the op owns its bytes, so the
    /// caller's buffers are free the moment this returns (`send_SAFER`
    /// semantics — the price of not blocking until `send_CHEAPER`'s
    /// late-read window closes).
    ///
    /// Per-peer FIFO holds: ops to one peer ship in posting order, and a
    /// later [`begin_packing`](Self::begin_packing) to the same peer
    /// fences behind them. Completion is observed through
    /// [`test_op`](Self::test_op) / [`wait_op`](Self::wait_op) or by
    /// draining [`completions`](Self::completions).
    ///
    /// # Panics
    /// Panics if `dst` is not a member, is this node, or a blocking
    /// outgoing message is currently open on the channel.
    pub fn post_message(&self, dst: NodeId, blocks: Vec<(Bytes, SendMode, RecvMode)>) -> OpId {
        self.check_dst(dst);
        assert_eq!(
            self.open_tx.load(Ordering::Acquire),
            0,
            "post_message on channel {:?} while a blocking outgoing message \
             is open (finish end_packing first)",
            self.name
        );
        let core = &self.core;
        let clock = time::clock();
        clock.advance(VDuration::from_micros_f64(core.host.begin_op_us));
        let conn = core.conn(dst);
        let rail = core.home_rail(conn);
        core.tracer.record(TraceEvent::PostMessage { dst });
        if core.rails.len() > 1 {
            core.tracer.record(TraceEvent::RailSelect { dst, rail });
        }
        // Host-side descriptor cost per block, charged at posting like the
        // blocking path charges per pack. Nothing else happens here: the
        // header claims its sequence number when it *ships* (first op
        // step) — cancelling a never-started op must not leave a gap in
        // the connection's sequence space — and each block is routed
        // (stripe, batch or TM) when its turn comes.
        for _ in &blocks {
            clock.advance(VDuration::from_micros_f64(core.host.pack_op_us));
        }
        clock.advance(VDuration::from_micros_f64(core.host.end_op_us));
        let op = MessageSendOp {
            core: Arc::clone(core),
            sw: SendSwitch {
                dst,
                rail,
                posted: true,
                ..Default::default()
            },
            header_sent: false,
            blocks: blocks.into_iter(),
        };
        // The post is the op's first tick: a message whose frames need no
        // peer event is fully on the wire (or in the batch) when
        // post_message returns.
        self.engine.post(conn, op)
    }

    /// One progress-engine tick: advance the head op of every peer's
    /// in-flight queue as far as it can go, after flushing any send batch
    /// that sat open past its deadline. Returns how many ops retired.
    pub fn progress(&self) -> usize {
        self.flush_due_batches();
        self.engine.progress()
    }

    /// Nonblocking completion test: consumes the op's result if it has
    /// retired, ticking the engine once if it has not. On success the
    /// caller's clock is synchronized with the op's local completion
    /// instant.
    pub fn test_op(&self, id: OpId) -> Option<MadResult<VTime>> {
        let r = self.engine.take_result(id).or_else(|| {
            self.progress();
            self.engine.take_result(id)
        })?;
        if let Ok(at) = r {
            time::advance_to(at);
        }
        Some(r)
    }

    /// Block until op `id` retires, driving the engine through the
    /// channel's [`PollPolicy`] (an interrupt-path wait charges its wakeup
    /// latency here, after synchronizing with the completion instant). An
    /// op that already retired costs neither a flush nor a tick.
    ///
    /// A blocking wait is an explicit "I need it done": the open send
    /// batch toward the op's peer is force-flushed while driving, so an op
    /// parked in [`OpState::Batched`] cannot stall the wait on a deadline
    /// that virtual time may never reach (flush errors surface through
    /// the failed op itself). Batches toward other peers keep coalescing:
    /// they ship when a probe's tick finds them past their deadline, as
    /// under any [`progress`](Self::progress) call.
    ///
    /// # Panics
    /// Panics if the engine does not know `id`: its result was consumed
    /// already, or the op was cancelled.
    pub fn wait_op(&self, id: OpId) -> MadResult<VTime> {
        let done = || self.engine.take_result(id);
        let mut looked_up = false;
        let r = self.poll.drive(|| {
            let flushed = done().or_else(|| {
                let conn = self.core.conns.get(id.peer())?;
                let _ = self.flush_peer(conn);
                done()
            });
            let r = flushed.or_else(|| {
                self.progress();
                done()
            });
            // Nothing will ever retire an op the engine has forgotten.
            if r.is_none() && !std::mem::replace(&mut looked_up, true) {
                assert!(
                    self.engine.state(id).is_some(),
                    "wait_op on channel {:?}: {id:?} is not in flight (its result \
                     was consumed already, or it was cancelled)",
                    self.name
                );
            }
            r
        });
        let clock = time::clock();
        if let Ok(at) = r {
            clock.advance_to(at);
        }
        clock.advance(crate::polling::take_pending_wakeup_charge());
        r
    }

    /// Cancel a posted op that has not shipped anything yet (see
    /// [`ProgressEngine::cancel`]).
    pub fn cancel_op(&self, id: OpId) -> bool {
        self.engine.cancel(id)
    }

    /// The channel's progress engine (op states, in-flight count).
    pub fn engine(&self) -> &ProgressEngine {
        &self.engine
    }

    /// The queue finished nonblocking ops land on.
    pub fn completions(&self) -> &Completions {
        self.engine.completions()
    }

    /// The engine-driving wait policy of this channel.
    pub fn poll_policy(&self) -> PollPolicy {
        self.poll
    }

    /// Force-quarantine rail `idx`, as a link failure would (fault
    /// injection hook for tests).
    #[doc(hidden)]
    pub fn quarantine_rail(&self, idx: usize) {
        self.core.rails[idx].quarantine(&self.core.stats, &self.core.tracer);
    }
}

/// One drive of a send cursor: the channel it works on and, once an emit
/// has taken it, the connection's batch lock — so a run of batched frames
/// (a whole small posted message) takes it once.
struct Drive<'c> {
    core: &'c ChannelCore,
    batch: Option<MutexGuard<'c, SendBatch>>,
}

/// What a block's bytes are when they reach the send cursor.
enum Src<'a, 's> {
    /// User memory borrowed until the message ends (`pack`).
    Borrowed(&'a [u8]),
    /// User memory borrowed for this call only (`pack_safer`).
    Safer(&'s [u8]),
    /// A posted op's block.
    Owned(Bytes),
    /// The internal message header: its sequence number claimed at
    /// `begin_packing` (a blocking message), or left to the moment it ships
    /// or its batch frame flushes (an op: cancelling one that never started
    /// must leave no gap in the connection's sequence space).
    Header(Option<u32>),
}

fn park_state(kind: PendingKind) -> OpState {
    match kind {
        PendingKind::Credit => OpState::CreditWait,
        PendingKind::Rendezvous => OpState::RendezvousWait,
    }
}

/// The send side of the Switch: a resumable cursor over one outgoing
/// message. [`emit`](Self::emit) routes a block, [`close`](Self::close)
/// commits the open BMM, [`resume`](Self::resume) picks up whatever a
/// peer event held back; each answers `None` — all handed over so far is
/// with the TMs, by `done_at` at the latest — or the [`OpState`] it is
/// parked in. A cursor opened by a blocking message parks on a striped
/// block only: its BMMs make blocking TM calls.
#[derive(Default)]
struct SendSwitch<'a> {
    dst: NodeId,
    /// Home rail; fixed once the header frame ships (the receiver pins
    /// the message's un-striped blocks to the announcing rail).
    rail: usize,
    posted: bool,
    cur_tm: Option<TmId>,
    bmm: Option<SendBmm<'a>>,
    /// The open BMM is committing and leaves once it is done.
    closing: bool,
    /// The block an op's cursor parked on before it could take it.
    held: Option<(Bytes, SendMode, RecvMode)>,
    /// The striped block in flight and its per-connection block number.
    stripe: Option<(StripeSend, u64)>,
    /// Batch tickets of the message's first and last batched packets.
    tickets: Option<(u64, u64)>,
    /// Whether anything irrevocable happened: a frame left outside the
    /// batch, or the header claimed its sequence number.
    started: bool,
    done_at: VTime,
}

impl<'a> SendSwitch<'a> {
    /// Move a message of which nothing has shipped to the connection's
    /// next alive rail; `false` if there is none.
    fn rehome(&mut self, core: &ChannelCore) -> bool {
        let (dst, rail) = (self.dst, core.home_rail(core.conn(self.dst)));
        (self.bmm, self.cur_tm, self.rail) = (None, None, rail);
        if core.rails[rail].is_alive() {
            core.tracer.record(TraceEvent::RailSelect { dst, rail });
        }
        core.rails[rail].is_alive()
    }

    /// Route one block and hand it over. `len` is what both ends classify
    /// it by: its length, or the canonical [`HEADER_LEN`] for the header,
    /// whose encoded length depends on a sequence number the receiver's
    /// mirrored classification cannot know yet.
    fn emit(
        &mut self,
        d: &mut Drive<'_>,
        src: Src<'a, '_>,
        len: usize,
        smode: SendMode,
        rmode: RecvMode,
    ) -> MadResult<Option<OpState>> {
        let (core, dst) = (d.core, self.dst);
        let route = core.route(self.rail, len, smode, rmode);
        let from = self.bmm.as_ref().and(self.cur_tm);
        if self.cur_tm.map(Route::Tm) != Some(route) {
            // Commit the open BMM so the block takes its place in the
            // per-connection order whatever carries it (paper §4.1; the
            // receiver mirrors this with a checkout).
            if let Some(parked) = self.close()? {
                let Src::Owned(data) = src else {
                    unreachable!("only an op parks on a BMM, and it owns its blocks");
                };
                self.held = Some((data, smode, rmode));
                return Ok(Some(parked));
            }
        }
        if route != Route::Batch {
            // A frame outside the batch must not overtake the packets
            // staged there: it is an ordering barrier for the batch, the
            // way a TM switch is for the open BMM.
            d.batch = None;
            core.flush_batch(dst, self.rail, FlushReason::Explicit)?;
            self.started = true;
        }
        let express = rmode == RecvMode::Express;
        let tm = match route {
            Route::Tm(tm) => tm,
            Route::Batch => {
                let (item, express, internal) = match src {
                    // The caller's borrow may end with this call, so the
                    // bytes are captured into pooled memory now (which is
                    // why `send_LATER` blocks never batch).
                    Src::Borrowed(data) | Src::Safer(data) => {
                        let buf = core.rails[self.rail].pool().checkout_from(data);
                        time::advance(core.host.memcpy(len));
                        core.stats.record_copy(len);
                        (BatchItem::Pooled(buf, len), express, false)
                    }
                    Src::Owned(data) => (BatchItem::Owned(data), express, false),
                    // No express flush for a header: alone it announces
                    // nothing the peer can act on, and holding it is what
                    // lets whole small messages coalesce.
                    Src::Header(None) => (BatchItem::DeferredHeader, false, true),
                    Src::Header(Some(seq)) => {
                        let buf = core.header_buf(seq);
                        let len = buf.len();
                        (BatchItem::Pooled(buf, len), false, true)
                    }
                };
                let ctx = core.batch_ctx(dst, self.rail);
                let batch = d.batch.get_or_insert_with(|| ctx.conn.send_batch().lock());
                let t = batch::append(&ctx, batch, item, express, internal)?;
                self.tickets = Some((self.tickets.map_or(t, |(first, _)| first), t));
                return Ok(None);
            }
            Route::Stripe => {
                let data = match src {
                    // The copy stages the simulated DMA (real BIP reads
                    // user memory): not counted.
                    Src::Borrowed(data) => Bytes::copy_from_slice(data),
                    Src::Owned(data) => data,
                    _ => unreachable!("only (CHEAPER, CHEAPER) user blocks stripe"),
                };
                let block = core.conn(dst).next_tx_stripe_block();
                let stripe = StripeSend::new(&core.stripe_ctx(core.me, block), dst, data);
                self.stripe = Some((stripe, block));
                // This drive already ships every rail's first header.
                return self.resume(d);
            }
        };
        if self.cur_tm != Some(tm) {
            if let Some(from) = from {
                core.tracer
                    .record(TraceEvent::CommitOnSwitch { from, to: tm });
            }
            let rail = &core.rails[self.rail];
            let bmm = SendBmm::with_pool(
                rail.pmm().policy(tm),
                rail.pmm().tm(tm),
                tm,
                dst,
                core.host,
                Arc::clone(&core.stats),
                rail.pool().clone(),
            );
            self.bmm = Some(if self.posted { bmm.posted() } else { bmm });
            self.cur_tm = Some(tm);
        }
        let bmm = self.bmm.as_mut().expect("switched");
        match src {
            Src::Borrowed(data) => {
                let packed = TraceEvent::Pack {
                    len,
                    smode,
                    rmode,
                    tm,
                };
                core.tracer.record(packed);
                bmm.pack(data, smode)?
            }
            Src::Safer(data) => bmm.pack_safer_now(data)?,
            Src::Owned(data) => bmm.pack_owned(data)?,
            // An op's header claims its sequence number here: the point
            // of no return (cancel is refused once `started`).
            Src::Header(seq) => {
                let seq = seq.unwrap_or_else(|| core.conn(dst).next_send_seq());
                bmm.pack_pooled(core.header_buf(seq))?
            }
        }
        // An EXPRESS block must be extractable as soon as the peer unpacks
        // it, so it cannot linger in the aggregation queue — unless the
        // caller forbade reading it before commit (LATER).
        if express && smode != SendMode::Later {
            bmm.flush()?;
        }
        Ok(bmm.waits_for().map(park_state))
    }

    /// Commit the open BMM and let it go.
    fn close(&mut self) -> MadResult<Option<OpState>> {
        let Some(bmm) = &mut self.bmm else {
            return Ok(None);
        };
        if !std::mem::replace(&mut self.closing, true) {
            bmm.flush()?;
        }
        if let Some(kind) = bmm.waits_for() {
            return Ok(Some(park_state(kind)));
        }
        self.done_at = self.done_at.max(bmm.done_at());
        (self.bmm, self.cur_tm, self.closing) = (None, None, false);
        Ok(None)
    }

    /// Advance what is in flight — the striped block, the open BMM's
    /// parked shipment and what queued behind it — then emit the block
    /// that waited for it.
    fn resume(&mut self, d: &mut Drive<'_>) -> MadResult<Option<OpState>> {
        if let Some((mut stripe, block)) = self.stripe.take() {
            match stripe.try_advance(&d.core.stripe_ctx(d.core.me, block))? {
                Some(at) => self.done_at = self.done_at.max(at),
                None => {
                    self.stripe = Some((stripe, block));
                    return Ok(Some(OpState::StripePartial));
                }
            }
        }
        if let Some(bmm) = &mut self.bmm {
            if let Some(kind) = bmm.resume()? {
                return Ok(Some(park_state(kind)));
            }
            if self.closing {
                self.close()?;
            }
        }
        match self.held.take() {
            Some((data, smode, rmode)) => {
                let len = data.len();
                self.emit(d, Src::Owned(data), len, smode, rmode)
            }
            None => Ok(None),
        }
    }
}

/// A posted message ([`Channel::post_message`]): the send cursor at
/// `'static` plus the blocks still to emit, stepped by the progress
/// engine — parked in `CreditWait` / `RendezvousWait` / `StripePartial`
/// whenever the cursor is, failing fast (`ChannelDown`) when its rails
/// die under it. Allocated (boxed by the engine) only if it has to park.
struct MessageSendOp {
    core: Arc<ChannelCore>,
    sw: SendSwitch<'static>,
    /// Whether the library header went to the cursor.
    header_sent: bool,
    /// The caller's `Vec`, consumed in place.
    blocks: std::vec::IntoIter<(Bytes, SendMode, RecvMode)>,
}

impl MessageSendOp {
    fn step(&mut self) -> MadResult<StepOutcome> {
        let (core, sw) = (&*self.core, &mut self.sw);
        // A dead home rail fails the op: after the header is out the
        // receiver expects the rest of the message on the announcing
        // rail, so only an op nothing of which has shipped re-homes. (A
        // striped block in flight re-stripes over the survivors by itself.)
        if sw.stripe.is_none()
            && !core.rails[sw.rail].is_alive()
            && (sw.started || !sw.rehome(core))
        {
            return Err(MadError::ChannelDown);
        }
        let d = &mut Drive { core, batch: None };
        let mut parked = sw.resume(d)?;
        while parked.is_none() {
            parked = if !std::mem::replace(&mut self.header_sent, true) {
                let (smode, rmode) = (SendMode::Cheaper, RecvMode::Express);
                sw.emit(d, Src::Header(None), HEADER_LEN, smode, rmode)?
            } else if let Some((data, smode, rmode)) = self.blocks.next() {
                let len = data.len();
                sw.emit(d, Src::Owned(data), len, smode, rmode)?
            } else if sw.bmm.is_some() {
                sw.close()?
            } else {
                break;
            };
        }
        if let Some(state) = parked {
            return Ok(StepOutcome::Pending(state));
        }
        // Every frame is emitted, but batched packets only count as sent
        // once a flush covers them: the engine parks what is left of the
        // op behind its last ticket and the flush that covers it retires
        // it (a later op may append behind it meanwhile).
        Ok(match sw.tickets {
            Some((first, last)) => StepOutcome::Batched {
                first: if sw.started { 0 } else { first },
                last,
                done_at: sw.done_at,
            },
            None => StepOutcome::Done(sw.done_at.max(time::now())),
        })
    }
}

impl OpStep for MessageSendOp {
    fn try_advance(&mut self) -> StepOutcome {
        self.step().unwrap_or_else(StepOutcome::Failed)
    }

    fn started(&self) -> bool {
        // An op still in the queue parks only behind a frame that shipped
        // outside the batch, after a barrier flush of whatever it staged:
        // while this is false nothing of it is anywhere.
        debug_assert!(self.sw.started || (self.sw.bmm.is_none() && self.sw.tickets.is_none()));
        self.sw.started
    }
}

/// An outgoing message under construction — the paper's send-side
/// *connection* object returned by `mad_begin_packing`: the send cursor
/// and its blocking driver.
///
/// Lifetime `'a` covers all packed user blocks: `send_LATER` and
/// `send_CHEAPER` blocks are read as late as `end_packing`, so they must
/// outlive the message.
pub struct OutgoingMessage<'c, 'a> {
    chan: &'c Channel,
    sw: SendSwitch<'a>,
    done: bool,
    /// Counter snapshot at `begin_packing` when tracing is enabled, so
    /// `end_packing` can record this message's copy-accounting delta.
    stats_at_begin: Option<StatsSnapshot>,
}

impl<'c, 'a> OutgoingMessage<'c, 'a> {
    /// Destination node of this message.
    pub fn dst(&self) -> NodeId {
        self.sw.dst
    }

    /// The rail carrying this message's un-striped blocks.
    pub fn rail(&self) -> usize {
        self.sw.rail
    }

    /// Append one block to the message (paper: `mad_pack`).
    ///
    /// # Panics
    /// Panics on transport failure (see [`try_pack`](Self::try_pack)).
    pub fn pack(&mut self, data: &'a [u8], smode: SendMode, rmode: RecvMode) {
        let r = self.try_pack(data, smode, rmode);
        self.chan.expect("pack", r)
    }

    /// [`pack`](Self::pack) that surfaces transport failure as a value.
    /// On error the message is abandoned (the channel returns to the
    /// no-open-message state); further operations on it panic.
    pub fn try_pack(&mut self, data: &'a [u8], smode: SendMode, rmode: RecvMode) -> MadResult<()> {
        self.put(Src::Borrowed(data), data.len(), smode, rmode)
    }

    /// Pack a block with `send_SAFER` semantics through a short-lived
    /// borrow: the data is captured during the call (by copy or by
    /// synchronous transmission), so the caller may modify or free it as
    /// soon as this returns — the ergonomic point of `send_SAFER`.
    pub fn pack_safer(&mut self, data: &[u8], rmode: RecvMode) {
        let r = self.try_pack_safer(data, rmode);
        self.chan.expect("pack_safer", r)
    }

    /// [`pack_safer`](Self::pack_safer) that surfaces transport failure
    /// as a value (same abandonment semantics as [`try_pack`](Self::try_pack)).
    pub fn try_pack_safer(&mut self, data: &[u8], rmode: RecvMode) -> MadResult<()> {
        self.put(Src::Safer(data), data.len(), SendMode::Safer, rmode)
    }

    fn put(
        &mut self,
        src: Src<'a, '_>,
        len: usize,
        smode: SendMode,
        rmode: RecvMode,
    ) -> MadResult<()> {
        assert!(
            !self.done,
            "pack after end_packing (or after a failed pack)"
        );
        time::advance(VDuration::from_micros_f64(self.chan.core.host.pack_op_us));
        let r = self.drive(|sw, d| sw.emit(d, src, len, smode, rmode));
        if r.is_err() {
            self.abort();
        }
        r
    }

    /// The blocking driver: run one cursor call, then spin the cursor
    /// where an op would park it between ticks (a blocking send waits on
    /// its peer at no modelled cost), and take the thread's clock to the
    /// instant the cursor reached.
    fn drive(
        &mut self,
        call: impl FnOnce(&mut SendSwitch<'a>, &mut Drive<'c>) -> MadResult<Option<OpState>>,
    ) -> MadResult<()> {
        let core = &self.chan.core;
        let d = &mut Drive { core, batch: None };
        let mut parked = call(&mut self.sw, d)?;
        while parked.is_some() {
            time::check_abort();
            std::thread::yield_now();
            parked = self.sw.resume(d)?;
        }
        time::advance_to(self.sw.done_at);
        Ok(())
    }

    /// Abandon the message after a transport error: drop queued blocks
    /// and return the channel to the no-open-message state so the caller
    /// can keep using it (e.g. toward a different peer).
    fn abort(&mut self) {
        if !self.done {
            self.done = true;
            (self.sw.bmm, self.sw.cur_tm) = (None, None);
            // Drop this message's never-flushed batched packets too: no
            // envelope sequence number was assigned yet, so the peer's
            // continuity check is unaffected. (Posted ops cannot have
            // packets pending here — `begin_packing` drained them.)
            if let Some(conn) = self.chan.core.conns.get(self.sw.dst) {
                batch::cancel_tickets(conn, conn.batch_flushed() + 1, u64::MAX);
            }
            self.chan.open_tx.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Finalize the message (paper: `mad_end_packing`): every packed block
    /// is guaranteed flushed to the network when this returns. A striped
    /// block was already committed on every rail it touched when `pack`
    /// returned, so the terminal commit here only covers the home rail.
    ///
    /// # Panics
    /// Panics on transport failure (see
    /// [`try_end_packing`](Self::try_end_packing)).
    pub fn end_packing(self) {
        let chan = self.chan;
        chan.expect("end_packing", self.try_end_packing())
    }

    /// [`end_packing`](Self::end_packing) that surfaces transport failure
    /// as a value. Win or lose, the message is finalized: the channel
    /// accepts a new `begin_packing` afterwards.
    pub fn try_end_packing(mut self) -> MadResult<()> {
        let core = &self.chan.core;
        let mut result = self.drive(|sw, _| sw.close());
        // Terminal batch flush: `end_packing` promises the message is on
        // the wire when it returns (only posted ops coalesce *across*
        // messages).
        if result.is_ok() {
            result = core.flush_batch(self.sw.dst, self.sw.rail, FlushReason::Explicit);
        }
        time::advance(VDuration::from_micros_f64(core.host.end_op_us));
        core.tracer.record(TraceEvent::EndPacking);
        if result.is_ok() {
            if let Some(at_begin) = self.stats_at_begin.take() {
                let d = core.stats.snapshot().since(&at_begin);
                core.tracer.record(TraceEvent::MessageStats {
                    copied_bytes: d.copied_bytes,
                    borrowed_bytes: d.borrowed_bytes,
                    pool_hits: d.pool_hits,
                    pool_misses: d.pool_misses,
                });
            }
            core.stats.record_message();
        }
        self.chan.open_tx.fetch_sub(1, Ordering::AcqRel);
        self.done = true;
        result
    }
}

/// How a receive BMM takes a block routed to it: [`RecvBmm::unpack`]
/// (which may fill it as late as the checkout) or
/// [`RecvBmm::unpack_express_now`].
type Hand<'a, 'd> = fn(&mut RecvBmm<'a>, &'d mut [u8], RecvMode) -> MadResult<()>;

/// An incoming message being consumed — the paper's receive-side
/// *connection* object returned by `mad_begin_unpacking`: the receive side
/// of the Switch, mirroring [`SendSwitch`] route for route.
pub struct IncomingMessage<'c, 'a> {
    chan: &'c Channel,
    src: NodeId,
    /// The rail the message was announced on (the sender's home rail).
    rail: usize,
    cur_tm: Option<TmId>,
    bmm: Option<RecvBmm<'a>>,
    /// The connection's batch-frame cursor, locked by the message's first
    /// batched packet (its header, when headers batch) and held to its
    /// end: one incoming message is open per channel, so nobody waits.
    batch: Option<MutexGuard<'c, RecvBatch>>,
    done: bool,
}

impl<'c, 'a> IncomingMessage<'c, 'a> {
    /// The sending node.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// The rail carrying this message's un-striped blocks.
    pub fn rail(&self) -> usize {
        self.rail
    }

    /// Extract one block (paper: `mad_unpack`). The `(smode, rmode)` pair
    /// and `dst.len()` must mirror the sender's `pack` exactly.
    ///
    /// With `receive_EXPRESS` the data is in `dst` when this returns; with
    /// `receive_CHEAPER` extraction may be deferred until a later express
    /// block, a TM switch, or `end_unpacking`.
    /// # Panics
    /// Panics on transport failure (see [`try_unpack`](Self::try_unpack)).
    pub fn unpack(&mut self, dst: &'a mut [u8], smode: SendMode, rmode: RecvMode) {
        let r = self.try_unpack(dst, smode, rmode);
        self.chan.expect("unpack", r)
    }

    /// [`unpack`](Self::unpack) that surfaces transport failure as a
    /// value. On error the message is abandoned (deferred destinations
    /// are dropped unfilled) and the channel returns to the idle receive
    /// state; further operations on the message panic.
    pub fn try_unpack(
        &mut self,
        dst: &'a mut [u8],
        smode: SendMode,
        rmode: RecvMode,
    ) -> MadResult<()> {
        self.take(dst, smode, rmode, RecvBmm::unpack)
    }

    /// Extract one `receive_EXPRESS` block through a short-lived borrow:
    /// the data is in `dst` when this returns and the borrow ends with the
    /// call, so the value can steer the following unpacks (the paper's
    /// Fig. 1 pattern: read a length header, allocate, unpack the array).
    pub fn unpack_express(&mut self, dst: &mut [u8], smode: SendMode) {
        let r = self.try_unpack_express(dst, smode);
        self.chan.expect("unpack_express", r)
    }

    /// [`unpack_express`](Self::unpack_express) that surfaces transport
    /// failure as a value (same abandonment semantics as
    /// [`try_unpack`](Self::try_unpack)).
    pub fn try_unpack_express(&mut self, dst: &mut [u8], smode: SendMode) -> MadResult<()> {
        self.take(dst, smode, RecvMode::Express, |bmm, dst, _| {
            bmm.unpack_express_now(dst)
        })
    }

    fn take<'d>(
        &mut self,
        dst: &'d mut [u8],
        smode: SendMode,
        rmode: RecvMode,
        hand: Hand<'a, 'd>,
    ) -> MadResult<()> {
        assert!(
            !self.done,
            "unpack after end_unpacking (or after a failed unpack)"
        );
        time::advance(VDuration::from_micros_f64(self.chan.core.host.pack_op_us));
        let len = dst.len();
        let r = self.absorb(dst, len, smode, rmode, Some(hand));
        if r.is_err() {
            self.abort();
        }
        r
    }

    /// Route one block the way the sender's [`SendSwitch::emit`] did —
    /// same arguments, same `route` — and receive it: checkout where the
    /// sender committed, reassembly where it striped, the connection's
    /// frame cursor where it batched. `len` is the sender's, which for the
    /// internal header (`hand` is `None`) is [`HEADER_LEN`], not the
    /// predicted encoded length `dst` has.
    fn absorb<'d>(
        &mut self,
        dst: &'d mut [u8],
        len: usize,
        smode: SendMode,
        rmode: RecvMode,
        hand: Option<Hand<'a, 'd>>,
    ) -> MadResult<()> {
        let (core, src) = (&self.chan.core, self.src);
        let route = core.route(self.rail, len, smode, rmode);
        if self.cur_tm.map(Route::Tm) != Some(route) {
            if let Some(mut old) = self.bmm.take() {
                old.checkout()?;
                if let Route::Tm(to) = route {
                    let from = self.cur_tm.expect("old BMM implies a current TM");
                    core.tracer
                        .record(TraceEvent::CheckoutOnSwitch { from, to });
                }
            }
            self.cur_tm = None;
        }
        let tm = match route {
            Route::Tm(tm) => tm,
            Route::Stripe => {
                let block = core.conn(src).next_rx_stripe_block();
                return rail::stripe_recv(&core.stripe_ctx(src, block), src, dst);
            }
            // The packet lies under the connection's frame cursor, which
            // pulls the next frame off the wire when it is spent.
            Route::Batch => {
                let ctx = core.batch_ctx(src, self.rail);
                let cursor = self
                    .batch
                    .get_or_insert_with(|| ctx.conn.recv_batch().lock());
                return batch::recv_into(&ctx, cursor, src, dst);
            }
        };
        // Mirror of the sender's barrier flush: every batched packet ahead
        // of this block was popped by its own unpack.
        debug_assert!(
            core.conn(src).recv_queued().is_none(),
            "batched packets left queued at a non-batchable unpack \
             (asymmetric pack/unpack?)"
        );
        if self.cur_tm != Some(tm) {
            let rail = &core.rails[self.rail];
            self.cur_tm = Some(tm);
            self.bmm = Some(RecvBmm::new(
                rail.pmm().policy(tm),
                rail.pmm().tm(tm),
                src,
                core.host,
                Arc::clone(&core.stats),
            ));
        }
        let bmm = self.bmm.as_mut().expect("switched");
        let Some(hand) = hand else {
            return bmm.unpack_express_now(dst);
        };
        core.tracer.record(TraceEvent::Unpack {
            len,
            smode,
            rmode,
            tm,
        });
        hand(bmm, dst, rmode)
    }

    /// Abandon the message after a transport error: return the channel to
    /// the idle receive state so the caller can keep using it.
    fn abort(&mut self) {
        if !self.done {
            self.done = true;
            self.bmm = None;
            self.cur_tm = None;
            self.batch = None;
            self.chan.open_rx.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Finalize reception (paper: `mad_end_unpacking`): all blocks —
    /// including deferred `receive_CHEAPER` ones — are available when this
    /// returns.
    ///
    /// # Panics
    /// Panics on transport failure (see
    /// [`try_end_unpacking`](Self::try_end_unpacking)).
    pub fn end_unpacking(self) {
        let chan = self.chan;
        chan.expect("end_unpacking", self.try_end_unpacking())
    }

    /// [`end_unpacking`](Self::end_unpacking) that surfaces transport
    /// failure as a value. Win or lose, reception is finalized: the
    /// channel accepts a new `begin_unpacking` afterwards.
    pub fn try_end_unpacking(mut self) -> MadResult<()> {
        let mut result = Ok(());
        if let Some(mut bmm) = self.bmm.take() {
            result = bmm.checkout();
        }
        time::advance(VDuration::from_micros_f64(self.chan.core.host.end_op_us));
        self.chan.core.tracer.record(TraceEvent::EndUnpacking);
        self.batch = None;
        self.chan.open_rx.fetch_sub(1, Ordering::AcqRel);
        self.done = true;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChannelSpec, Config, Madeleine, Protocol};
    use madsim_net::{NetKind, WorldBuilder};

    /// Both directions call `route`, so the ends cannot disagree; what is
    /// left to pin is where each argument shape its callers produce
    /// (`pack`, `pack_safer`, the header, a posted block; `unpack`,
    /// `unpack_express`, the header) lands.
    #[test]
    fn every_call_shape_has_its_route() {
        use {RecvMode::*, Route::*, SendMode as S};
        let mut b = WorldBuilder::new(2);
        b.network_with_rails("eth0", NetKind::Ethernet, &[0, 1], 2);
        let spec = ChannelSpec::new("ch", "eth0", Protocol::Tcp).with_rails(2);
        let spec = spec.with_striping(8192, 4096).with_batching(16, 4096, 20.0);
        let config = Config::default().with_channel_spec(spec);
        b.build().run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let core = &mad.channel("ch").core;
            let shapes = [
                (64, S::Cheaper, Cheaper, Batch), // pack, unpack, a posted block
                (64, S::Cheaper, Express, Batch), // unpack_express of a batched block
                (64, S::Safer, Cheaper, Batch),   // pack_safer
                (64, S::Later, Cheaper, Tm(0)),   // send_LATER never batches
                (HEADER_LEN, S::Cheaper, Express, Batch), // the header, both ends
                (8192, S::Cheaper, Cheaper, Stripe), // pack, unpack, a posted block
                (8192, S::Cheaper, Express, Tm(0)), // unpack_express never stripes
                (8192, S::Safer, Cheaper, Tm(0)), // pack_safer never stripes
                (5000, S::Cheaper, Cheaper, Tm(0)), // past a batch, short of a stripe
            ];
            for (len, s, r, want) in shapes {
                assert_eq!(core.route(0, len, s, r), want, "{len} B ({s:?}, {r:?})");
            }
        });
    }
}
