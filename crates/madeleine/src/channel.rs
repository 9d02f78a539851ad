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
//! The Switch Module logic lives in `pack`/`unpack`: each packet is routed
//! to the TM chosen by the PMM; when the chosen TM differs from the previous
//! packet's, the previous TM's BMM is flushed (*commit*) before the new one
//! takes over, so delivery order is preserved across transfer methods; the
//! final `end_packing` performs the terminal commit (mirrored by *checkout*
//! on the receive side). On a multirail channel a message's ordinary blocks
//! ride its connection's *home rail*; large CHEAPER blocks are striped
//! across every alive rail (see [`crate::rail`]) after the home rail's BMM
//! is committed, so per-connection order still holds. A single-rail channel
//! takes exactly the pre-multirail code paths: same locks, same copies,
//! same trace stream.
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

use crate::batch::{self, BatchCtx, BatchItem, FlushReason, RecvBatch};
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
use crate::tm::{PendingKind, TmId, TmPending, TmSend, TmStep};
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
    /// Channel-lifetime buffer pool: headers, SAFER captures, and (via the
    /// session's driver wiring) protocol static buffers all draw from here,
    /// so steady-state traffic reuses warm slabs across messages. On a
    /// multirail channel this is rail 0's pool; each further rail has its
    /// own (see [`Rail::pool`]).
    pool: BufPool,
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

    /// Does a block of `len`/`smode` ride inside a batch frame on `rail`?
    /// Pure and symmetric — the receiver evaluates it with the mirrored
    /// arguments and must agree (the stripe check runs before this one on
    /// both sides).
    fn batchable(&self, len: usize, smode: SendMode, rail: usize) -> bool {
        let cap = self.rails[rail].batch_frame_cap();
        batch::batchable(&self.sched.batch, len, smode, cap)
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
        pool: BufPool,
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
            pool,
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
        let rails = vec![Rail::new(0, pmm, pool.clone(), None)];
        let sched = RailScheduler::new(
            crate::config::DEFAULT_STRIPE_THRESHOLD,
            crate::config::DEFAULT_STRIPE_CHUNK,
        );
        let poll = PollPolicy::default();
        Self::multirail(
            name, rails, sched, me, peers, host, stats, pool, tracer, 0, poll,
        )
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

    /// The channel-lifetime buffer pool (rail 0's on multirail channels).
    pub fn pool(&self) -> &BufPool {
        &self.pool
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
        match self.begin_packing_checked(dst) {
            Ok(msg) => msg,
            Err(e) => panic!("begin_packing on channel {:?} failed: {e}", self.name),
        }
    }

    /// [`begin_packing`](Self::begin_packing) that surfaces transport
    /// failures (the internal header is transmitted eagerly, so a dead
    /// peer is detected here). Membership violations still panic: they
    /// are API misuse, not fabric faults. On a multirail channel a header
    /// that fails to send quarantines its rail and retries on the
    /// survivors before giving up.
    pub fn begin_packing_checked<'a>(&self, dst: NodeId) -> MadResult<OutgoingMessage<'_, 'a>> {
        assert!(
            self.peers.contains(&dst),
            "node {dst} is not a member of channel {:?}",
            self.name
        );
        assert_ne!(
            dst, self.core.me,
            "cannot send to self on channel {:?}",
            self.name
        );
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
            dst,
            rail,
            cur_tm: None,
            bmm: None,
            done: false,
            stats_at_begin,
        };
        let mut attempts = 0;
        loop {
            // The header is built directly in pooled memory: no stack
            // staging array, no per-message allocation — a warm 64-byte
            // slab per send.
            let hdr = wire::encode_msg_header(self.core.me, seq);
            let mut header = self.pool.checkout(hdr.len());
            {
                // Every encoded byte goes on the wire and recycled slabs
                // carry stale bytes, so the full span is written.
                let h = header.spare_mut();
                h[..hdr.len()].copy_from_slice(&hdr);
            }
            header.advance(hdr.len());
            let e = match msg.pack_internal(header) {
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
                self.core.rails[msg.rail].quarantine(&self.core.stats, &self.core.tracer);
                msg.cur_tm = None;
                msg.bmm = None;
                let next = self.core.sched.home_rail(conn.index(), &self.core.rails);
                if self.core.rails[next].is_alive() {
                    msg.rail = next;
                    self.core
                        .tracer
                        .record(TraceEvent::RailSelect { dst, rail: next });
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
        match self.begin_unpacking_checked() {
            Ok(msg) => msg,
            Err(e) => panic!("begin_unpacking on channel {:?} failed: {e}", self.name),
        }
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
        msg.unpack_internal(got)?;
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
        assert!(
            self.peers.contains(&dst),
            "node {dst} is not a member of channel {:?}",
            self.name
        );
        assert_ne!(
            dst, self.core.me,
            "cannot send to self on channel {:?}",
            self.name
        );
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
            dst,
            rail,
            core: Arc::clone(core),
            header_sent: false,
            blocks: blocks.into_iter(),
            pending: None,
            stripe: None,
            started: false,
            done_at: VTime::ZERO,
            first_ticket: None,
            last_ticket: None,
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
    pub fn wait_op(&self, id: OpId) -> MadResult<VTime> {
        let done = || self.engine.take_result(id);
        let r = self.poll.drive(|| {
            let flushed = done().or_else(|| {
                let conn = self.core.conns.get(id.peer())?;
                let _ = self.flush_peer(conn);
                done()
            });
            flushed.or_else(|| {
                self.progress();
                done()
            })
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

/// A TM continuation parked between ticks, with the accounting recorded
/// once the frame actually ships.
struct PendingFrame {
    kind: PendingKind,
    cont: Box<dyn TmPending>,
    tm: TmId,
    len: usize,
}

/// One block of a posted message, as the caller handed it over.
type Block = (Bytes, SendMode, RecvMode);

/// The send-side message state machine behind [`Channel::post_message`]:
/// ships the header and every block frame in order, parking in
/// `CreditWait` / `RendezvousWait` / `StripePartial` whenever a frame
/// needs a peer event, and failing fast (`ChannelDown`) when its rails
/// die under it. Allocated (boxed by the engine) only if it has to park.
struct MessageSendOp {
    dst: NodeId,
    /// Home rail; fixed once the header frame ships (the receiver pins
    /// the message's un-striped blocks to the announcing rail).
    rail: usize,
    core: Arc<ChannelCore>,
    /// Whether the library header went out (or into the batch); it claims
    /// the connection's next sequence number as it ships, or — riding in
    /// a batch frame — when the batch flushes.
    header_sent: bool,
    /// The blocks still to emit: the caller's `Vec`, consumed in place.
    blocks: std::vec::IntoIter<Block>,
    pending: Option<PendingFrame>,
    /// The striped block in flight and its per-connection block number,
    /// parked between ticks (never together with `pending`: frames ship
    /// strictly in order).
    stripe: Option<(StripeSend, u64)>,
    started: bool,
    done_at: VTime,
    /// Batch tickets of this op's first and last batched packets: once
    /// every frame is emitted they are what is left of the op (see
    /// [`StepOutcome::Batched`]).
    first_ticket: Option<u64>,
    last_ticket: Option<u64>,
}

impl MessageSendOp {
    fn park_state(kind: PendingKind) -> OpState {
        match kind {
            PendingKind::Credit => OpState::CreditWait,
            PendingKind::Rendezvous => OpState::RendezvousWait,
        }
    }

    /// Does the block ride inside a batch frame (the stripe check runs
    /// first, as on the blocking path and on the receiver)?
    fn batches(core: &ChannelCore, rail: usize, (data, smode, rmode): &Block) -> bool {
        !core
            .sched
            .should_stripe(data.len(), *smode, *rmode, core.rails.len())
            && core.batchable(data.len(), *smode, rail)
    }

    /// Move the run of batchable frames at the head of what is left of
    /// the message — its header first, if still unsent — into the
    /// connection's send batch, zero-copy, under one hold of the batch
    /// lock.
    fn append_batchable(&mut self) -> MadResult<()> {
        let (core, rail) = (&*self.core, self.rail);
        let header = !self.header_sent && core.batchable(HEADER_LEN, SendMode::Cheaper, rail);
        let next_batches = |blocks: &std::vec::IntoIter<Block>| match blocks.as_slice().first() {
            Some(b) => Self::batches(core, rail, b),
            None => false,
        };
        if !(header || (self.header_sent && next_batches(&self.blocks))) {
            return Ok(());
        }
        let ctx = core.batch_ctx(self.dst, rail);
        let mut batch = ctx.conn.send_batch().lock();
        if header {
            self.header_sent = true;
            let t = batch::append(&ctx, &mut batch, BatchItem::DeferredHeader, false, true)?;
            self.first_ticket.get_or_insert(t);
            self.last_ticket = Some(t);
        }
        while next_batches(&self.blocks) {
            let (data, _, rmode) = self.blocks.next().expect("peeked");
            let express = rmode == RecvMode::Express;
            let t = batch::append(&ctx, &mut batch, BatchItem::Owned(data), express, false)?;
            self.first_ticket.get_or_insert(t);
            self.last_ticket = Some(t);
        }
        Ok(())
    }
}

impl OpStep for MessageSendOp {
    fn try_advance(&mut self) -> StepOutcome {
        // A dead home rail fails the op: before anything shipped we could
        // re-home, but after the header is out the receiver expects the
        // rest of the message on the announcing rail. Re-home only in the
        // nothing-shipped case; otherwise surface the fault. (A striped
        // block in flight re-stripes over the survivors by itself.)
        if self.stripe.is_none() && !self.core.rails[self.rail].is_alive() {
            if self.started {
                if let Some(mut p) = self.pending.take() {
                    p.cont.cancel();
                }
                return StepOutcome::Failed(MadError::ChannelDown);
            }
            let next = self.core.home_rail(self.core.conn(self.dst));
            if !self.core.rails[next].is_alive() {
                return StepOutcome::Failed(MadError::ChannelDown);
            }
            self.rail = next;
            self.core.tracer.record(TraceEvent::RailSelect {
                dst: self.dst,
                rail: next,
            });
        }
        // The parked continuation goes first: frames ship strictly in
        // order.
        if let Some(mut p) = self.pending.take() {
            match p.cont.try_advance() {
                Ok(TmStep::Pending) => {
                    let state = Self::park_state(p.kind);
                    self.pending = Some(p);
                    return StepOutcome::Pending(state);
                }
                Ok(TmStep::Done(at)) => {
                    self.core.stats.record_tm_traffic(p.tm, p.len);
                    self.core.stats.record_buffer_sent();
                    self.done_at = self.done_at.max(at);
                }
                Err(e) => return StepOutcome::Failed(e),
            }
        }
        // So does the striped block in flight.
        if let Some((mut stripe, block)) = self.stripe.take() {
            match stripe.try_advance(&self.core.stripe_ctx(self.core.me, block)) {
                Ok(Some(at)) => self.done_at = self.done_at.max(at),
                Ok(None) => {
                    self.stripe = Some((stripe, block));
                    return StepOutcome::Pending(OpState::StripePartial);
                }
                Err(e) => return StepOutcome::Failed(e),
            }
        }
        loop {
            if let Err(e) = self.append_batchable() {
                return StepOutcome::Failed(e);
            }
            let block = if self.header_sent {
                match self.blocks.next() {
                    Some(block) => Some(block),
                    None => break,
                }
            } else {
                None
            };
            // The next frame bypasses the batch layer (a big block, a
            // striped block, a non-batchable header) and must not
            // overtake packets already staged in the connection's batch:
            // close its frame first.
            let barrier = self
                .core
                .flush_batch(self.dst, self.rail, FlushReason::Explicit);
            if let Err(e) = barrier {
                return StepOutcome::Failed(e);
            }
            let conn = self.core.conn(self.dst);
            let (data, smode, rmode) = match block {
                Some(block) => block,
                None => {
                    // The point of no return: the sequence number is
                    // claimed, so from here the op must run to a terminal
                    // state (cancel is refused once `started`).
                    self.header_sent = true;
                    let hdr = wire::encode_msg_header(self.core.me, conn.next_send_seq());
                    let data = Bytes::copy_from_slice(&hdr);
                    (data, SendMode::Cheaper, RecvMode::Express)
                }
            };
            self.started = true;
            let n_rails = self.core.rails.len();
            if self
                .core
                .sched
                .should_stripe(data.len(), smode, rmode, n_rails)
            {
                let block = conn.next_tx_stripe_block();
                let ctx = self.core.stripe_ctx(self.core.me, block);
                self.stripe = Some((StripeSend::new(&ctx, self.dst, data), block));
                // This tick already ships every rail's first header.
                return self.try_advance();
            }
            let pmm = self.core.rails[self.rail].pmm();
            let tm = pmm.select(data.len(), smode, rmode);
            let len = data.len();
            match pmm.tm(tm).post_send(self.dst, data) {
                Ok(TmSend::Done(at)) => {
                    self.core.stats.record_tm_traffic(tm, len);
                    self.core.stats.record_buffer_sent();
                    self.done_at = self.done_at.max(at);
                }
                Ok(TmSend::Pending(cont)) => {
                    let kind = cont.kind();
                    self.pending = Some(PendingFrame {
                        kind,
                        cont,
                        tm,
                        len,
                    });
                    return StepOutcome::Pending(Self::park_state(kind));
                }
                Err(e) => return StepOutcome::Failed(e),
            }
        }
        // Every frame is emitted, but batched packets only count as sent
        // once a flush covers them: the engine parks what is left of the
        // op behind its last ticket and the flush that covers it retires
        // it (a later op may append behind it meanwhile).
        match (self.first_ticket, self.last_ticket) {
            (Some(first), Some(last)) => StepOutcome::Batched {
                first: if self.started { 0 } else { first },
                last,
                done_at: self.done_at,
            },
            _ => StepOutcome::Done(self.done_at.max(time::now())),
        }
    }

    fn started(&self) -> bool {
        // An op still in the queue parks only behind a frame that shipped
        // outside the batch, after a barrier flush of whatever it staged:
        // while this is false nothing of it is anywhere.
        debug_assert!(self.started || (self.pending.is_none() && self.first_ticket.is_none()));
        self.started
    }
}

/// An outgoing message under construction — the paper's send-side
/// *connection* object returned by `mad_begin_packing`.
///
/// Lifetime `'a` covers all packed user blocks: `send_LATER` and
/// `send_CHEAPER` blocks are read as late as `end_packing`, so they must
/// outlive the message.
pub struct OutgoingMessage<'c, 'a> {
    chan: &'c Channel,
    dst: NodeId,
    /// Home rail of this message (0 on single-rail channels).
    rail: usize,
    cur_tm: Option<TmId>,
    bmm: Option<SendBmm<'a>>,
    done: bool,
    /// Counter snapshot at `begin_packing` when tracing is enabled, so
    /// `end_packing` can record this message's copy-accounting delta.
    stats_at_begin: Option<StatsSnapshot>,
}

impl<'c, 'a> OutgoingMessage<'c, 'a> {
    /// Destination node of this message.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// The rail carrying this message's un-striped blocks.
    pub fn rail(&self) -> usize {
        self.rail
    }

    /// Append one block to the message (paper: `mad_pack`).
    ///
    /// # Panics
    /// Panics on transport failure (see [`try_pack`](Self::try_pack)).
    pub fn pack(&mut self, data: &'a [u8], smode: SendMode, rmode: RecvMode) {
        if let Err(e) = self.try_pack(data, smode, rmode) {
            panic!("pack on channel {:?} failed: {e}", self.chan.name);
        }
    }

    /// [`pack`](Self::pack) that surfaces transport failure as a value.
    /// On error the message is abandoned (the channel returns to the
    /// no-open-message state); further operations on it panic.
    pub fn try_pack(&mut self, data: &'a [u8], smode: SendMode, rmode: RecvMode) -> MadResult<()> {
        let r = self.pack_inner(data, smode, rmode);
        if r.is_err() {
            self.abort();
        }
        r
    }

    fn pack_inner(&mut self, data: &'a [u8], smode: SendMode, rmode: RecvMode) -> MadResult<()> {
        assert!(
            !self.done,
            "pack after end_packing (or after a failed pack)"
        );
        time::advance(VDuration::from_micros_f64(self.chan.core.host.pack_op_us));
        let chan = self.chan;
        if chan
            .core
            .sched
            .should_stripe(data.len(), smode, rmode, chan.core.rails.len())
        {
            // Commit the home rail's BMM first so the striped block takes
            // its place in the per-connection order (the receiver mirrors
            // this with a checkout before reassembly).
            if let Some(mut old) = self.bmm.take() {
                old.flush()?;
            }
            self.cur_tm = None;
            let conn = chan.core.conn(self.dst);
            // The striped block must not overtake small packets staged in
            // the connection's batch either.
            chan.core
                .flush_batch(self.dst, self.rail, FlushReason::Explicit)?;
            let ctx = chan
                .core
                .stripe_ctx(chan.core.me, conn.next_tx_stripe_block());
            // The engine op a posted message parks, spun to completion (a
            // blocking send waits on its peer at no modelled cost). The copy
            // stages the simulated DMA (real BIP reads user memory): not counted.
            let mut stripe = StripeSend::new(&ctx, self.dst, Bytes::copy_from_slice(data));
            loop {
                if let Some(done) = stripe.try_advance(&ctx)? {
                    time::advance_to(done);
                    return Ok(());
                }
                time::check_abort();
                std::thread::yield_now();
            }
        }
        if chan.core.batchable(data.len(), smode, self.rail) {
            return self.pack_batched(data, smode, rmode == RecvMode::Express);
        }
        // A non-batchable block is an ordering barrier for the batch, the
        // same way a TM switch is for the open BMM.
        chan.core
            .flush_batch(self.dst, self.rail, FlushReason::Explicit)?;
        let pmm = chan.core.rails[self.rail].pmm();
        let tm = pmm.select(data.len(), smode, rmode);
        self.switch_to(tm)?;
        chan.core.tracer.record(TraceEvent::Pack {
            len: data.len(),
            smode,
            rmode,
            tm,
        });
        let bmm = self.bmm.as_mut().expect("switched");
        bmm.pack(data, smode)?;
        // An EXPRESS block must be extractable as soon as the peer unpacks
        // it, so it cannot linger in the aggregation queue — unless the
        // caller forbade reading it before commit (LATER).
        if rmode == RecvMode::Express && smode != SendMode::Later {
            bmm.flush()?;
        }
        Ok(())
    }

    /// Stage one small block in the connection's send batch (blocking
    /// path). The caller's borrow ends with this call, so the bytes are
    /// captured into pooled memory now — `send_LATER` blocks therefore
    /// never come here ([`batchable`](Channel::batchable) excludes them).
    fn pack_batched(&mut self, data: &[u8], smode: SendMode, express: bool) -> MadResult<()> {
        let chan = self.chan;
        // Commit the open BMM first so the batched packet takes its place
        // in the per-connection order (the receiver mirrors this with a
        // checkout before reading from under its frame cursor).
        if let Some(mut old) = self.bmm.take() {
            old.flush()?;
        }
        self.cur_tm = None;
        debug_assert!(smode != SendMode::Later, "LATER blocks never batch");
        let buf = chan.core.rails[self.rail].pool().checkout_from(data);
        time::advance(chan.core.host.memcpy(data.len()));
        chan.core.stats.record_copy(data.len());
        let ctx = chan.core.batch_ctx(self.dst, self.rail);
        let item = BatchItem::Pooled(buf, data.len());
        batch::append(
            &ctx,
            &mut ctx.conn.send_batch().lock(),
            item,
            express,
            false,
        )?;
        Ok(())
    }

    /// Pack a block with `send_SAFER` semantics through a short-lived
    /// borrow: the data is captured during the call (by copy or by
    /// synchronous transmission), so the caller may modify or free it as
    /// soon as this returns — the ergonomic point of `send_SAFER`.
    pub fn pack_safer(&mut self, data: &[u8], rmode: RecvMode) {
        if let Err(e) = self.try_pack_safer(data, rmode) {
            panic!("pack_safer on channel {:?} failed: {e}", self.chan.name);
        }
    }

    /// [`pack_safer`](Self::pack_safer) that surfaces transport failure
    /// as a value (same abandonment semantics as [`try_pack`](Self::try_pack)).
    pub fn try_pack_safer(&mut self, data: &[u8], rmode: RecvMode) -> MadResult<()> {
        let r = self.pack_safer_inner(data, rmode);
        if r.is_err() {
            self.abort();
        }
        r
    }

    fn pack_safer_inner(&mut self, data: &[u8], rmode: RecvMode) -> MadResult<()> {
        assert!(
            !self.done,
            "pack after end_packing (or after a failed pack)"
        );
        time::advance(VDuration::from_micros_f64(self.chan.core.host.pack_op_us));
        if self
            .chan
            .core
            .batchable(data.len(), SendMode::Safer, self.rail)
        {
            // SAFER wants the data captured during the call — exactly what
            // the batch append does.
            return self.pack_batched(data, SendMode::Safer, rmode == RecvMode::Express);
        }
        self.chan
            .core
            .flush_batch(self.dst, self.rail, FlushReason::Explicit)?;
        let pmm = self.chan.core.rails[self.rail].pmm();
        self.switch_to(pmm.select(data.len(), SendMode::Safer, rmode))?;
        let bmm = self.bmm.as_mut().expect("switched");
        bmm.pack_safer_now(data)?;
        if rmode == RecvMode::Express {
            bmm.flush()?;
        }
        Ok(())
    }

    /// Pack a library-internal block (always `(CHEAPER, EXPRESS)`).
    ///
    /// Classification (batch eligibility, TM selection) runs on the
    /// canonical `HEADER_LEN`, not the encoded length: the encoded
    /// header's length depends on the sequence number, which the
    /// receiver's mirrored classification cannot know yet.
    fn pack_internal(&mut self, data: PooledBuf) -> MadResult<()> {
        let chan = self.chan;
        if chan
            .core
            .batchable(HEADER_LEN, SendMode::Cheaper, self.rail)
        {
            // The message header opens the message, so no BMM can be open
            // yet; it joins the batch *without* an express flush — the
            // header alone announces nothing the peer can act on, and
            // holding it is what lets whole small messages coalesce.
            debug_assert!(self.bmm.is_none(), "header packed mid-message");
            let len = data.len();
            let ctx = chan.core.batch_ctx(self.dst, self.rail);
            let item = BatchItem::Pooled(data, len);
            batch::append(&ctx, &mut ctx.conn.send_batch().lock(), item, false, true)?;
            return Ok(());
        }
        let pmm = chan.core.rails[self.rail].pmm();
        self.switch_to(pmm.select(HEADER_LEN, SendMode::Cheaper, RecvMode::Express))?;
        let bmm = self.bmm.as_mut().expect("switched");
        bmm.pack_pooled(data)?;
        bmm.flush()
    }

    fn switch_to(&mut self, tm: TmId) -> MadResult<()> {
        if self.cur_tm == Some(tm) {
            return Ok(());
        }
        // Commit the previous BMM so delivery order is preserved across
        // transfer methods (paper §4.1).
        if let Some(mut old) = self.bmm.take() {
            old.flush()?;
            self.chan.core.tracer.record(TraceEvent::CommitOnSwitch {
                from: self.cur_tm.expect("old BMM implies a current TM"),
                to: tm,
            });
        }
        let rail = &self.chan.core.rails[self.rail];
        self.cur_tm = Some(tm);
        self.bmm = Some(SendBmm::with_pool(
            rail.pmm().policy(tm),
            rail.pmm().tm(tm),
            tm,
            self.dst,
            self.chan.core.host,
            Arc::clone(&self.chan.core.stats),
            rail.pool().clone(),
        ));
        Ok(())
    }

    /// Abandon the message after a transport error: drop queued blocks
    /// and return the channel to the no-open-message state so the caller
    /// can keep using it (e.g. toward a different peer).
    fn abort(&mut self) {
        if !self.done {
            self.done = true;
            self.bmm = None;
            self.cur_tm = None;
            // Drop this message's never-flushed batched packets too: no
            // envelope sequence number was assigned yet, so the peer's
            // continuity check is unaffected. (Posted ops cannot have
            // packets pending here — `begin_packing` drained them.)
            if let Some(conn) = self.chan.core.conns.get(self.dst) {
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
        if let Err(e) = self.try_end_packing() {
            panic!("end_packing on channel {:?} failed: {e}", chan.name);
        }
    }

    /// [`end_packing`](Self::end_packing) that surfaces transport failure
    /// as a value. Win or lose, the message is finalized: the channel
    /// accepts a new `begin_packing` afterwards.
    pub fn try_end_packing(mut self) -> MadResult<()> {
        let mut result = Ok(());
        if let Some(mut bmm) = self.bmm.take() {
            result = bmm.flush();
        }
        // Terminal batch flush: `end_packing` promises the message is on
        // the wire when it returns (only posted ops coalesce *across*
        // messages).
        if result.is_ok() {
            result = self
                .chan
                .core
                .flush_batch(self.dst, self.rail, FlushReason::Explicit);
        }
        time::advance(VDuration::from_micros_f64(self.chan.core.host.end_op_us));
        self.chan.core.tracer.record(TraceEvent::EndPacking);
        if result.is_ok() {
            if let Some(at_begin) = self.stats_at_begin.take() {
                let d = self.chan.core.stats.snapshot().since(&at_begin);
                self.chan.core.tracer.record(TraceEvent::MessageStats {
                    copied_bytes: d.copied_bytes,
                    borrowed_bytes: d.borrowed_bytes,
                    pool_hits: d.pool_hits,
                    pool_misses: d.pool_misses,
                });
            }
            self.chan.core.stats.record_message();
        }
        self.chan.open_tx.fetch_sub(1, Ordering::AcqRel);
        self.done = true;
        result
    }
}

/// An incoming message being consumed — the paper's receive-side
/// *connection* object returned by `mad_begin_unpacking`.
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
        if let Err(e) = self.try_unpack(dst, smode, rmode) {
            panic!("unpack on channel {:?} failed: {e}", self.chan.name);
        }
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
        let r = self.unpack_inner(dst, smode, rmode);
        if r.is_err() {
            self.abort();
        }
        r
    }

    fn unpack_inner(
        &mut self,
        dst: &'a mut [u8],
        smode: SendMode,
        rmode: RecvMode,
    ) -> MadResult<()> {
        assert!(
            !self.done,
            "unpack after end_unpacking (or after a failed unpack)"
        );
        time::advance(VDuration::from_micros_f64(self.chan.core.host.pack_op_us));
        let chan = self.chan;
        if chan
            .core
            .sched
            .should_stripe(dst.len(), smode, rmode, chan.core.rails.len())
        {
            // Mirror of the sender's pre-stripe commit: check out the
            // home rail's BMM, then reassemble the striped block.
            if let Some(mut old) = self.bmm.take() {
                old.checkout()?;
            }
            self.cur_tm = None;
            let conn = chan.core.conn(self.src);
            let ctx = chan.core.stripe_ctx(self.src, conn.next_rx_stripe_block());
            return rail::stripe_recv(&ctx, self.src, dst);
        }
        if chan.core.batchable(dst.len(), smode, self.rail) {
            return self.unpack_batched(dst);
        }
        // Mirror of the sender's pre-barrier flush: by the time a
        // non-batchable block is unpacked, every batched packet before it
        // was already popped by the mirrored unpacks.
        debug_assert!(
            chan.core.conn(self.src).recv_queued().is_none(),
            "batched packets left queued at a non-batchable unpack \
             (asymmetric pack/unpack?)"
        );
        let pmm = chan.core.rails[self.rail].pmm();
        let tm = pmm.select(dst.len(), smode, rmode);
        self.switch_to(tm)?;
        chan.core.tracer.record(TraceEvent::Unpack {
            len: dst.len(),
            smode,
            rmode,
            tm,
        });
        self.bmm.as_mut().expect("switched").unpack(dst, rmode)
    }

    /// Deliver one batched packet (mirror of the sender's batch append):
    /// check out the open BMM first — the commit/checkout discipline
    /// spans the batch layer too — then copy the packet out from under
    /// the connection's frame cursor, which pulls the next frame off the
    /// wire when it is spent.
    fn unpack_batched(&mut self, dst: &mut [u8]) -> MadResult<()> {
        if let Some(mut old) = self.bmm.take() {
            old.checkout()?;
        }
        self.cur_tm = None;
        let ctx = self.chan.core.batch_ctx(self.src, self.rail);
        let cursor = self
            .batch
            .get_or_insert_with(|| ctx.conn.recv_batch().lock());
        batch::recv_into(&ctx, cursor, self.src, dst)
    }

    /// Extract one `receive_EXPRESS` block through a short-lived borrow:
    /// the data is in `dst` when this returns and the borrow ends with the
    /// call, so the value can steer the following unpacks (the paper's
    /// Fig. 1 pattern: read a length header, allocate, unpack the array).
    pub fn unpack_express(&mut self, dst: &mut [u8], smode: SendMode) {
        if let Err(e) = self.try_unpack_express(dst, smode) {
            panic!("unpack_express on channel {:?} failed: {e}", self.chan.name);
        }
    }

    /// [`unpack_express`](Self::unpack_express) that surfaces transport
    /// failure as a value (same abandonment semantics as
    /// [`try_unpack`](Self::try_unpack)).
    pub fn try_unpack_express(&mut self, dst: &mut [u8], smode: SendMode) -> MadResult<()> {
        let r = self.unpack_express_inner(dst, smode);
        if r.is_err() {
            self.abort();
        }
        r
    }

    fn unpack_express_inner(&mut self, dst: &mut [u8], smode: SendMode) -> MadResult<()> {
        assert!(
            !self.done,
            "unpack after end_unpacking (or after a failed unpack)"
        );
        time::advance(VDuration::from_micros_f64(self.chan.core.host.pack_op_us));
        if self.chan.core.batchable(dst.len(), smode, self.rail) {
            return self.unpack_batched(dst);
        }
        let pmm = self.chan.core.rails[self.rail].pmm();
        let tm = pmm.select(dst.len(), smode, RecvMode::Express);
        self.switch_to(tm)?;
        self.chan.core.tracer.record(TraceEvent::Unpack {
            len: dst.len(),
            smode,
            rmode: RecvMode::Express,
            tm,
        });
        self.bmm.as_mut().expect("switched").unpack_express_now(dst)
    }

    /// Unpack a library-internal block (mirror of `pack_internal`,
    /// including its canonical-`HEADER_LEN` classification; `dst` is the
    /// predicted encoded length, which may be shorter).
    fn unpack_internal(&mut self, dst: &mut [u8]) -> MadResult<()> {
        let chan = self.chan;
        if chan
            .core
            .batchable(HEADER_LEN, SendMode::Cheaper, self.rail)
        {
            debug_assert!(self.bmm.is_none(), "header unpacked mid-message");
            return self.unpack_batched(dst);
        }
        let pmm = chan.core.rails[self.rail].pmm();
        self.switch_to(pmm.select(HEADER_LEN, SendMode::Cheaper, RecvMode::Express))?;
        self.bmm.as_mut().expect("switched").unpack_express_now(dst)
    }

    fn switch_to(&mut self, tm: TmId) -> MadResult<()> {
        if self.cur_tm == Some(tm) {
            return Ok(());
        }
        // Checkout the previous BMM (mirror of the sender's commit).
        if let Some(mut old) = self.bmm.take() {
            old.checkout()?;
            self.chan.core.tracer.record(TraceEvent::CheckoutOnSwitch {
                from: self.cur_tm.expect("old BMM implies a current TM"),
                to: tm,
            });
        }
        let rail = &self.chan.core.rails[self.rail];
        self.cur_tm = Some(tm);
        self.bmm = Some(RecvBmm::new(
            rail.pmm().policy(tm),
            rail.pmm().tm(tm),
            self.src,
            self.chan.core.host,
            Arc::clone(&self.chan.core.stats),
        ));
        Ok(())
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
        if let Err(e) = self.try_end_unpacking() {
            panic!("end_unpacking on channel {:?} failed: {e}", chan.name);
        }
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
