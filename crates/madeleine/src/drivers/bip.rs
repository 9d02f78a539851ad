//! The BIP protocol module (paper §5.2.2).
//!
//! Two transmission modules, exactly as the paper describes:
//!
//! * **short TM** (blocks < 1 kB): data is copied into preallocated BIP
//!   buffers and shipped without receiver participation. Because BIP's
//!   receive rings are finite and unguarded, the TM layers a **credit-based
//!   flow-control** scheme on top: senders start with one credit per ring
//!   slot and block when they run out; receivers return batched credits on
//!   a dedicated control tag.
//! * **long TM** (≥ 1 kB): the receiver-acknowledgment **rendezvous**
//!   scheme — data is delivered directly to its final location, zero-copy.

use crate::bmm::SendPolicy;
use crate::config::HostModel;
use crate::error::{MadError, MadResult};
use crate::flags::{RecvMode, SendMode};
use crate::pmm::Pmm;
use crate::polling::PollPolicy;
use crate::pool::BufPool;
use crate::stats::Stats;
use crate::tm::{
    PendingKind, StaticBuf, TmCaps, TmId, TmPending, TmSend, TmStep, TransmissionModule,
};
use crate::trace::{TraceEvent, Tracer};
use bytes::Bytes;
use madsim_net::stacks::bip::{Bip, BIP_SHORT_MAX, BIP_SHORT_RING};
use madsim_net::time::{VDuration, VTime};
use madsim_net::world::Adapter;
use madsim_net::NodeId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Blocks shorter than this ride the short TM (BIP's own boundary).
pub const SHORT_LIMIT: usize = BIP_SHORT_MAX;
/// Return credits every this many consumed buffers.
const CREDIT_BATCH: u64 = 4;
/// Bounded wait for credit returns / rendezvous handshakes on a
/// fault-armed fabric. BIP has no retransmission: when this expires the
/// channel is reported down rather than silently hanging.
const FAULT_WAIT: Duration = Duration::from_millis(2_000);
/// The fault-armed payload wait is taken in slices this long, so a link
/// known to be cut costs one slice instead of the whole [`FAULT_WAIT`].
const FAULT_SLICE: Duration = Duration::from_millis(2);

const SUB_DATA: u64 = 0;
const SUB_CREDIT: u64 = 1;
const SUB_LONG: u64 = 2;

fn tag(channel_id: u32, sub: u64) -> u64 {
    ((channel_id as u64) << 8) | sub
}

/// Build the BIP PMM for one channel.
#[allow(clippy::too_many_arguments)]
pub fn build(
    adapter: &Adapter,
    channel_id: u32,
    host: HostModel,
    stats: Arc<Stats>,
    poll: PollPolicy,
    timing: Option<madsim_net::stacks::bip::BipTiming>,
    pool: BufPool,
    tracer: Arc<Tracer>,
) -> Arc<dyn Pmm> {
    let bip = match timing {
        Some(t) => Bip::with_timing(adapter, t),
        None => Bip::new(adapter),
    };
    let short: Arc<dyn TransmissionModule> = Arc::new(BipShortTm {
        bip: bip.clone(),
        data_tag: tag(channel_id, SUB_DATA),
        credit_tag: tag(channel_id, SUB_CREDIT),
        flow: Arc::new(Mutex::new(HashMap::new())),
        host,
        stats: Arc::clone(&stats),
        pool,
        tracer: Arc::clone(&tracer),
    });
    let long: Arc<dyn TransmissionModule> = Arc::new(BipLongTm {
        bip: bip.clone(),
        long_tag: tag(channel_id, SUB_LONG),
        cts_ahead: Mutex::new(HashMap::new()),
        stats,
        tracer,
    });
    Arc::new(BipPmm {
        bip,
        data_tag: tag(channel_id, SUB_DATA),
        tms: [short, long],
        poll,
    })
}

struct BipPmm {
    bip: Bip,
    data_tag: u64,
    tms: [Arc<dyn TransmissionModule>; 2],
    poll: PollPolicy,
}

impl Pmm for BipPmm {
    fn name(&self) -> &'static str {
        "bip"
    }

    fn tms(&self) -> &[Arc<dyn TransmissionModule>] {
        &self.tms
    }

    fn select(&self, len: usize, _s: SendMode, _r: RecvMode) -> TmId {
        if len < SHORT_LIMIT {
            0
        } else {
            1
        }
    }

    fn policy(&self, id: TmId) -> SendPolicy {
        match id {
            0 => SendPolicy::StaticCopy,
            _ => SendPolicy::Eager,
        }
    }

    fn wait_incoming(&self) -> NodeId {
        // Every message opens with its header block, which is < 1 kB and
        // therefore always travels as a short DATA packet.
        self.poll.wait(|| self.poll_incoming())
    }

    fn poll_incoming(&self) -> Option<NodeId> {
        self.bip.peek_short_src(self.data_tag)
    }
}

/// Per-peer flow-control state of the short TM.
struct FlowState {
    /// Send credits remaining (receive-ring slots we may still fill).
    credits: usize,
    /// Buffers received from this peer since the last credit return.
    consumed_since_credit: u64,
}

impl Default for FlowState {
    fn default() -> Self {
        FlowState {
            credits: BIP_SHORT_RING,
            consumed_since_credit: 0,
        }
    }
}

/// Parse a credit-return packet, surfacing truncation as stream damage
/// instead of panicking.
fn credit_value(pkt: &[u8]) -> MadResult<usize> {
    let bytes: [u8; 4] = pkt
        .get(..4)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| MadError::corrupt("BIP credit packet shorter than 4 bytes"))?;
    Ok(u32::from_le_bytes(bytes) as usize)
}

/// Decrement a credit for `peer` if one is available (nonblocking half of
/// [`BipShortTm::take_credit`], shared with the credit-wait continuation).
fn try_take_credit(flow: &Mutex<HashMap<NodeId, FlowState>>, peer: NodeId) -> bool {
    let mut flow = flow.lock();
    let st = flow.entry(peer).or_default();
    if st.credits > 0 {
        st.credits -= 1;
        true
    } else {
        false
    }
}

struct BipShortTm {
    bip: Bip,
    data_tag: u64,
    credit_tag: u64,
    flow: Arc<Mutex<HashMap<NodeId, FlowState>>>,
    host: HostModel,
    stats: Arc<Stats>,
    pool: BufPool,
    tracer: Arc<Tracer>,
}

impl BipShortTm {
    /// Absorb any credit-return packets already queued from `peer`.
    fn drain_credits(&self, peer: NodeId) -> MadResult<()> {
        while let Some(pkt) = self.bip.try_recv_short_from(peer, self.credit_tag) {
            let n = credit_value(&pkt)?;
            self.flow.lock().entry(peer).or_default().credits += n;
        }
        Ok(())
    }

    /// Report an expired bounded wait on `peer`: count it, trace it, and
    /// name the condition (dead peer vs. merely down channel).
    fn wait_expired(&self, peer: NodeId) -> MadError {
        self.stats.record_link_timeout();
        self.tracer.record(TraceEvent::CreditTimeout { peer });
        if !self.bip.adapter().reachable_to(peer) {
            MadError::PeerUnreachable { peer }
        } else {
            MadError::ChannelDown
        }
    }

    fn take_credit(&self, peer: NodeId) -> MadResult<()> {
        loop {
            self.drain_credits(peer)?;
            if try_take_credit(&self.flow, peer) {
                return Ok(());
            }
            // Out of credits: block until the receiver returns some. On a
            // fault-armed fabric the wait is bounded — a vanished credit
            // source marks the channel down instead of hanging forever.
            let pkt = if self.bip.adapter().faulty() {
                self.bip
                    .recv_short_from_timeout(peer, self.credit_tag, FAULT_WAIT)
                    .ok_or_else(|| self.wait_expired(peer))?
            } else {
                self.bip.recv_short_from(peer, self.credit_tag)
            };
            let n = credit_value(&pkt)?;
            self.flow.lock().entry(peer).or_default().credits += n;
        }
    }

    /// Copy a dynamic buffer into a static one (the TM-level copy of the
    /// dynamic entry points).
    fn stage_dynamic(&self, data: &[u8]) -> StaticBuf {
        let mut buf = self.obtain_static_buffer();
        assert!(data.len() <= buf.spare(), "short TM buffer overflow");
        buf.spare_mut()[..data.len()].copy_from_slice(data);
        buf.advance(data.len());
        madsim_net::time::advance(self.host.memcpy(data.len()));
        self.stats.record_tm_copy(data.len());
        buf
    }

    /// Account one consumed receive buffer; return batched credits.
    fn account_consumed(&self, peer: NodeId) {
        let send_back = {
            let mut flow = self.flow.lock();
            let st = flow.entry(peer).or_default();
            st.consumed_since_credit += 1;
            if st.consumed_since_credit >= CREDIT_BATCH {
                st.consumed_since_credit = 0;
                true
            } else {
                false
            }
        };
        if send_back {
            self.bip
                .send_short(peer, self.credit_tag, &(CREDIT_BATCH as u32).to_le_bytes());
        }
    }
}

impl TransmissionModule for BipShortTm {
    fn name(&self) -> &'static str {
        "bip/short"
    }

    fn caps(&self) -> TmCaps {
        TmCaps {
            static_buffers: true,
            buffer_cap: BIP_SHORT_MAX,
            gather: false,
        }
    }

    fn send_buffer(&self, dst: NodeId, data: &[u8]) -> MadResult<()> {
        // Dynamic entry point: copy through a static buffer (kept for
        // completeness; the StaticCopy BMM normally uses the static path).
        self.send_static_buffer(dst, self.stage_dynamic(data))
    }

    fn send_static_buffer(&self, dst: NodeId, buf: StaticBuf) -> MadResult<()> {
        self.take_credit(dst)?;
        self.bip.send_short(dst, self.data_tag, buf.filled());
        Ok(())
    }

    fn receive_buffer(&self, src: NodeId, dst: &mut [u8]) -> MadResult<()> {
        let buf = self.receive_static_buffer(src)?;
        assert_eq!(
            buf.len(),
            dst.len(),
            "short TM dynamic receive length mismatch"
        );
        dst.copy_from_slice(buf.filled());
        madsim_net::time::advance(self.host.memcpy(dst.len()));
        self.stats.record_tm_copy(dst.len());
        Ok(())
    }

    fn receive_static_buffer(&self, src: NodeId) -> MadResult<StaticBuf> {
        // The announcing header already arrived on this tag, so the data
        // wait is bounded on a fault-armed fabric too.
        let data = if self.bip.adapter().faulty() {
            self.bip
                .recv_short_from_timeout(src, self.data_tag, FAULT_WAIT)
                .ok_or_else(|| self.wait_expired(src))?
        } else {
            self.bip.recv_short_from(src, self.data_tag)
        };
        self.account_consumed(src);
        Ok(StaticBuf::shared(data, 0))
    }

    fn obtain_static_buffer(&self) -> StaticBuf {
        // Pool-backed: obtain/release cycles recycle warm slabs.
        StaticBuf::pooled(self.pool.checkout(BIP_SHORT_MAX), 0)
    }

    fn post_send(&self, dst: NodeId, data: Bytes) -> MadResult<TmSend> {
        self.post_static_buffer(dst, self.stage_dynamic(&data))
    }

    fn post_static_buffer(&self, dst: NodeId, buf: StaticBuf) -> MadResult<TmSend> {
        // The blocking send with the credit taken nonblockingly: out of
        // credits becomes a CreditWait continuation instead of a spin.
        first_poll(CreditWaitSend {
            bip: self.bip.clone(),
            flow: Arc::clone(&self.flow),
            data_tag: self.data_tag,
            credit_tag: self.credit_tag,
            dst,
            buf: Some(buf),
            deadline: None,
            stats: Arc::clone(&self.stats),
            tracer: Arc::clone(&self.tracer),
        })
    }
}

/// Post a send as its continuation's first poll: done if the peer event
/// it needs is already there, handed back to be polled again if not.
fn first_poll(mut cont: impl TmPending + 'static) -> MadResult<TmSend> {
    Ok(match cont.try_advance()? {
        TmStep::Done(at) => TmSend::Done(at),
        TmStep::Pending => TmSend::Pending(Box::new(cont)),
    })
}

/// A short block staged in a static buffer, waiting for a flow-control
/// credit. Each poll absorbs queued credit returns and ships the block as
/// soon as one is available; on a fault-armed fabric the wait is bounded
/// by the same [`FAULT_WAIT`] the blocking path uses.
struct CreditWaitSend {
    bip: Bip,
    flow: Arc<Mutex<HashMap<NodeId, FlowState>>>,
    data_tag: u64,
    credit_tag: u64,
    dst: NodeId,
    buf: Option<StaticBuf>,
    deadline: Option<Instant>,
    stats: Arc<Stats>,
    tracer: Arc<Tracer>,
}

impl TmPending for CreditWaitSend {
    fn kind(&self) -> PendingKind {
        PendingKind::Credit
    }

    fn try_advance(&mut self) -> MadResult<TmStep> {
        while let Some(pkt) = self.bip.try_recv_short_from(self.dst, self.credit_tag) {
            let n = credit_value(&pkt)?;
            self.flow.lock().entry(self.dst).or_default().credits += n;
        }
        if try_take_credit(&self.flow, self.dst) {
            let buf = self.buf.take().expect("credit-wait block already shipped");
            self.bip.send_short(self.dst, self.data_tag, buf.filled());
            return Ok(TmStep::Done(madsim_net::time::now()));
        }
        if self.bip.adapter().faulty() {
            if !self.bip.adapter().reachable_to(self.dst) {
                return Err(MadError::PeerUnreachable { peer: self.dst });
            }
            let deadline = *self
                .deadline
                .get_or_insert_with(|| Instant::now() + FAULT_WAIT);
            if Instant::now() >= deadline {
                self.stats.record_link_timeout();
                self.tracer
                    .record(TraceEvent::CreditTimeout { peer: self.dst });
                return Err(MadError::ChannelDown);
            }
        }
        Ok(TmStep::Pending)
    }
}

struct BipLongTm {
    bip: Bip,
    long_tag: u64,
    /// CTSs posted ahead of their receive_buffer, per peer.
    cts_ahead: Mutex<HashMap<NodeId, usize>>,
    stats: Arc<Stats>,
    tracer: Arc<Tracer>,
}

impl BipLongTm {
    /// Lift a rendezvous failure into the taxonomy: an expired handshake
    /// wait means the channel is down (BIP has no retransmission).
    fn rendezvous_err(&self, e: madsim_net::LinkError, peer: NodeId) -> MadError {
        match e {
            madsim_net::LinkError::PeerDead => MadError::PeerUnreachable { peer },
            madsim_net::LinkError::Timeout => {
                self.stats.record_link_timeout();
                self.tracer.record(TraceEvent::CreditTimeout { peer });
                MadError::ChannelDown
            }
        }
    }
}

impl TransmissionModule for BipLongTm {
    fn name(&self) -> &'static str {
        "bip/long"
    }

    fn caps(&self) -> TmCaps {
        TmCaps {
            static_buffers: false,
            buffer_cap: usize::MAX,
            gather: false,
        }
    }

    fn send_buffer(&self, dst: NodeId, data: &[u8]) -> MadResult<()> {
        // Rendezvous: blocks until the receiver posts; zero software copies
        // (the `copy_from_slice` below stages the simulated wire transfer —
        // real BIP DMAs straight from this user memory).
        let payload = bytes::Bytes::copy_from_slice(data);
        if self.bip.adapter().faulty() {
            self.bip
                .try_send_long(dst, self.long_tag, payload, FAULT_WAIT)
                .map_err(|e| self.rendezvous_err(e, dst))
        } else {
            self.bip.send_long(dst, self.long_tag, payload);
            Ok(())
        }
    }

    fn receive_buffer(&self, src: NodeId, dst: &mut [u8]) -> MadResult<()> {
        let posted = {
            let mut m = self.cts_ahead.lock();
            match m.get_mut(&src) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    true
                }
                _ => false,
            }
        };
        let n = if self.bip.adapter().faulty() {
            if !posted {
                self.bip.post_cts(src, self.long_tag);
            }
            // Each expired slice re-checks the link, so a cut rail fails fast.
            let deadline = Instant::now() + FAULT_WAIT;
            loop {
                match self
                    .bip
                    .recv_long_posted_timeout(src, self.long_tag, dst, FAULT_SLICE)
                {
                    Err(madsim_net::LinkError::Timeout) if Instant::now() < deadline => {}
                    r => break r.map_err(|e| self.rendezvous_err(e, src))?,
                }
            }
        } else if posted {
            self.bip.recv_long_posted(src, self.long_tag, dst)
        } else {
            self.bip.recv_long(src, self.long_tag, dst)
        };
        assert_eq!(n, dst.len(), "long TM receive length mismatch");
        Ok(())
    }

    fn prefetch(&self, src: NodeId) {
        self.bip.post_cts(src, self.long_tag);
        *self.cts_ahead.lock().entry(src).or_insert(0) += 1;
    }

    fn rendezvous(&self) -> bool {
        true
    }

    fn post_send(&self, dst: NodeId, data: Bytes) -> MadResult<TmSend> {
        first_poll(RendezvousSend {
            bip: self.bip.clone(),
            long_tag: self.long_tag,
            dst,
            data: Some(data),
            posted_at: madsim_net::time::now(),
            deadline: None,
            stats: Arc::clone(&self.stats),
            tracer: Arc::clone(&self.tracer),
        })
    }
}

/// A long block waiting for the receiver's clear-to-send. When the CTS
/// shows up, the transfer is anchored at `max(posted_at, cts_arrival)`:
/// the LANai DMA ran while the host computed, so a poller that notices the
/// CTS late still gets the overlapped timeline — this is the whole point
/// of the nonblocking path.
struct RendezvousSend {
    bip: Bip,
    long_tag: u64,
    dst: NodeId,
    data: Option<Bytes>,
    posted_at: VTime,
    deadline: Option<Instant>,
    stats: Arc<Stats>,
    tracer: Arc<Tracer>,
}

impl TmPending for RendezvousSend {
    fn kind(&self) -> PendingKind {
        PendingKind::Rendezvous
    }

    fn try_advance(&mut self) -> MadResult<TmStep> {
        let faulty = self.bip.adapter().faulty();
        // Link check first: a CTS that made it across before the link was
        // cut must not release a payload into the dead link.
        if faulty && !self.bip.adapter().reachable_to(self.dst) {
            return Err(MadError::PeerUnreachable { peer: self.dst });
        }
        if let Some(cts) = self.bip.try_take_cts(self.dst, self.long_tag) {
            let data = self.data.take().expect("rendezvous block already shipped");
            let start = self.posted_at.max(cts);
            let local_done = self
                .bip
                .send_long_from(self.dst, self.long_tag, data, start);
            let host_post = VDuration::from_micros_f64(self.bip.timing().host_post_us);
            return Ok(TmStep::Done(local_done + host_post));
        }
        if faulty {
            let deadline = *self
                .deadline
                .get_or_insert_with(|| Instant::now() + FAULT_WAIT);
            if Instant::now() >= deadline {
                // Same taxonomy as the blocking rendezvous: an expired
                // handshake marks the channel down (BIP cannot retransmit).
                self.stats.record_link_timeout();
                self.tracer
                    .record(TraceEvent::CreditTimeout { peer: self.dst });
                return Err(MadError::ChannelDown);
            }
        }
        Ok(TmStep::Pending)
    }
}
