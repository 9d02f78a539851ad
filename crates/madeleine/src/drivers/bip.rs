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
use crate::drivers::CreditWindow;
use crate::error::{MadError, MadResult};
use crate::flags::{RecvMode, SendMode};
use crate::pmm::Pmm;
use crate::pool::BufPool;
use crate::stats::Stats;
use crate::tm::{
    PendingKind, StaticBuf, TmCaps, TmId, TmPending, TmSend, TmStep, TransmissionModule,
};
use crate::trace::Tracer;
use bytes::Bytes;
use madsim_net::stacks::bip::{Bip, BIP_SHORT_MAX, BIP_SHORT_RING};
use madsim_net::stacks::link_deadline;
use madsim_net::time::VTime;
use madsim_net::world::Adapter;
use madsim_net::NodeId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Blocks shorter than this ride the short TM (BIP's own boundary).
pub const SHORT_LIMIT: usize = BIP_SHORT_MAX;
/// Return credits every this many consumed buffers.
const CREDIT_BATCH: usize = 4;

const SUB_DATA: u64 = 0;
const SUB_CREDIT: u64 = 1;
const SUB_LONG: u64 = 2;

fn tag(channel_id: u32, sub: u64) -> u64 {
    ((channel_id as u64) << 8) | sub
}

/// Build the BIP PMM for one channel.
pub fn build(
    adapter: &Adapter,
    channel_id: u32,
    stats: Arc<Stats>,
    pool: BufPool,
    tracer: Arc<Tracer>,
) -> Arc<dyn Pmm> {
    let bip = Bip::new(adapter);
    let short: Arc<dyn TransmissionModule> = Arc::new(BipShortTm {
        path: ShortPath {
            bip: bip.clone(),
            data_tag: tag(channel_id, SUB_DATA),
            credit_tag: tag(channel_id, SUB_CREDIT),
            flow: Arc::new(Mutex::new(HashMap::new())),
            stats: Arc::clone(&stats),
            tracer: Arc::clone(&tracer),
        },
        host: adapter.calib().host,
        pool,
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
    })
}

struct BipPmm {
    bip: Bip,
    data_tag: u64,
    tms: [Arc<dyn TransmissionModule>; 2],
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

    fn poll_incoming(&self) -> Option<NodeId> {
        // Every message opens with its header block, which is < 1 kB and
        // therefore always travels as a short DATA packet.
        self.bip.peek_short_src(self.data_tag)
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

/// What the short TM and its credit-wait continuation share: the stack,
/// the data and credit tags, one credit window per peer, and where link
/// failures are counted.
#[derive(Clone)]
struct ShortPath {
    bip: Bip,
    data_tag: u64,
    credit_tag: u64,
    flow: Arc<Mutex<HashMap<NodeId, CreditWindow>>>,
    stats: Arc<Stats>,
    tracer: Arc<Tracer>,
}

impl ShortPath {
    fn with_window<T>(&self, peer: NodeId, f: impl FnOnce(&mut CreditWindow) -> T) -> T {
        let mut flow = self.flow.lock();
        f(flow
            .entry(peer)
            .or_insert_with(|| CreditWindow::new(BIP_SHORT_RING, CREDIT_BATCH)))
    }

    /// Take back the credits in a credit-return packet from `peer`.
    fn refund(&self, peer: NodeId, pkt: &[u8]) -> MadResult<()> {
        let n = credit_value(pkt)?;
        self.with_window(peer, |w| w.refund(n));
        Ok(())
    }

    /// Absorb the credit returns already queued from `peer`, then spend a
    /// credit toward it if one is left.
    fn try_take_credit(&self, peer: NodeId) -> MadResult<bool> {
        while let Some(pkt) = self.bip.poll_short_from(peer, self.credit_tag) {
            self.refund(peer, &pkt)?;
        }
        Ok(self.with_window(peer, CreditWindow::take))
    }
}

struct BipShortTm {
    path: ShortPath,
    host: HostModel,
    pool: BufPool,
}

impl BipShortTm {
    fn take_credit(&self, peer: NodeId) -> MadResult<()> {
        let p = &self.path;
        while !p.try_take_credit(peer)? {
            // Out of credits: block until the receiver returns some.
            let pkt = p
                .bip
                .try_recv_short_from(peer, p.credit_tag)
                .map_err(MadError::from_link(peer, &p.stats, &p.tracer))?;
            p.refund(peer, &pkt)?;
        }
        Ok(())
    }

    /// Copy a dynamic buffer into a static one (the TM-level copy of the
    /// dynamic entry points).
    fn stage_dynamic(&self, data: &[u8]) -> StaticBuf {
        let mut buf = self.obtain_static_buffer();
        assert!(data.len() <= buf.spare(), "short TM buffer overflow");
        buf.spare_mut()[..data.len()].copy_from_slice(data);
        buf.advance(data.len());
        madsim_net::time::advance(self.host.memcpy(data.len()));
        self.path.stats.record_tm_copy(data.len());
        buf
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
        let p = &self.path;
        p.bip.send_short(dst, p.data_tag, buf.filled());
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
        self.path.stats.record_tm_copy(dst.len());
        Ok(())
    }

    fn receive_static_buffer(&self, src: NodeId) -> MadResult<StaticBuf> {
        let p = &self.path;
        let data = p
            .bip
            .try_recv_short_from(src, p.data_tag)
            .map_err(MadError::from_link(src, &p.stats, &p.tracer))?;
        // One receive-ring slot consumed: return a batch of credits when due.
        if let Some(n) = p.with_window(src, CreditWindow::consume) {
            p.bip
                .send_short(src, p.credit_tag, &(n as u32).to_le_bytes());
        }
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
            path: self.path.clone(),
            dst,
            buf: Some(buf),
            deadline: None,
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
/// by [`link_deadline`], the twin of the blocking path's wait.
struct CreditWaitSend {
    path: ShortPath,
    dst: NodeId,
    buf: Option<StaticBuf>,
    deadline: Option<Instant>,
}

impl TmPending for CreditWaitSend {
    fn kind(&self) -> PendingKind {
        PendingKind::Credit
    }

    fn try_advance(&mut self) -> MadResult<TmStep> {
        let (p, dst) = (&self.path, self.dst);
        if p.try_take_credit(dst)? {
            let buf = self.buf.take().expect("credit-wait block already shipped");
            p.bip.send_short(dst, p.data_tag, buf.filled());
            return Ok(TmStep::Done(madsim_net::time::now()));
        }
        link_deadline(p.bip.adapter(), dst, &mut self.deadline)
            .map_err(MadError::from_link(dst, &p.stats, &p.tracer))?;
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
        let payload = Bytes::copy_from_slice(data);
        self.bip
            .try_send_long(dst, self.long_tag, payload)
            .map_err(MadError::from_link(dst, &self.stats, &self.tracer))
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
        if !posted {
            self.bip.post_cts(src, self.long_tag);
        }
        let n = self
            .bip
            .try_recv_long_posted(src, self.long_tag, dst)
            .map_err(MadError::from_link(src, &self.stats, &self.tracer))?;
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
        // Link check first: a CTS that made it across before the link was
        // cut must not release a payload into the dead link.
        link_deadline(self.bip.adapter(), self.dst, &mut self.deadline)
            .map_err(MadError::from_link(self.dst, &self.stats, &self.tracer))?;
        if let Some(cts) = self.bip.try_take_cts(self.dst, self.long_tag) {
            let data = self.data.take().expect("rendezvous block already shipped");
            let start = self.posted_at.max(cts);
            let local_done = self
                .bip
                .send_long_from(self.dst, self.long_tag, data, start);
            let host_post = self.bip.adapter().calib().bip_long.host();
            return Ok(TmStep::Done(local_done + host_post));
        }
        Ok(TmStep::Pending)
    }
}
