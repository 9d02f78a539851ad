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
use crate::progress::OpState;
use crate::stats::Stats;
use crate::tm::{wait_out, StaticBuf, TmCaps, TmId, TmPending, TmSend, TransmissionModule};
use crate::trace::Tracer;
use crate::wire;
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
        path: LongPath {
            bip: bip.clone(),
            long_tag: tag(channel_id, SUB_LONG),
            stats,
            tracer,
        },
        cts_ahead: Mutex::new(HashMap::new()),
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

    /// Absorb the credit returns already queued from `peer`, then spend a
    /// credit toward it if one is left.
    fn try_take_credit(&self, peer: NodeId) -> MadResult<bool> {
        while let Some(pkt) = self.bip.poll_short_from(peer, self.credit_tag) {
            let n = wire::decode_credit(&pkt)?;
            self.with_window(peer, |w| w.refund(n));
        }
        Ok(self.with_window(peer, |w| w.take(1)))
    }
}

impl SendPath for ShortPath {
    type Block = Option<StaticBuf>;
    const STATE: OpState = OpState::CreditWait;

    fn bip(&self) -> &Bip {
        &self.bip
    }

    /// Ship the staged block if a credit toward the peer is in hand.
    fn try_ship(&self, post: &mut Post<Self::Block>) -> MadResult<Option<VTime>> {
        if self.try_take_credit(post.dst)? {
            let buf = post
                .block
                .take()
                .expect("credit-wait block already shipped");
            self.bip.send_short(post.dst, self.data_tag, buf.filled());
            return Ok(Some(madsim_net::time::now()));
        }
        post.check_link(&self.bip, &self.stats, &self.tracer)?;
        Ok(None)
    }
}

struct BipShortTm {
    path: ShortPath,
    host: HostModel,
    pool: BufPool,
}

impl BipShortTm {
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
        wait_out(self.post_static_buffer(dst, buf)?).map(drop)
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
        if let Some(n) = p.with_window(src, |w| w.consume(1)) {
            p.bip.send_short(src, p.credit_tag, &wire::encode_credit(n));
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
        self.path.post(dst, Some(buf))
    }
}

/// A BIP send path whose post may wait for a peer event: the short path's
/// credit, the long path's clear-to-send. `try_ship` is one poll.
trait SendPath: Clone + Send + 'static {
    /// What a post holds until it ships.
    type Block: Send;
    const STATE: OpState;

    fn bip(&self) -> &Bip;

    fn try_ship(&self, post: &mut Post<Self::Block>) -> MadResult<Option<VTime>>;

    /// Ship `block` inside the call if the peer event is in; otherwise,
    /// and only then, build the continuation that waits for it.
    fn post(&self, dst: NodeId, block: Self::Block) -> MadResult<TmSend> {
        let mut post = Post {
            dst,
            block,
            deadline: None,
        };
        Ok(match self.try_ship(&mut post)? {
            Some(at) => TmSend::Done(at),
            None => TmSend::Pending(Box::new(Parked {
                path: self.clone(),
                post,
            })),
        })
    }
}

/// A block on its way to `dst`.
struct Post<B> {
    dst: NodeId,
    block: B,
    deadline: Option<Instant>,
}

impl<B> Post<B> {
    /// On a fault-armed fabric, fail the wait once `dst` is dead or the
    /// link's bound has passed (see [`link_deadline`]).
    fn check_link(&mut self, bip: &Bip, stats: &Stats, tracer: &Tracer) -> MadResult<()> {
        link_deadline(bip.adapter(), self.dst, &mut self.deadline)
            .map_err(MadError::from_link(self.dst, stats, tracer))
    }
}

/// A posted block waiting for its path's peer event.
struct Parked<P: SendPath> {
    path: P,
    post: Post<P::Block>,
}

impl<P: SendPath> TmPending for Parked<P> {
    fn state(&self) -> OpState {
        P::STATE
    }

    fn adapter(&self) -> &Adapter {
        self.path.bip().adapter()
    }

    fn try_advance(&mut self) -> MadResult<Option<VTime>> {
        self.path.try_ship(&mut self.post)
    }
}

/// What the long TM and its rendezvous wait share.
#[derive(Clone)]
struct LongPath {
    bip: Bip,
    long_tag: u64,
    stats: Arc<Stats>,
    tracer: Arc<Tracer>,
}

impl SendPath for LongPath {
    /// The payload, and the instant it was posted at.
    type Block = (Option<Bytes>, VTime);
    const STATE: OpState = OpState::RendezvousWait;

    fn bip(&self) -> &Bip {
        &self.bip
    }

    /// Ship the payload if the receiver's clear-to-send is in, anchored at
    /// `max(posted_at, cts_arrival)`: the LANai DMA ran while the host
    /// computed, however late the CTS is noticed. The link is checked first:
    /// a CTS that crossed before a cut must not release a payload into it.
    fn try_ship(&self, post: &mut Post<Self::Block>) -> MadResult<Option<VTime>> {
        post.check_link(&self.bip, &self.stats, &self.tracer)?;
        let (dst, (data, posted_at)) = (post.dst, &mut post.block);
        let Some(cts) = self.bip.try_take_cts(dst, self.long_tag) else {
            return Ok(None);
        };
        let data = data.take().expect("rendezvous block already shipped");
        let start = (*posted_at).max(cts);
        let local_done = self.bip.send_long_from(dst, self.long_tag, data, start);
        let host_post = self.bip.adapter().calib().bip_long.host();
        Ok(Some(local_done + host_post))
    }
}

struct BipLongTm {
    path: LongPath,
    /// CTSs posted ahead of their receive_buffer, per peer.
    cts_ahead: Mutex<HashMap<NodeId, usize>>,
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
        wait_out(self.post_send(dst, Bytes::copy_from_slice(data))?).map(drop)
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
        let p = &self.path;
        if !posted {
            p.bip.post_cts(src, p.long_tag);
        }
        let n = p
            .bip
            .try_recv_long_posted(src, p.long_tag, dst)
            .map_err(MadError::from_link(src, &p.stats, &p.tracer))?;
        assert_eq!(n, dst.len(), "long TM receive length mismatch");
        Ok(())
    }

    fn prefetch(&self, src: NodeId) {
        self.path.bip.post_cts(src, self.path.long_tag);
        *self.cts_ahead.lock().entry(src).or_insert(0) += 1;
    }

    fn rendezvous(&self) -> bool {
        true
    }

    fn post_send(&self, dst: NodeId, data: Bytes) -> MadResult<TmSend> {
        self.path.post(dst, (Some(data), madsim_net::time::now()))
    }
}
