//! Buffer Management Modules (paper §3.4).
//!
//! A BMM implements one generic, protocol-independent buffer policy. Each
//! TM names the policy that feeds it best (`SendPolicy`), and the generic
//! layer instantiates a BMM of that shape per in-flight message:
//!
//! * **Eager** — every packed block is handed to the TM as its own dynamic
//!   buffer immediately (right for BIP's long path, where per-transfer
//!   rendezvous cost dwarfs any grouping gain);
//! * **Aggregate** — blocks are collected and flushed as one buffer group,
//!   exploiting the TM's native scatter/gather (SISCI's back-to-back PIO
//!   stream, TCP's writev);
//! * **StaticCopy** — blocks are copied into protocol-provided static
//!   buffers obtained from the TM, packed tightly, and shipped when a
//!   buffer fills or the message commits (BIP short, VIA, SBP).
//!
//! `send_LATER` blocks are never read before the flush: once a LATER block
//! is queued, all later blocks queue behind it so commit-time draining
//! preserves packing order.

use crate::config::HostModel;
use crate::error::MadResult;
use crate::flags::{RecvMode, SendMode};
use crate::pool::{BufPool, PooledBuf};
use crate::progress::OpState;
use crate::stats::Stats;
use crate::tm::{StaticBuf, TmId, TmPending, TmSend, TransmissionModule};
use bytes::Bytes;
use madsim_net::time::{self, VTime};
use madsim_net::NodeId;
use std::sync::Arc;

/// The buffer-management policy a TM requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendPolicy {
    Eager,
    Aggregate,
    StaticCopy,
}

enum Block<'a> {
    Borrowed(&'a [u8]),
    Owned(Bytes),
    Pooled(PooledBuf),
}

impl Block<'_> {
    fn as_slice(&self) -> &[u8] {
        match self {
            Block::Borrowed(b) => b,
            Block::Owned(b) => b,
            Block::Pooled(b) => b.filled(),
        }
    }

    /// True when the TM will read straight from user memory (no
    /// generic-layer copy happened to capture this block).
    fn is_borrowed(&self) -> bool {
        matches!(self, Block::Borrowed(_))
    }
}

/// What a BMM hands its TM in one call.
enum Shipment<'s, 'a> {
    Dynamic(&'s Block<'a>),
    Static(StaticBuf),
    Group(&'s [Block<'a>]),
}

/// Send-side BMM instance for one in-flight message on one TM.
///
/// Every single buffer goes to the TM through its post calls. A shipment
/// that has to wait for the peer parks here, and what is packed meanwhile
/// queues behind it in packing order (the queue a `send_LATER` block
/// forces); a packed message waits it out in place
/// ([`wait_out`](Self::wait_out)), a posted op polls it between ticks
/// ([`resume`](Self::resume)).
pub struct SendBmm<'a> {
    policy: SendPolicy,
    tm: Arc<dyn TransmissionModule>,
    tm_id: TmId,
    dst: NodeId,
    host: HostModel,
    stats: Arc<Stats>,
    /// Pool serving SAFER defensive copies (and any other buffer the BMM
    /// must own), so steady-state capture reuses warm slabs.
    pool: BufPool,
    /// Blocks not yet handed to the TM (aggregation queue, or blocks stuck
    /// behind a `send_LATER` block or a parked shipment).
    pending: Vec<Block<'a>>,
    /// How much of `pending[0]` is staged already (StaticCopy: a buffer
    /// filled, and parked, in mid-block).
    head_staged: usize,
    /// Whether `pending` currently contains a LATER block (forces FIFO
    /// queueing of everything behind it).
    pending_has_later: bool,
    /// Current partially-filled static buffer (StaticCopy only).
    staged: Option<StaticBuf>,
    /// The shipment waiting for a peer event, and its length.
    parked: Option<(Box<dyn TmPending>, usize)>,
    /// A commit was asked for while a shipment was parked.
    committing: bool,
    /// Latest instant a shipment completed at.
    done_at: VTime,
}

impl<'a> SendBmm<'a> {
    pub fn new(
        policy: SendPolicy,
        tm: Arc<dyn TransmissionModule>,
        dst: NodeId,
        host: HostModel,
        stats: Arc<Stats>,
    ) -> Self {
        let pool = BufPool::new(Arc::clone(&stats));
        Self::with_pool(policy, tm, 0, dst, host, stats, pool)
    }

    /// [`new`](Self::new) with the TM's id for per-TM traffic accounting,
    /// sharing an existing buffer pool — the channel-lifetime pool, so
    /// consecutive messages reuse slabs.
    pub fn with_pool(
        policy: SendPolicy,
        tm: Arc<dyn TransmissionModule>,
        tm_id: TmId,
        dst: NodeId,
        host: HostModel,
        stats: Arc<Stats>,
        pool: BufPool,
    ) -> Self {
        SendBmm {
            policy,
            tm,
            tm_id,
            dst,
            host,
            stats,
            pool,
            pending: Vec::new(),
            head_staged: 0,
            pending_has_later: false,
            staged: None,
            parked: None,
            committing: false,
            done_at: VTime::ZERO,
        }
    }

    /// Queue or transmit one user block according to the policy and the
    /// block's emission mode.
    pub fn pack(&mut self, data: &'a [u8], mode: SendMode) -> MadResult<()> {
        match mode {
            SendMode::Later => {
                // Defer the read to flush time, and everything after it.
                self.pending.push(Block::Borrowed(data));
                self.pending_has_later = true;
                Ok(())
            }
            SendMode::Safer => self.pack_safer_now(data),
            SendMode::Cheaper => self.pack_now(Block::Borrowed(data)),
        }
    }

    /// Queue a block the library already owns: a posted op's blocks are
    /// `Bytes` from the moment they are posted, so no mode asks anything
    /// more of them.
    pub fn pack_owned(&mut self, data: Bytes) -> MadResult<()> {
        self.pack_now(Block::Owned(data))
    }

    /// Queue a library-owned pooled block (e.g. the internal message
    /// header, built directly in pool memory — no intermediate allocation).
    pub fn pack_pooled(&mut self, data: PooledBuf) -> MadResult<()> {
        self.pack_now(Block::Pooled(data))
    }

    /// `send_SAFER` capture: the data never outlives this call. The static
    /// copy *is* the capture and eager transmission captures synchronously
    /// — if nothing is queued ahead; otherwise (and always when
    /// aggregating) the block is copied into pool memory. Blocks eligible
    /// for wire-level coalescing are diverted to the batch layer before a
    /// BMM ever sees them, so a SAFER block arriving here always travels as
    /// its own frame on its own rail.
    pub fn pack_safer_now(&mut self, data: &[u8]) -> MadResult<()> {
        if self.pending_has_later || self.parked.is_some() || self.policy == SendPolicy::Aggregate {
            let owned = self.pool.checkout_from(data);
            self.charge_copy(data.len());
            return self.pack_now(Block::Pooled(owned));
        }
        match self.policy {
            SendPolicy::Eager => self.ship(Shipment::Dynamic(&Block::Borrowed(data))),
            _ => self.stage(data).map(drop),
        }
    }

    fn pack_now(&mut self, block: Block<'a>) -> MadResult<()> {
        if self.pending_has_later || self.parked.is_some() {
            // Preserve order behind the deferred LATER block.
            self.pending.push(block);
            return Ok(());
        }
        match self.policy {
            SendPolicy::Eager => self.ship(Shipment::Dynamic(&block)),
            SendPolicy::Aggregate => {
                self.pending.push(block);
                Ok(())
            }
            SendPolicy::StaticCopy => {
                let staged = self.stage(block.as_slice())?;
                if staged < block.as_slice().len() {
                    self.head_staged = staged;
                    self.pending.push(block);
                }
                Ok(())
            }
        }
    }

    /// The one place a buffer goes to the TM, with its accounting: through
    /// the TM's post calls, whose continuation parks here if one comes back.
    fn ship(&mut self, what: Shipment<'_, '_>) -> MadResult<()> {
        let (tm, dst) = (&*self.tm, self.dst);
        let (len, sent) = match what {
            Shipment::Group(blocks) => {
                // Scatter/gather: the TM reads each block from where it
                // lies — no coalescing memcpy on this layer.
                let slices: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
                for b in blocks.iter().filter(|b| b.is_borrowed()) {
                    self.stats.record_borrowed(b.as_slice().len());
                }
                return send_group(tm, self.tm_id, dst, &slices, &self.host, &self.stats);
            }
            Shipment::Dynamic(b) => {
                let data = b.as_slice();
                if b.is_borrowed() {
                    self.stats.record_borrowed(data.len());
                }
                let sent = match b {
                    Block::Owned(bytes) => tm.post_send(dst, bytes.clone()),
                    _ => tm.post_send(dst, Bytes::copy_from_slice(data)),
                };
                (data.len(), sent?)
            }
            Shipment::Static(buf) => (buf.len(), tm.post_static_buffer(dst, buf)?),
        };
        match sent {
            TmSend::Pending(cont) => self.parked = Some((cont, len)),
            TmSend::Done(at) => self.shipped(len, at),
        }
        Ok(())
    }

    fn shipped(&mut self, len: usize, at: VTime) {
        self.done_at = self.done_at.max(at);
        self.stats.record_buffer_sent();
        self.stats.record_tm_traffic(self.tm_id, len);
    }

    /// Copy a block into static buffers, shipping each buffer as it fills.
    /// Returns how much of it went in: all, unless a shipment parked.
    fn stage(&mut self, data: &[u8]) -> MadResult<usize> {
        let mut done = 0;
        while done < data.len() && self.parked.is_none() {
            let tm = &self.tm;
            let buf = self.staged.get_or_insert_with(|| tm.obtain_static_buffer());
            let take = (data.len() - done).min(buf.spare());
            buf.spare_mut()[..take].copy_from_slice(&data[done..done + take]);
            buf.advance(take);
            let full = buf.spare() == 0;
            self.charge_copy(take);
            done += take;
            if full {
                let full = self.staged.take().expect("present");
                self.ship(Shipment::Static(full))?;
            }
        }
        Ok(done)
    }

    /// Hand the queued blocks to the TM, in order, as far as they go.
    fn drain(&mut self) -> MadResult<()> {
        let mut pending = std::mem::take(&mut self.pending);
        self.pending_has_later = false;
        let mut gone = 0;
        match self.policy {
            SendPolicy::Aggregate => {
                self.ship(Shipment::Group(&pending))?;
                gone = pending.len();
            }
            _ => {
                while gone < pending.len() && self.parked.is_none() {
                    let block = &pending[gone];
                    if self.policy == SendPolicy::Eager {
                        self.ship(Shipment::Dynamic(block))?;
                    } else {
                        self.head_staged += self.stage(&block.as_slice()[self.head_staged..])?;
                        if self.head_staged < block.as_slice().len() {
                            break;
                        }
                        self.head_staged = 0;
                    }
                    gone += 1;
                }
            }
        }
        // An emptied queue is let go, not kept for its capacity: a BMM
        // lives for one message.
        if gone < pending.len() {
            pending.drain(..gone);
            self.pending = pending;
        }
        Ok(())
    }

    /// Commit: drain every queued block and partial buffer to the TM (behind
    /// a parked shipment, once it is out).
    pub fn flush(&mut self) -> MadResult<()> {
        self.committing = true;
        self.advance()?;
        self.stats.record_commit();
        Ok(())
    }

    /// Wait parked shipments out in place, the thread's clock moved to each
    /// one's completion instant as it resumes, then to the latest one: the
    /// instants blocking TM calls produce.
    pub fn wait_out(&mut self) -> MadResult<()> {
        while let Some((cont, len)) = self.parked.take() {
            let at = crate::tm::wait_out(TmSend::Pending(cont))?;
            self.shipped(len, at);
            self.advance()?;
        }
        time::advance_to(self.done_at);
        Ok(())
    }

    /// Poll the parked shipment and, once it is out, carry on behind it.
    /// `Some`: what it (still, or again) waits for.
    pub(crate) fn resume(&mut self) -> MadResult<Option<OpState>> {
        if let Some((mut cont, len)) = self.parked.take() {
            match cont.try_advance()? {
                None => self.parked = Some((cont, len)),
                Some(at) => {
                    self.shipped(len, at);
                    self.advance()?;
                }
            }
        }
        Ok(self.waits_for())
    }

    /// The peer event the parked shipment waits for.
    pub(crate) fn waits_for(&self) -> Option<OpState> {
        self.parked.as_ref().map(|(cont, _)| cont.state())
    }

    /// The latest instant a shipment completed at.
    pub(crate) fn done_at(&self) -> VTime {
        self.done_at
    }

    /// Drain what may go — everything for a commit, otherwise what queued
    /// behind a parked shipment — then ship the partial static buffer if a
    /// commit is under way.
    fn advance(&mut self) -> MadResult<()> {
        let held =
            !self.committing && (self.pending_has_later || self.policy == SendPolicy::Aggregate);
        if self.parked.is_none() && !self.pending.is_empty() && !held {
            self.drain()?;
        }
        if self.committing && self.parked.is_none() {
            self.committing = false;
            if let Some(buf) = self.staged.take() {
                if buf.is_empty() {
                    self.tm.release_static_buffer(buf);
                } else {
                    self.ship(Shipment::Static(buf))?;
                }
            }
        }
        Ok(())
    }

    fn charge_copy(&self, len: usize) {
        time::advance(self.host.memcpy(len));
        self.stats.record_copy(len);
    }
}

/// Hand `parts` to `tm` as **one** buffer, assembled once, in the place it
/// travels from: a gather list the TM reads where the parts lie, or — on a
/// protocol that only ships its own buffers — written straight into one of
/// those (the generic layer's copy: charged and counted here). The commit
/// of an aggregated message and the flush of a batch frame both end here.
///
/// # Panics
/// Panics if the parts outgrow a static-buffer TM's buffer; callers size
/// their groups by `caps().buffer_cap`.
pub(crate) fn send_group(
    tm: &dyn TransmissionModule,
    tm_id: TmId,
    dst: NodeId,
    parts: &[&[u8]],
    host: &HostModel,
    stats: &Stats,
) -> MadResult<()> {
    let caps = tm.caps();
    let total: usize = parts.iter().map(|p| p.len()).sum();
    if caps.static_buffers {
        let mut buf = tm.obtain_static_buffer();
        for p in parts {
            buf.spare_mut()[..p.len()].copy_from_slice(p);
            buf.advance(p.len());
        }
        time::advance(host.memcpy(total));
        stats.record_copy(total);
        tm.send_static_buffer(dst, buf)?;
    } else {
        tm.send_buffer_group(dst, parts)?;
        if caps.gather {
            stats.record_gather();
        }
    }
    stats.record_buffer_sent();
    stats.record_tm_traffic(tm_id, total);
    Ok(())
}

/// Receive-side BMM instance for one in-flight message on one TM.
pub struct RecvBmm<'a> {
    policy: SendPolicy,
    tm: Arc<dyn TransmissionModule>,
    src: NodeId,
    host: HostModel,
    stats: Arc<Stats>,
    /// `receive_CHEAPER` destinations whose extraction is deferred.
    deferred: Vec<&'a mut [u8]>,
    /// Current partially-consumed received static buffer and read offset.
    rx: Option<(StaticBuf, usize)>,
}

impl<'a> RecvBmm<'a> {
    pub fn new(
        policy: SendPolicy,
        tm: Arc<dyn TransmissionModule>,
        src: NodeId,
        host: HostModel,
        stats: Arc<Stats>,
    ) -> Self {
        RecvBmm {
            policy,
            tm,
            src,
            host,
            stats,
            deferred: Vec::new(),
            rx: None,
        }
    }

    /// Register or satisfy one unpack destination. (Extraction from an
    /// arrived protocol buffer is a local copy: StaticCopy extracts on the
    /// spot in both modes.)
    pub fn unpack(&mut self, dst: &'a mut [u8], mode: RecvMode) -> MadResult<()> {
        if self.policy == SendPolicy::StaticCopy {
            return self.extract(dst);
        }
        self.deferred.push(dst);
        match mode {
            RecvMode::Express => self.checkout(),
            RecvMode::Cheaper => Ok(()),
        }
    }

    /// Immediately fill a destination without retaining the borrow —
    /// the `receive_EXPRESS` path usable before the message ends (length
    /// headers, the internal message header). Equivalent to a checkout with
    /// `dst` appended to the deferred list.
    pub fn unpack_express_now(&mut self, dst: &mut [u8]) -> MadResult<()> {
        match self.policy {
            SendPolicy::StaticCopy => self.extract(dst),
            SendPolicy::Eager | SendPolicy::Aggregate => self.receive_deferred(Some(dst)),
        }
    }

    /// Receive every deferred destination, in order, then `last`: one
    /// buffer each (Eager) or all of them as one sub-buffer group.
    fn receive_deferred(&mut self, last: Option<&mut [u8]>) -> MadResult<()> {
        let all = self.deferred.drain(..).map(|d| d as &mut [u8]).chain(last);
        if self.policy == SendPolicy::Eager {
            for d in all {
                self.stats.record_borrowed(d.len());
                self.tm.receive_buffer(self.src, d)?;
            }
            return Ok(());
        }
        let mut group: Vec<&mut [u8]> = all.collect();
        if group.is_empty() {
            return Ok(());
        }
        for d in &group {
            self.stats.record_borrowed(d.len());
        }
        self.tm.receive_sub_buffer_group(self.src, &mut group)
    }

    /// Fill `dst` from received static buffers, fetching as needed.
    fn extract(&mut self, dst: &mut [u8]) -> MadResult<()> {
        let mut filled = 0;
        while filled < dst.len() {
            if self.rx.as_ref().is_none_or(|(b, off)| *off >= b.len()) {
                if let Some((old, _)) = self.rx.take() {
                    self.tm.release_static_buffer(old);
                }
                let fresh = self.tm.receive_static_buffer(self.src)?;
                self.rx = Some((fresh, 0));
            }
            let (buf, off) = self.rx.as_mut().expect("just fetched");
            let avail = buf.len() - *off;
            let take = avail.min(dst.len() - filled);
            dst[filled..filled + take].copy_from_slice(&buf.filled()[*off..*off + take]);
            *off += take;
            filled += take;
        }
        if filled > 0 {
            self.charge_copy(filled);
        }
        Ok(())
    }

    /// Checkout: extract every deferred destination, in order.
    pub fn checkout(&mut self) -> MadResult<()> {
        if self.policy != SendPolicy::StaticCopy {
            return self.receive_deferred(None);
        }
        // Extraction was immediate; verify the pack/unpack symmetry
        // contract: a flushed buffer must be fully consumed.
        if let Some((buf, off)) = self.rx.take() {
            assert_eq!(
                off,
                buf.len(),
                "static buffer not fully consumed at checkout: \
                 asymmetric pack/unpack sequences?"
            );
            self.tm.release_static_buffer(buf);
        }
        Ok(())
    }

    fn charge_copy(&self, len: usize) {
        time::advance(self.host.memcpy(len));
        self.stats.record_copy(len);
    }
}
