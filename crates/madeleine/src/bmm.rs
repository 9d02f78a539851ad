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
use crate::stats::Stats;
use crate::tm::{StaticBuf, TmId, TransmissionModule};
use bytes::Bytes;
use madsim_net::time;
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

/// Send-side BMM instance for one in-flight message on one TM.
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
    /// behind a `send_LATER` block).
    pending: Vec<Block<'a>>,
    /// Whether `pending` currently contains a LATER block (forces FIFO
    /// queueing of everything behind it).
    pending_has_later: bool,
    /// Current partially-filled static buffer (StaticCopy only).
    staged: Option<StaticBuf>,
}

impl<'a> SendBmm<'a> {
    pub fn new(
        policy: SendPolicy,
        tm: Arc<dyn TransmissionModule>,
        dst: NodeId,
        host: HostModel,
        stats: Arc<Stats>,
    ) -> Self {
        Self::with_tm_id(policy, tm, 0, dst, host, stats)
    }

    /// [`new`](Self::new) with the TM's id for per-TM traffic accounting.
    pub fn with_tm_id(
        policy: SendPolicy,
        tm: Arc<dyn TransmissionModule>,
        tm_id: TmId,
        dst: NodeId,
        host: HostModel,
        stats: Arc<Stats>,
    ) -> Self {
        let pool = BufPool::new(Arc::clone(&stats));
        Self::with_pool(policy, tm, tm_id, dst, host, stats, pool)
    }

    /// [`with_tm_id`](Self::with_tm_id) sharing an existing buffer pool —
    /// the channel-lifetime pool, so consecutive messages reuse slabs.
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
            pending_has_later: false,
            staged: None,
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
            SendMode::Safer => {
                let capture_by_processing = match self.policy {
                    // The static copy *is* the capture; eager transmission
                    // captures synchronously — but only if nothing is
                    // queued behind a LATER block.
                    SendPolicy::StaticCopy | SendPolicy::Eager => !self.pending_has_later,
                    SendPolicy::Aggregate => false,
                };
                if capture_by_processing {
                    self.pack_now(Block::Borrowed(data))
                } else {
                    let owned = self.pool.checkout_from(data);
                    self.charge_copy(data.len());
                    self.pack_now(Block::Pooled(owned))
                }
            }
            SendMode::Cheaper => self.pack_now(Block::Borrowed(data)),
        }
    }

    /// Queue a block the library already owns: posted nonblocking ops
    /// capture their payloads as `Bytes` at post time and replay them
    /// through here when the progress engine drives the op's frames on
    /// its rail's TM stack.
    pub fn pack_owned(&mut self, data: Bytes) -> MadResult<()> {
        self.pack_now(Block::Owned(data))
    }

    /// Queue a library-owned pooled block (e.g. the internal message
    /// header, built directly in pool memory — no intermediate allocation).
    pub fn pack_pooled(&mut self, data: PooledBuf) -> MadResult<()> {
        self.pack_now(Block::Pooled(data))
    }

    /// The pool this BMM captures into.
    pub fn pool(&self) -> &BufPool {
        &self.pool
    }

    /// `send_SAFER` capture through a short-lived borrow: the data never
    /// outlives this call. Depending on the policy it is copied into pool
    /// memory, staged into this rail's static buffers, or transmitted
    /// immediately on this BMM's TM. Blocks eligible for wire-level
    /// coalescing are diverted to the batch layer before a BMM ever sees
    /// them, so a SAFER block arriving here always travels as its own
    /// frame on its own rail.
    pub fn pack_safer_now(&mut self, data: &[u8]) -> MadResult<()> {
        let capture_by_processing = match self.policy {
            SendPolicy::StaticCopy | SendPolicy::Eager => !self.pending_has_later,
            SendPolicy::Aggregate => false,
        };
        if capture_by_processing {
            match self.policy {
                SendPolicy::Eager => {
                    self.stats.record_borrowed(data.len());
                    self.tm.send_buffer(self.dst, data)?;
                    self.stats.record_buffer_sent();
                    self.stats.record_tm_traffic(self.tm_id, data.len());
                    Ok(())
                }
                SendPolicy::StaticCopy => self.stage(data),
                SendPolicy::Aggregate => unreachable!(),
            }
        } else {
            let owned = self.pool.checkout_from(data);
            self.charge_copy(data.len());
            self.pack_now(Block::Pooled(owned))
        }
    }

    fn pack_now(&mut self, block: Block<'a>) -> MadResult<()> {
        if self.pending_has_later {
            // Preserve order behind the deferred LATER block.
            self.pending.push(block);
            return Ok(());
        }
        match self.policy {
            SendPolicy::Eager => {
                if block.is_borrowed() {
                    self.stats.record_borrowed(block.as_slice().len());
                }
                self.tm.send_buffer(self.dst, block.as_slice())?;
                self.stats.record_buffer_sent();
                self.stats
                    .record_tm_traffic(self.tm_id, block.as_slice().len());
                Ok(())
            }
            SendPolicy::Aggregate => {
                self.pending.push(block);
                Ok(())
            }
            SendPolicy::StaticCopy => self.stage(block.as_slice()),
        }
    }

    /// Copy a block into static buffers, shipping each buffer as it fills.
    fn stage(&mut self, mut data: &[u8]) -> MadResult<()> {
        while !data.is_empty() {
            if self.staged.is_none() {
                self.staged = Some(self.tm.obtain_static_buffer());
            }
            let buf = self.staged.as_mut().expect("just obtained");
            let take = data.len().min(buf.spare());
            buf.spare_mut()[..take].copy_from_slice(&data[..take]);
            buf.advance(take);
            let full = buf.spare() == 0;
            self.charge_copy(take);
            data = &data[take..];
            if full {
                let full = self.staged.take().expect("present");
                self.stats.record_tm_traffic(self.tm_id, full.len());
                self.tm.send_static_buffer(self.dst, full)?;
                self.stats.record_buffer_sent();
            }
        }
        Ok(())
    }

    /// Commit: drain every queued block and partial buffer to the TM.
    pub fn flush(&mut self) -> MadResult<()> {
        if self.pending_has_later || !self.pending.is_empty() {
            let pending = std::mem::take(&mut self.pending);
            self.pending_has_later = false;
            match self.policy {
                SendPolicy::Eager => {
                    for b in &pending {
                        if b.is_borrowed() {
                            self.stats.record_borrowed(b.as_slice().len());
                        }
                        self.tm.send_buffer(self.dst, b.as_slice())?;
                        self.stats.record_buffer_sent();
                        self.stats.record_tm_traffic(self.tm_id, b.as_slice().len());
                    }
                }
                SendPolicy::Aggregate => {
                    // Scatter/gather flush: the TM reads each block from
                    // where it lies — no coalescing memcpy on this layer.
                    let slices: Vec<&[u8]> = pending.iter().map(|b| b.as_slice()).collect();
                    for b in &pending {
                        if b.is_borrowed() {
                            self.stats.record_borrowed(b.as_slice().len());
                        }
                    }
                    let (tm, host) = (&*self.tm, &self.host);
                    send_group(tm, self.tm_id, self.dst, &slices, host, &self.stats)?;
                }
                SendPolicy::StaticCopy => {
                    for b in &pending {
                        self.stage(b.as_slice())?;
                    }
                }
            }
        }
        if let Some(buf) = self.staged.take() {
            if buf.is_empty() {
                self.tm.release_static_buffer(buf);
            } else {
                self.stats.record_tm_traffic(self.tm_id, buf.len());
                self.tm.send_static_buffer(self.dst, buf)?;
                self.stats.record_buffer_sent();
            }
        }
        self.stats.record_commit();
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
        tm.send_gather(dst, parts)?;
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

    /// Register or satisfy one unpack destination.
    pub fn unpack(&mut self, dst: &'a mut [u8], mode: RecvMode) -> MadResult<()> {
        match self.policy {
            SendPolicy::StaticCopy => {
                // Extraction from an arrived protocol buffer is a local
                // copy; both modes extract on the spot.
                self.extract(dst)
            }
            SendPolicy::Eager | SendPolicy::Aggregate => match mode {
                RecvMode::Express => {
                    self.deferred.push(dst);
                    self.checkout()
                }
                RecvMode::Cheaper => {
                    self.deferred.push(dst);
                    Ok(())
                }
            },
        }
    }

    /// Immediately fill a destination without retaining the borrow —
    /// the `receive_EXPRESS` path usable before the message ends (length
    /// headers, the internal message header). Equivalent to a checkout with
    /// `dst` appended to the deferred list.
    pub fn unpack_express_now(&mut self, dst: &mut [u8]) -> MadResult<()> {
        match self.policy {
            SendPolicy::StaticCopy => self.extract(dst),
            SendPolicy::Eager => {
                for d in self.deferred.drain(..) {
                    self.stats.record_borrowed(d.len());
                    self.tm.receive_buffer(self.src, d)?;
                }
                self.stats.record_borrowed(dst.len());
                self.tm.receive_buffer(self.src, dst)
            }
            SendPolicy::Aggregate => {
                let mut group: Vec<&mut [u8]> = self.deferred.drain(..).collect();
                group.push(dst);
                for d in &group {
                    self.stats.record_borrowed(d.len());
                }
                self.tm.receive_sub_buffer_group(self.src, &mut group)
            }
        }
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
        match self.policy {
            SendPolicy::Eager => {
                for d in self.deferred.drain(..) {
                    self.stats.record_borrowed(d.len());
                    self.tm.receive_buffer(self.src, d)?;
                }
            }
            SendPolicy::Aggregate => {
                if !self.deferred.is_empty() {
                    let mut group: Vec<&mut [u8]> = self.deferred.drain(..).collect();
                    for d in &group {
                        self.stats.record_borrowed(d.len());
                    }
                    self.tm.receive_sub_buffer_group(self.src, &mut group)?;
                }
            }
            SendPolicy::StaticCopy => {
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
            }
        }
        Ok(())
    }

    fn charge_copy(&self, len: usize) {
        time::advance(self.host.memcpy(len));
        self.stats.record_copy(len);
    }
}
