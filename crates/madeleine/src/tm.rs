//! Transmission Modules (paper §3.2, Table 2).
//!
//! A TM encapsulates **one transfer method of one protocol**: BIP's short
//! and long paths are two TMs; SISCI's short-PIO, regular-PIO, and DMA modes
//! are three. The common interface is Table 2 of the paper:
//!
//! | paper | here |
//! |---|---|
//! | `send_buffer` | [`TransmissionModule::post_send`] / [`post_static_buffer`](TransmissionModule::post_static_buffer) |
//! | `send_buffer_group` | [`TransmissionModule::send_buffer_group`] |
//! | `receive_buffer` | [`TransmissionModule::receive_buffer`] / [`receive_static_buffer`](TransmissionModule::receive_static_buffer) |
//! | `receive_sub_buffer_group` | [`TransmissionModule::receive_sub_buffer_group`] |
//! | `obtain_static_buffer` | [`TransmissionModule::obtain_static_buffer`] |
//! | `release_static_buffer` | [`TransmissionModule::release_static_buffer`] |
//!
//! A single buffer leaves through the post calls, packed or posted; a
//! blocking send is the post plus [`wait_out`].
//!
//! (The static-buffer send/receive entry points are split from the dynamic
//! ones because Rust's ownership makes the hand-off explicit; the paper's C
//! interface passes the same pointer either way.) As the paper notes, "some
//! functions may not be relevant for a specific TM and will not be
//! implemented in such case": the defaults here panic with a diagnostic,
//! and the [`TmCaps`] advertisement tells the generic layer which paths are
//! usable.

use crate::error::MadResult;
use crate::polling::PollPolicy;
use crate::pool::PooledBuf;
use crate::progress::OpState;
use bytes::Bytes;
use madsim_net::mailbox::SPIN_LIMIT;
use madsim_net::time::{self, VTime};
use madsim_net::world::Adapter;
use madsim_net::NodeId;

/// Index of a TM within its protocol module.
pub type TmId = u8;

/// The continuation of a post that has to wait for the peer. Whoever
/// posted polls it; a poll never blocks. Dropping it unshipped releases
/// what it holds.
pub trait TmPending: Send {
    /// What it waits for: [`OpState::CreditWait`] or `RendezvousWait`.
    fn state(&self) -> OpState;

    /// The adapter the peer event arrives on.
    fn adapter(&self) -> &Adapter;

    /// Ship the block if the peer event arrived: `Some(at)`, local work
    /// done at `at`. Errors are terminal (dead peer, expired link bound).
    fn try_advance(&mut self) -> MadResult<Option<VTime>>;
}

/// Outcome of [`TransmissionModule::post_send`].
pub enum TmSend {
    /// The block hit the (simulated) wire inside the call; local send-side
    /// work completes at this instant.
    Done(VTime),
    /// The TM needs a peer event first; poll the continuation.
    Pending(Box<dyn TmPending>),
}

/// Wait a post out in place, the thread's clock moved to the instant its
/// block completed at (returned). A continuation is polled up to the
/// mailbox's grant, then parked on its node's arrivals count, rechecking
/// on a tick only on a fault-armed world (where its link deadline fires).
pub fn wait_out(sent: TmSend) -> MadResult<VTime> {
    let at = match sent {
        TmSend::Done(at) => at,
        TmSend::Pending(mut cont) => {
            let adapter = cont.adapter().clone();
            let grant = PollPolicy::Adaptive {
                spin_rounds: SPIN_LIMIT,
                interrupt_latency_us: 0.0,
            };
            let probe = || cont.try_advance().transpose();
            grant.wait(adapter.arrivals(), adapter.faulty(), probe)?
        }
    };
    time::advance_to(at);
    Ok(at)
}

/// Capabilities a TM advertises to the buffer-management layer.
#[derive(Clone, Copy, Debug)]
pub struct TmCaps {
    /// Uses protocol-provided static buffers (data must be copied in/out).
    pub static_buffers: bool,
    /// Largest single buffer this TM can carry (static buffer capacity, or
    /// a protocol limit such as BIP's 1 kB short bound).
    pub buffer_cap: usize,
    /// Native scatter/gather: a buffer group costs about one transfer.
    pub gather: bool,
}

/// A protocol-level buffer (paper: "protocols which provide their own set
/// of preallocated buffers").
///
/// On the send side it is owned writable memory obtained from the TM; on
/// the receive side it wraps the protocol's arrival buffer zero-copy.
pub struct StaticBuf {
    mem: BufMem,
    len: usize,
    origin: TmId,
}

enum BufMem {
    Owned(Box<[u8]>),
    Shared(Bytes),
    Pooled(PooledBuf),
}

impl StaticBuf {
    /// A writable send-side buffer of `cap` bytes.
    pub fn owned(cap: usize, origin: TmId) -> Self {
        StaticBuf {
            mem: BufMem::Owned(vec![0u8; cap].into_boxed_slice()),
            len: 0,
            origin,
        }
    }

    /// A writable send-side buffer backed by a pooled segment: on drop the
    /// memory returns to its [`crate::pool::BufPool`] instead of the
    /// allocator, so steady-state static-buffer traffic reuses warm slabs.
    pub fn pooled(buf: PooledBuf, origin: TmId) -> Self {
        StaticBuf {
            mem: BufMem::Pooled(buf),
            len: 0,
            origin,
        }
    }

    /// Wrap an arrived protocol buffer (receive side), zero-copy.
    pub fn shared(data: Bytes, origin: TmId) -> Self {
        StaticBuf {
            len: data.len(),
            mem: BufMem::Shared(data),
            origin,
        }
    }

    pub fn origin(&self) -> TmId {
        self.origin
    }

    /// True for send-side (writable, pool-backed) buffers, false for
    /// receive-side wrappers around arrival bytes.
    pub fn is_owned(&self) -> bool {
        matches!(self.mem, BufMem::Owned(_) | BufMem::Pooled(_))
    }

    /// Filled length.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        match &self.mem {
            BufMem::Owned(b) => b.len(),
            BufMem::Shared(b) => b.len(),
            BufMem::Pooled(b) => b.capacity(),
        }
    }

    /// The arrival bytes of a receive-side wrapper, as a refcounted handle
    /// that outlives this buffer — `None` for send-side (owned) buffers.
    /// Lets a consumer that slices one arrival into many deliveries (the
    /// batch layer splitting a multi-envelope frame) keep the payloads
    /// zero-copy after the buffer is released back to its TM.
    pub fn shared_bytes(&self) -> Option<Bytes> {
        match &self.mem {
            BufMem::Shared(b) => Some(b.clone()),
            BufMem::Owned(_) | BufMem::Pooled(_) => None,
        }
    }

    /// Filled contents.
    pub fn filled(&self) -> &[u8] {
        match &self.mem {
            BufMem::Owned(b) => &b[..self.len],
            BufMem::Shared(b) => &b[..self.len],
            BufMem::Pooled(b) => &b.raw()[..self.len],
        }
    }

    /// Writable tail (send-side buffers only).
    ///
    /// # Panics
    /// Panics on a receive-side (shared) buffer.
    pub fn spare_mut(&mut self) -> &mut [u8] {
        match &mut self.mem {
            BufMem::Owned(b) => &mut b[self.len..],
            BufMem::Shared(_) => panic!("cannot write into a received static buffer"),
            BufMem::Pooled(b) => {
                let len = self.len;
                &mut b.raw_mut()[len..]
            }
        }
    }

    /// Mark `n` more bytes as filled.
    pub fn advance(&mut self, n: usize) {
        assert!(self.len + n <= self.capacity(), "static buffer overflow");
        self.len += n;
    }

    /// Remaining writable capacity.
    pub fn spare(&self) -> usize {
        self.capacity() - self.len
    }

    /// Reset to empty for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

/// One transfer method of one protocol. See module docs.
pub trait TransmissionModule: Send + Sync {
    /// Short diagnostic name, e.g. `"bip/short"`.
    fn name(&self) -> &'static str;

    fn caps(&self) -> TmCaps;

    /// Transmit one dynamic (user-memory) buffer to `dst`: the blocking
    /// twin of [`post_send`](Self::post_send).
    ///
    /// On a fault-free fabric this never fails; on a fault-armed one it
    /// surfaces retransmission exhaustion, credit timeouts, and dead peers
    /// as [`crate::error::MadError`]s instead of hanging or panicking.
    fn send_buffer(&self, dst: NodeId, data: &[u8]) -> MadResult<()>;

    /// Transmit a group of dynamic buffers as one unit, read where they lie
    /// (an aggregated commit or a batch frame). TMs with native gather (TCP
    /// writev, SISCI back-to-back PIO) override it and advertise
    /// [`TmCaps::gather`]; the default is sequential sends.
    fn send_buffer_group(&self, dst: NodeId, bufs: &[&[u8]]) -> MadResult<()> {
        for b in bufs {
            self.send_buffer(dst, b)?;
        }
        Ok(())
    }

    /// Transmit a filled static buffer obtained from this TM (the blocking
    /// twin of [`post_static_buffer`](Self::post_static_buffer)).
    fn send_static_buffer(&self, _dst: NodeId, _buf: StaticBuf) -> MadResult<()> {
        panic!("{}: static buffers not supported", self.name());
    }

    /// Receive the next buffer from `src` directly into `dst` (which must
    /// be exactly the transmitted length — Madeleine messages are not
    /// self-described).
    fn receive_buffer(&self, src: NodeId, dst: &mut [u8]) -> MadResult<()>;

    /// Receive a group of buffers transmitted by
    /// [`send_buffer_group`](Self::send_buffer_group), scattered into
    /// `dsts`. Default: sequential receives.
    fn receive_sub_buffer_group(&self, src: NodeId, dsts: &mut [&mut [u8]]) -> MadResult<()> {
        for d in dsts.iter_mut() {
            self.receive_buffer(src, d)?;
        }
        Ok(())
    }

    /// Receive one self-delimiting unit from `src` as a single refcounted
    /// buffer (byte-stream TMs only; static-buffer TMs deliver their
    /// buffers whole). `unit_len` is shown the unconsumed head of the
    /// stream and answers the unit's total length, or `None` while too
    /// little of it is visible to tell; an error abandons the receive with
    /// nothing consumed. The unit is a slice of the arrival buffer itself
    /// wherever the stack below kept it in one piece.
    fn receive_delimited(
        &self,
        _src: NodeId,
        _unit_len: &mut dyn FnMut(&[u8]) -> MadResult<Option<usize>>,
    ) -> MadResult<Bytes> {
        panic!("{}: not a byte-stream TM", self.name());
    }

    /// Receive the next static buffer from `src` (static-buffer TMs only).
    fn receive_static_buffer(&self, _src: NodeId) -> MadResult<StaticBuf> {
        panic!("{}: static buffers not supported", self.name());
    }

    /// Obtain an empty protocol buffer (static-buffer TMs only). May block
    /// until the pool has a free buffer.
    fn obtain_static_buffer(&self) -> StaticBuf {
        panic!("{}: static buffers not supported", self.name());
    }

    /// Return an unused (or fully consumed received) buffer to the pool.
    fn release_static_buffer(&self, _buf: StaticBuf) {}

    /// Hint that a receive from `src` is imminent: TMs whose protocol has a
    /// receiver-initiated handshake (BIP's long-message rendezvous) fire it
    /// now so the transfer overlaps the caller's other work. The matching
    /// [`receive_buffer`](Self::receive_buffer) must follow eventually.
    fn prefetch(&self, _src: NodeId) {}

    /// Does a posted block park on the receiver's clear-to-send alone
    /// (BIP's long path)? It then ships whole once the CTS is polled,
    /// whatever else the receiver waits for (see `rail::StripeSend::held`).
    fn rendezvous(&self) -> bool {
        false
    }

    /// Transmit one owned block, the call every single-buffer send makes:
    /// it ships inside the call, or the TM hands back a continuation
    /// ([`TmSend::Pending`]).
    ///
    /// Default: the blocking [`send_buffer`](Self::send_buffer) — correct
    /// for every TM whose send path completes locally without waiting on a
    /// peer event. BIP's credit scheme and rendezvous override it, building
    /// a continuation only when the peer event is not in yet.
    fn post_send(&self, dst: NodeId, data: Bytes) -> MadResult<TmSend> {
        self.send_buffer(dst, &data)?;
        Ok(TmSend::Done(time::now()))
    }

    /// [`post_send`](Self::post_send) for a filled static buffer obtained
    /// from this TM. Default: the blocking
    /// [`send_static_buffer`](Self::send_static_buffer); a TM whose static
    /// path waits on the peer (BIP's credits) overrides it.
    fn post_static_buffer(&self, dst: NodeId, buf: StaticBuf) -> MadResult<TmSend> {
        self.send_static_buffer(dst, buf)?;
        Ok(TmSend::Done(time::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_buffer_fill_cycle() {
        let mut b = StaticBuf::owned(16, 2);
        assert_eq!(b.origin(), 2);
        assert_eq!(b.capacity(), 16);
        assert_eq!(b.spare(), 16);
        b.spare_mut()[..4].copy_from_slice(b"abcd");
        b.advance(4);
        assert_eq!(b.filled(), b"abcd");
        assert_eq!(b.spare(), 12);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.spare(), 16);
    }

    #[test]
    fn shared_buffer_wraps_zero_copy() {
        let data = Bytes::from_static(b"arrived");
        let b = StaticBuf::shared(data.clone(), 0);
        assert_eq!(b.filled(), b"arrived");
        assert_eq!(b.len(), 7);
        assert_eq!(b.filled().as_ptr(), data.as_ptr());
        let handle = b.shared_bytes().expect("receive-side wrapper");
        assert_eq!(handle.as_ptr(), data.as_ptr(), "handle is zero-copy");
        assert!(StaticBuf::owned(4, 0).shared_bytes().is_none());
    }

    #[test]
    #[should_panic(expected = "cannot write into a received")]
    fn shared_buffer_rejects_writes() {
        let mut b = StaticBuf::shared(Bytes::from_static(b"x"), 0);
        let _ = b.spare_mut();
    }

    #[test]
    #[should_panic(expected = "static buffer overflow")]
    fn advance_past_capacity_panics() {
        let mut b = StaticBuf::owned(4, 0);
        b.advance(5);
    }

    #[test]
    fn pooled_buffer_behaves_like_owned() {
        let pool = crate::pool::BufPool::new(crate::stats::Stats::new());
        let mut b = StaticBuf::pooled(pool.checkout(16), 3);
        assert!(b.is_owned());
        assert_eq!(b.origin(), 3);
        assert_eq!(b.capacity(), 16);
        b.spare_mut()[..4].copy_from_slice(b"abcd");
        b.advance(4);
        assert_eq!(b.filled(), b"abcd");
        assert_eq!(b.spare(), 12);
        b.clear();
        assert!(b.is_empty());
        drop(b);
        // The slab went back to the pool.
        assert_eq!(pool.free_count(), 1);
    }
}
