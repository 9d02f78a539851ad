//! Nonblocking point-to-point: requests, test, wait.
//!
//! Both directions are genuinely nonblocking:
//!
//! * `irecv` posts a request that is matched lazily — `test` makes
//!   progress by draining arrived messages into the match (or the
//!   unexpected queue) without blocking; `wait` blocks until matched.
//! * `isend` posts the whole message to the channel's **progress engine**
//!   ([`madeleine::progress`]) and returns an op handle immediately,
//!   whatever the size and protocol. Frames that need a peer event —
//!   BIP's flow-control credits and its long-message rendezvous — park as
//!   op states (`CreditWait`, `RendezvousWait`) and ship when the event
//!   arrives during a later `test`/`wait`/`waitall` tick. When the CTS
//!   arrives, the transfer is anchored at the *posting* instant in
//!   virtual time: the simulated NIC moved the bytes while the host
//!   computed, which is precisely the compute/communication overlap a
//!   real asynchronous progress engine buys.
//!
//! Historical note: this layer once completed every send inside `isend`
//! itself, so over BIP an `isend` of ≥ 1 kB had `MPI_Ssend`-like timing —
//! the rendezvous blocked until the matching receive posted, like real
//! MPICH over a rendezvous-only device with no progress engine. The op
//! table removed that wart; the blocking [`crate::Mpi::send`] still has
//! rendezvous timing, as it should.
//!
//! `wait`/`waitall` drive the engine through the channel's
//! [`PollPolicy`](madeleine::PollPolicy): a spin policy polls for free, an
//! interrupt/adaptive policy that had to park charges its wakeup latency
//! to this rank's virtual clock (via
//! [`take_pending_wakeup_charge`](madeleine::polling::take_pending_wakeup_charge))
//! — previously these waits busy-spun without ever advancing virtual
//! time, making interrupt-mode timings indistinguishable from spinning.

use crate::comm::Comm;
use crate::p2p::{P2p, Status};
use madeleine::polling::take_pending_wakeup_charge;
use madeleine::OpId;
use madsim_net::time;

/// A pending nonblocking operation.
pub struct Request<'a> {
    kind: Kind<'a>,
}

enum Kind<'a> {
    Recv {
        src: Option<usize>,
        tag: Option<i32>,
        buf: &'a mut [u8],
        done: Option<Status>,
    },
    /// A posted send, owned by the channel's progress engine until the op
    /// retires.
    Send {
        op: OpId,
        dst: usize,
        tag: i32,
        len: usize,
        done: Option<Status>,
    },
}

impl<'a> Request<'a> {
    pub(crate) fn recv(src: Option<usize>, tag: Option<i32>, buf: &'a mut [u8]) -> Self {
        Request {
            kind: Kind::Recv {
                src,
                tag,
                buf,
                done: None,
            },
        }
    }

    pub(crate) fn send_op(op: OpId, dst: usize, tag: i32, len: usize) -> Self {
        Request {
            kind: Kind::Send {
                op,
                dst,
                tag,
                len,
                done: None,
            },
        }
    }

    /// Completed status, if the request already finished.
    pub fn status(&self) -> Option<Status> {
        match &self.kind {
            Kind::Recv { done, .. } | Kind::Send { done, .. } => *done,
        }
    }

    /// Nonblocking progress: attempt to complete this request. A receive
    /// drains arrived messages into the match (or the unexpected queue); a
    /// send ticks the channel's progress engine and consumes the op's
    /// result if it retired.
    ///
    /// # Panics
    /// Panics if a posted send fails terminally (dead peer, channel down)
    /// — the same contract as the blocking send path.
    pub fn test(&mut self, comm: &Comm, p2p: &P2p) -> Option<Status> {
        match &mut self.kind {
            Kind::Send {
                op,
                dst,
                tag,
                len,
                done,
            } => {
                if done.is_some() {
                    return *done;
                }
                match comm.channel().test_op(*op)? {
                    Ok(_) => {
                        let st = Status {
                            source: *dst,
                            tag: *tag,
                            len: *len,
                        };
                        *done = Some(st);
                        Some(st)
                    }
                    Err(e) => panic!("isend to rank {dst} failed: {e}"),
                }
            }
            Kind::Recv {
                src,
                tag,
                buf,
                done,
            } => {
                if done.is_some() {
                    return *done;
                }
                let st = p2p.try_match(comm, *src, *tag, buf);
                *done = st;
                st
            }
        }
    }

    /// Block until complete, driving the channel's progress engine under
    /// its poll policy (see module docs for the wakeup-charge accounting).
    pub fn wait(mut self, comm: &Comm, p2p: &P2p) -> Status {
        let ch = comm.channel();
        let st = ch
            .poll_policy()
            .wait(ch.arrivals(), true, || self.test(comm, p2p));
        // If the policy parked, the wakeup latency counts from the
        // arrival/completion `test` just synchronized with.
        time::advance(take_pending_wakeup_charge());
        st
    }
}

/// Wait for every request; statuses in request order.
pub fn waitall<'a>(comm: &Comm, p2p: &P2p, reqs: Vec<Request<'a>>) -> Vec<Status> {
    let mut reqs: Vec<Option<Request<'a>>> = reqs.into_iter().map(Some).collect();
    let mut out: Vec<Option<Status>> = vec![None; reqs.len()];
    let ch = comm.channel();
    ch.poll_policy().wait(ch.arrivals(), true, || {
        let mut pending = false;
        for (slot, st) in reqs.iter_mut().zip(out.iter_mut()) {
            if st.is_some() {
                continue;
            }
            let req = slot.as_mut().expect("unfinished requests are present");
            if let Some(s) = req.test(comm, p2p) {
                *st = Some(s);
                *slot = None;
            } else {
                pending = true;
            }
        }
        (!pending).then_some(())
    });
    time::advance(take_pending_wakeup_charge());
    out.into_iter().map(|s| s.expect("all complete")).collect()
}
