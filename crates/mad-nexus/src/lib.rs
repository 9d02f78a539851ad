//! # mad-nexus — Nexus/Madeleine II (Rust reproduction of paper §5.3.2)
//!
//! Nexus (Foster, Kesselman, Tuecke) is the multithreaded communication
//! layer of Globus, built around **remote service requests** (RSR): a
//! message names a *handler* on the destination context; arrival dispatches
//! the handler with the message buffer. Nexus is designed for wide-area
//! interoperability and pays for it with heavy per-message machinery —
//! which is exactly why the paper ports it onto Madeleine II for the
//! cluster scale: "even with a rather heavy interface and without any
//! sophisticated optimization, our Nexus/Madeleine II implementation is
//! very effective on a high-performance network like SCI (with a minimal
//! latency below 25 µs)".
//!
//! This crate reproduces that port: an RSR layer whose transport is one
//! Madeleine message per request (envelope `receive_EXPRESS`, payload
//! `receive_CHEAPER`), with the marshaling/dispatch overhead of Nexus
//! charged explicitly. Running it over the TCP channel reproduces the
//! Fig. 7 baseline; over SISCI, the fast curve. As in the paper, Madeleine
//! is "currently seen as one protocol by Nexus": a Globus application
//! would keep plain TCP for wide-area links and this module for the
//! cluster fabric.

#![forbid(unsafe_code)]

use bytes::Bytes;
use madeleine::wire::RsrEnvelope;
use madeleine::{Channel, RecvMode, SendMode};
use madsim_net::time::{self, VDuration};
use madsim_net::NodeId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Sender-side Nexus software overhead per RSR (marshaling, startpoint
/// lookup, protocol module dispatch). Calibrated so the SISCI one-way
/// latency lands just under the paper's 25 µs.
pub const NEXUS_SEND_OVERHEAD_US: f64 = 7.5;
/// Receiver-side overhead (unmarshaling, handler-thread activation).
pub const NEXUS_DISPATCH_OVERHEAD_US: f64 = 8.5;

/// An incoming remote service request.
pub struct Rsr {
    /// Sending node.
    pub src: NodeId,
    /// Handler id the sender named.
    pub handler: u32,
    /// The request buffer.
    pub data: Bytes,
}

type Handler = Box<dyn Fn(&Nexus, Rsr) + Send + Sync>;

/// A Nexus context bound to one Madeleine channel.
pub struct Nexus {
    chan: Arc<Channel>,
    handlers: Mutex<HashMap<u32, Handler>>,
}

impl Nexus {
    /// Attach a context to a channel (every member does the same).
    pub fn new(chan: Arc<Channel>) -> Arc<Nexus> {
        Arc::new(Nexus {
            chan,
            handlers: Mutex::new(HashMap::new()),
        })
    }

    /// The node this context lives on.
    pub fn me(&self) -> NodeId {
        self.chan.me()
    }

    /// All context nodes (channel members).
    pub fn nodes(&self) -> &[NodeId] {
        self.chan.peers()
    }

    /// Register (or replace) the handler for `id`.
    pub fn register(&self, id: u32, handler: impl Fn(&Nexus, Rsr) + Send + Sync + 'static) {
        self.handlers.lock().insert(id, Box::new(handler));
    }

    /// Issue a remote service request: `handler` runs on `dst` with `data`.
    pub fn send_rsr(&self, dst: NodeId, handler: u32, data: &[u8]) {
        time::advance(VDuration::from_micros_f64(NEXUS_SEND_OVERHEAD_US));
        let env = RsrEnvelope {
            handler,
            len: data.len(),
        }
        .to_wire();
        let mut msg = self.chan.begin_packing(dst);
        msg.pack(&env, SendMode::Cheaper, RecvMode::Express);
        if !data.is_empty() {
            msg.pack(data, SendMode::Cheaper, RecvMode::Cheaper);
        }
        msg.end_packing();
    }

    /// Receive the next RSR without dispatching it.
    pub fn recv_rsr(&self) -> Rsr {
        let mut msg = self.chan.begin_unpacking();
        let src = msg.src();
        let mut raw = [0u8; RsrEnvelope::LEN];
        msg.unpack_express(&mut raw, SendMode::Cheaper);
        let RsrEnvelope { handler, len } =
            RsrEnvelope::from_wire(&raw).expect("an envelope-long unpack decodes");
        let mut data = vec![0u8; len];
        if len > 0 {
            msg.unpack(&mut data, SendMode::Cheaper, RecvMode::Cheaper);
        }
        msg.end_unpacking();
        time::advance(VDuration::from_micros_f64(NEXUS_DISPATCH_OVERHEAD_US));
        Rsr {
            src,
            handler,
            data: Bytes::from(data),
        }
    }

    /// Receive one RSR and run its registered handler; returns the handler
    /// id that ran.
    ///
    /// # Panics
    /// Panics if the named handler was never registered.
    pub fn handle_one(self: &Arc<Self>) -> u32 {
        let rsr = self.recv_rsr();
        let id = rsr.handler;
        // Take the handler out for the call so handlers may re-register or
        // send RSRs without deadlocking on the table lock.
        let h = self
            .handlers
            .lock()
            .remove(&id)
            .unwrap_or_else(|| panic!("no handler registered for id {id}"));
        h(self, rsr);
        self.handlers.lock().entry(id).or_insert(h);
        id
    }

    /// Serve `n` requests.
    pub fn serve(self: &Arc<Self>, n: usize) {
        for _ in 0..n {
            self.handle_one();
        }
    }
}

/// Reserved handler id that shuts a [`Dispatcher`] down.
pub const H_DISPATCHER_STOP: u32 = u32::MAX;

/// A *startpoint* — Nexus's global-pointer abstraction: a remotely
/// invocable reference to one handler on one context. Startpoints are
/// cheap, cloneable, and can be shipped to third parties (here: by value).
#[derive(Clone)]
pub struct Startpoint {
    nexus: Arc<Nexus>,
    dst: NodeId,
    handler: u32,
}

impl Startpoint {
    /// The node this startpoint targets.
    pub fn node(&self) -> NodeId {
        self.dst
    }

    pub fn handler(&self) -> u32 {
        self.handler
    }

    /// Fire the remote service request.
    pub fn rsr(&self, data: &[u8]) {
        self.nexus.send_rsr(self.dst, self.handler, data);
    }
}

/// A background thread draining RSRs on a context — the multithreaded
/// dispatch Nexus integrates with its thread system (and the reason the
/// paper pairs Madeleine II with the Marcel library).
pub struct Dispatcher {
    handle: std::thread::JoinHandle<usize>,
}

impl Dispatcher {
    /// Block until the dispatcher has been stopped (by an RSR to
    /// [`H_DISPATCHER_STOP`]); returns the number of requests it served.
    pub fn join(self) -> usize {
        self.handle.join().expect("dispatcher panicked")
    }
}

impl Nexus {
    /// Build a startpoint to `handler` on `dst`.
    pub fn startpoint(self: &Arc<Self>, dst: NodeId, handler: u32) -> Startpoint {
        Startpoint {
            nexus: Arc::clone(self),
            dst,
            handler,
        }
    }

    /// Spawn a dispatcher thread (with its own virtual clock) serving this
    /// context until a [`H_DISPATCHER_STOP`] request arrives. At most one
    /// thread may drain a channel at a time: do not mix `handle_one` calls
    /// with a running dispatcher.
    pub fn spawn_dispatcher(self: &Arc<Self>, env: &madsim_net::world::NodeEnv) -> Dispatcher {
        let nx = Arc::clone(self);
        let handle = env.spawn_thread(move || {
            let mut served = 0usize;
            loop {
                let rsr = nx.recv_rsr();
                if rsr.handler == H_DISPATCHER_STOP {
                    return served;
                }
                let id = rsr.handler;
                let h = nx
                    .handlers
                    .lock()
                    .remove(&id)
                    .unwrap_or_else(|| panic!("no handler registered for id {id}"));
                h(&nx, rsr);
                nx.handlers.lock().entry(id).or_insert(h);
                served += 1;
            }
        });
        Dispatcher { handle }
    }

    /// Stop the dispatcher running on `dst`.
    pub fn stop_dispatcher_of(&self, dst: NodeId) {
        self.send_rsr(dst, H_DISPATCHER_STOP, &[]);
    }
}

/// Nexus-style typed buffer marshaling (`nexus_put_*` / `nexus_get_*`),
/// in the library's one wire codec: reads are checked, so a truncated
/// buffer or a non-UTF-8 string is a `CorruptStream` error.
pub use madeleine::wire::{Reader as GetBuffer, Writer as PutBuffer};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut b = PutBuffer::new();
        b.put_u32(7)
            .put_f64(2.5)
            .put_str("nexus")
            .put_bytes(&[1, 2, 3]);
        let mut g = GetBuffer::new(b.as_slice());
        assert_eq!(g.get_u32().unwrap(), 7);
        assert_eq!(g.get_f64().unwrap(), 2.5);
        assert_eq!(g.get_str().unwrap(), "nexus");
        assert_eq!(g.get_bytes().unwrap(), &[1, 2, 3]);
        assert!(g.is_empty());
    }

    #[test]
    fn get_buffer_reports_truncation_and_bad_utf8_as_corruption() {
        use madeleine::MadError;
        let mut b = PutBuffer::new();
        b.put_u32(7).put_f64(2.5).put_str("nexus");
        let whole = b.as_slice();
        for cut in 0..whole.len() {
            let mut g = GetBuffer::new(&whole[..cut]);
            let got = g
                .get_u32()
                .and_then(|_| g.get_f64())
                .and_then(|_| g.get_str().map(drop));
            assert!(
                matches!(got, Err(MadError::CorruptStream(_))),
                "{cut}-byte prefix gave {got:?}"
            );
        }
        let mut bad = PutBuffer::new();
        bad.put_bytes(&[0x6E, 0xFF, 0x78]);
        match GetBuffer::new(bad.as_slice()).get_str() {
            Err(MadError::CorruptStream(what)) => assert!(what.contains("UTF-8"), "{what}"),
            other => panic!("expected CorruptStream, got {other:?}"),
        }
    }
}
