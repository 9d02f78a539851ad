//! # mad-pm2 — a PM2-style LRPC runtime over Madeleine II
//!
//! PM2 ("Parallel Multithreaded Machine", Namyst & Méhaut — the paper's
//! reference \[10\] and home project) is the RPC-based multithreaded
//! environment Madeleine was designed to serve: its *lightweight remote
//! procedure calls* are exactly the workload §1 and §2.2 motivate — a
//! header the runtime must examine immediately (which service? how large
//! are the arguments?) followed by dynamically-sized argument data that
//! should move with zero copies.
//!
//! This crate reproduces that layer: a service registry, synchronous
//! `rpc` (request + reply), fire-and-forget `async_rpc`, and **re-entrant
//! request pumping** — a node blocked waiting for its reply keeps serving
//! incoming requests, so nested RPC chains (A calls B, whose service calls
//! back into A) cannot deadlock, which is the LRPC scheduling property PM2
//! gets from its thread library.
//!
//! Each message is packed through the ordinary Madeleine machinery: a
//! 20-byte [`LrpcEnvelope`] `receive_EXPRESS` (kind, service, request id,
//! payload length; laid out in [`madeleine::wire`]), then the payload
//! `receive_CHEAPER`.

//! On channels configured with wire-level batching
//! (`ChannelSpec::with_batching`) the PM2 envelope still travels
//! `(CHEAPER, EXPRESS)`: an EXPRESS append closes the coalescing frame,
//! so every call's envelope reaches the peer without waiting out a flush
//! deadline — request latency is unchanged, while small argument payloads
//! ride in the same frame as their envelope. [`Pm2::flush`] exposes the
//! channel-level flush for callers that also post raw CHEAPER traffic.

#![forbid(unsafe_code)]

use bytes::Bytes;
use madeleine::error::{MadError, MadResult};
use madeleine::wire::LrpcEnvelope;
use madeleine::{Channel, RecvMode, SendMode};
use madsim_net::time::{self, VDuration};
use madsim_net::NodeId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-call software overhead of the PM2 layer (service lookup, request
/// bookkeeping, thread hand-off).
pub const PM2_CALL_OVERHEAD_US: f64 = 3.0;

const KIND_REQUEST: u8 = 1;
const KIND_REPLY: u8 = 2;

/// A service: takes the caller's node id and the argument bytes, returns
/// the reply bytes.
pub type Service = Box<dyn Fn(&Pm2, NodeId, Bytes) -> Vec<u8> + Send + Sync>;

/// A PM2 context on one node.
pub struct Pm2 {
    chan: Arc<Channel>,
    services: Mutex<HashMap<u32, Arc<Service>>>,
    next_req: AtomicU64,
    /// Replies that arrived while pumping for a different request.
    parked_replies: Mutex<HashMap<u64, Bytes>>,
}

impl Pm2 {
    /// Attach a PM2 context to a channel (all members do the same).
    pub fn new(chan: Arc<Channel>) -> Arc<Pm2> {
        Arc::new(Pm2 {
            chan,
            services: Mutex::new(HashMap::new()),
            next_req: AtomicU64::new(1),
            parked_replies: Mutex::new(HashMap::new()),
        })
    }

    pub fn me(&self) -> NodeId {
        self.chan.me()
    }

    /// Register (or replace) service `id`.
    pub fn register(
        &self,
        id: u32,
        service: impl Fn(&Pm2, NodeId, Bytes) -> Vec<u8> + Send + Sync + 'static,
    ) {
        self.services.lock().insert(id, Arc::new(Box::new(service)));
    }

    /// Synchronous remote procedure call: ship `args` to `service` on
    /// `dst`, pump incoming traffic (serving requests re-entrantly) until
    /// the reply lands, and return it.
    pub fn rpc(&self, dst: NodeId, service: u32, args: &[u8]) -> Bytes {
        time::advance(VDuration::from_micros_f64(PM2_CALL_OVERHEAD_US));
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
        self.emit(dst, KIND_REQUEST, service, req_id, args);
        loop {
            if let Some(reply) = self.parked_replies.lock().remove(&req_id) {
                return reply;
            }
            self.pump_one();
        }
    }

    /// Fire-and-forget invocation: the service runs on `dst`; its return
    /// value is discarded.
    pub fn async_rpc(&self, dst: NodeId, service: u32, args: &[u8]) {
        time::advance(VDuration::from_micros_f64(PM2_CALL_OVERHEAD_US));
        self.emit(dst, KIND_REQUEST | 0x80, service, 0, args);
    }

    /// Serve exactly `n` incoming requests (replies to our own outstanding
    /// calls do not count).
    pub fn serve(&self, n: usize) {
        let mut served = 0;
        while served < n {
            if self.pump_one() {
                served += 1;
            }
        }
    }

    /// Receive and process one message; `Ok(true)` if it was a request.
    ///
    /// An unknown envelope kind is reported as
    /// [`MadError::CorruptStream`] *after* the message has been fully
    /// drained from the channel, so a caller may log the incident and keep
    /// pumping instead of tearing the whole node down.
    pub fn try_pump_one(&self) -> MadResult<bool> {
        let mut msg = self.chan.begin_unpacking();
        let src = msg.src();
        let mut raw = [0u8; LrpcEnvelope::LEN];
        msg.unpack_express(&mut raw, SendMode::Cheaper);
        let env = LrpcEnvelope::from_wire(&raw)?;
        let mut payload = vec![0u8; env.len];
        if env.len > 0 {
            msg.unpack(&mut payload, SendMode::Cheaper, RecvMode::Cheaper);
        }
        msg.end_unpacking();
        time::advance(VDuration::from_micros_f64(PM2_CALL_OVERHEAD_US));
        let payload = Bytes::from(payload);

        match env.kind & 0x7F {
            KIND_REQUEST => {
                let fire_and_forget = env.kind & 0x80 != 0;
                let service = env.service;
                let svc = self
                    .services
                    .lock()
                    .get(&service)
                    .cloned()
                    .unwrap_or_else(|| panic!("no service registered for id {service}"));
                let reply = svc(self, src, payload);
                if !fire_and_forget {
                    self.emit(src, KIND_REPLY, service, env.req_id, &reply);
                }
                Ok(true)
            }
            KIND_REPLY => {
                self.parked_replies.lock().insert(env.req_id, payload);
                Ok(false)
            }
            other => Err(MadError::corrupt(format!(
                "corrupt PM2 envelope kind {other} from node {src}"
            ))),
        }
    }

    /// [`try_pump_one`](Self::try_pump_one) for contexts that cannot
    /// recover.
    ///
    /// # Panics
    /// Panics on a corrupt envelope.
    fn pump_one(&self) -> bool {
        match self.try_pump_one() {
            Ok(was_request) => was_request,
            Err(e) => panic!("{e}"),
        }
    }

    /// Push any wire-level batch the underlying channel is still
    /// coalescing onto the fabric (see [`Channel::flush`]).
    ///
    /// PM2's own messages never need this — the EXPRESS envelope closes
    /// the batch frame at call time — but a runtime that mixes LRPC with
    /// raw batched CHEAPER traffic on the same channel can use it as a
    /// send-side barrier before blocking in [`serve`](Self::serve).
    pub fn flush(&self) -> MadResult<()> {
        self.chan.flush()
    }

    fn emit(&self, dst: NodeId, kind: u8, service: u32, req_id: u64, payload: &[u8]) {
        let env = LrpcEnvelope {
            kind,
            service,
            req_id,
            len: payload.len(),
        }
        .to_wire();
        let mut msg = self.chan.begin_packing(dst);
        msg.pack(&env, SendMode::Cheaper, RecvMode::Express);
        if !payload.is_empty() {
            msg.pack(payload, SendMode::Cheaper, RecvMode::Cheaper);
        }
        msg.end_packing();
    }
}
