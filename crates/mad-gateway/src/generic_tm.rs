//! The Generic Transmission Module (paper §6.1).
//!
//! Raw forwarding between heterogeneous transmission modules is impossible
//! because each network's BMM groups buffers differently; re-grouping at
//! every gateway would be prohibitive. The paper's answer: route **all**
//! inter-cluster traffic through one *Generic TM*, used by both end nodes
//! as the interface between their BMMs and the real TMs, so data is handled
//! identically on both ends and gateways can forward fragments blindly.
//!
//! The Generic TM here is a [`TransmissionModule`] fed by the aggregating
//! BMM: each user block is fragmented — **zero-copy, by slicing** — into
//! MTU-bounded payloads, each prefixed by its self-description
//! ([`FragHeader`]) and pushed through the *real* TMs of the first hop
//! channel, selected by the hop PMM's own switch function. A fragment thus
//! rides BIP's rendezvous path or SISCI's dual-buffered PIO exactly as
//! native traffic would, and the receiving end reassembles fragments
//! directly into the user's destination blocks. Fragments never span
//! blocks, so no regrouping state exists anywhere and gateways stay
//! stateless. Madeleine II's portability is untouched: nothing here names
//! a protocol.
//!
//! ### Failover
//!
//! A virtual channel may carry **alternate routes**
//! ([`crate::vchannel::VirtualChannelSpec::with_alternate`]). Sends use the
//! first live route that reaches the destination; when a hop send fails
//! (retransmission exhausted, peer dead), the route is marked down, the
//! whole block restarts from offset 0 on the next live route, and the
//! failover is counted and traced. Receivers accept a fragment only when
//! its header offset matches the bytes already reassembled — a stale tail
//! of an aborted attempt is drained and discarded, and an offset-0 fragment
//! on a partially filled block signals a restart (the partial progress is
//! discarded). With a single healthy route none of this machinery runs.

use crate::route::Route;
use madeleine::bmm::{RecvBmm, SendBmm, SendPolicy};
use madeleine::channel::Channel;
use madeleine::config::HostModel;
use madeleine::error::{MadError, MadResult};
use madeleine::flags::{RecvMode, SendMode};
use madeleine::pmm::Pmm;
use madeleine::pool::{BufPool, PooledBuf};
use madeleine::stats::Stats;
use madeleine::tm::{TmCaps, TmId, TransmissionModule};
use madeleine::trace::{TraceEvent, Tracer};
use madeleine::wire::{FragHeader, FRAG_HEADER_LEN};
use madsim_net::eventcount::EventCount;
use madsim_net::time;
use madsim_net::NodeId;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Send one logical buffer through a hop channel's real TMs, honouring the
/// hop's own TM selection and buffer policy, waited out in place.
pub(crate) fn hop_send(
    pmm: &Arc<dyn Pmm>,
    next: NodeId,
    data: &[u8],
    rmode: RecvMode,
    host: HostModel,
    stats: &Arc<Stats>,
) -> MadResult<()> {
    let id = pmm.select(data.len(), SendMode::Cheaper, rmode);
    let mut bmm = SendBmm::new(pmm.policy(id), pmm.tm(id), next, host, Arc::clone(stats));
    bmm.pack(data, SendMode::Cheaper)?;
    bmm.flush()?;
    bmm.wait_out()
}

/// Receive one logical buffer from a hop channel (mirror of [`hop_send`]).
pub(crate) fn hop_recv(
    pmm: &Arc<dyn Pmm>,
    from: NodeId,
    dst: &mut [u8],
    rmode: RecvMode,
    host: HostModel,
    stats: &Arc<Stats>,
) -> MadResult<()> {
    let id = pmm.select(dst.len(), SendMode::Cheaper, rmode);
    let mut bmm = RecvBmm::new(pmm.policy(id), pmm.tm(id), from, host, Arc::clone(stats));
    bmm.unpack_express_now(dst)
}

/// Send a complete fragment (header + payload) down a hop.
pub(crate) fn send_fragment(
    pmm: &Arc<dyn Pmm>,
    next: NodeId,
    header: &FragHeader,
    payload: &[u8],
    host: HostModel,
    stats: &Arc<Stats>,
) -> MadResult<()> {
    hop_send(pmm, next, &header.to_wire(), RecvMode::Express, host, stats)?;
    if !payload.is_empty() {
        hop_send(pmm, next, payload, RecvMode::Cheaper, host, stats)?;
    }
    Ok(())
}

/// Receive the header of the next fragment from `from`. The header length
/// is fixed, so the exact-length read stays symmetric with the sender
/// without any prediction.
pub(crate) fn recv_fragment_header(
    pmm: &Arc<dyn Pmm>,
    from: NodeId,
    host: HostModel,
    stats: &Arc<Stats>,
) -> MadResult<FragHeader> {
    let mut hdr = [0u8; FRAG_HEADER_LEN];
    hop_recv(pmm, from, &mut hdr, RecvMode::Express, host, stats)?;
    FragHeader::from_wire(&hdr)
}

/// One route of a virtual channel, with its hop protocol modules and
/// health flag.
pub(crate) struct RouteState {
    route: Arc<Route>,
    /// `hops[i]` is hop *i*'s channel, present for the hops this node
    /// belongs to.
    hops: Vec<Option<Arc<Channel>>>,
    /// Set once a send on this route fails; the route is never retried.
    down: AtomicBool,
    /// Header of a fragment whose payload transfer was initiated early
    /// (`(neighbor, header)`): the protocol-level handshake has fired, the
    /// data is in flight while we do other work.
    prefetched: Mutex<Option<(NodeId, FragHeader)>>,
}

impl RouteState {
    pub(crate) fn new(route: Arc<Route>, hops: Vec<Option<Arc<Channel>>>) -> Self {
        RouteState {
            route,
            hops,
            down: AtomicBool::new(false),
            prefetched: Mutex::new(None),
        }
    }

    fn is_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    fn mark_down(&self) {
        self.down.store(true, Ordering::Release);
    }

    /// Both endpoints are members of this route.
    fn reaches(&self, a: NodeId, b: NodeId) -> bool {
        !self.route.hops_of(a).is_empty() && !self.route.hops_of(b).is_empty()
    }

    /// This node's single hop on the route (endpoints only).
    fn my_hop(&self, me: NodeId) -> usize {
        let hops = self.route.hops_of(me);
        assert_eq!(
            hops.len(),
            1,
            "virtual-channel endpoints must not be gateways (node {me})"
        );
        hops[0]
    }

    fn hop(&self, hop: usize) -> &Channel {
        self.hops[hop]
            .as_deref()
            .expect("node holds the channels of its own hops")
    }

    /// Block until this endpoint's hop announces a fragment on its rail-0
    /// PMM — where fragments are read from, however many rails the hop
    /// has — through the hop channel's own poll policy.
    fn wait_announced(&self, me: NodeId) -> NodeId {
        let hop = self.hop(self.my_hop(me));
        hop.poll_policy()
            .wait(hop.arrivals(), false, || hop.pmm().poll_incoming())
    }
}

/// A fragment pulled off the wire before its block was asked for.
struct Pending {
    offset: usize,
    payload: PooledBuf,
}

/// The Generic TM of one end node on one virtual channel.
pub struct GenericTm {
    /// Primary route first, then alternates, in declaration order.
    routes: Vec<RouteState>,
    me: NodeId,
    mtu: usize,
    host: HostModel,
    stats: Arc<Stats>,
    /// Shared with the virtual channel, so failover events land in the
    /// same stream as the channel's pack/unpack trace.
    tracer: Arc<Tracer>,
    /// Staging memory for fragments that must be buffered (interleaved
    /// sources, look-ahead ingestion): recycled slabs, not fresh `Vec`s.
    pool: BufPool,
    /// Fragments already pulled off the wire, queued by originating node.
    pending: Mutex<HashMap<NodeId, VecDeque<Pending>>>,
    /// The node's arrivals count: a receive polling several routes parks
    /// on it until one of them announces a fragment.
    arrivals: Arc<EventCount>,
}

impl GenericTm {
    pub(crate) fn new(
        routes: Vec<RouteState>,
        me: NodeId,
        mtu: usize,
        host: HostModel,
        stats: Arc<Stats>,
        tracer: Arc<Tracer>,
        arrivals: Arc<EventCount>,
    ) -> Self {
        assert!(!routes.is_empty(), "a virtual channel needs a route");
        let pool = BufPool::new(Arc::clone(&stats));
        GenericTm {
            routes,
            me,
            mtu,
            host,
            stats,
            tracer,
            pool,
            pending: Mutex::new(HashMap::new()),
            arrivals,
        }
    }

    /// Routes this endpoint can currently receive on.
    fn live_recv_routes(&self) -> impl Iterator<Item = (usize, &RouteState)> {
        self.routes
            .iter()
            .enumerate()
            .filter(|(_, rs)| !rs.is_down() && !rs.route.hops_of(self.me).is_empty())
    }

    /// A receive-side route failed while ingesting: take it out of the
    /// poll set so the remaining routes keep the channel alive.
    fn recv_route_failed(&self, ri: usize) {
        self.routes[ri].mark_down();
        self.tracer.record(TraceEvent::RouteDown { route: ri });
    }

    /// Pull the next fragment off the wire (blocking) and queue it; returns
    /// its originating node, or `None` if the ingest failed and the route
    /// was dropped.
    fn ingest_one(&self, ri: usize) -> Option<NodeId> {
        match self.try_ingest_one(ri) {
            Ok(src) => Some(src),
            Err(_) => {
                self.recv_route_failed(ri);
                None
            }
        }
    }

    fn try_ingest_one(&self, ri: usize) -> MadResult<NodeId> {
        let rs = &self.routes[ri];
        let hop = rs.my_hop(self.me);
        let pmm = rs.hop(hop).pmm();
        let (neighbor, h) = match rs.prefetched.lock().take() {
            Some(x) => x,
            None => {
                let neighbor = rs.wait_announced(self.me);
                let h = recv_fragment_header(pmm, neighbor, self.host, &self.stats)?;
                (neighbor, h)
            }
        };
        assert_eq!(
            h.dst, self.me,
            "end node {} received a fragment addressed to {} — broken route?",
            self.me, h.dst
        );
        let mut payload = self.pool.checkout(h.len);
        if h.len > 0 {
            hop_recv(
                pmm,
                neighbor,
                &mut payload.spare_mut()[..h.len],
                RecvMode::Cheaper,
                self.host,
                &self.stats,
            )?;
            payload.advance(h.len);
        }
        let frag = Pending {
            offset: h.offset,
            payload,
        };
        self.pending
            .lock()
            .entry(h.src)
            .or_default()
            .push_back(frag);
        // Look ahead: if another fragment is already announced, read its
        // header now and fire the payload TM's handshake so the transfer
        // (a background NIC operation) overlaps our caller's copy-out.
        self.try_prefetch_next(ri)?;
        Ok(h.src)
    }

    fn try_prefetch_next(&self, ri: usize) -> MadResult<()> {
        let rs = &self.routes[ri];
        let mut slot = rs.prefetched.lock();
        if slot.is_some() {
            return Ok(());
        }
        let hop = rs.my_hop(self.me);
        let pmm = rs.hop(hop).pmm();
        if let Some(neighbor) = pmm.poll_incoming() {
            let h = recv_fragment_header(pmm, neighbor, self.host, &self.stats)?;
            if h.len > 0 {
                let id = pmm.select(h.len, SendMode::Cheaper, RecvMode::Cheaper);
                pmm.tm(id).prefetch(neighbor);
            }
            *slot = Some((neighbor, h));
        }
        Ok(())
    }

    /// Some node with a queued or announced fragment, if any (never
    /// consumes wire data for already-queued fragments — peeks the pending
    /// queue first, then the live routes' hop PMMs).
    pub(crate) fn poll_announced(&self) -> Option<NodeId> {
        if let Some((&src, _)) = self.pending.lock().iter().find(|(_, q)| !q.is_empty()) {
            return Some(src);
        }
        let candidates: Vec<usize> = self.live_recv_routes().map(|(ri, _)| ri).collect();
        for ri in candidates {
            let rs = &self.routes[ri];
            if rs.prefetched.lock().is_some() {
                return self.ingest_one(ri);
            }
            // Something is on the wire: we do not know the *final* source
            // until its header is read, so ingest it now (blocking is fine:
            // the fragment is already announced by the hop PMM).
            let hop = rs.my_hop(self.me);
            if rs.hop(hop).pmm().poll_incoming().is_some() {
                return self.ingest_one(ri);
            }
        }
        None
    }

    /// Fragment one block and stream it down `rs`, tagging each fragment
    /// with its offset so the receiver can validate reassembly.
    fn send_block_on(&self, rs: &RouteState, dst: NodeId, data: &[u8]) -> MadResult<()> {
        let (hop, next) = rs.route.next_leg(self.me, dst);
        let pmm = rs.hop(hop).pmm();
        let mut offset = 0usize;
        for chunk in data.chunks(self.mtu.max(1)) {
            let header = FragHeader {
                src: self.me,
                dst,
                len: chunk.len(),
                offset,
            };
            send_fragment(pmm, next, &header, chunk, self.host, &self.stats)?;
            offset += chunk.len();
        }
        Ok(())
    }

    /// Block until some live receive route announces a fragment; reads its
    /// header (and fires the payload prefetch). Errors drop the failing
    /// route; `ChannelDown` is returned once no live route remains.
    fn next_fragment(&self) -> MadResult<(usize, NodeId, FragHeader)> {
        loop {
            let candidates: Vec<usize> = self.live_recv_routes().map(|(ri, _)| ri).collect();
            // A fragment this route prefetched, or one announced on its hop.
            let announced = |ri: usize| {
                let rs = &self.routes[ri];
                match rs.prefetched.lock().take() {
                    Some((neighbor, h)) => Some((ri, neighbor, Some(h))),
                    None => Some((ri, rs.hop(rs.my_hop(self.me)).pmm().poll_incoming()?, None)),
                }
            };
            let (ri, neighbor, prefetched) = match candidates[..] {
                [] => return Err(MadError::ChannelDown),
                // Single healthy route: block in the hop channel's own wait
                // (the zero-fault fast path, identical to a plain channel).
                [ri] => announced(ri)
                    .unwrap_or_else(|| (ri, self.routes[ri].wait_announced(self.me), None)),
                // Several: poll them, parking on the node's arrivals.
                _ => {
                    let poll = || candidates.iter().find_map(|&ri| announced(ri));
                    let hit = self.arrivals.wait_timeout(0, None, poll);
                    hit.expect("a wait without a timeout only succeeds")
                }
            };
            if let Some(h) = prefetched {
                return Ok((ri, neighbor, h));
            }
            let pmm = self.routes[ri].hop(self.routes[ri].my_hop(self.me)).pmm();
            match recv_fragment_header(pmm, neighbor, self.host, &self.stats) {
                Ok(h) => {
                    if h.len > 0 {
                        let id = pmm.select(h.len, SendMode::Cheaper, RecvMode::Cheaper);
                        pmm.tm(id).prefetch(neighbor);
                    }
                    return Ok((ri, neighbor, h));
                }
                Err(MadError::CorruptStream(what)) => {
                    // The stream cannot be resynchronized: not a route
                    // fault but a wiring error — surface it.
                    return Err(MadError::CorruptStream(what));
                }
                Err(_) => self.recv_route_failed(ri),
            }
        }
    }

    /// Count and trace a discarded fragment (or discarded partial
    /// reassembly) from `src`.
    fn discard(&self, src: NodeId) {
        self.stats.record_frag_discarded();
        self.tracer.record(TraceEvent::FragmentDiscarded { src });
    }

    /// Drain a fragment payload nobody wants into scratch memory.
    fn drain_payload(&self, ri: usize, neighbor: NodeId, len: usize) -> MadResult<()> {
        if len == 0 {
            return Ok(());
        }
        let rs = &self.routes[ri];
        let pmm = rs.hop(rs.my_hop(self.me)).pmm();
        let mut scratch = self.pool.checkout(len);
        hop_recv(
            pmm,
            neighbor,
            &mut scratch.spare_mut()[..len],
            RecvMode::Cheaper,
            self.host,
            &self.stats,
        )
    }
}

impl TransmissionModule for GenericTm {
    fn name(&self) -> &'static str {
        "generic"
    }

    fn caps(&self) -> TmCaps {
        TmCaps {
            static_buffers: false,
            buffer_cap: usize::MAX,
            gather: false,
        }
    }

    /// Fragment one block into MTU-bounded slices — no copy; the slices go
    /// straight to the hop TM. On failure the route is marked down and the
    /// whole block restarts on the next live route.
    fn send_buffer(&self, dst: NodeId, data: &[u8]) -> MadResult<()> {
        let mut any_route = false;
        let mut failed_over = false;
        for (ri, rs) in self.routes.iter().enumerate() {
            if !rs.reaches(self.me, dst) {
                continue;
            }
            any_route = true;
            if rs.is_down() {
                continue;
            }
            if failed_over {
                self.stats.record_failover();
                self.tracer.record(TraceEvent::Failover { dst, route: ri });
            }
            match self.send_block_on(rs, dst, data) {
                Ok(()) => return Ok(()),
                Err(_) => {
                    rs.mark_down();
                    self.tracer.record(TraceEvent::RouteDown { route: ri });
                    failed_over = true;
                }
            }
        }
        Err(if any_route {
            MadError::ChannelDown
        } else {
            MadError::NoRoute
        })
    }

    fn send_buffer_group(&self, dst: NodeId, bufs: &[&[u8]]) -> MadResult<()> {
        // Fragments never span blocks: each block fragments independently
        // (still by slicing — copy-free), so the receiver can reassemble
        // into its destination blocks with no description beyond the
        // per-fragment header. No native scatter/gather on a virtual
        // channel: `caps().gather` stays false, so the aggregated flush is
        // not counted as a hardware gather.
        for b in bufs {
            if !b.is_empty() {
                self.send_buffer(dst, b)?;
            }
        }
        Ok(())
    }

    /// Reassemble `dst` from its fragments, receiving payloads **directly
    /// into the destination** whenever the next wire fragment is ours.
    ///
    /// While the block is incomplete another fragment is *certain* to
    /// come, so the next header is read (and the payload TM's handshake
    /// fired — see [`TransmissionModule::prefetch`]) **before** the current
    /// payload's wait finishes consuming the clock: the next transfer
    /// overlaps this one, the paper's pipelining claim at the end nodes.
    ///
    /// A fragment is accepted only if its offset equals the bytes already
    /// reassembled. Offset 0 against a partial block means the sender
    /// restarted it on another route: the partial progress is discarded.
    /// Anything else is a stale tail of an aborted attempt and is drained.
    fn receive_buffer(&self, src: NodeId, dst: &mut [u8]) -> MadResult<()> {
        let mut filled = 0;
        while filled < dst.len() {
            // Buffered fragment first (preserves per-source order).
            if let Some(p) = self
                .pending
                .lock()
                .get_mut(&src)
                .and_then(|q| q.pop_front())
            {
                if p.offset == 0 && filled > 0 {
                    // The sender restarted this block: drop our progress.
                    self.discard(src);
                    filled = 0;
                } else if p.offset != filled {
                    self.discard(src);
                    continue;
                }
                let b = p.payload;
                assert!(
                    filled + b.len() <= dst.len(),
                    "fragment overruns receive block: asymmetric traffic?"
                );
                dst[filled..filled + b.len()].copy_from_slice(&b);
                time::advance(self.host.memcpy(b.len()));
                self.stats.record_copy(b.len());
                filled += b.len();
                continue;
            }
            // Pull the next fragment off the wire. Blocking is safe: this
            // block is incomplete, so a fragment for it must still arrive.
            let (ri, neighbor, h) = self.next_fragment()?;
            assert_eq!(h.dst, self.me, "misrouted fragment");
            if h.src == src {
                if h.offset == 0 && filled > 0 {
                    self.discard(src);
                    filled = 0;
                } else if h.offset != filled {
                    self.discard(src);
                    self.drain_payload(ri, neighbor, h.len)?;
                    continue;
                }
                assert!(
                    filled + h.len <= dst.len(),
                    "fragment overruns receive block: asymmetric traffic?"
                );
                if h.len > 0 {
                    let rs = &self.routes[ri];
                    let pmm = rs.hop(rs.my_hop(self.me)).pmm();
                    hop_recv(
                        pmm,
                        neighbor,
                        &mut dst[filled..filled + h.len],
                        RecvMode::Cheaper,
                        self.host,
                        &self.stats,
                    )?;
                }
                filled += h.len;
            } else {
                // Interleaved flow from another source: buffer it.
                let rs = &self.routes[ri];
                let pmm = rs.hop(rs.my_hop(self.me)).pmm();
                let mut payload = self.pool.checkout(h.len);
                if h.len > 0 {
                    hop_recv(
                        pmm,
                        neighbor,
                        &mut payload.spare_mut()[..h.len],
                        RecvMode::Cheaper,
                        self.host,
                        &self.stats,
                    )?;
                    payload.advance(h.len);
                }
                let frag = Pending {
                    offset: h.offset,
                    payload,
                };
                self.pending
                    .lock()
                    .entry(h.src)
                    .or_default()
                    .push_back(frag);
            }
        }
        Ok(())
    }
}

/// The protocol module wrapping [`GenericTm`]: one TM, StaticCopy policy —
/// "all inter-cluster traffic is handled by a generic TM".
pub struct GenericPmm {
    tms: [Arc<dyn TransmissionModule>; 1],
    generic: Arc<GenericTm>,
}

impl GenericPmm {
    pub(crate) fn new(generic: Arc<GenericTm>) -> Self {
        GenericPmm {
            tms: [Arc::clone(&generic) as Arc<dyn TransmissionModule>],
            generic,
        }
    }
}

impl Pmm for GenericPmm {
    fn name(&self) -> &'static str {
        "generic"
    }

    fn tms(&self) -> &[Arc<dyn TransmissionModule>] {
        &self.tms
    }

    fn select(&self, _len: usize, _s: SendMode, _r: RecvMode) -> TmId {
        0
    }

    fn policy(&self, _id: TmId) -> SendPolicy {
        SendPolicy::Aggregate
    }

    fn poll_incoming(&self) -> Option<NodeId> {
        self.generic.poll_announced()
    }
}
