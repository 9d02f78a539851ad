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
fn hop_send(
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

/// Receive a `len`-byte fragment payload from `from` into pooled staging
/// memory.
pub(crate) fn stage(
    pmm: &Arc<dyn Pmm>,
    from: NodeId,
    len: usize,
    pool: &BufPool,
    host: HostModel,
    stats: &Arc<Stats>,
) -> MadResult<PooledBuf> {
    let mut buf = pool.checkout(len);
    if len > 0 {
        let spare = &mut buf.spare_mut()[..len];
        hop_recv(pmm, from, spare, RecvMode::Cheaper, host, stats)?;
        buf.advance(len);
    }
    Ok(buf)
}

/// One route of a virtual channel as an end node sees it: the node's one
/// hop channel on it, and the route's health flag.
pub(crate) struct RouteState {
    route: Arc<Route>,
    /// The channel of this end node's only hop on the route: fragments
    /// leave on it and are read from its rail-0 PMM, however many rails
    /// it has.
    hop: Arc<Channel>,
    /// Set once a send on this route fails; the route is never retried.
    down: AtomicBool,
    /// Header of a fragment whose payload transfer was initiated early
    /// (`(neighbor, header)`): the protocol-level handshake has fired, the
    /// data is in flight while we do other work.
    prefetched: Mutex<Option<(NodeId, FragHeader)>>,
}

impl RouteState {
    pub(crate) fn new(route: Arc<Route>, hop: Arc<Channel>) -> Self {
        RouteState {
            route,
            hop,
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

    /// Block until the hop announces a fragment, through the hop channel's
    /// own poll policy.
    fn wait_announced(&self) -> NodeId {
        let hop = &self.hop;
        hop.poll_policy()
            .wait(hop.arrivals(), false, || hop.pmm().poll_incoming())
    }
}

/// A fragment pulled off the wire before its block was asked for.
struct Pending {
    offset: usize,
    payload: PooledBuf,
}

/// A fragment whose header is read: its route, the neighbor it came from
/// on that route's hop, and the header.
type Frag = (usize, NodeId, FragHeader);

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

    /// A receive-side route failed: take it out of the poll set so the
    /// remaining routes keep the channel alive.
    fn recv_route_failed(&self, ri: usize) {
        self.routes[ri].mark_down();
        self.tracer.record(TraceEvent::RouteDown { route: ri });
    }

    /// Some node with a queued or announced fragment, if any (never
    /// consumes wire data for already-queued fragments — peeks the pending
    /// queue first, then the live routes).
    pub(crate) fn poll_announced(&self) -> Option<NodeId> {
        if let Some((&src, _)) = self.pending.lock().iter().find(|(_, q)| !q.is_empty()) {
            return Some(src);
        }
        // We do not know the *final* source of an announced fragment until
        // its header is read, so take it in now (its payload is on its way).
        let (ri, from, h) = self.next_fragment(false).ok()??;
        if self.stage_frag(ri, from, &h, true).is_err() {
            self.recv_route_failed(ri);
            return None;
        }
        // Look ahead: if another fragment is already announced, read its
        // header now (which fires the payload TM's handshake) so the
        // transfer, a background NIC operation, overlaps our caller's
        // copy-out.
        if let Ok(Some((ri, from, next))) = self.next_fragment(false) {
            *self.routes[ri].prefetched.lock() = Some((from, next));
        }
        Some(h.src)
    }

    /// Fragment one block and stream it down `rs`, tagging each fragment
    /// with its offset so the receiver can validate reassembly.
    fn send_block_on(&self, rs: &RouteState, dst: NodeId, data: &[u8]) -> MadResult<()> {
        let (_, next) = rs.route.next_leg(self.me, dst);
        let pmm = rs.hop.pmm();
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

    /// The next fragment on a live receive route: the one a route's look-
    /// ahead read, else one a route's hop announces, whose header is read
    /// here (see [`read_header`](Self::read_header)). With `wait`, block
    /// until one comes; without, `Ok(None)` when none is there. A route
    /// whose read fails is dropped; `ChannelDown` once none is left.
    fn next_fragment(&self, wait: bool) -> MadResult<Option<Frag>> {
        loop {
            let live: Vec<usize> = (0..self.routes.len())
                .filter(|&ri| !self.routes[ri].is_down())
                .collect();
            // A fragment this route looked ahead at, or one its hop announces.
            let announced = |ri: usize| {
                let rs = &self.routes[ri];
                match rs.prefetched.lock().take() {
                    Some((from, h)) => Some((ri, from, Some(h))),
                    None => Some((ri, rs.hop.pmm().poll_incoming()?, None)),
                }
            };
            let hit = match live[..] {
                [] => return Err(MadError::ChannelDown),
                _ if !wait => live.iter().find_map(|&ri| announced(ri)),
                // Single healthy route: block in the hop channel's own wait
                // (the zero-fault fast path, identical to a plain channel).
                [ri] => {
                    announced(ri).or_else(|| Some((ri, self.routes[ri].wait_announced(), None)))
                }
                // Several: poll them, parking on the node's arrivals (a wait
                // without a timeout only returns a hit).
                _ => self
                    .arrivals
                    .wait_timeout(0, None, || live.iter().find_map(|&ri| announced(ri))),
            };
            let Some((ri, from, held)) = hit else {
                return Ok(None);
            };
            match held.map_or_else(|| self.read_header(ri, from), |h| Ok(Some(h))) {
                Ok(Some(h)) => return Ok(Some((ri, from, h))),
                // Misaddressed, drained and counted: read on.
                Ok(None) => {}
                Err(e) => {
                    self.recv_route_failed(ri);
                    // A corrupt stream cannot be resynchronized: not a route
                    // fault but a wiring error — surface it.
                    if let MadError::CorruptStream(_) = e {
                        return Err(e);
                    }
                }
            }
        }
    }

    /// Read the header of the fragment `from` announced on route `ri`, and
    /// fire its payload TM's handshake (see
    /// [`TransmissionModule::prefetch`]) so the transfer runs while the
    /// caller works. A fragment addressed to another node — a broken route —
    /// is drained, so the hop's stream stays in step, counted, and skipped:
    /// `Ok(None)`.
    fn read_header(&self, ri: usize, from: NodeId) -> MadResult<Option<FragHeader>> {
        let pmm = self.routes[ri].hop.pmm();
        let h = recv_fragment_header(pmm, from, self.host, &self.stats)?;
        if h.len > 0 {
            let id = pmm.select(h.len, SendMode::Cheaper, RecvMode::Cheaper);
            pmm.tm(id).prefetch(from);
        }
        if h.dst == self.me {
            return Ok(Some(h));
        }
        self.stage_frag(ri, from, &h, false)?;
        self.discard(h.src);
        Ok(None)
    }

    /// [`stage`] fragment `h`'s payload off route `ri` and, with `queue`,
    /// queue it under its source; without, drop it (a drain).
    fn stage_frag(&self, ri: usize, from: NodeId, h: &FragHeader, queue: bool) -> MadResult<()> {
        let pmm = self.routes[ri].hop.pmm();
        let payload = stage(pmm, from, h.len, &self.pool, self.host, &self.stats)?;
        if queue {
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
        Ok(())
    }

    /// The offset rule: may a `len`-byte fragment of `src`'s block at
    /// `offset` be taken in at `filled` of the block's `cap` bytes? Offset 0
    /// against a partial block means the sender restarted it on another
    /// route: the partial progress is discarded and the fragment taken. Any
    /// other offset but `filled` is a stale tail of an aborted attempt, and
    /// is discarded. A fragment that would overrun the block is a corrupt
    /// stream.
    fn accept(
        &self,
        src: NodeId,
        offset: usize,
        len: usize,
        filled: &mut usize,
        cap: usize,
    ) -> MadResult<bool> {
        if offset == 0 && *filled > 0 {
            self.discard(src);
            *filled = 0;
        } else if offset != *filled {
            self.discard(src);
            return Ok(false);
        }
        if *filled + len > cap {
            return Err(MadError::corrupt("fragment overruns its receive block"));
        }
        Ok(true)
    }

    /// Count and trace a discarded fragment (or discarded partial
    /// reassembly) from `src`.
    fn discard(&self, src: NodeId) {
        self.stats.record_frag_discarded();
        self.tracer.record(TraceEvent::FragmentDiscarded { src });
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

    /// Reassemble `dst` from its fragments, receiving a payload **directly
    /// into the destination** whenever the next wire fragment is this
    /// block's; another source's fragment is staged in pooled memory and
    /// queued for its own block. Reading a header fires its payload TM's
    /// handshake, but only [`poll_announced`](GenericTm::poll_announced)
    /// reads a header ahead of the payload it takes in.
    ///
    /// Every fragment goes through the offset rule
    /// ([`accept`](GenericTm::accept)): one a block cannot take is drained
    /// and dropped, and one that overruns the block fails the receive with
    /// [`MadError::CorruptStream`].
    fn receive_buffer(&self, src: NodeId, dst: &mut [u8]) -> MadResult<()> {
        let mut filled = 0;
        while filled < dst.len() {
            // Buffered fragment first (preserves per-source order).
            let queued = self
                .pending
                .lock()
                .get_mut(&src)
                .and_then(|q| q.pop_front());
            if let Some(Pending { offset, payload }) = queued {
                let len = payload.len();
                if self.accept(src, offset, len, &mut filled, dst.len())? {
                    dst[filled..filled + len].copy_from_slice(&payload);
                    time::advance(self.host.memcpy(len));
                    self.stats.record_copy(len);
                    filled += len;
                }
                continue;
            }
            // Pull the next fragment off the wire. Blocking is safe: this
            // block is incomplete, so a fragment for it must still arrive.
            let f = self.next_fragment(true)?;
            let (ri, from, h) = f.expect("a waiting read returns a fragment");
            if h.src != src {
                // Interleaved flow from another source: buffer it.
                self.stage_frag(ri, from, &h, true)?;
                continue;
            }
            let take = self.accept(src, h.offset, h.len, &mut filled, dst.len());
            if let Ok(true) = take {
                if h.len > 0 {
                    let pmm = self.routes[ri].hop.pmm();
                    let into = &mut dst[filled..filled + h.len];
                    hop_recv(pmm, from, into, RecvMode::Cheaper, self.host, &self.stats)?;
                }
                filled += h.len;
            } else {
                // A stale tail or an overrun: drain it so the stream stays
                // in step.
                self.stage_frag(ri, from, &h, false)?;
                take?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vchannel::{VirtualChannel, VirtualChannelSpec};
    use madeleine::{Config, Madeleine, Protocol};
    use madsim_net::{NetKind, WorldBuilder};

    /// Two Myrinet nodes joined by a one-hop virtual channel.
    fn one_hop() -> (madsim_net::World, Config, VirtualChannelSpec) {
        let mut b = WorldBuilder::new(2);
        b.network("myr0", NetKind::Myrinet, &[0, 1]);
        let config = Config::one("myr", "myr0", Protocol::Bip);
        (
            b.build(),
            config,
            VirtualChannelSpec::new("vc", &["myr"], 4096),
        )
    }

    /// A fragment addressed to another node reaching an end node — a broken
    /// route — is drained, counted once and dropped: the message sent after
    /// it arrives whole.
    #[test]
    fn a_misaddressed_fragment_is_dropped_and_counted() {
        let (world, config, spec) = one_hop();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let vc = VirtualChannel::open(&env, &mad, &config, &spec).expect("endpoint");
            if env.id() == 0 {
                let stray = FragHeader {
                    src: 0,
                    dst: 9,
                    len: 2048,
                    offset: 0,
                };
                let (pmm, host) = (mad.channel("myr").pmm(), env.calib().host);
                send_fragment(pmm, 1, &stray, &[0xEE; 2048], host, &Stats::new())
                    .expect("hop send");
                let mut m = vc.begin_packing(1);
                m.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
                m.end_packing();
            } else {
                let mut got = vec![0u8; data.len()];
                let mut m = vc.begin_unpacking();
                m.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                m.end_unpacking();
                assert_eq!(got, data);
                assert_eq!(vc.stats().frags_discarded(), 1);
            }
        });
    }

    /// A fragment longer than the block it lands in fails the receive with
    /// `CorruptStream` instead of killing the node.
    #[test]
    fn an_overrunning_fragment_is_a_corrupt_stream() {
        let (world, config, spec) = one_hop();
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let vc = VirtualChannel::open(&env, &mad, &config, &spec).expect("endpoint");
            if env.id() == 0 {
                let mut m = vc.begin_packing(1);
                m.pack(&[7; 100], SendMode::Cheaper, RecvMode::Express);
                m.end_packing();
            } else {
                let mut short = [0u8; 50];
                let mut m = vc.begin_unpacking();
                let got = m.try_unpack_express(&mut short, SendMode::Cheaper);
                assert!(matches!(got, Err(MadError::CorruptStream(_))), "{got:?}");
            }
        });
    }
}
