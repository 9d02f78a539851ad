//! SISCI over Dolphin SCI — simulated.
//!
//! SISCI's programming model is shared-memory-like, not message-passing
//! (which is precisely why the first Madeleine's message-oriented internals
//! fit it poorly, motivating Madeleine II):
//!
//! * a node **creates** memory *segments* that remote nodes **connect** to
//!   and map into their address space;
//! * a sender moves data with **PIO**: the CPU writes through the mapped
//!   window, word by word, and the SCI NIC forwards the stream — the
//!   sending CPU is busy for the whole transfer and the transactions cross
//!   the sender's PCI bus as *programmed I/O* (this is what loses against
//!   DMA arbitration in the paper's §6.2.3);
//! * on the receiving node the incoming stream is written to host memory by
//!   the SCI NIC as a *bus-master*, i.e. DMA-class PCI transactions;
//! * synchronization is by writing and polling **flag words** inside the
//!   segment;
//! * D310 NICs also have a **DMA engine** — measured by the authors at a
//!   disappointing ≤35 MB/s, which is why Madeleine II ships the DMA TM
//!   disabled.
//!
//! Segments really exist (a shared byte buffer, grown to the furthest byte
//! stored: a session's segments are sized for every transfer method, and a
//! short world writes a few hundred bytes of one). A flag wait returns the
//! virtual arrival time of the write that satisfied it, so receivers
//! synchronize both real and virtual time. In real time it polls the flag's
//! published value — one atomic load, as on the real hardware — for as many
//! probes as its caller grants it, then parks on the owning node's arrivals
//! count, which every flag write into any of the node's segments notifies.
//! Segments are a property of the SCI network (paper §5.2.1): each
//! network's directory lives in the world that built it, and `connect`
//! waits on that directory's own creation count until the owner has
//! created the segment. Flags are read only through their published value
//! and write history, so a flag write checks its bounds but stores no
//! bytes.
//!
//! Costs: the `sci_pio`, `sci_flag`, `sci_copy` and `sci_dma` rows of the
//! world's [`crate::calib::Calib`].

use crate::eventcount::{EventCount, WaitStats, EVIDENCE_POLLS};
use crate::fault::LinkError;
use crate::frame::NodeId;
use crate::pci::{BusDir, BusKind, PciBus};
use crate::stacks::{link_wait, LINK_BOUND};
use crate::time::{self, VDuration, VTime};
use crate::world::{Adapter, NetKind};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

type SegKey = (NodeId, u32);

/// Marks [`FlagSlot::published`] as written; the low 32 bits hold the value.
const WRITTEN: u64 = 1 << 32;

/// `a` is at or past `b` on the 32-bit serial line a flag counts on (RFC
/// 1982): flags are monotone counters that may wrap, and a waiter never
/// lags the value it waits on by 2^31 or more.
fn reached(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) < 1 << 31
}

/// One flag word of a segment. Slots chain in first-use order (a protocol
/// uses a handful of offsets), so finding one takes no lock.
#[derive(Default)]
struct FlagSlot {
    off: usize,
    /// `WRITTEN | v` for the furthest value `v` written (0: never written)
    /// — what a poll loads. Stored (Release) after the write is in
    /// `history`, so a waiter that loads it (Acquire) finds the entry there.
    published: AtomicU64,
    /// Unconsumed writes, ascending (serially) by value: `(value, virtual
    /// arrival)`.
    history: Mutex<VecDeque<(u32, VTime)>>,
    next: OnceLock<Box<FlagSlot>>,
}

impl FlagSlot {
    /// Has a value at or past `val` been published?
    fn reaches(&self, val: u32) -> bool {
        let p = self.published.load(Ordering::Acquire);
        p != 0 && reached(p as u32, val)
    }

    /// Consume the earliest write with value `>= val`: advance the local
    /// clock to its arrival and prune the history below it (flags are
    /// monotone counters in every protocol built on top). Locks only once
    /// the published value says the write is there.
    fn take(&self, val: u32) -> Option<(u32, VTime)> {
        if !self.reaches(val) {
            return None;
        }
        let mut history = self.history.lock();
        let at = history.partition_point(|&(v, _)| !reached(v, val));
        let hit = *history.get(at)?;
        history.drain(..at);
        drop(history);
        time::advance_to(hit.1);
        Some(hit)
    }
}

struct SegInner {
    /// The bytes stored so far; those past its end read as zeros.
    mem: Mutex<Vec<u8>>,
    flags: OnceLock<Box<FlagSlot>>,
    /// The owning node's arrivals count: notified by every flag write.
    arrivals: Arc<EventCount>,
    owner_bus: PciBus,
    size: usize,
}

impl SegInner {
    fn flag(&self, off: usize) -> &FlagSlot {
        let mut link = &self.flags;
        loop {
            let fresh = || FlagSlot {
                off,
                ..FlagSlot::default()
            };
            let slot = link.get_or_init(|| Box::new(fresh()));
            if slot.off == off {
                return slot;
            }
            link = &slot.next;
        }
    }

    /// An access of `len` bytes at `off` outside the segment is the
    /// caller's bug, as it is a fault on the real mapping.
    fn check(&self, what: &str, off: usize, len: usize) {
        assert!(
            off.saturating_add(len) <= self.size,
            "{what} of {len} bytes at {off} overruns segment of {}",
            self.size,
        );
    }

    /// Store `data` at `off` (see [`check`](Self::check)).
    fn store(&self, what: &str, off: usize, data: &[u8]) {
        self.check(what, off, data.len());
        let end = off + data.len();
        let mut mem = self.mem.lock();
        if mem.len() < end {
            mem.resize(end, 0);
        }
        mem[off..end].copy_from_slice(data);
    }
}

/// An SCI network's segment directory: every segment exported on it, by
/// `(owner, segment id)`, and a count every creation notifies. The world
/// owns one per network (see [`Adapter`]).
#[derive(Default)]
pub(crate) struct Segments {
    map: Mutex<HashMap<SegKey, Arc<SegInner>>>,
    created: EventCount,
}

/// A node's handle on the SISCI interface of an SCI adapter.
#[derive(Clone)]
pub struct Sisci {
    adapter: Adapter,
}

impl Sisci {
    /// Open SISCI on an SCI adapter.
    ///
    /// # Panics
    /// Panics if the adapter is not on an SCI fabric.
    pub fn new(adapter: &Adapter) -> Self {
        assert_eq!(
            adapter.kind(),
            NetKind::Sci,
            "SISCI requires an SCI fabric, got {:?}",
            adapter.kind()
        );
        Sisci {
            adapter: adapter.clone(),
        }
    }

    pub fn node(&self) -> NodeId {
        self.adapter.node()
    }

    /// Create (and export) a local segment of `size` bytes.
    ///
    /// # Panics
    /// Panics if a segment with the same id already exists on this node.
    pub fn create_segment(&self, seg_id: u32, size: usize) -> LocalSegment {
        let key: SegKey = (self.node(), seg_id);
        let inner = Arc::new(SegInner {
            mem: Mutex::default(),
            flags: OnceLock::new(),
            arrivals: Arc::clone(self.adapter.arrivals()),
            owner_bus: self.adapter.pci().clone(),
            size,
        });
        let dir = self.adapter.segments();
        let mut map = dir.map.lock();
        assert!(
            !map.contains_key(&key),
            "segment {seg_id} already exists on node {}",
            self.node()
        );
        map.insert(key, Arc::clone(&inner));
        drop(map);
        dir.created.notify();
        LocalSegment {
            key,
            inner,
            adapter: self.adapter.clone(),
        }
    }

    /// Connect to a remote node's exported segment, blocking (in real time)
    /// until the owner has created it — mirroring SISCI's connect-retry
    /// loop during session establishment. Sessions open collectively, so
    /// the owner was dispatched with us and is creating its segments: the
    /// wait polls the evidence grant before it parks.
    pub fn connect(&self, owner: NodeId, seg_id: u32) -> RemoteSegment {
        assert!(
            self.adapter.peers().contains(&owner),
            "node {owner} is not on SCI network {:?}",
            self.adapter.name()
        );
        let dir = self.adapter.segments();
        let segment = || dir.map.lock().get(&(owner, seg_id)).cloned();
        let created = dir.created.wait_timeout(EVIDENCE_POLLS, None, segment);
        let inner = created.expect("a wait without a timeout only succeeds");
        RemoteSegment {
            inner,
            adapter: self.adapter.clone(),
        }
    }

    /// What the [`connect`](Self::connect) waits on this network's segment
    /// directory cost so far, every node's together.
    pub fn connect_stats(&self) -> WaitStats {
        self.adapter.segments().created.stats()
    }
}

/// A segment this node exported; remote nodes PIO/DMA into it.
pub struct LocalSegment {
    key: SegKey,
    inner: Arc<SegInner>,
    /// The owner's adapter: a fallible wait asks it whether the writer
    /// can still reach us.
    adapter: Adapter,
}

impl LocalSegment {
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// Copy `buf.len()` bytes out of the segment into user memory, charging
    /// the host-memcpy cost.
    pub fn read(&self, off: usize, buf: &mut [u8]) {
        self.inner.check("read", off, buf.len());
        let mem = self.inner.mem.lock();
        let stored = mem.get(off..).unwrap_or_default();
        let n = stored.len().min(buf.len());
        buf[..n].copy_from_slice(&stored[..n]);
        buf[n..].fill(0);
        drop(mem);
        time::advance(self.adapter.calib().sci_copy.cpu(buf.len()));
    }

    /// Block until the flag word at `off` has been written with a value
    /// `>= val` (compared as wrapping 32-bit counters); advances the local
    /// clock to the write's arrival and returns that instant. Parks at once.
    pub fn wait_flag_ge(&self, off: usize, val: u32) -> VTime {
        let hit = self.wait_flag_ge_val(off, val, 0, None);
        hit.expect("a wait without a timeout only succeeds").1
    }

    /// Fallible [`wait_flag_ge_val`](Self::wait_flag_ge_val) for a flag
    /// that node `writer` publishes: on a fault-armed world the wait is the
    /// link's bounded one (see [`crate::stacks`]), so a writer that crashed or
    /// went silent is an error instead of a hang. The poll grant applies
    /// to each slice of the wait.
    pub fn try_wait_flag_ge(
        &self,
        writer: NodeId,
        off: usize,
        val: u32,
        polls: u32,
    ) -> Result<(u32, VTime), LinkError> {
        link_wait(&self.adapter, writer, LINK_BOUND, |t| {
            self.wait_flag_ge_val(off, val, polls, t)
        })
    }

    /// [`wait_flag_ge`](Self::wait_flag_ge) that first polls the flag up to
    /// `polls` times (grant them only on evidence that the writer is
    /// mid-transfer) and also returns the value of the satisfying write —
    /// the **earliest** write with value `>= val`, so the caller never
    /// observes data whose publishing write it has not paid the arrival
    /// time for. With a *real-time* `timeout`, `None` if no such write
    /// arrived in time — one slice of
    /// [`try_wait_flag_ge`](Self::try_wait_flag_ge)'s bounded wait.
    pub fn wait_flag_ge_val(
        &self,
        off: usize,
        val: u32,
        polls: u32,
        timeout: Option<Duration>,
    ) -> Option<(u32, VTime)> {
        let flag = self.inner.flag(off);
        let arrivals = &self.inner.arrivals;
        arrivals.wait_timeout(polls, timeout, || flag.take(val))
    }

    /// Pure probe (one load): is the flag at `off` already `>= val`? Consumes
    /// nothing, does not advance the clock (incoming-message polling).
    pub fn probe_flag_ge(&self, off: usize, val: u32) -> bool {
        self.inner.flag(off).reaches(val)
    }

    /// Non-blocking flag poll; advances the clock and consumes history on
    /// success exactly like [`wait_flag_ge_val`](Self::wait_flag_ge_val).
    pub fn poll_flag_ge(&self, off: usize, val: u32) -> Option<(u32, VTime)> {
        self.inner.flag(off).take(val)
    }

    /// What the waits on the owning node's arrivals count cost so far —
    /// flag waits on any of its segments and its inbox receives alike:
    /// `waits` that found their condition unmet, the `polls` they made,
    /// their `parks`.
    pub fn flag_wait_stats(&self) -> WaitStats {
        self.inner.arrivals.stats()
    }
}

impl Drop for LocalSegment {
    fn drop(&mut self) {
        self.adapter.segments().map.lock().remove(&self.key);
    }
}

/// A mapped window onto a remote node's segment.
pub struct RemoteSegment {
    inner: Arc<SegInner>,
    /// The writer's adapter: its bus and its world's costs.
    adapter: Adapter,
}

impl RemoteSegment {
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// Stream `data` into the remote segment with PIO. The calling CPU is
    /// busy for the whole transfer (clock advances to the end of the bus
    /// crossing). Returns the virtual instant the data is visible in remote
    /// host memory (including receiver-bus contention).
    pub fn write(&self, off: usize, data: &[u8]) -> VTime {
        self.inner.store("write", off, data);
        let row = self.adapter.calib().sci_pio;
        let t0 = time::now();
        let bus_occ = row.bus(data.len());
        // Sender bus: PIO outbound; the CPU is stalled for the stretched
        // duration under contention.
        let send_end = self
            .adapter
            .pci()
            .transfer(BusKind::Pio, BusDir::Outbound, t0, bus_occ);
        let cpu_end = (t0 + row.cpu(data.len())).max(send_end);
        time::advance_to(cpu_end);
        // Receiver bus: the SCI NIC master-writes into host memory.
        let nominal_arrival = cpu_end + row.lat();
        let busy_start = nominal_arrival.saturating_sub(bus_occ);
        let in_end =
            self.inner
                .owner_bus
                .transfer(BusKind::Dma, BusDir::Inbound, busy_start, bus_occ);
        in_end.max(nominal_arrival)
    }

    /// Write a 4-byte flag word, visible to the remote no earlier than
    /// `not_before` (pass the return of the preceding data [`write`] to
    /// preserve causality). Wakes remote waiters.
    pub fn write_flag(&self, off: usize, val: u32, not_before: VTime) -> VTime {
        let row = self.adapter.calib().sci_flag;
        let cpu_end = time::advance(row.host());
        let arrival = (cpu_end + row.lat()).max(not_before);
        self.inner.check("flag write", off, 4);
        let flag = self.inner.flag(off);
        {
            let mut history = flag.history.lock();
            let at = history.partition_point(|&(v, _)| !reached(v, val));
            match history.get_mut(at) {
                Some(same) if same.0 == val => same.1 = arrival,
                _ => history.insert(at, (val, arrival)),
            }
        }
        let furthest = |p: u64| (p == 0 || !reached(p as u32, val)).then_some(WRITTEN | val as u64);
        let _ = flag
            .published
            .fetch_update(Ordering::Release, Ordering::Relaxed, furthest);
        self.inner.arrivals.notify();
        arrival
    }

    /// Transfer `data` with the NIC's DMA engine. The CPU pays only the
    /// setup cost; the call returns the completion instant (callers model
    /// SISCI's `SCIWaitForDMAQueue` by `advance_to`-ing it).
    pub fn dma_write(&self, off: usize, data: &[u8]) -> VTime {
        self.inner.store("DMA write", off, data);
        let row = self.adapter.calib().sci_dma;
        let t0 = time::advance(row.host());
        let dur = VDuration::from_micros_f64(data.len() as f64 * row.per_byte_us);
        // The engine's transactions cross the sender bus as DMA.
        let occ = row.bus(data.len());
        let send_end = self
            .adapter
            .pci()
            .transfer(BusKind::Dma, BusDir::Outbound, t0, occ);
        let nominal_arrival = send_end.max(t0 + dur) + row.lat();
        let busy_start = nominal_arrival.saturating_sub(occ);
        let in_end = self
            .inner
            .owner_bus
            .transfer(BusKind::Dma, BusDir::Inbound, busy_start, occ);
        in_end.max(nominal_arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldBuilder;

    fn sci_pair() -> (crate::world::World, crate::world::NetworkId) {
        let mut b = WorldBuilder::new(2);
        let net = b.network("sci0", NetKind::Sci, &[0, 1]);
        (b.build(), net)
    }

    #[test]
    fn pio_write_then_flag_roundtrip() {
        let (w, net) = sci_pair();
        let out = w.run(|env| {
            let sisci = Sisci::new(env.adapter_on(net).unwrap());
            if env.id() == 1 {
                let seg = sisci.create_segment(1, 4096);
                seg.wait_flag_ge(4092, 1);
                let mut buf = vec![0u8; 5];
                seg.read(8, &mut buf);
                buf
            } else {
                let seg = sisci.connect(1, 1);
                let vis = seg.write(8, b"hello");
                seg.write_flag(4092, 1, vis);
                Vec::new()
            }
        });
        assert_eq!(out[1], b"hello");
    }

    #[test]
    fn receiver_clock_advances_to_write_arrival() {
        let (w, net) = sci_pair();
        let times = w.run(|env| {
            let sisci = Sisci::new(env.adapter_on(net).unwrap());
            if env.id() == 1 {
                let seg = sisci.create_segment(1, 4096);
                let arr = seg.wait_flag_ge(0, 1);
                assert_eq!(time::now(), arr);
                arr.as_micros_f64()
            } else {
                let seg = sisci.connect(1, 1);
                let vis = seg.write(64, &[7u8; 1000]);
                seg.write_flag(0, 1, vis).as_micros_f64()
            }
        });
        // Times must agree on both sides and include PIO + wire costs.
        assert!((times[0] - times[1]).abs() < 1e-9);
        // Sequential on the sender CPU: data PIO, then flag write, then the
        // flag's wire hop (the data's own wire hop overlaps the flag write).
        let c = crate::calib::Calib::PAPER;
        let expected = c.sci_pio.host_us
            + 1000.0 * c.sci_pio.per_byte_us
            + c.sci_flag.host_us
            + c.sci_flag.lat_us;
        assert!(
            (times[1] - expected).abs() < 0.01,
            "got {} expected {}",
            times[1],
            expected
        );
    }

    #[test]
    fn flag_history_supports_monotone_counters() {
        let (w, net) = sci_pair();
        w.run(|env| {
            let sisci = Sisci::new(env.adapter_on(net).unwrap());
            if env.id() == 1 {
                let seg = sisci.create_segment(9, 64);
                for i in 1..=5u32 {
                    seg.wait_flag_ge(0, i);
                }
            } else {
                let seg = sisci.connect(1, 9);
                for i in 1..=5u32 {
                    let vis = seg.write(4, &i.to_le_bytes());
                    seg.write_flag(0, i, vis);
                }
            }
        });
    }

    #[test]
    fn try_flag_is_nonblocking() {
        let (w, net) = sci_pair();
        w.run(|env| {
            let sisci = Sisci::new(env.adapter_on(net).unwrap());
            if env.id() == 1 {
                let seg = sisci.create_segment(2, 64);
                assert!(seg.poll_flag_ge(0, 1).is_none());
                env.barrier();
                // After the writer passed the barrier the flag is set
                // (frame delivery is synchronous in real time).
                assert!(seg.poll_flag_ge(0, 1).is_some());
            } else {
                let seg = sisci.connect(1, 2);
                let vis = seg.write(4, b"data");
                seg.write_flag(0, 1, vis);
                env.barrier();
            }
        });
    }

    #[test]
    fn dma_write_is_slower_than_pio_for_bulk() {
        let (w, net) = sci_pair();
        let times = w.run(|env| {
            let sisci = Sisci::new(env.adapter_on(net).unwrap());
            if env.id() == 1 {
                let _seg = sisci.create_segment(3, 1 << 17);
                env.barrier();
                env.barrier();
                (0.0, 0.0)
            } else {
                env.barrier();
                let seg = sisci.connect(1, 3);
                let data = vec![0u8; 65536];
                let t0 = time::now();
                let pio_done = seg.write(0, &data);
                let pio = pio_done.saturating_since(t0).as_micros_f64();
                let t1 = time::now();
                let dma_done = seg.dma_write(0, &data);
                let dma = dma_done.saturating_since(t1).as_micros_f64();
                env.barrier();
                (pio, dma)
            }
        });
        let (pio, dma) = times[0];
        assert!(
            dma > pio * 2.0,
            "D310 DMA should be much slower than PIO for 64 kB: pio={pio} dma={dma}"
        );
    }

    #[test]
    #[should_panic(expected = "write of 16 bytes at 8 overruns segment of 16")]
    fn write_overrun_panics() {
        let (w, net) = sci_pair();
        w.run(|env| {
            let sisci = Sisci::new(env.adapter_on(net).unwrap());
            if env.id() == 1 {
                let _seg = sisci.create_segment(4, 16);
                env.barrier();
            } else {
                let seg = sisci.connect(1, 4);
                env.barrier();
                seg.write(8, &[0u8; 16]);
            }
        });
    }

    /// A flag outside the segment is as much a bug as data outside it: it
    /// must not be published to waiters with its store silently skipped.
    #[test]
    #[should_panic(expected = "flag write of 4 bytes at 14 overruns segment of 16")]
    fn flag_write_outside_the_segment_panics() {
        let (w, net) = sci_pair();
        w.run(|env| {
            let sisci = Sisci::new(env.adapter_on(net).unwrap());
            if env.id() == 1 {
                let _seg = sisci.create_segment(7, 16);
                env.barrier();
            } else {
                let seg = sisci.connect(1, 7);
                env.barrier();
                seg.write_flag(14, 1, VTime::ZERO);
            }
        });
    }

    /// An unwritten flag costs a wait its whole poll grant and one park
    /// (ended here by a timeout already expired), and a probe or a
    /// non-blocking poll nothing; a written one is consumed in value order
    /// with no wait counted at all.
    #[test]
    fn flag_counters_tell_polls_from_parks() {
        let (w, net) = sci_pair();
        w.run(|env| {
            let sisci = Sisci::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                let seg = sisci.create_segment(8, 64);
                let own = sisci.connect(0, 8);
                let now = Some(Duration::ZERO);
                assert!(!seg.probe_flag_ge(0, 0));
                assert_eq!(seg.poll_flag_ge(0, 1), None);
                assert_eq!(seg.wait_flag_ge_val(0, 1, 5, now), None);
                assert_eq!(seg.wait_flag_ge_val(0, 1, 0, now), None);
                let cost = seg.flag_wait_stats();
                assert_eq!((cost.waits, cost.polls, cost.parks), (2, 5, 2));
                let at = [7, 3, 7].map(|v| own.write_flag(0, v, VTime::ZERO));
                assert!(seg.probe_flag_ge(0, 7) && !seg.probe_flag_ge(0, 8));
                assert_eq!(seg.wait_flag_ge_val(0, 1, 5, None), Some((3, at[1])));
                assert_eq!(seg.poll_flag_ge(0, 4), Some((7, at[2])));
                assert_eq!(seg.poll_flag_ge(0, 8), None);
                assert_eq!(seg.flag_wait_stats(), cost, "no wait since");
            }
        });
    }

    /// A segment's memory is what was stored into it: it grows to the
    /// furthest byte written (a flag write stores none), and bytes never
    /// written read as zeros.
    #[test]
    fn segment_memory_grows_to_the_furthest_byte_stored() {
        let (w, net) = sci_pair();
        w.run(|env| {
            let sisci = Sisci::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                let seg = sisci.create_segment(10, 64 << 10);
                let own = sisci.connect(0, 10);
                let stored = || seg.inner.mem.lock().len();
                own.write_flag(60 << 10, 1, VTime::ZERO);
                assert_eq!(stored(), 0, "a flag stores no bytes");
                own.write(100, b"mad");
                assert_eq!(stored(), 103);
                let mut buf = [0xFFu8; 8];
                seg.read(98, &mut buf);
                assert_eq!(buf, *b"\0\0mad\0\0\0");
                seg.read(4000, &mut buf);
                assert_eq!((buf, stored()), ([0; 8], 103), "a read stores nothing");
            }
        });
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_segment_id_panics() {
        let (w, net) = sci_pair();
        w.run(|env| {
            let sisci = Sisci::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                let _a = sisci.create_segment(5, 16);
                let _b = sisci.create_segment(5, 16);
            }
        });
    }

    #[test]
    fn segment_unregisters_on_drop() {
        let (w, net) = sci_pair();
        w.run(|env| {
            let sisci = Sisci::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                {
                    let _a = sisci.create_segment(6, 16);
                }
                // Dropped: the id is free again.
                let _b = sisci.create_segment(6, 16);
            }
        });
    }
}
