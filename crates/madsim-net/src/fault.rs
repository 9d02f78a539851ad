//! Deterministic, seeded fault injection for the simulated fabric.
//!
//! The paper's interconnects (BIP over Myrinet, SISCI over SCI) guarantee
//! delivery, so the base fabric never loses a frame. Production-scale
//! deployments cannot assume that, and the robustness layer built on top
//! (retransmit, credit timeouts, virtual-channel failover) needs a way to
//! *provoke* failures reproducibly. A [`FaultPlan`] attached to a
//! [`WorldBuilder`](crate::world::WorldBuilder) does exactly that: every
//! frame crossing an adapter rolls against seeded, counter-indexed hashes,
//! so the n-th frame from `src` to `dst` on a given network suffers the
//! same fate in every run with the same seed — independent of thread
//! interleaving.
//!
//! ARQ acknowledgment frames are judged through a loss-exempt variant
//! (duplication, crashes and partitions still apply): the
//! control channel is modeled reliable so that a stop-and-wait exchange
//! always terminates — see
//! [`Adapter::send_raw_control`](crate::world::Adapter::send_raw_control).
//!
//! Decisions are keyed on `(seed, network index, src, dst, frame counter)`
//! through a splitmix64-style mixer. A network is known by its *index*
//! (declaration order, [`NetworkId`](crate::world::NetworkId)), the only
//! identity a network has, so two identically-built worlds in one process
//! draw identical fault schedules.
//!
//! Multirail networks (several adapters per node on one network, see
//! [`WorldBuilder::network_with_rails`](crate::world::WorldBuilder::network_with_rails))
//! fold the rail index into the network key: rail `r` of network `n` is
//! keyed as `n | r << 16` ([`rail_key`]), so rail 0 of a single-rail
//! network draws exactly the schedule it always did, and each extra rail
//! is an independent fault domain — a partition can sever *one* rail of a
//! pair while the others keep carrying traffic
//! ([`FaultPlan::partition_rail_after`]).

use crate::frame::NodeId;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Error surfaced by fault-aware stack operations ("link level" — below
/// the Madeleine error taxonomy, which lifts these in one place). Only a
/// fault-armed world produces one: see [`crate::stacks`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkError {
    /// The link gave up on a live peer: a bounded wait ran out (the ARQ's
    /// retries, or a peer silent for the whole bound of a credit, CTS,
    /// data or flag wait).
    Timeout,
    /// The peer is crashed or cut off from us on this rail — found by the
    /// liveness test between wait slices, instead of waiting out the bound.
    PeerDead,
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::Timeout => write!(f, "link timeout: the peer stayed silent"),
            LinkError::PeerDead => write!(f, "peer crashed or partitioned"),
        }
    }
}

impl std::error::Error for LinkError {}

/// Shared ARQ tuning for the fault-armed stacks (TCP, SBP). Real-time
/// values bound how long a test blocks on a genuinely lost frame; the
/// virtual values are the *modeled* retransmission timeout charged to the
/// virtual clock, which is what the goodput-vs-loss curves measure.
pub const ARQ_MAX_RETRIES: u32 = 10;
/// Base real-time RTO; doubles per retry up to [`ARQ_RTO_REAL_MAX_MS`].
pub const ARQ_RTO_REAL_BASE_MS: u64 = 50;
pub const ARQ_RTO_REAL_MAX_MS: u64 = 800;
/// Base virtual-time RTO charged per retransmission; doubles per retry up
/// to [`ARQ_RTO_VIRT_MAX_US`] (exponential backoff).
pub const ARQ_RTO_VIRT_BASE_US: f64 = 500.0;
pub const ARQ_RTO_VIRT_MAX_US: f64 = 8_000.0;
/// Real-time bound on a reliable receive (covers a peer's full retry
/// schedule with margin).
pub const ARQ_RECV_TIMEOUT_MS: u64 = 20_000;

/// Fault-domain key of rail `rail` on network `net` (declaration index).
/// Rail 0 keys to the bare network index, so single-rail worlds draw
/// byte-identical fault schedules with or without this encoding.
pub fn rail_key(net: usize, rail: usize) -> usize {
    net | (rail << 16)
}

/// A partition of one rail of one (src, dst) pair, armed after a frame
/// count: the deterministic way to kill a rail *mid-message*.
#[derive(Clone, Copy, Debug)]
struct RailPartition {
    net: usize,
    rail: usize,
    a: NodeId,
    b: NodeId,
    /// The cut activates per direction once that direction has carried
    /// this many frames on the rail (0 = severed from the start).
    after: u64,
}

/// What the fault layer did to one frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultEvent {
    /// Frame silently discarded.
    Dropped,
    /// Frame delivered twice.
    Duplicated,
    /// Frame discarded because the (src, dst) pair is partitioned.
    Partitioned,
    /// Frame discarded because src or dst is crashed.
    Crashed,
}

/// One fault decision, in the deterministic log.
///
/// Sorting by `(net, src, dst, index)` yields a schedule-independent order:
/// two runs with the same seed produce byte-identical sorted logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultRecord {
    /// Network declaration index ([`NetworkId.0`](crate::world::NetworkId)).
    pub net: usize,
    pub src: NodeId,
    pub dst: NodeId,
    /// Zero-based counter of frames sent from `src` to `dst` on `net`.
    pub index: u64,
    pub event: FaultEvent,
}

/// Declarative fault schedule, attached at world-build time.
///
/// All rates are probabilities in `[0, 1]` evaluated per frame with the
/// seeded hash.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    drop_rate: f64,
    duplicate_rate: f64,
    /// Unordered pairs that cannot exchange frames.
    partitions: Vec<(NodeId, NodeId)>,
    /// Per-rail, counter-armed partitions (multirail failover testing).
    rail_partitions: Vec<RailPartition>,
    /// Nodes dead from the start.
    crashed: Vec<NodeId>,
}

impl FaultPlan {
    /// A plan that injects nothing but arms the recovery machinery
    /// (timeouts, acks). Useful to test timeout paths without losses.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Drop each frame with probability `rate`.
    pub fn drop_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "drop rate out of [0,1]");
        self.drop_rate = rate;
        self
    }

    /// Deliver each (non-dropped) frame twice with probability `rate`.
    pub fn duplicate_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "duplicate rate out of [0,1]");
        self.duplicate_rate = rate;
        self
    }

    /// Sever the (bidirectional) link between `a` and `b` on every network.
    pub fn partition(mut self, a: NodeId, b: NodeId) -> Self {
        self.partitions.push((a, b));
        self
    }

    /// Sever rail `rail` of network `net` (declaration index) between `a`
    /// and `b` once either direction has carried `after` frames on that
    /// rail: the `after`-th frame (0-based) and all later ones are
    /// discarded, per direction against that direction's own deterministic
    /// frame counter. `after = 0` severs the rail from the start. Other
    /// rails of the same network are untouched, which is what the
    /// multirail failover tests use to kill one rail mid-message.
    pub fn partition_rail_after(
        mut self,
        net: usize,
        rail: usize,
        a: NodeId,
        b: NodeId,
        after: u64,
    ) -> Self {
        self.rail_partitions.push(RailPartition {
            net,
            rail,
            a,
            b,
            after,
        });
        self
    }

    /// Mark `node` crashed from the start: every frame to or from it is
    /// discarded. Nodes can also be crashed mid-run via
    /// [`FaultState::crash`].
    pub fn crash(mut self, node: NodeId) -> Self {
        self.crashed.push(node);
        self
    }

    pub(crate) fn build(&self) -> Arc<FaultState> {
        Arc::new(FaultState {
            plan: self.clone(),
            counters: Mutex::new(HashMap::new()),
            log: Mutex::new(Vec::new()),
            crashed: Mutex::new(self.crashed.iter().copied().collect()),
            drops: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
        })
    }
}

/// Runtime state of a world's fault layer: deterministic decision engine,
/// dynamic crash set, and the fault log.
pub struct FaultState {
    plan: FaultPlan,
    /// Frames sent so far per (net index, src, dst) — the deterministic
    /// decision index.
    counters: Mutex<HashMap<(usize, NodeId, NodeId), u64>>,
    log: Mutex<Vec<FaultRecord>>,
    crashed: Mutex<HashSet<NodeId>>,
    drops: AtomicU64,
    duplicates: AtomicU64,
}

/// The verdict for one frame, computed before delivery.
pub(crate) struct FaultVerdict {
    /// Deliver the frame at all?
    pub deliver: bool,
    /// Deliver a second copy too?
    pub duplicate: bool,
}

impl FaultState {
    /// Crash `node` now: all subsequent frames to or from it vanish.
    pub fn crash(&self, node: NodeId) {
        self.crashed.lock().insert(node);
    }

    /// Is `node` currently crashed?
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.lock().contains(&node)
    }

    /// Is the (src, dst) pair partitioned (either direction)?
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.plan
            .partitions
            .iter()
            .any(|&(x, y)| (x == a && y == b) || (x == b && y == a))
    }

    /// `false` when `dst` (or `src`) is crashed or the pair is partitioned
    /// — blind to rail cuts; the stacks ask [`reachable_on`]
    /// (Self::reachable_on) through the adapter.
    fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        !self.is_crashed(src) && !self.is_crashed(dst) && !self.is_partitioned(src, dst)
    }

    /// Is `dst` reachable from `src` on one rail of one network? `false`
    /// when either is crashed, the pair is partitioned, or a
    /// [`partition_rail_after`](FaultPlan::partition_rail_after) cut on
    /// that rail has activated in the `src → dst` direction (its frame
    /// counter reached the threshold). Read under the counter lock
    /// [`carry`](Self::carry) delivers under, so a cut seen here implies
    /// every frame that crossed before it is already in its mailbox.
    pub fn reachable_on(&self, net: usize, rail: usize, src: NodeId, dst: NodeId) -> bool {
        if !self.reachable(src, dst) {
            return false;
        }
        let key = rail_key(net, rail);
        let sent = self
            .counters
            .lock()
            .get(&(key, src, dst))
            .copied()
            .unwrap_or(0);
        !self.plan.rail_partitions.iter().any(|p| {
            rail_key(p.net, p.rail) == key
                && ((p.a == src && p.b == dst) || (p.a == dst && p.b == src))
                && sent >= p.after
        })
    }

    /// Total frames dropped (loss + partition + crash).
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    pub fn duplicates(&self) -> u64 {
        self.duplicates.load(Ordering::Relaxed)
    }

    /// The fault log, sorted by `(net, src, dst, index)` so it is identical
    /// across runs with the same seed regardless of thread interleaving.
    pub fn log(&self) -> Vec<FaultRecord> {
        let mut v = self.log.lock().clone();
        v.sort_unstable();
        v
    }

    fn record(&self, net: usize, src: NodeId, dst: NodeId, index: u64, event: FaultEvent) {
        self.log.lock().push(FaultRecord {
            net,
            src,
            dst,
            index,
            event,
        });
    }

    /// Decide the fate of the next frame from `src` to `dst` on network
    /// `net` (advancing that direction's counter) and hand the verdict to
    /// `deliver` — both under the counter lock, so the liveness test
    /// ([`reachable_on`](Self::reachable_on)) never sees a frame counted
    /// that is not yet delivered. Called by
    /// [`Adapter::send_raw`](crate::world::Adapter), one call per frame.
    ///
    /// `lossless` frames (acknowledgments/control) are exempt from the
    /// seeded loss roll — crashes, partitions and duplication still
    /// apply. Stop-and-wait acks are modeled loss-free so an
    /// exchange's *final* ack cannot vanish and wedge the sender against a
    /// receiver that has already gone quiet; data-frame loss alone drives
    /// the retransmission machinery. See
    /// [`Adapter::send_raw_control`](crate::world::Adapter::send_raw_control).
    pub(crate) fn carry<R>(
        &self,
        (net, src, dst): (usize, NodeId, NodeId),
        lossless: bool,
        deliver: impl FnOnce(FaultVerdict) -> R,
    ) -> R {
        let mut counters = self.counters.lock();
        let e = counters.entry((net, src, dst)).or_insert(0);
        let index = *e;
        *e += 1;
        deliver(self.decide(net, src, dst, index, lossless))
    }

    fn decide(
        &self,
        net: usize,
        src: NodeId,
        dst: NodeId,
        index: u64,
        lossless: bool,
    ) -> FaultVerdict {
        let mut v = FaultVerdict {
            deliver: true,
            duplicate: false,
        };
        if self.is_crashed(src) || self.is_crashed(dst) {
            self.drops.fetch_add(1, Ordering::Relaxed);
            self.record(net, src, dst, index, FaultEvent::Crashed);
            v.deliver = false;
            return v;
        }
        if self.is_partitioned(src, dst) {
            self.drops.fetch_add(1, Ordering::Relaxed);
            self.record(net, src, dst, index, FaultEvent::Partitioned);
            v.deliver = false;
            return v;
        }
        // Rail-scoped cuts: `net` is the rail-extended key here, and the
        // comparison against this direction's own frame index keeps the
        // activation point deterministic under any thread interleaving.
        if self.plan.rail_partitions.iter().any(|p| {
            rail_key(p.net, p.rail) == net
                && ((p.a == src && p.b == dst) || (p.a == dst && p.b == src))
                && index >= p.after
        }) {
            self.drops.fetch_add(1, Ordering::Relaxed);
            self.record(net, src, dst, index, FaultEvent::Partitioned);
            v.deliver = false;
            return v;
        }
        if !lossless
            && self.plan.drop_rate > 0.0
            && self.roll(net, src, dst, index, 1) < self.plan.drop_rate
        {
            self.drops.fetch_add(1, Ordering::Relaxed);
            self.record(net, src, dst, index, FaultEvent::Dropped);
            v.deliver = false;
            return v;
        }
        if self.plan.duplicate_rate > 0.0
            && self.roll(net, src, dst, index, 2) < self.plan.duplicate_rate
        {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
            self.record(net, src, dst, index, FaultEvent::Duplicated);
            v.duplicate = true;
        }
        v
    }

    /// Deterministic uniform draw in `[0, 1)` for one (frame, purpose) pair.
    fn roll(&self, net: usize, src: NodeId, dst: NodeId, index: u64, purpose: u64) -> f64 {
        let mut x = self.plan.seed;
        for k in [net as u64, src as u64, dst as u64, index, purpose] {
            x = splitmix64(x ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        // 53 high bits -> uniform f64 in [0, 1).
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultState {
        fn judge(&self, net: usize, src: NodeId, dst: NodeId) -> FaultVerdict {
            self.carry((net, src, dst), false, |v| v)
        }

        fn judge_control(&self, net: usize, src: NodeId, dst: NodeId) -> FaultVerdict {
            self.carry((net, src, dst), true, |v| v)
        }
    }

    #[test]
    fn same_seed_same_verdicts() {
        let a = FaultPlan::new(7).drop_rate(0.3).duplicate_rate(0.1).build();
        let b = FaultPlan::new(7).drop_rate(0.3).duplicate_rate(0.1).build();
        for i in 0..200 {
            let va = a.judge(0, 0, 1);
            let vb = b.judge(0, 0, 1);
            assert_eq!(va.deliver, vb.deliver, "frame {i}");
            assert_eq!(va.duplicate, vb.duplicate, "frame {i}");
        }
        assert_eq!(a.log(), b.log());
        assert!(a.drops() > 0, "0.3 drop rate over 200 frames hit nothing");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1).drop_rate(0.5).build();
        let b = FaultPlan::new(2).drop_rate(0.5).build();
        let da: Vec<bool> = (0..64).map(|_| a.judge(0, 0, 1).deliver).collect();
        let db: Vec<bool> = (0..64).map(|_| b.judge(0, 0, 1).deliver).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn crash_and_partition_block_frames() {
        let st = FaultPlan::new(0).partition(0, 1).build();
        assert!(!st.judge(0, 0, 1).deliver);
        assert!(!st.judge(0, 1, 0).deliver);
        assert!(st.judge(0, 0, 2).deliver);
        st.crash(2);
        assert!(!st.judge(0, 0, 2).deliver);
        assert!(!st.reachable(0, 2));
        assert!(st.is_crashed(2));
    }

    #[test]
    fn zero_rate_plan_injects_nothing() {
        let st = FaultPlan::new(42).build();
        for _ in 0..100 {
            let v = st.judge(0, 0, 1);
            assert!(v.deliver && !v.duplicate);
        }
        assert!(st.log().is_empty());
        assert_eq!(st.drops() + st.duplicates(), 0);
    }

    #[test]
    fn control_frames_are_never_dropped() {
        let st = FaultPlan::new(3).drop_rate(1.0).build();
        for _ in 0..50 {
            assert!(st.judge_control(0, 0, 1).deliver);
        }
        assert!(!st.judge(0, 0, 1).deliver, "data frames still roll");
        st.crash(1);
        assert!(!st.judge_control(0, 0, 1).deliver, "crash still discards");
    }

    #[test]
    fn rail_partition_cuts_one_rail_after_threshold() {
        let st = FaultPlan::new(0)
            .partition_rail_after(0, 1, 0, 1, 2)
            .build();
        let k1 = rail_key(0, 1);
        // Rail 0 (bare net key) is untouched.
        for _ in 0..8 {
            assert!(st.judge(0, 0, 1).deliver);
        }
        // Rail 1 carries its first two frames, then the cut activates.
        assert!(st.reachable_on(0, 1, 0, 1), "cut not active before frames");
        assert!(st.judge(k1, 0, 1).deliver);
        assert!(st.judge(k1, 0, 1).deliver);
        assert!(!st.judge(k1, 0, 1).deliver, "frame index 2 is cut");
        assert!(!st.reachable_on(0, 1, 0, 1));
        assert!(st.reachable_on(0, 0, 0, 1), "rail 0 still reachable");
        // The reverse direction cuts against its own counter.
        assert!(st.judge(k1, 1, 0).deliver);
        assert!(st.judge(k1, 1, 0).deliver);
        assert!(!st.judge(k1, 1, 0).deliver);
        // Other pairs on the same rail are untouched.
        assert!(st.judge(k1, 0, 2).deliver);
        // Control frames obey the cut too (it is a partition, not loss).
        assert!(!st.judge_control(k1, 0, 1).deliver);
    }

    #[test]
    fn rail_partition_after_zero_severs_from_start() {
        let st = FaultPlan::new(0)
            .partition_rail_after(2, 3, 4, 5, 0)
            .build();
        let k = rail_key(2, 3);
        assert!(!st.reachable_on(2, 3, 4, 5));
        assert!(!st.judge(k, 4, 5).deliver);
        assert!(!st.judge(k, 5, 4).deliver);
        assert!(st.reachable_on(2, 0, 4, 5));
    }
}
