//! Cluster topology: worlds, nodes, networks, adapters.
//!
//! A [`World`] is a set of nodes (each backed by a real OS thread when the
//! world runs) connected by one or more named networks. A node that is a
//! member of a network owns an [`Adapter`] on it — the simulated NIC.
//! Clusters-of-clusters configurations are expressed naturally: a gateway
//! node is simply a member of two networks (paper §6).

use crate::calib::Calib;
use crate::eventcount::lock_unpoisoned;
use crate::eventcount::EventCount;
use crate::fault::{FaultPlan, FaultState};
use crate::frame::{Frame, NodeId};
use crate::mailbox::Mailbox;
use crate::pci::PciBus;
use crate::time::{self, AbortFlag, ClockHandle, VDuration, VTime, NO_NODE};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};

/// World topology entry: one network's name, fabric kind, and members.
pub type TopologyEntry = (Arc<str>, NetKind, Arc<[NodeId]>);

/// Hardware family of a network. Protocol stacks assert they are
/// instantiated on a compatible fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NetKind {
    /// Dolphin SCI ring/torus (remote-mapped segments; SISCI stack).
    Sci,
    /// Myricom Myrinet (LANai NIC; BIP stack).
    Myrinet,
    /// Commodity Fast Ethernet (TCP and SBP stacks).
    Ethernet,
    /// A VIA-capable SAN (GigaNet cLAN-like; VIA stack).
    ViaSan,
}

/// Identifier of a network within a world.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NetworkId(pub usize);

struct NetworkSpec {
    name: Arc<str>,
    kind: NetKind,
    members: Vec<NodeId>,
    /// Adapters per member node (multirail). 1 for ordinary networks.
    rails: usize,
}

/// Upper bound on rails per network: the fault layer folds the rail index
/// into the upper bits of its network key (see [`crate::fault::rail_key`]).
pub const MAX_RAILS: usize = 16;

/// Builder for a [`World`].
pub struct WorldBuilder {
    n_nodes: usize,
    networks: Vec<NetworkSpec>,
    calib: Calib,
    faults: Option<FaultPlan>,
}

impl WorldBuilder {
    pub fn new(n_nodes: usize) -> Self {
        assert!(n_nodes > 0, "a world needs at least one node");
        WorldBuilder {
            n_nodes,
            networks: Vec::new(),
            calib: Calib::PAPER,
            faults: None,
        }
    }

    /// Set the world's calibration table (default [`Calib::PAPER`]): the
    /// one place a world's costs are retimed, for every stack, bus and
    /// session in it.
    pub fn calib(mut self, calib: Calib) -> Self {
        self.calib = calib;
        self
    }

    /// Attach a seeded fault schedule. Adapters in the built world inject
    /// faults per [`FaultPlan`]; protocol stacks arm their recovery
    /// machinery (acks, timeouts). Without a plan the fabric is perfectly
    /// reliable and the fast path carries zero recovery overhead.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Declare a network connecting `members` (global node ids).
    ///
    /// # Panics
    /// Panics on out-of-range members, duplicate members, fewer than two
    /// members, or a duplicate network name.
    pub fn network(&mut self, name: &str, kind: NetKind, members: &[NodeId]) -> NetworkId {
        self.network_with_rails(name, kind, members, 1)
    }

    /// [`network`](Self::network) with `rails` adapters per member node —
    /// a node with several NICs on the same fabric. All rails share the
    /// network's wire (one mailbox per member) and the owning node's PCI
    /// bus; each rail is an independent fault domain (see
    /// [`crate::fault::rail_key`]).
    ///
    /// # Panics
    /// Additionally panics when `rails` is 0 or exceeds [`MAX_RAILS`].
    pub fn network_with_rails(
        &mut self,
        name: &str,
        kind: NetKind,
        members: &[NodeId],
        rails: usize,
    ) -> NetworkId {
        assert!(
            (1..=MAX_RAILS).contains(&rails),
            "network {name:?}: rails must be in 1..={MAX_RAILS}, got {rails}"
        );
        assert!(
            members.len() >= 2,
            "network {name:?} needs at least two members"
        );
        let mut seen = members.to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), members.len(), "duplicate members in {name:?}");
        for &m in members {
            assert!(m < self.n_nodes, "member {m} out of range in {name:?}");
        }
        assert!(
            self.networks.iter().all(|n| &*n.name != name),
            "duplicate network name {name:?}"
        );
        let id = NetworkId(self.networks.len());
        self.networks.push(NetworkSpec {
            name: Arc::from(name),
            kind,
            members: members.to_vec(),
            rails,
        });
        id
    }

    pub fn build(self) -> World {
        let arrivals: Vec<Arc<EventCount>> = (0..self.n_nodes).map(|_| Arc::default()).collect();
        // One inbound mailbox per (network, member node), notifying the
        // member's arrivals count.
        let mut networks = Vec::with_capacity(self.networks.len());
        for spec in &self.networks {
            let inbox = |m: NodeId| (m, Mailbox::notifying(Arc::clone(&arrivals[m])));
            let mailboxes: Arc<HashMap<NodeId, Mailbox<Frame>>> =
                Arc::new(spec.members.iter().map(|&m| inbox(m)).collect());
            networks.push(BuiltNetwork {
                uid: NEXT_NET_UID.fetch_add(1, Ordering::Relaxed),
                name: Arc::clone(&spec.name),
                kind: spec.kind,
                members: Arc::from(spec.members.as_slice()),
                rails: spec.rails,
                mailboxes,
            });
        }
        let buses = Arc::new(
            (0..self.n_nodes)
                .map(|_| PciBus::new(self.calib.pci))
                .collect::<Vec<_>>(),
        );
        World {
            n_nodes: self.n_nodes,
            networks,
            arrivals,
            buses,
            calib: Arc::new(self.calib),
            faults: self.faults.as_ref().map(FaultPlan::build),
        }
    }
}

static NEXT_NET_UID: AtomicU64 = AtomicU64::new(1);

struct BuiltNetwork {
    /// Process-unique id, so per-network global registries (e.g. the SISCI
    /// segment directory) never collide across worlds or tests.
    uid: u64,
    name: Arc<str>,
    kind: NetKind,
    members: Arc<[NodeId]>,
    rails: usize,
    mailboxes: Arc<HashMap<NodeId, Mailbox<Frame>>>,
}

/// A fully-built cluster (of clusters). See [`WorldBuilder`].
pub struct World {
    n_nodes: usize,
    networks: Vec<BuiltNetwork>,
    /// Per node, what every arrival at it notifies ([`NodeEnv::arrivals`]).
    arrivals: Vec<Arc<EventCount>>,
    buses: Arc<Vec<PciBus>>,
    calib: Arc<Calib>,
    faults: Option<Arc<FaultState>>,
}

impl World {
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The fault layer's runtime state, if a [`FaultPlan`] was attached:
    /// the deterministic fault log, totals, and the dynamic crash switch.
    pub fn faults(&self) -> Option<&Arc<FaultState>> {
        self.faults.as_ref()
    }

    fn env_for(&self, node: NodeId, run: Arc<Run>) -> NodeEnv {
        let adapters = self
            .networks
            .iter()
            .enumerate()
            .filter(|(_, net)| net.members.contains(&node))
            .flat_map(|(i, net)| {
                (0..net.rails).map(move |rail| Adapter {
                    uid: net.uid,
                    net: NetworkId(i),
                    rail,
                    kind: net.kind,
                    name: Arc::clone(&net.name),
                    node,
                    peers: Arc::clone(&net.members),
                    mailboxes: Arc::clone(&net.mailboxes),
                    arrivals: Arc::clone(&self.arrivals[node]),
                    pci: self.buses[node].clone(),
                    all_buses: Arc::clone(&self.buses),
                    calib: Arc::clone(&self.calib),
                    faults: self.faults.clone(),
                })
            })
            .collect();
        let topology = Arc::new(
            self.networks
                .iter()
                .map(|n| (Arc::clone(&n.name), n.kind, Arc::clone(&n.members)))
                .collect::<Vec<_>>(),
        );
        NodeEnv {
            node,
            n_nodes: self.n_nodes,
            adapters,
            arrivals: Arc::clone(&self.arrivals[node]),
            pci: self.buses[node].clone(),
            run,
            topology,
            calib: Arc::clone(&self.calib),
            faults: self.faults.clone(),
        }
    }

    /// Run `f` once per node, each on its own OS thread with a fresh virtual
    /// clock, and return the per-node results in node order.
    ///
    /// A panic in a node thread aborts the run: every thread of the run is
    /// unparked, and each blocking wait (every [`EventCount`] wait and the
    /// polling loops — see [`time::check_abort`]) panics in turn instead
    /// of waiting for a peer that is gone. Once all threads are joined the
    /// *first* panic's payload is re-raised.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(NodeEnv) -> T + Send + Sync,
    {
        let run = Arc::new(Run {
            panicked: Arc::new(AtomicUsize::new(NO_NODE)),
            threads: Mutex::default(),
            n_nodes: self.n_nodes,
            arrived: AtomicUsize::new(0),
            barrier_moved: EventCount::default(),
        });
        thread::scope(|s| {
            let mut handles = Vec::with_capacity(self.n_nodes);
            for node in 0..self.n_nodes {
                let env = self.env_for(node, Arc::clone(&run));
                let (f, run) = (&f, &run);
                handles.push(s.spawn(move || {
                    let prev = time::install_clock(ClockHandle::new());
                    run.enlist();
                    let out = catch_unwind(AssertUnwindSafe(|| f(env)));
                    if out.is_err() {
                        run.abort(node);
                    }
                    time::restore_clock(prev);
                    out
                }));
            }
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            let first = run.panicked.load(Ordering::SeqCst);
            let mut results = Vec::with_capacity(self.n_nodes);
            let mut panic = None;
            for (node, out) in joined.into_iter().enumerate() {
                match out.and_then(|out| out) {
                    Ok(v) => results.push(v),
                    Err(e) if panic.is_none() || node == first => panic = Some(e),
                    Err(_) => {}
                }
            }
            if let Some(e) = panic {
                std::panic::resume_unwind(e);
            }
            results
        })
    }
}

/// What the node threads of one [`World::run`] share besides the fabric.
struct Run {
    panicked: AbortFlag,
    /// Every thread of the run, node and auxiliary: an abort unparks them.
    threads: Mutex<Vec<Thread>>,
    n_nodes: usize,
    /// Calls of [`NodeEnv::barrier`] so far, all rounds together. (Not a
    /// `std::sync::Barrier`: that one cannot be left when a node dies.)
    arrived: AtomicUsize,
    barrier_moved: EventCount,
}

impl Run {
    fn barrier_wait(&self) {
        let ticket = self.arrived.fetch_add(1, Ordering::SeqCst);
        // This round ends when every node has made as many calls as we have.
        let full = (ticket / self.n_nodes + 1) * self.n_nodes;
        if ticket + 1 == full {
            return self.barrier_moved.notify();
        }
        let arrived = || (self.arrived.load(Ordering::SeqCst) >= full).then_some(());
        self.barrier_moved.wait_timeout(0, None, arrived);
    }

    /// Make the calling thread one of the run's: its waits end when a node
    /// panics.
    fn enlist(&self) {
        lock_unpoisoned(&self.threads).push(thread::current());
        time::set_abort(Arc::clone(&self.panicked));
    }

    /// Node `node`'s closure panicked: raise the flag and unpark every
    /// thread of the run, whatever it sleeps on, to see it. The first panic
    /// is the one to report; the aborts it causes in the other nodes arrive
    /// here too, and change nothing.
    fn abort(&self, node: NodeId) {
        let first =
            self.panicked
                .compare_exchange(NO_NODE, node, Ordering::SeqCst, Ordering::SeqCst);
        if first.is_ok() {
            lock_unpoisoned(&self.threads)
                .iter()
                .for_each(Thread::unpark);
        }
    }
}

/// Per-node execution environment handed to the closure of [`World::run`].
pub struct NodeEnv {
    node: NodeId,
    n_nodes: usize,
    adapters: Vec<Adapter>,
    arrivals: Arc<EventCount>,
    pci: PciBus,
    run: Arc<Run>,
    /// World topology: every network's (name, kind, members) — global
    /// configuration knowledge every node legitimately has.
    topology: Arc<Vec<TopologyEntry>>,
    calib: Arc<Calib>,
    faults: Option<Arc<FaultState>>,
}

impl NodeEnv {
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// The world's fault layer, if one is installed.
    pub fn faults(&self) -> Option<&Arc<FaultState>> {
        self.faults.as_ref()
    }

    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// All adapters this node owns, in network-declaration order.
    pub fn adapters(&self) -> &[Adapter] {
        &self.adapters
    }

    /// The adapter on network `net`, if this node is a member.
    ///
    /// # Panics
    /// In debug builds, panics when this node owns several adapters
    /// (rails) on `net` — the singular lookup is ambiguous there; use
    /// [`adapters_on`](Self::adapters_on). Release builds return rail 0.
    pub fn adapter_on(&self, net: NetworkId) -> Option<&Adapter> {
        let mut it = self.adapters.iter().filter(|a| a.net == net);
        let first = it.next();
        debug_assert!(
            it.next().is_none(),
            "node {} owns several adapters (rails) on network {net:?}; \
             use adapters_on to get all of them",
            self.node
        );
        first
    }

    /// The adapter on the network named `name`, if this node is a member.
    ///
    /// # Panics
    /// In debug builds, panics when this node owns several adapters
    /// (rails) on that network — the singular lookup is ambiguous there;
    /// use [`adapters_named`](Self::adapters_named). Release builds return
    /// rail 0.
    pub fn adapter_named(&self, name: &str) -> Option<&Adapter> {
        let mut it = self.adapters.iter().filter(|a| &*a.name == name);
        let first = it.next();
        debug_assert!(
            it.next().is_none(),
            "node {} owns several adapters (rails) on network {name:?}; \
             use adapters_named to get all of them",
            self.node
        );
        first
    }

    /// Every adapter this node owns on network `net`, in rail order.
    /// Empty when the node is not a member.
    pub fn adapters_on(&self, net: NetworkId) -> Vec<&Adapter> {
        self.adapters.iter().filter(|a| a.net == net).collect()
    }

    /// Every adapter this node owns on the network named `name`, in rail
    /// order. Empty when the node is not a member.
    pub fn adapters_named(&self, name: &str) -> Vec<&Adapter> {
        self.adapters.iter().filter(|a| &*a.name == name).collect()
    }

    /// This node's host I/O bus.
    pub fn pci(&self) -> &PciBus {
        &self.pci
    }

    /// This node's arrivals count: every frame pushed into any of its
    /// inboxes and every flag written into any SISCI segment it owns
    /// notifies it, so a wait for "anything inbound" parks here.
    pub fn arrivals(&self) -> &Arc<EventCount> {
        &self.arrivals
    }

    /// The world's calibration table.
    pub fn calib(&self) -> &Calib {
        &self.calib
    }

    /// Members of the named network, whether or not this node is one
    /// (topology is static configuration, not a secret).
    pub fn members_of(&self, network: &str) -> Option<Vec<NodeId>> {
        self.topology
            .iter()
            .find(|(n, _, _)| &**n == network)
            .map(|(_, _, m)| m.to_vec())
    }

    /// Names and kinds of every network in the world.
    pub fn networks(&self) -> Vec<(String, NetKind)> {
        self.topology
            .iter()
            .map(|(n, k, _)| (n.to_string(), *k))
            .collect()
    }

    /// Real-time barrier across *all* nodes of the world.
    pub fn barrier(&self) {
        self.run.barrier_wait();
    }

    /// Spawn an auxiliary thread on this node (e.g. a gateway pipeline
    /// half). The thread gets its own virtual clock, initialized to the
    /// spawner's current virtual time, and is enlisted in the spawner's
    /// run: a node panic aborts its waits too.
    pub fn spawn_thread<T, F>(&self, f: F) -> thread::JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let start = time::now();
        let run = Arc::clone(&self.run);
        thread::spawn(move || {
            let clock = ClockHandle::new();
            clock.advance_to(start);
            let prev = time::install_clock(clock);
            run.enlist();
            let out = f();
            time::restore_clock(prev);
            out
        })
    }
}

/// A simulated NIC: this node's endpoint on one network.
///
/// The adapter is *raw*: it moves frames and enforces membership, but all
/// timing is charged by the protocol stack driving it (see
/// [`crate::stacks`]), mirroring how BIP/SISCI/VIA own their NICs.
#[derive(Clone)]
pub struct Adapter {
    uid: u64,
    net: NetworkId,
    /// Which of the owning node's NICs on this network this is (0-based).
    rail: usize,
    kind: NetKind,
    name: Arc<str>,
    node: NodeId,
    peers: Arc<[NodeId]>,
    mailboxes: Arc<HashMap<NodeId, Mailbox<Frame>>>,
    /// The owning node's arrivals count (see [`NodeEnv::arrivals`]).
    arrivals: Arc<EventCount>,
    pci: PciBus,
    all_buses: Arc<Vec<PciBus>>,
    calib: Arc<Calib>,
    faults: Option<Arc<FaultState>>,
}

impl Adapter {
    /// Process-unique id of the underlying network.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    pub fn network(&self) -> NetworkId {
        self.net
    }

    /// Rail index of this adapter on its network (0 for single-rail
    /// networks).
    pub fn rail(&self) -> usize {
        self.rail
    }

    /// Is `dst` reachable over *this rail*? `true` on a fault-free world;
    /// otherwise false when `dst` is crashed, globally partitioned from
    /// us, or this rail's link to it has been cut
    /// ([`FaultPlan::partition_rail_after`]). Fail-fast checks in the
    /// stacks use this so one dead rail does not condemn its siblings.
    pub fn reachable_to(&self, dst: NodeId) -> bool {
        self.faults
            .as_ref()
            .is_none_or(|f| f.reachable_on(self.net.0, self.rail, self.node, dst))
    }

    /// Can `src` still reach us over *this rail*? The inbound mirror of
    /// [`reachable_to`](Self::reachable_to): rail cuts activate per
    /// direction, so a receiver waiting on a frame must ask about the
    /// sender's direction, not its own.
    pub fn reachable_from(&self, src: NodeId) -> bool {
        self.faults
            .as_ref()
            .is_none_or(|f| f.reachable_on(self.net.0, self.rail, src, self.node))
    }

    /// The fault-domain key of this adapter: its network index with the
    /// rail folded into the upper bits (see [`crate::fault::rail_key`]).
    fn fault_key(&self) -> usize {
        crate::fault::rail_key(self.net.0, self.rail)
    }

    pub fn kind(&self) -> NetKind {
        self.kind
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node owning this adapter.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// All members of this network (including this node).
    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// Host bus of the owning node.
    pub fn pci(&self) -> &PciBus {
        &self.pci
    }

    /// The owning node's arrivals count (see [`NodeEnv::arrivals`]).
    pub fn arrivals(&self) -> &Arc<EventCount> {
        &self.arrivals
    }

    /// Host bus of any node in the world. Simulation-level access: a
    /// sending stack charges the *receiver's* inbound bus crossing when it
    /// computes the frame's arrival (the NIC's bus-master transactions on
    /// the far side), which keeps contention visible to transfers the
    /// receiving node issues later.
    pub fn pci_of(&self, node: NodeId) -> &PciBus {
        &self.all_buses[node]
    }

    /// The world's calibration table: what the stack driving this adapter
    /// charges.
    pub fn calib(&self) -> &Calib {
        &self.calib
    }

    /// Is a fault plan installed in this world? Stacks use this to arm
    /// their recovery machinery (acks, timeouts) only when faults are
    /// possible, keeping the reliable-fabric fast path untouched.
    pub fn faulty(&self) -> bool {
        self.faults.is_some()
    }

    /// The world's fault layer, if one is installed.
    pub fn faults(&self) -> Option<&Arc<FaultState>> {
        self.faults.as_ref()
    }

    /// Deliver a frame to `dst`'s inbound mailbox on this network.
    ///
    /// When a fault plan is installed, the frame first rolls against the
    /// deterministic fault engine: it may be dropped, duplicated, delayed,
    /// or stalled (see [`crate::fault`]).
    ///
    /// # Panics
    /// Panics if `dst` is not a member of this network — the simulated wire
    /// does not reach it.
    pub fn send_raw(&self, dst: NodeId, frame: Frame) {
        self.send_judged(dst, frame, false);
    }

    /// [`send_raw`](Self::send_raw) for acknowledgment/control frames the
    /// protocol models as reliably delivered: the seeded loss roll is
    /// skipped (crashes, partitions, stalls, duplication and jitter still
    /// apply).
    ///
    /// The stop-and-wait stacks send their acks through this so the
    /// *final* ack of an exchange cannot be lost against a receiver that
    /// has already gone quiet — data-frame loss alone exercises their
    /// retransmission paths, and termination stays deterministic.
    ///
    /// # Panics
    /// Panics if `dst` is not a member of this network.
    pub fn send_raw_control(&self, dst: NodeId, frame: Frame) {
        self.send_judged(dst, frame, true);
    }

    fn send_judged(&self, dst: NodeId, mut frame: Frame, control: bool) {
        let mb = self
            .mailboxes
            .get(&dst)
            .unwrap_or_else(|| panic!("node {dst} is not on network {:?}", self.name));
        let Some(faults) = &self.faults else {
            return mb.push(frame);
        };
        faults.carry((self.fault_key(), self.node, dst), control, |v| {
            if v.stall_ns > 0 {
                time::advance(VDuration::from_micros_f64(v.stall_ns as f64 / 1_000.0));
            }
            if !v.deliver {
                return;
            }
            if v.delay_ns > 0 {
                frame.arrival = VTime::from_nanos(frame.arrival.as_nanos() + v.delay_ns);
            }
            if v.duplicate {
                mb.push(frame.clone());
            }
            mb.push(frame);
        });
    }

    /// This node's inbound mailbox on this network.
    pub fn inbox(&self) -> &Mailbox<Frame> {
        self.mailboxes
            .get(&self.node)
            .expect("adapter owner is a member")
    }

    /// Another member's inbound mailbox (simulation-level introspection,
    /// used by stacks to enforce receiver-side capacity contracts).
    ///
    /// # Panics
    /// Panics if `node` is not a member of this network.
    pub fn inbox_of(&self, node: NodeId) -> Mailbox<Frame> {
        self.mailboxes
            .get(&node)
            .unwrap_or_else(|| panic!("node {node} is not on network {:?}", self.name))
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{VDuration, VTime};
    use bytes::Bytes;

    #[test]
    fn builder_validates_membership() {
        let mut b = WorldBuilder::new(3);
        b.network("sci0", NetKind::Sci, &[0, 1, 2]);
        let w = b.build();
        assert_eq!(w.n_nodes(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_out_of_range_member() {
        let mut b = WorldBuilder::new(2);
        b.network("x", NetKind::Ethernet, &[0, 5]);
    }

    #[test]
    #[should_panic(expected = "duplicate members")]
    fn builder_rejects_duplicate_member() {
        let mut b = WorldBuilder::new(3);
        b.network("x", NetKind::Ethernet, &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "duplicate network name")]
    fn builder_rejects_duplicate_name() {
        let mut b = WorldBuilder::new(3);
        b.network("x", NetKind::Ethernet, &[0, 1]);
        b.network("x", NetKind::Sci, &[1, 2]);
    }

    #[test]
    fn nodes_see_only_their_networks() {
        let mut b = WorldBuilder::new(4);
        let sci = b.network("sci0", NetKind::Sci, &[0, 1]);
        let myr = b.network("myr0", NetKind::Myrinet, &[1, 2, 3]);
        let w = b.build();
        let counts = w.run(|env| {
            (
                env.adapters().len(),
                env.adapter_on(sci).is_some(),
                env.adapter_on(myr).is_some(),
            )
        });
        assert_eq!(counts[0], (1, true, false));
        assert_eq!(counts[1], (2, true, true)); // the gateway
        assert_eq!(counts[2], (1, false, true));
        assert_eq!(counts[3], (1, false, true));
    }

    #[test]
    fn multirail_network_yields_one_adapter_per_rail() {
        let mut b = WorldBuilder::new(2);
        let net = b.network_with_rails("myr0", NetKind::Myrinet, &[0, 1], 3);
        let w = b.build();
        w.run(|env| {
            let rails = env.adapters_on(net);
            assert_eq!(rails.len(), 3);
            for (i, a) in rails.iter().enumerate() {
                assert_eq!(a.rail(), i);
                assert_eq!(a.network(), net);
            }
            assert_eq!(env.adapters_named("myr0").len(), 3);
            // All rails share the network's wire: one mailbox per node.
            let f = Frame::control(env.id(), 9, 9, VTime::ZERO);
            rails[2].send_raw(1 - env.id(), f);
            let got = rails[0].inbox().recv_match(|f| f.kind == 9);
            assert_eq!(got.src, 1 - env.id());
        });
    }

    #[test]
    fn rail_cut_is_seen_by_the_receiving_end_too() {
        let mut b = WorldBuilder::new(2);
        let net = b.network_with_rails("myr0", NetKind::Myrinet, &[0, 1], 2);
        let plan = crate::FaultPlan::new(0).partition_rail_after(net.0, 1, 0, 1, 1);
        let w = b.fault_plan(plan).build();
        w.run(|env| {
            let rails = env.adapters_on(net);
            if env.id() == 0 {
                // Frame 0 crosses; the cut is live for everything after.
                rails[1].send_raw(1, Frame::control(0, 9, 9, VTime::ZERO));
                assert!(!rails[1].reachable_to(1));
            }
            env.barrier();
            if env.id() == 1 {
                // Node 1 has sent nothing, so its own direction is open;
                // what it waits for from node 0 can no longer arrive.
                assert!(rails[1].reachable_to(0));
                assert!(!rails[1].reachable_from(0));
                assert!(rails[0].reachable_from(0), "rail 0 untouched");
            }
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "use adapters_named")]
    fn singular_lookup_panics_on_multirail() {
        let mut b = WorldBuilder::new(2);
        b.network_with_rails("myr0", NetKind::Myrinet, &[0, 1], 2);
        let w = b.build();
        w.run(|env| {
            let _ = env.adapter_named("myr0");
        });
    }

    #[test]
    #[should_panic(expected = "rails must be in")]
    fn zero_rails_rejected() {
        let mut b = WorldBuilder::new(2);
        b.network_with_rails("x", NetKind::Ethernet, &[0, 1], 0);
    }

    #[test]
    fn frames_flow_between_members() {
        let mut b = WorldBuilder::new(2);
        let net = b.network("eth0", NetKind::Ethernet, &[0, 1]);
        let w = b.build();
        let out = w.run(|env| {
            let a = env.adapter_on(net).unwrap();
            if env.id() == 0 {
                a.send_raw(
                    1,
                    Frame {
                        src: 0,
                        kind: 1,
                        tag: 42,
                        arrival: VTime::from_nanos(777),
                        payload: Bytes::from_static(b"hello"),
                    },
                );
                Vec::new()
            } else {
                let f = a.inbox().recv_match(|f| f.tag == 42);
                f.payload.to_vec()
            }
        });
        assert_eq!(out[1], b"hello");
    }

    #[test]
    fn run_propagates_node_panics() {
        let mut b = WorldBuilder::new(2);
        b.network("eth0", NetKind::Ethernet, &[0, 1]);
        let w = b.build();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.run(|env| {
                if env.id() == 1 {
                    panic!("node failure");
                }
            });
        }));
        assert!(res.is_err());
    }

    /// A node that panics ends the other nodes' waits — here a barrier and
    /// a parked receive — and `run` re-raises *its* payload, not theirs.
    /// (The pause biases toward the harder order, both already blocked;
    /// either order must abort.)
    #[test]
    fn a_node_panic_ends_the_other_nodes_waits() {
        let mut b = WorldBuilder::new(3);
        let net = b.network("eth0", NetKind::Ethernet, &[0, 1, 2]);
        let w = b.build();
        let started = std::time::Instant::now();
        let run = std::panic::AssertUnwindSafe(|| {
            w.run(|env| match env.id() {
                0 => env.barrier(),
                1 => drop(env.adapter_on(net).unwrap().inbox().recv_match(|_| true)),
                _ => {
                    thread::sleep(std::time::Duration::from_millis(20));
                    panic!("node 2 dies");
                }
            })
        });
        let payload = std::panic::catch_unwind(run).expect_err("the run re-raises the panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"node 2 dies"));
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
    }

    #[test]
    fn node_threads_have_independent_clocks() {
        let mut b = WorldBuilder::new(2);
        b.network("eth0", NetKind::Ethernet, &[0, 1]);
        let w = b.build();
        let times = w.run(|env| {
            if env.id() == 0 {
                time::advance(VDuration::from_micros(10));
            }
            time::now().as_nanos()
        });
        assert_eq!(times[0], 10_000);
        assert_eq!(times[1], 0);
    }

    #[test]
    fn spawn_thread_inherits_virtual_time() {
        let mut b = WorldBuilder::new(2);
        b.network("eth0", NetKind::Ethernet, &[0, 1]);
        let w = b.build();
        let out = w.run(|env| {
            time::advance(VDuration::from_micros(5));
            let h = env.spawn_thread(|| {
                time::advance(VDuration::from_micros(1));
                time::now().as_nanos()
            });
            h.join().unwrap()
        });
        assert_eq!(out, vec![6_000, 6_000]);
    }

    #[test]
    #[should_panic(expected = "is not on network")]
    fn send_to_non_member_panics() {
        let mut b = WorldBuilder::new(3);
        let net = b.network("sci0", NetKind::Sci, &[0, 1]);
        let w = b.build();
        w.run(|env| {
            if env.id() == 0 {
                let a = env.adapter_on(net).unwrap();
                a.send_raw(2, Frame::control(0, 0, 0, VTime::ZERO));
            }
        });
    }
}
