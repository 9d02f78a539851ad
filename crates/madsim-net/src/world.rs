//! Cluster topology: worlds, nodes, networks, adapters.
//!
//! A [`World`] is a set of nodes connected by one or more named networks.
//! A node that is a member of a network owns an [`Adapter`] on it — the
//! simulated NIC. Clusters-of-clusters configurations are expressed
//! naturally: a gateway node is simply a member of two networks (paper §6).
//!
//! [`WorldBuilder::build`] builds everything the world owns once: per
//! network its members and mailboxes, the SISCI segment directory and the
//! VIA descriptor counts; per node its arrivals count and PCI bus; the
//! calibration table and the fault state. [`World`], [`NodeEnv`] and
//! [`Adapter`] are handles on it, so cloning an adapter is one reference
//! count, nothing a world owns outlives its last handle, and no state is
//! shared between worlds.
//!
//! When a world runs, each node is a real OS thread: node *i* of every
//! world a thread runs is the same OS thread, worker *i* of that thread's
//! *crew* (see [`World::run`]). The crew is started once, so a run costs
//! two hand-offs per node instead of a thread spawn and join.

use crate::calib::Calib;
use crate::eventcount::{lock_unpoisoned, EventCount, WaitStats, EVIDENCE_POLLS};
use crate::fault::{FaultPlan, FaultState};
use crate::frame::{Frame, NodeId};
use crate::mailbox::Mailbox;
use crate::pci::PciBus;
use crate::stacks::sisci::Segments;
use crate::stacks::via::ViCells;
use crate::time::{self, AbortFlag, ClockHandle, NO_NODE};
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};

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
    name: String,
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
            self.networks.iter().all(|n| n.name != name),
            "duplicate network name {name:?}"
        );
        let id = NetworkId(self.networks.len());
        self.networks.push(NetworkSpec {
            name: name.to_owned(),
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
        for spec in self.networks {
            let inbox = |m: NodeId| (m, Mailbox::notifying(Arc::clone(&arrivals[m])));
            let mailboxes = spec.members.iter().map(|&m| inbox(m)).collect();
            networks.push(Network {
                spec,
                mailboxes,
                segments: Segments::default(),
                vi_cells: ViCells::default(),
            });
        }
        let buses = (0..self.n_nodes)
            .map(|_| PciBus::new(self.calib.pci))
            .collect();
        World {
            world: Arc::new(WorldShared {
                networks,
                arrivals,
                buses,
                calib: self.calib,
                faults: self.faults.as_ref().map(FaultPlan::build),
            }),
        }
    }
}

/// One built network: its declaration and the state its members share.
struct Network {
    spec: NetworkSpec,
    mailboxes: HashMap<NodeId, Mailbox<Frame>>,
    /// The SISCI segments exported on it (an SCI network's only).
    segments: Segments,
    /// The VIA descriptor counts of its VIs (a VIA SAN's only).
    vi_cells: ViCells,
}

/// Everything one world owns, built once by [`WorldBuilder::build`]. The
/// [`World`], every [`NodeEnv`] and every [`Adapter`] are handles on it.
///
/// It holds no handle on itself: what lives here (mailboxes, segments,
/// descriptor counts) keeps only node ids and `Arc`s of leaf state, so
/// the last handle dropped frees the world.
struct WorldShared {
    networks: Vec<Network>,
    /// Per node, what every arrival at it notifies ([`NodeEnv::arrivals`]).
    arrivals: Vec<Arc<EventCount>>,
    /// Per node, its host bus.
    buses: Vec<PciBus>,
    calib: Calib,
    faults: Option<Arc<FaultState>>,
}

impl WorldShared {
    fn n_nodes(&self) -> usize {
        self.arrivals.len()
    }
}

/// A fully-built cluster (of clusters). See [`WorldBuilder`].
pub struct World {
    world: Arc<WorldShared>,
}

impl World {
    pub fn n_nodes(&self) -> usize {
        self.world.n_nodes()
    }

    /// The fault layer's runtime state, if a [`FaultPlan`] was attached:
    /// the deterministic fault log, totals, and the dynamic crash switch.
    pub fn faults(&self) -> Option<&Arc<FaultState>> {
        self.world.faults.as_ref()
    }

    /// Node `node`'s environment, its adapter list still empty: the node's
    /// worker fills it in ([`World::run`]), so the thread that drops the
    /// list is the one that allocated it.
    fn env_for(&self, node: NodeId, run: Arc<Run>) -> NodeEnv {
        NodeEnv {
            world: Arc::clone(&self.world),
            node,
            adapters: Vec::new(),
            run,
        }
    }

    /// The adapters node `node` owns, in network-declaration order.
    fn adapters_of(&self, node: NodeId) -> Vec<Adapter> {
        let nets = self.world.networks.iter().enumerate();
        nets.filter(|(_, net)| net.spec.members.contains(&node))
            .flat_map(|(i, net)| {
                (0..net.spec.rails).map(move |rail| Adapter {
                    world: Arc::clone(&self.world),
                    net: NetworkId(i),
                    rail,
                    node,
                })
            })
            .collect()
    }

    /// Run `f` once per node, each with a fresh virtual clock, and return
    /// the per-node results in node order.
    ///
    /// Node *i* runs on worker *i* of the calling thread's crew: an OS
    /// thread named `mad-node-{i}`, spawned the first time this thread runs
    /// a world of more than *i* nodes, that exits when this thread does. So
    /// node *i* of every world a thread runs is the same OS thread, and a
    /// run spawns no thread once the crew is big enough. A node that runs a
    /// world of its own runs it on its worker's crew.
    ///
    /// The library's per-thread state — the virtual clock with its pending
    /// charge, and the run's abort flag — is installed for a node's job and
    /// removed after it. OS state a closure gives its thread is not: a
    /// worker pinned to a CPU (as `benchmark/`'s harness pins node *i* to
    /// CPU *i*) stays pinned in the next world, and so do the threads it
    /// spawns there.
    ///
    /// A panic in a node aborts the run: every thread of the run is
    /// unparked, and each blocking wait (every [`EventCount`] wait and the
    /// polling loops — see [`time::check_abort`]) panics in turn instead
    /// of waiting for a peer that is gone. Once every node has returned
    /// the *first* panic's payload is re-raised; the crew lives on.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(NodeEnv) -> T + Send + Sync,
    {
        let n_nodes = self.n_nodes();
        let run = Arc::new(Run {
            panicked: Arc::new(AtomicUsize::new(NO_NODE)),
            threads: Mutex::default(),
            n_nodes,
            arrived: AtomicUsize::new(0),
            barrier_moved: EventCount::default(),
        });
        let mut outs: Vec<Option<thread::Result<T>>> = (0..n_nodes).map(|_| None).collect();
        let jobs = outs.iter_mut().enumerate().map(|(node, out)| {
            let env = self.env_for(node, Arc::clone(&run));
            let (f, run) = (&f, &run);
            Box::new(move || {
                let env = NodeEnv {
                    adapters: self.adapters_of(node),
                    ..env
                };
                let prev = time::install_clock(ClockHandle::new());
                let prev_abort = run.enlist();
                let got = catch_unwind(AssertUnwindSafe(|| f(env)));
                if got.is_err() {
                    run.abort(node);
                }
                time::restore_abort(prev_abort);
                time::restore_clock(prev);
                *out = Some(got);
            }) as Box<dyn FnOnce() + Send + '_>
        });
        CREW.with_borrow_mut(|crew| crew.dispatch(jobs.collect()));
        let first = run.panicked.load(Ordering::SeqCst);
        let mut results = Vec::with_capacity(n_nodes);
        let mut panic = None;
        for (node, out) in outs.into_iter().enumerate() {
            match out.expect("dispatch returns once every job has run") {
                Ok(v) => results.push(v),
                Err(e) if panic.is_none() || node == first => panic = Some(e),
                Err(_) => {}
            }
        }
        if let Some(e) = panic {
            std::panic::resume_unwind(e);
        }
        results
    }
}

/// A node's job as its worker receives it, its borrows erased (see
/// [`Crew::dispatch`]).
type Job = Box<dyn FnOnce() + Send>;

/// What a worker is handed.
enum Order {
    Run(Job),
    Exit,
}

/// One worker's in-tray.
#[derive(Default)]
struct Seat {
    order: Mutex<Option<Order>>,
    bell: EventCount,
}

impl Seat {
    fn hand(&self, order: Order) {
        *lock_unpoisoned(&self.order) = Some(order);
        self.bell.notify();
    }

    /// A worker's life: run each job it is handed and count it done, until
    /// it is told to exit. It works for no run while idle, so no abort ends
    /// this wait.
    fn serve(&self, latch: &Latch) {
        loop {
            let order = self
                .bell
                .wait_timeout(0, None, || lock_unpoisoned(&self.order).take());
            match order {
                Some(Order::Run(job)) => {
                    job();
                    latch.count_down();
                }
                Some(Order::Exit) | None => return,
            }
        }
    }
}

/// How many of the jobs dispatched last have yet to return.
#[derive(Default)]
struct Latch {
    left: AtomicUsize,
    done: EventCount,
}

impl Latch {
    fn count_down(&self) {
        if self.left.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.done.notify();
        }
    }
}

/// One thread's node threads: worker *i* runs node *i* of every world that
/// thread runs (see [`World::run`]).
#[derive(Default)]
struct Crew {
    seats: Vec<Arc<Seat>>,
    latch: Arc<Latch>,
}

thread_local! {
    static CREW: RefCell<Crew> = RefCell::default();
}

impl Crew {
    /// Run job *i* on worker *i*, spawning the workers the crew lacks
    /// first, and return once every job has returned.
    #[allow(unsafe_code)]
    fn dispatch(&mut self, jobs: Vec<Box<dyn FnOnce() + Send + '_>>) {
        while self.seats.len() < jobs.len() {
            let seat = Arc::<Seat>::default();
            let (mine, latch) = (Arc::clone(&seat), Arc::clone(&self.latch));
            thread::Builder::new()
                .name(format!("mad-node-{}", self.seats.len()))
                .spawn(move || mine.serve(&latch))
                .expect("spawn a node thread");
            self.seats.push(seat);
        }
        // This thread may itself be a node of an outer run: that run's
        // abort must not end the wait for our jobs, so it is masked until
        // they have returned, and seen by this node's next wait.
        let outer = time::install_abort(None);
        self.latch.left.store(jobs.len(), Ordering::SeqCst);
        for (seat, job) in self.seats.iter().zip(jobs) {
            // SAFETY: the job borrows from the caller's frame, which must
            // outlive every use of it. It does, because this function
            // neither returns nor unwinds while a dispatched job can still
            // run — the invariant `std::thread::scope` keeps:
            // - everything fallible is behind us: the crew is grown, every
            //   job (and `NodeEnv`) built, the abort flag masked;
            // - from here to the end of the wait nothing can panic: handing
            //   over and the wait take poison-proof locks, and with the
            //   abort masked no `EventCount` wait calls `check_abort`;
            // - a job's completion signal is its last access to the frame:
            //   the worker counts it down after the job has returned, and
            //   the job catches its closure's panic;
            // - the wait ends only when every job dispatched here has
            //   counted down.
            let job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            seat.hand(Order::Run(job));
        }
        let latch = &self.latch;
        let returned = || (latch.left.load(Ordering::SeqCst) == 0).then_some(());
        latch.done.wait_timeout(0, None, returned);
        time::restore_abort(outer);
    }
}

impl Drop for Crew {
    /// The owner thread is exiting (a thread-local's destructor): so do its
    /// workers, idle since its last run.
    fn drop(&mut self) {
        for seat in &self.seats {
            seat.hand(Order::Exit);
        }
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
    /// Every node of the run was dispatched at the same instant, so the
    /// last one is normally microseconds behind: the wait polls the
    /// evidence grant before it parks.
    fn barrier_wait(&self) {
        let ticket = self.arrived.fetch_add(1, Ordering::SeqCst);
        // This round ends when every node has made as many calls as we have.
        let full = (ticket / self.n_nodes + 1) * self.n_nodes;
        if ticket + 1 == full {
            return self.barrier_moved.notify();
        }
        let arrived = || (self.arrived.load(Ordering::SeqCst) >= full).then_some(());
        self.barrier_moved
            .wait_timeout(EVIDENCE_POLLS, None, arrived);
    }

    /// Make the calling thread one of the run's: its waits end when a node
    /// panics. Returns the abort flag this replaces, for
    /// [`time::restore_abort`] once the thread's work for the run is done.
    fn enlist(&self) -> Option<AbortFlag> {
        lock_unpoisoned(&self.threads).push(thread::current());
        time::install_abort(Some(Arc::clone(&self.panicked)))
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

/// Per-node execution environment handed to the closure of [`World::run`]:
/// a handle on the world, for one node of it.
pub struct NodeEnv {
    world: Arc<WorldShared>,
    node: NodeId,
    adapters: Vec<Adapter>,
    run: Arc<Run>,
}

impl NodeEnv {
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// The world's fault layer, if one is installed.
    pub fn faults(&self) -> Option<&Arc<FaultState>> {
        self.world.faults.as_ref()
    }

    pub fn n_nodes(&self) -> usize {
        self.world.n_nodes()
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
        let mut it = self.adapters.iter().filter(|a| a.name() == name);
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
        self.adapters.iter().filter(|a| a.name() == name).collect()
    }

    /// This node's host I/O bus.
    pub fn pci(&self) -> &PciBus {
        &self.world.buses[self.node]
    }

    /// This node's arrivals count: every frame pushed into any of its
    /// inboxes and every flag written into any SISCI segment it owns
    /// notifies it, so a wait for "anything inbound" parks here.
    pub fn arrivals(&self) -> &Arc<EventCount> {
        &self.world.arrivals[self.node]
    }

    /// The world's calibration table.
    pub fn calib(&self) -> &Calib {
        &self.world.calib
    }

    /// Members of the named network, whether or not this node is one
    /// (topology is static configuration, not a secret).
    pub fn members_of(&self, network: &str) -> Option<Vec<NodeId>> {
        let mut nets = self.world.networks.iter();
        nets.find(|n| n.spec.name == network)
            .map(|n| n.spec.members.clone())
    }

    /// Names and kinds of every network in the world.
    pub fn networks(&self) -> Vec<(String, NetKind)> {
        let nets = self.world.networks.iter();
        nets.map(|n| (n.spec.name.clone(), n.spec.kind)).collect()
    }

    /// Real-time barrier across *all* nodes of the world.
    pub fn barrier(&self) {
        self.run.barrier_wait();
    }

    /// What this run's [`barrier`](Self::barrier) waits cost so far, all
    /// nodes together.
    pub fn barrier_stats(&self) -> WaitStats {
        self.run.barrier_moved.stats()
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
            let prev_abort = run.enlist();
            let out = f();
            time::restore_abort(prev_abort);
            time::restore_clock(prev);
            out
        })
    }
}

/// A simulated NIC: this node's endpoint on one network — a handle on the
/// world, naming the network, the rail and the owning node.
///
/// The adapter is *raw*: it moves frames and enforces membership, but all
/// timing is charged by the protocol stack driving it (see
/// [`crate::stacks`]), mirroring how BIP/SISCI/VIA own their NICs.
#[derive(Clone)]
pub struct Adapter {
    world: Arc<WorldShared>,
    net: NetworkId,
    /// Which of the owning node's NICs on this network this is (0-based).
    rail: usize,
    node: NodeId,
}

// A clone is one reference count: the adapter stays a handle.
const _: () = assert!(std::mem::size_of::<Adapter>() <= 32);

impl Adapter {
    fn wire(&self) -> &Network {
        &self.world.networks[self.net.0]
    }

    /// The SISCI segments exported on this network.
    pub(crate) fn segments(&self) -> &Segments {
        &self.wire().segments
    }

    /// The descriptor counts of this network's VIA VIs.
    pub(crate) fn vi_cells(&self) -> &ViCells {
        &self.wire().vi_cells
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
        self.faults()
            .is_none_or(|f| f.reachable_on(self.net.0, self.rail, self.node, dst))
    }

    /// Can `src` still reach us over *this rail*? The inbound mirror of
    /// [`reachable_to`](Self::reachable_to): rail cuts activate per
    /// direction, so a receiver waiting on a frame must ask about the
    /// sender's direction, not its own.
    pub fn reachable_from(&self, src: NodeId) -> bool {
        self.faults()
            .is_none_or(|f| f.reachable_on(self.net.0, self.rail, src, self.node))
    }

    /// The fault-domain key of this adapter: its network index with the
    /// rail folded into the upper bits (see [`crate::fault::rail_key`]).
    fn fault_key(&self) -> usize {
        crate::fault::rail_key(self.net.0, self.rail)
    }

    pub fn kind(&self) -> NetKind {
        self.wire().spec.kind
    }

    pub fn name(&self) -> &str {
        &self.wire().spec.name
    }

    /// The node owning this adapter.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// All members of this network (including this node).
    pub fn peers(&self) -> &[NodeId] {
        &self.wire().spec.members
    }

    /// Host bus of the owning node.
    pub fn pci(&self) -> &PciBus {
        &self.world.buses[self.node]
    }

    /// The owning node's arrivals count (see [`NodeEnv::arrivals`]).
    pub fn arrivals(&self) -> &Arc<EventCount> {
        &self.world.arrivals[self.node]
    }

    /// Host bus of any node in the world. Simulation-level access: a
    /// sending stack charges the *receiver's* inbound bus crossing when it
    /// computes the frame's arrival (the NIC's bus-master transactions on
    /// the far side), which keeps contention visible to transfers the
    /// receiving node issues later.
    pub fn pci_of(&self, node: NodeId) -> &PciBus {
        &self.world.buses[node]
    }

    /// The world's calibration table: what the stack driving this adapter
    /// charges.
    pub fn calib(&self) -> &Calib {
        &self.world.calib
    }

    /// Is a fault plan installed in this world? Stacks use this to arm
    /// their recovery machinery (acks, timeouts) only when faults are
    /// possible, keeping the reliable-fabric fast path untouched.
    pub fn faulty(&self) -> bool {
        self.world.faults.is_some()
    }

    /// The world's fault layer, if one is installed.
    pub fn faults(&self) -> Option<&Arc<FaultState>> {
        self.world.faults.as_ref()
    }

    /// Deliver a frame to `dst`'s inbound mailbox on this network.
    ///
    /// When a fault plan is installed, the frame first rolls against the
    /// deterministic fault engine: it may be dropped or duplicated (see
    /// [`crate::fault`]).
    ///
    /// # Panics
    /// Panics if `dst` is not a member of this network — the simulated wire
    /// does not reach it.
    pub fn send_raw(&self, dst: NodeId, frame: Frame) {
        self.send_judged(dst, frame, false);
    }

    /// [`send_raw`](Self::send_raw) for acknowledgment/control frames the
    /// protocol models as reliably delivered: the seeded loss roll is
    /// skipped (crashes, partitions and duplication still apply).
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

    fn send_judged(&self, dst: NodeId, frame: Frame, control: bool) {
        let mb = self.mailbox(dst);
        let Some(faults) = self.faults() else {
            return mb.push(frame);
        };
        faults.carry((self.fault_key(), self.node, dst), control, |v| {
            if !v.deliver {
                return;
            }
            if v.duplicate {
                mb.push(frame.clone());
            }
            mb.push(frame);
        });
    }

    /// This node's inbound mailbox on this network.
    pub fn inbox(&self) -> &Mailbox<Frame> {
        self.mailbox(self.node)
    }

    /// Another member's inbound mailbox (simulation-level introspection,
    /// used by stacks to enforce receiver-side capacity contracts).
    ///
    /// # Panics
    /// Panics if `node` is not a member of this network.
    pub fn inbox_of(&self, node: NodeId) -> Mailbox<Frame> {
        self.mailbox(node).clone()
    }

    fn mailbox(&self, node: NodeId) -> &Mailbox<Frame> {
        let mailbox = self.wire().mailboxes.get(&node);
        mailbox.unwrap_or_else(|| panic!("node {node} is not on network {:?}", self.name()))
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

    /// A world of `n` nodes on one Ethernet.
    fn eth(n: usize) -> World {
        let mut b = WorldBuilder::new(n);
        b.network("eth0", NetKind::Ethernet, &(0..n).collect::<Vec<_>>());
        b.build()
    }

    /// Node *i* of 100 consecutive worlds from one caller is one OS thread:
    /// no world after the first spawns a thread.
    #[test]
    fn node_threads_are_reused() {
        let first = eth(2).run(|_| thread::current().id());
        assert_ne!(first[0], first[1]);
        for _ in 1..100 {
            assert_eq!(eth(2).run(|_| thread::current().id()), first);
        }
    }

    /// A panicked world re-raises its first panic, and the same crew runs
    /// the next world normally: no stale abort, fresh clocks.
    #[test]
    fn a_crew_outlives_a_panicked_world() {
        let before = eth(2).run(|_| thread::current().id());
        let dies = std::panic::AssertUnwindSafe(|| {
            eth(2).run(|env| {
                time::advance(VDuration::from_micros(7));
                match env.id() {
                    0 => env.barrier(),
                    _ => panic!("node 1 dies"),
                }
            })
        });
        let payload = std::panic::catch_unwind(dies).expect_err("the run re-raises the panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"node 1 dies"));
        let after = eth(2).run(|env| {
            env.barrier();
            time::check_abort();
            (thread::current().id(), time::now())
        });
        assert_eq!(
            after,
            before
                .into_iter()
                .map(|id| (id, VTime::ZERO))
                .collect::<Vec<_>>()
        );
    }

    /// A node runs a world of its own (on its worker's crew), and four
    /// callers run worlds at once, each on its own crew.
    #[test]
    fn worlds_run_nested_and_from_concurrent_callers() {
        let outer = eth(2).run(|env| {
            time::advance(VDuration::from_micros(3));
            let inner = eth(2).run(|inner| {
                time::advance(VDuration::from_micros(1));
                (inner.id(), time::now().as_nanos())
            });
            (env.id(), inner, time::now().as_nanos())
        });
        for (i, (id, inner, now)) in outer.into_iter().enumerate() {
            assert_eq!((id, now), (i, 3_000));
            assert_eq!(inner, [(0, 1_000), (1, 1_000)]);
        }
        thread::scope(|s| {
            for caller in 0..4u64 {
                s.spawn(move || {
                    for round in 0..25u64 {
                        let tag = caller << 32 | round;
                        let got = eth(2).run(|env| {
                            let a = &env.adapters()[0];
                            if env.id() == 0 {
                                a.send_raw(1, Frame::control(0, 1, tag, VTime::ZERO));
                                return tag;
                            }
                            a.inbox().recv_match(|f| f.kind == 1).tag
                        });
                        assert_eq!(got, [tag, tag]);
                    }
                });
            }
        });
    }

    /// The crew grows to the largest world its caller ran, and worker *i*
    /// keeps running node *i*.
    #[test]
    fn a_crew_grows_to_the_largest_world() {
        let names = |n| {
            eth(n).run(|env| {
                let me = thread::current();
                (env.id(), me.id(), me.name().map(str::to_owned))
            })
        };
        let (two, five, again) = (names(2), names(5), names(2));
        assert_eq!(&five[..2], &two[..]);
        assert_eq!(again, two);
        for (i, (node, _, name)) in five.iter().enumerate() {
            assert_eq!(
                (*node, name.as_deref()),
                (i, Some(&*format!("mad-node-{i}")))
            );
        }
        let ids: std::collections::HashSet<_> = five.iter().map(|n| n.1).collect();
        assert_eq!(ids.len(), 5);
    }

    /// An outer world aborts while its node 0 is inside an inner run whose
    /// nodes still work. The abort does not cut the inner run short: it
    /// returns once both inner nodes have finished, and node 0's next wait
    /// then ends with the abort.
    #[test]
    fn an_outer_abort_waits_for_the_inner_run() {
        let finished = AtomicUsize::new(0);
        let seen = AtomicUsize::new(0);
        let outer = std::panic::AssertUnwindSafe(|| {
            eth(2).run(|env| {
                if env.id() == 1 {
                    panic!("outer node 1 dies");
                }
                let aborted = Arc::clone(&env.run.panicked);
                eth(2).run(|_| {
                    while aborted.load(Ordering::SeqCst) == NO_NODE {
                        thread::yield_now();
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                });
                seen.store(finished.load(Ordering::SeqCst), Ordering::SeqCst);
                env.barrier();
            })
        });
        let payload = std::panic::catch_unwind(outer).expect_err("the run re-raises the panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"outer node 1 dies"));
        assert_eq!(
            seen.load(Ordering::SeqCst),
            2,
            "the inner run returned early"
        );
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
