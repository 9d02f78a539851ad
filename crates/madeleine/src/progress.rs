//! The event-driven progress engine: nonblocking message state machines.
//!
//! Madeleine II's pack/unpack interface is synchronous: `end_packing`
//! returns when the message is on the wire (or handed to the NIC). That is
//! the right primitive for the paper's RPC-style upper layers, but it
//! forfeits compute/communication overlap — an `isend` built on it must
//! either copy or block through the rendezvous. This module inverts the
//! control flow: a posted message becomes an **op** — a small state
//! machine — parked in a per-connection table, and a `progress()` tick
//! advances every op that can move. Finished ops land on a
//! [`CompletionQueue`] the caller drains.
//!
//! ## Op lifecycle
//!
//! ```text
//! Posted ──▶ (frames ship one by one) ──▶ Complete
//!    │             │
//!    │             ├─ short TM out of credits ──▶ CreditWait ──┐
//!    │             ├─ long TM, no CTS yet ──▶ RendezvousWait ──┤
//!    │             ├─ striped block pending ──▶ StripePartial ─┤
//!    │             └─ packets coalescing, frame not
//!    │                flushed yet ──▶ Batched ─────────────────┤
//!    │                                                         │
//!    └──────────────── rail dies / wait expires ──▶ Failed ◀───┘
//! ```
//!
//! * **Posted** — accepted, nothing irrevocable has happened yet; the op
//!   can still be cancelled.
//! * **CreditWait** — a short-TM frame is staged in a static buffer but
//!   the peer's receive ring is full; waiting for a credit return.
//! * **RendezvousWait** — a long-TM frame is waiting for the receiver's
//!   CTS. When the CTS arrives, the transfer is anchored at
//!   `max(posted_at, cts_arrival)` — in virtual time the NIC DMA'd the
//!   payload *while the host computed*, which is exactly the overlap a
//!   real progress thread buys.
//! * **StripePartial** — a multirail striped block is in flight: the op
//!   holds one `rail::StripeSend` (per rail a chunk queue, at most one
//!   parked TM continuation and a virtual clock). The tick that starts it
//!   ships every rail's first stripe header and posts the first payload;
//!   later ticks release payloads in chunk order as they harvest the CTSs
//!   (each anchored at `max(posted_at, cts_arrival)` on its rail's clock).
//! * **Batched** — every packet of the op entered the connection's send
//!   batch, but the closing multi-envelope frame has not flushed yet. The
//!   op is done stepping: its state machine is dropped, what is left of it
//!   is two batch tickets and an instant in its slab slot, and **the flush
//!   that covers its last ticket retires it** — together with every other
//!   op the frame covered, in ticket order, in one pass (a frame that
//!   fails to ship fails the ops it covered instead; one an earlier frame
//!   shipped still completes). Until a flush covers its first packet
//!   nothing has reached the wire, so the op is still cancellable.
//! * **Complete / Failed** — terminal; the op's slot holds its result
//!   until consumed, and a [`Completion`] is queued.
//!
//! ## Sharded op state
//!
//! The engine used to keep two global `HashMap`s (`ops`, `results`) and a
//! global tick lock: every poster, every ticker, every waiter — even ones
//! driving *different* peers — serialized on them. Op state now lives in a
//! per-[`Connection`] **slab** ([`OpSlab`]) addressed by generational
//! indices: an [`OpId`] packs `(peer, slot, generation)` into its 64 bits,
//! so `state`/`take_result`/`cancel` go straight to the owning
//! connection's slab with no global map, and a recycled slot can never be
//! confused with a stale handle (the generation bumps on every free).
//! The slab is plain data — a state per op, plus the list of ops parked in
//! `Batched` — under one short lock. The state machines of the ops still
//! emitting frames live in the peer's in-flight queue, whose lock *is* the
//! tick ([`Connection::tick`]): the one thread that holds it posts, steps
//! and cancels on that connection, and steps each op in place — nothing
//! is checked out of the slab and back. Ticks on independent peers never
//! contend.
//!
//! ## Posting
//!
//! [`ProgressEngine::post`] is one critical section. With nothing in
//! flight toward the peer, the op's first step runs right there, on the
//! poster's stack: a message that batches whole (or ships whole) is
//! settled by that one step and never allocated — it enters the slab
//! already `Batched` (or retired). Only an op that must wait for a peer
//! event is boxed and queued.
//!
//! ## Tick semantics
//!
//! One [`ProgressEngine::progress`] call makes a bounded pass: for every
//! peer connection it advances the **head** op of that peer's in-flight
//! queue as far as it can go (per-peer FIFO keeps the wire stream in
//! `begin_packing` order and guarantees at most one outstanding rendezvous
//! per peer, so CTS frames can never pair with the wrong long send), and
//! retires the parked ops a flush has covered since the last look — ahead
//! of any op that completes in the same pass; one comparison against the
//! connection's flush watermark when there are none. Ticks never block: an
//! op that cannot move is left in its wait state. An op is stepped only while it has frames to emit or a
//! peer event to harvest — never to ask whether a flush happened — so a
//! batchable message costs one step however many are parked ahead of it
//! ([`ProgressEngine::steps`] counts them).
//!
//! ## Completion-queue ordering
//!
//! Completions are queued in the order ops *complete*, not the order they
//! were posted: a short message to peer B overtakes an earlier rendezvous
//! to peer A that is still waiting for its CTS. Within one peer, order is
//! FIFO. [`ProgressEngine::take_result`] consumes a result by handle and
//! removes the matching queue entry, so the queue holds exactly the
//! results nobody consumed — its memory is bounded by them, not by the ops
//! ever posted — and drainers of the [`Completions`] view and callers of
//! `take_result` never see the same op twice (a drainer that races a
//! `take_result` to the entry drops it: its generation no longer matches
//! a live retired slot).
//!
//! This module is one of the lock-free hot-path modules linted by
//! `scripts/verify.sh`: no `parking_lot` locks may appear here — producers
//! push completions onto a lock-free ring, and the only mutexes are
//! `std::sync` consumer-side staging and sleep locks.

use crate::connection::{Connection, Connections};
use crate::error::{MadError, MadResult};
use crate::stats::Stats;
use crossbeam::queue::ArrayQueue;
use madsim_net::time::{self, VTime};
use madsim_net::NodeId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Handle of a posted nonblocking operation. Bit-packed as
/// `peer(16) | slot(16) | generation(32)`: the peer routes straight to the
/// owning connection's slab, the slot indexes into it, and the generation
/// detects stale handles after the slot is recycled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u64);

impl OpId {
    pub(crate) fn encode(peer: NodeId, slot: u16, generation: u32) -> OpId {
        debug_assert!(peer <= u16::MAX as usize);
        OpId(((peer as u64) << 48) | ((slot as u64) << 32) | generation as u64)
    }

    pub(crate) fn peer(self) -> NodeId {
        (self.0 >> 48) as NodeId
    }

    pub(crate) fn slot(self) -> u16 {
        (self.0 >> 32) as u16
    }

    pub(crate) fn generation(self) -> u32 {
        self.0 as u32
    }
}

/// Where an in-flight op currently stands (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpState {
    /// Accepted; no frame has shipped yet.
    Posted,
    /// A short-TM frame is staged, waiting for a flow-control credit.
    CreditWait,
    /// A long-TM frame is waiting for the receiver's CTS.
    RendezvousWait,
    /// A multirail striped block is in flight across the rails.
    StripePartial,
    /// The op's packets sit in the connection's send batch, waiting for
    /// the batch to flush (threshold, deadline, or explicit `flush()`).
    Batched,
    /// Terminal: the op finished; its result is `Ok`.
    Complete,
    /// Terminal: the op finished; its result is `Err`.
    Failed,
}

/// What one `try_advance` call achieved.
pub enum StepOutcome {
    /// The op cannot finish yet; it is parked in the given state.
    Pending(OpState),
    /// Every packet of the op sits in the connection's send batch, under
    /// tickets `first..=last`: it has nothing left to step. The flush that
    /// covers `last` retires it, at that flush's instant or `done_at` if
    /// later. Until one covers `first` nothing of it is on the wire and it
    /// can be cancelled (`first == 0`: a frame of it already shipped
    /// outside the batch).
    Batched {
        first: u64,
        last: u64,
        done_at: VTime,
    },
    /// The op finished; local work completes at the given virtual instant.
    Done(VTime),
    /// The op failed terminally.
    Failed(MadError),
}

/// A resumable message state machine. Implementations must never block on
/// peer events inside `try_advance` — that is the entire point.
pub(crate) trait OpStep: Send {
    /// Push the op as far as it can go without waiting on the peer.
    fn try_advance(&mut self) -> StepOutcome;
    /// Whether anything irrevocable (a frame on the wire) happened yet.
    /// Until then the op holds nothing but its own blocks: cancelling it
    /// is dropping it.
    fn started(&self) -> bool;
}

/// A connection's in-flight queue: the ops still emitting frames, oldest
/// first, each with its state machine (see [`Connection::tick`]).
pub(crate) type OpQueue = VecDeque<(OpId, Box<dyn OpStep>)>;

/// A finished op, as seen by drainers of the completion queue.
#[derive(Clone, Debug)]
pub struct Completion {
    pub id: OpId,
    /// The peer the op addressed.
    pub peer: NodeId,
    /// `Ok(t)`: local send-side work completed at virtual instant `t`.
    pub result: MadResult<VTime>,
}

/// One entry of a connection's op slab.
enum OpEntry {
    /// Free slot (on the slab's free list).
    Vacant,
    /// Still emitting frames: its state machine waits in the connection's
    /// in-flight queue, parked in `state` between ticks.
    Active { state: OpState },
    /// Done stepping, parked behind its batch tickets (see
    /// [`StepOutcome::Batched`]; the last ticket is in the parked list).
    Batched { first: u64, done_at: VTime },
    /// Terminal: the result waits here until `take_result` consumes it.
    Retired { result: MadResult<VTime> },
}

impl OpEntry {
    /// Not yet terminal?
    fn is_live(&self) -> bool {
        matches!(self, OpEntry::Active { .. } | OpEntry::Batched { .. })
    }
}

struct OpSlot {
    generation: u32,
    entry: OpEntry,
}

/// A connection's op table: a slab with generational indices (slotmap
/// style). Slots are recycled through a free list; every free bumps the
/// slot's generation so stale [`OpId`]s can never alias a new op.
pub(crate) struct OpSlab {
    slots: Vec<OpSlot>,
    free: Vec<u16>,
    /// Ops not yet terminal.
    live: usize,
    /// Ops parked in `Batched`, each with the batch ticket of its last
    /// packet. Ticket order is posting order, so a flush retires a prefix.
    batched: VecDeque<(OpId, u64)>,
}

impl OpSlab {
    pub(crate) fn new() -> Self {
        OpSlab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            batched: VecDeque::new(),
        }
    }

    /// Write `entry` into op `id`'s slot — or, for an op toward `peer`
    /// that has none yet, into a fresh one. Returns the op's id.
    fn put(&mut self, peer: NodeId, id: Option<OpId>, entry: OpEntry) -> OpId {
        self.live += entry.is_live() as usize;
        if let Some(id) = id {
            let s = self
                .slot_mut(id.slot(), id.generation())
                .expect("stepped op vanished");
            let was_live = std::mem::replace(&mut s.entry, entry).is_live();
            self.live -= was_live as usize;
            return id;
        }
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(matches!(s.entry, OpEntry::Vacant));
            s.entry = entry;
            return OpId::encode(peer, slot, s.generation);
        }
        let slot = u16::try_from(self.slots.len()).expect("more than 65535 live ops per peer");
        self.slots.push(OpSlot {
            generation: 1,
            entry,
        });
        OpId::encode(peer, slot, 1)
    }

    fn slot_mut(&mut self, slot: u16, generation: u32) -> Option<&mut OpSlot> {
        let s = self.slots.get_mut(slot as usize)?;
        (s.generation == generation).then_some(s)
    }

    fn state_of(&self, slot: u16, generation: u32) -> Option<OpState> {
        let s = self.slots.get(slot as usize)?;
        if s.generation != generation {
            return None;
        }
        match &s.entry {
            OpEntry::Vacant => None,
            OpEntry::Active { state } => Some(*state),
            OpEntry::Batched { .. } => Some(OpState::Batched),
            OpEntry::Retired { result } => Some(match result {
                Ok(_) => OpState::Complete,
                Err(_) => OpState::Failed,
            }),
        }
    }

    /// Has a flush resolved the oldest parked op: shipped it (its ticket
    /// is at or below the watermark `through`) or, if one `poisoned` the
    /// batch, lost it?
    fn has_flushed(&self, through: u64, poisoned: bool) -> bool {
        let shipped_or_lost = |&(_, t): &(OpId, u64)| poisoned || t <= through;
        self.batched.front().is_some_and(shipped_or_lost)
    }

    /// Retire the oldest parked op if a flush resolved it: a ticket at or
    /// below the watermark `through` shipped (the latest frame left at
    /// `at`); above it, the op's bytes died with the failed frame that
    /// left the `poison`, or stay parked if there is none.
    fn retire_flushed(
        &mut self,
        through: u64,
        at: VTime,
        poison: Option<&MadError>,
    ) -> Option<(OpId, MadResult<VTime>)> {
        let &(id, ticket) = self.batched.front()?;
        let outcome = if ticket <= through {
            Ok(at)
        } else {
            Err(poison?.clone())
        };
        self.batched.pop_front();
        let s = self
            .slot_mut(id.slot(), id.generation())
            .expect("parked op vanished");
        let OpEntry::Batched { done_at, .. } = s.entry else {
            unreachable!("parked ops are Batched");
        };
        let result = outcome.map(|at| done_at.max(at));
        s.entry = OpEntry::Retired {
            result: result.clone(),
        };
        self.live -= 1;
        Some((id, result))
    }

    /// Consume a terminal op's result, freeing its slot. The generation
    /// bumps here, which voids the op's completion-queue entry for a
    /// drainer that pops it before `take_result` removes it.
    fn take_retired(&mut self, slot: u16, generation: u32) -> Option<MadResult<VTime>> {
        let s = self.slot_mut(slot, generation)?;
        if !matches!(s.entry, OpEntry::Retired { .. }) {
            return None;
        }
        let OpEntry::Retired { result } = self.release(slot) else {
            unreachable!("matched Retired above");
        };
        Some(result)
    }

    /// Whether the op's completion-queue entry is still live: the slot
    /// must hold an unconsumed terminal result under the same generation.
    fn is_retired_live(&self, slot: u16, generation: u32) -> bool {
        self.slots.get(slot as usize).is_some_and(|s| {
            s.generation == generation && matches!(s.entry, OpEntry::Retired { .. })
        })
    }

    /// Vacate `slot` with a generation bump (no dangling slot, no reusable
    /// handle), handing back what it held.
    fn release(&mut self, slot: u16) -> OpEntry {
        let s = &mut self.slots[slot as usize];
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
        let entry = std::mem::replace(&mut s.entry, OpEntry::Vacant);
        self.live -= entry.is_live() as usize;
        entry
    }

    /// Ops not yet terminal.
    fn live(&self) -> usize {
        self.live
    }

    /// Slots on the free list (diagnostics for the slot-recycling tests).
    #[cfg(test)]
    fn free_len(&self) -> usize {
        self.free.len()
    }
}

impl Default for OpSlab {
    fn default() -> Self {
        Self::new()
    }
}

/// Ring capacity of a [`CompletionQueue`]; overflow spills to the
/// consumer-side staging deque, so this bounds the lock-free fast path,
/// not the queue.
#[doc(hidden)]
pub const CQ_RING_CAP: usize = 256;
/// Spin iterations a blocked popper burns before sleeping on the condvar.
const CQ_SPIN_LIMIT: u32 = 32;

/// An unbounded queue with close semantics — the terminal stage of the
/// progress engine, and a reusable primitive for any pipeline that hands
/// finished work between threads (the gateway forwarder uses one per
/// direction). Producers push onto a lock-free MPMC ring (spilling to a
/// staging deque only when it fills); consumers serialize on the small
/// staging lock and block only when the queue is truly empty, after a
/// bounded spin (`spins` counts the burned iterations — the `cq_spins`
/// observability counter).
pub struct CompletionQueue<T> {
    ring: ArrayQueue<T>,
    staged: Mutex<VecDeque<T>>,
    closed: AtomicBool,
    version: AtomicU64,
    waiters: AtomicUsize,
    sleep: Mutex<()>,
    cond: Condvar,
    spins: AtomicU64,
}

impl<T> Default for CompletionQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<T> CompletionQueue<T> {
    pub fn new() -> Self {
        CompletionQueue {
            ring: ArrayQueue::new(CQ_RING_CAP),
            staged: Mutex::new(VecDeque::new()),
            closed: AtomicBool::new(false),
            version: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            cond: Condvar::new(),
            spins: AtomicU64::new(0),
        }
    }

    /// Enqueue an item. Returns `false` (dropping the item) if the queue
    /// has been closed. Lock-free unless the ring is full or a popper is
    /// asleep.
    pub fn push(&self, item: T) -> bool {
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        if let Err(item) = self.ring.push(item) {
            let mut staged = lock_unpoisoned(&self.staged);
            while let Some(x) = self.ring.pop() {
                staged.push_back(x);
            }
            staged.push_back(item);
        }
        self.version.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _g = lock_unpoisoned(&self.sleep);
            self.cond.notify_all();
        }
        true
    }

    /// Lock the staging deque with the ring folded into it (every queued
    /// item visible in FIFO order).
    fn open(&self) -> MutexGuard<'_, VecDeque<T>> {
        let mut staged = lock_unpoisoned(&self.staged);
        while let Some(x) = self.ring.pop() {
            staged.push_back(x);
        }
        staged
    }

    /// Dequeue without blocking.
    pub fn try_pop(&self) -> Option<T> {
        self.open().pop_front()
    }

    /// Dequeue, blocking until an item arrives. Returns `None` only once
    /// the queue is closed **and** drained. Spins briefly before parking —
    /// completions arrive in bursts from the progress tick.
    pub fn pop_wait(&self) -> Option<T> {
        loop {
            let v = self.version.load(Ordering::SeqCst);
            if let Some(item) = self.try_pop() {
                return Some(item);
            }
            if self.closed.load(Ordering::SeqCst) {
                return None;
            }
            let mut spun = 0u32;
            while spun < CQ_SPIN_LIMIT && self.version.load(Ordering::SeqCst) == v {
                std::hint::spin_loop();
                spun += 1;
            }
            self.spins.fetch_add(u64::from(spun), Ordering::Relaxed);
            if spun < CQ_SPIN_LIMIT {
                continue; // something arrived (or the queue closed) mid-spin
            }
            self.waiters.fetch_add(1, Ordering::SeqCst);
            let mut g = lock_unpoisoned(&self.sleep);
            while self.version.load(Ordering::SeqCst) == v && !self.closed.load(Ordering::SeqCst) {
                g = self.cond.wait(g).unwrap_or_else(|e| e.into_inner());
            }
            drop(g);
            self.waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Close the queue: further pushes are rejected, blocked poppers wake,
    /// already-queued items remain poppable.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.version.fetch_add(1, Ordering::SeqCst);
        let _g = lock_unpoisoned(&self.sleep);
        self.cond.notify_all();
    }

    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.staged).len() + self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take everything currently queued.
    pub fn drain(&self) -> Vec<T> {
        self.open().drain(..).collect()
    }

    /// Remove the oldest item matching the predicate (consumer-side; the
    /// ring is folded into staging first so every queued item is
    /// considered). The head is tried first: consuming in queue order is
    /// O(1).
    fn remove_first(&self, pred: impl FnMut(&T) -> bool) {
        let mut staged = self.open();
        if let Some(pos) = staged.iter().position(pred) {
            staged.remove(pos);
        }
    }

    /// Spin iterations poppers burned before blocking (the `cq_spins`
    /// observability counter).
    pub fn spins(&self) -> u64 {
        self.spins.load(Ordering::Relaxed)
    }
}

/// The engine's view of its completion queue: a [`CompletionQueue`] of
/// [`Completion`]s holding exactly the results nobody consumed yet:
/// [`ProgressEngine::take_result`] removes the entry of the op it
/// consumes, so the queue's memory is bounded by the unconsumed results,
/// not by the ops ever posted. A drainer racing a `take_result` skips the
/// entry it popped if the result is already gone (its generation no longer
/// matches a live retired slot) — the never-see-an-op-twice contract.
pub struct Completions {
    q: CompletionQueue<Completion>,
    conns: Arc<Connections>,
}

impl Completions {
    fn new(conns: Arc<Connections>) -> Self {
        Completions {
            q: CompletionQueue::new(),
            conns,
        }
    }

    fn is_void(&self, c: &Completion) -> bool {
        match self.conns.get(c.peer) {
            Some(conn) => !conn
                .ops()
                .lock()
                .is_retired_live(c.id.slot(), c.id.generation()),
            None => true,
        }
    }

    /// Dequeue without blocking, skipping consumed entries.
    pub fn try_pop(&self) -> Option<Completion> {
        loop {
            let c = self.q.try_pop()?;
            if !self.is_void(&c) {
                return Some(c);
            }
        }
    }

    /// Dequeue, blocking until a live entry arrives. `None` only once the
    /// queue is closed and drained.
    pub fn pop_wait(&self) -> Option<Completion> {
        loop {
            let c = self.q.pop_wait()?;
            if !self.is_void(&c) {
                return Some(c);
            }
        }
    }

    pub fn close(&self) {
        self.q.close();
    }

    /// Entries held, ring and staging both — the raw length the queue's
    /// memory bound is stated on. It counts an entry whose result a racing
    /// `take_result` has consumed but not yet removed.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take every live queued completion.
    pub fn drain(&self) -> Vec<Completion> {
        let mut all = self.q.drain();
        all.retain(|c| !self.is_void(c));
        all
    }

    /// Spin iterations drainers burned before blocking (`cq_spins`).
    pub fn spins(&self) -> u64 {
        self.q.spins()
    }
}

/// The per-session progress engine: per-connection op slabs plus the
/// machinery that drives them (see module docs for tick and ordering
/// semantics).
pub struct ProgressEngine {
    conns: Arc<Connections>,
    completions: Completions,
    /// Every op is a message: one that retires `Ok` is counted here.
    stats: Arc<Stats>,
    steps: AtomicU64,
}

impl ProgressEngine {
    pub(crate) fn new(conns: Arc<Connections>, stats: Arc<Stats>) -> Self {
        ProgressEngine {
            completions: Completions::new(Arc::clone(&conns)),
            conns,
            stats,
            steps: AtomicU64::new(0),
        }
    }

    /// Post an op toward `conn`'s peer and push it as far as it goes —
    /// one hold of the tick (see the module docs on posting).
    pub(crate) fn post(&self, conn: &Connection, mut step: impl OpStep + 'static) -> OpId {
        let peer = conn.peer();
        assert!(
            peer <= u16::MAX as usize,
            "OpId packs the peer id into 16 bits"
        );
        let mut queue = conn.tick().lock();
        if !queue.is_empty() {
            // Per-peer FIFO: no frame of this op may ship before the ops
            // ahead are done emitting theirs.
            let entry = OpEntry::Active {
                state: OpState::Posted,
            };
            let id = conn.ops().lock().put(peer, None, entry);
            queue.push_back((id, Box::new(step)));
            self.advance_queue(conn, &mut queue);
            return id;
        }
        self.steps.fetch_add(1, Ordering::Relaxed);
        let outcome = step.try_advance();
        let parked = matches!(outcome, StepOutcome::Pending(_));
        let (id, _) = self.settle(conn, &mut conn.ops().lock(), None, outcome);
        if parked {
            queue.push_back((id, Box::new(step)));
        }
        id
    }

    /// Advance one peer's in-flight queue as far as it can go, retiring
    /// every op that completes. Returns how many retired.
    ///
    /// The walk stops at the first op that parks waiting on the peer
    /// (per-peer FIFO: a frame of op *k+1* must not ship before op *k* is
    /// done emitting). An op that parks in [`Batched`](OpState::Batched)
    /// has *fully* staged its packets in the connection's send batch: it
    /// leaves the queue, the next op steps behind it, and it is never
    /// stepped again.
    pub(crate) fn advance_conn(&self, conn: &Connection) -> usize {
        // Per-connection serialization: concurrent callers (an app thread
        // inside `wait` and another inside `post`) never advance the same
        // op twice, while ticks on *other* peers proceed untouched.
        self.advance_queue(conn, &mut conn.tick().lock())
    }

    fn advance_queue(&self, conn: &Connection, queue: &mut OpQueue) -> usize {
        let mut retired = 0;
        loop {
            let Some((id, step)) = queue.front_mut() else {
                return retired + self.retire_flushed(conn, &mut conn.ops().lock());
            };
            // The step runs without the slab lock held: TM pendings may
            // advance the virtual clock and touch driver state.
            self.steps.fetch_add(1, Ordering::Relaxed);
            let outcome = step.try_advance();
            let parked = matches!(outcome, StepOutcome::Pending(_));
            retired += self
                .settle(conn, &mut conn.ops().lock(), Some(*id), outcome)
                .1;
            if parked {
                return retired;
            }
            queue.pop_front();
        }
    }

    /// Record in the slab what a step of op `id` achieved (`None`: the op
    /// was stepped on its poster's stack and gets its slot now), retiring
    /// whatever a flush inside the step covered. Returns the op's id and
    /// how many ops retired.
    fn settle(
        &self,
        conn: &Connection,
        ops: &mut OpSlab,
        id: Option<OpId>,
        outcome: StepOutcome,
    ) -> (OpId, usize) {
        let peer = conn.peer();
        let result = match outcome {
            StepOutcome::Pending(state) => {
                let id = ops.put(peer, id, OpEntry::Active { state });
                return (id, self.retire_flushed(conn, ops));
            }
            StepOutcome::Batched {
                first,
                last,
                done_at,
            } => {
                let id = ops.put(peer, id, OpEntry::Batched { first, done_at });
                debug_assert!(ops.batched.back().is_none_or(|&(_, t)| t < last));
                ops.batched.push_back((id, last));
                // The frame that took its last packet may have shipped
                // inside the step: then it retires here, behind the ops
                // parked ahead of it.
                return (id, self.retire_flushed(conn, ops));
            }
            StepOutcome::Done(at) => Ok(at),
            StepOutcome::Failed(e) => Err(e),
        };
        // A barrier flush inside the step covered the ops parked ahead of
        // this one: they complete first.
        let retired = self.retire_flushed(conn, ops);
        let entry = OpEntry::Retired {
            result: result.clone(),
        };
        let id = ops.put(peer, id, entry);
        self.complete(id, result);
        (id, retired + 1)
    }

    /// Retire, in one pass and in ticket order, every op parked in
    /// [`Batched`](OpState::Batched) whose last packet a flush has
    /// covered (or taken down with it). Returns how many retired.
    fn retire_flushed(&self, conn: &Connection, ops: &mut OpSlab) -> usize {
        if !ops.has_flushed(conn.batch_flushed(), conn.batch_poisoned()) {
            return 0;
        }
        // Under the batch lock the watermark, the instant and the poison
        // are one flush's: all three are written under it.
        let (through, (at, poison)) = {
            let batch = conn.send_batch().lock();
            (conn.batch_flushed(), batch.flush_outcome())
        };
        let mut retired = 0;
        while let Some((id, result)) = ops.retire_flushed(through, at, poison.as_ref()) {
            self.complete(id, result);
            retired += 1;
        }
        retired
    }

    /// [`retire_flushed`](Self::retire_flushed) for a flush that ran
    /// outside a tick (`Channel::flush`).
    pub(crate) fn flushed(&self, conn: &Connection) -> usize {
        self.retire_flushed(conn, &mut conn.ops().lock())
    }

    /// Queue a retired op's completion. Called under the connection's
    /// slab lock, so a peer's completions queue in the order it retired
    /// them.
    fn complete(&self, id: OpId, result: MadResult<VTime>) {
        if result.is_ok() {
            self.stats.record_message();
        }
        self.completions.q.push(Completion {
            id,
            peer: id.peer(),
            result,
        });
    }

    /// One engine tick: advance every peer's head op (see module docs).
    /// Returns how many ops retired during the tick.
    pub fn progress(&self) -> usize {
        self.conns.iter().map(|c| self.advance_conn(c)).sum()
    }

    /// Drive one peer's in-flight ops to terminal. Blocks (spinning
    /// through ticks) until every op addressed to `conn`'s peer has
    /// retired — the ordering fence `begin_packing` uses so a blocking
    /// send never overtakes posted ops to the same peer. On a fault-armed
    /// fabric the ops' own bounded waits guarantee termination. `kick`
    /// runs between ticks while ops remain: the channel uses it to flush
    /// the connection's send batch, without which ops parked in
    /// [`Batched`](OpState::Batched) would never retire.
    pub(crate) fn drain_conn(&self, conn: &Connection, mut kick: impl FnMut()) {
        loop {
            self.advance_conn(conn);
            if conn.ops().lock().live() == 0 {
                return;
            }
            kick();
            time::check_abort();
            std::thread::yield_now();
        }
    }

    /// Current state of an op, if the engine still knows it. Terminal
    /// states are reported until the result is consumed.
    pub fn state(&self, id: OpId) -> Option<OpState> {
        let conn = self.conns.get(id.peer())?;
        conn.ops().lock().state_of(id.slot(), id.generation())
    }

    /// Consume the result of a retired op, and with it the op's
    /// completion-queue entry, so queue drainers never see it again and
    /// the queue holds nothing for consumed ops. `None` while the op is
    /// still in flight (or after it was cancelled).
    pub fn take_result(&self, id: OpId) -> Option<MadResult<VTime>> {
        let conn = self.conns.get(id.peer())?;
        let result = conn.ops().lock().take_retired(id.slot(), id.generation())?;
        self.completions.q.remove_first(|c| c.id == id);
        Some(result)
    }

    /// Cancel a posted op that has not shipped anything yet. Returns
    /// `true` if the op was removed; `false` if it already started (or
    /// already retired), in which case it must be driven to completion.
    pub fn cancel(&self, id: OpId) -> bool {
        let Some(conn) = self.conns.get(id.peer()) else {
            return false;
        };
        let mut queue = conn.tick().lock();
        let mut ops = conn.ops().lock();
        match ops.slot_mut(id.slot(), id.generation()).map(|s| &s.entry) {
            Some(OpEntry::Active { .. }) => {
                // The head pops; a mid-list cancel pays the scan.
                let queued = queue.iter().position(|(q, _)| *q == id);
                let pos = queued.expect("ops still emitting are queued");
                if queue[pos].1.started() {
                    return false;
                }
                ops.release(id.slot());
                queue.remove(pos);
            }
            Some(&OpEntry::Batched { first, .. }) => {
                let parked = ops.batched.iter().position(|&(b, _)| b == id);
                let pos = parked.expect("batched ops are parked");
                // Pull its never-flushed packets back out of the batch —
                // refused once a flush has covered the first of them. Its
                // deferred header claimed no sequence number yet, so the
                // peer sees no gap.
                if !crate::batch::cancel_tickets(conn, first, ops.batched[pos].1) {
                    return false;
                }
                ops.batched.remove(pos);
                ops.release(id.slot());
            }
            _ => return false,
        }
        true
    }

    /// Number of ops currently in flight.
    pub fn in_flight(&self) -> usize {
        self.conns.iter().map(|c| c.ops().lock().live()).sum()
    }

    /// `OpStep::try_advance` calls made so far: what the engine's
    /// bookkeeping costs per op, as a count.
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// The queue finished ops land on.
    pub fn completions(&self) -> &Completions {
        &self.completions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_queue_fifo_and_close() {
        let q: CompletionQueue<u32> = CompletionQueue::new();
        assert!(q.is_empty());
        assert!(q.push(1));
        assert!(q.push(2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop(), Some(1));
        q.close();
        assert!(!q.push(3), "push after close must be rejected");
        assert_eq!(q.pop_wait(), Some(2), "queued items survive close");
        assert_eq!(q.pop_wait(), None, "closed and drained");
    }

    #[test]
    fn completion_queue_pop_wait_wakes_on_push() {
        let q = Arc::new(CompletionQueue::<u32>::new());
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop_wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(q.push(7));
        assert_eq!(t.join().unwrap(), Some(7));
    }

    #[test]
    fn completion_queue_overflows_ring_without_loss() {
        let q: CompletionQueue<usize> = CompletionQueue::new();
        let n = CQ_RING_CAP * 2 + 3;
        for i in 0..n {
            assert!(q.push(i));
        }
        assert_eq!(q.len(), n);
        for i in 0..n {
            assert_eq!(q.try_pop(), Some(i), "FIFO across the ring/staging spill");
        }
        assert!(q.is_empty());
    }

    #[test]
    fn completion_queue_mpsc_interleaving_seeded() {
        // Seeded-thread interleaving: P producers push disjoint ranges
        // with seed-dependent pacing, one consumer drains with pop_wait.
        // Per-producer FIFO must hold; nothing may be lost or duplicated.
        for seed in [3u64, 17, 4242] {
            let q = Arc::new(CompletionQueue::<u64>::new());
            let producers = 4u64;
            let per = 2000u64;
            let mut handles = Vec::new();
            for p in 0..producers {
                let q = Arc::clone(&q);
                handles.push(std::thread::spawn(move || {
                    let mut rng = seed.wrapping_mul(p + 1).wrapping_add(0x9E3779B9);
                    for i in 0..per {
                        assert!(q.push(p * per + i));
                        // xorshift-paced yields vary the interleaving per seed
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        if rng % 7 == 0 {
                            std::thread::yield_now();
                        }
                    }
                }));
            }
            let consumer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut last_per_producer = vec![None::<u64>; producers as usize];
                    let mut got = 0u64;
                    while got < producers * per {
                        let v = q.pop_wait().expect("queue not closed");
                        let (p, i) = ((v / per) as usize, v % per);
                        if let Some(prev) = last_per_producer[p] {
                            assert!(i > prev, "per-producer FIFO violated: {i} after {prev}");
                        }
                        last_per_producer[p] = Some(i);
                        got += 1;
                    }
                    got
                })
            };
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(consumer.join().unwrap(), producers * per);
            assert!(q.is_empty());
        }
    }

    /// An op that never makes progress and never starts: cancellable.
    struct NeverStep;
    impl OpStep for NeverStep {
        fn try_advance(&mut self) -> StepOutcome {
            StepOutcome::Pending(OpState::Posted)
        }
        fn started(&self) -> bool {
            false
        }
    }

    /// An op that completes on its first tick.
    struct DoneStep;
    impl OpStep for DoneStep {
        fn try_advance(&mut self) -> StepOutcome {
            StepOutcome::Done(VTime::from_nanos(7))
        }
        fn started(&self) -> bool {
            true
        }
    }

    /// An op whose packets all sit in the send batch, the last one under
    /// `ticket`.
    struct BatchedStep(u64);
    impl OpStep for BatchedStep {
        fn try_advance(&mut self) -> StepOutcome {
            StepOutcome::Batched {
                first: self.0,
                last: self.0,
                done_at: VTime::ZERO,
            }
        }
        fn started(&self) -> bool {
            false
        }
    }

    fn engine_with_peer() -> (Arc<Connections>, ProgressEngine) {
        let conns = Arc::new(Connections::new(0, &[0, 1]));
        let eng = ProgressEngine::new(Arc::clone(&conns), Stats::new());
        (conns, eng)
    }

    #[test]
    fn cancel_on_sharded_slab_leaves_no_dangling_slot() {
        let (conns, eng) = engine_with_peer();
        let conn = conns.get(1).unwrap();
        let a = eng.post(conn, NeverStep);
        assert_eq!(eng.in_flight(), 1);
        assert!(eng.cancel(a));
        // The slab slot is freed and recycled, not dangling: the stale
        // handle answers nothing, and the next post reuses the slot under
        // a fresh generation.
        assert_eq!(eng.in_flight(), 0);
        assert_eq!(conn.ops().lock().live(), 0);
        assert_eq!(eng.state(a), None);
        assert!(eng.take_result(a).is_none());
        assert!(!eng.cancel(a), "double cancel must be a no-op");
        assert_eq!(conn.ops().lock().free_len(), 1);
        let b = eng.post(conn, NeverStep);
        assert_eq!(conn.ops().lock().free_len(), 0, "slot was recycled");
        assert_ne!(a, b, "recycled slot must carry a new generation");
        assert_eq!(b.slot(), a.slot());
        assert_eq!(eng.state(a), None, "stale handle must not alias the new op");
        assert!(eng.cancel(b));
    }

    #[test]
    fn cancel_unlinks_head_and_mid_list_ops_in_order() {
        let (conns, eng) = engine_with_peer();
        let conn = conns.get(1).unwrap();
        let [a, b, c] = [(); 3].map(|()| eng.post(conn, NeverStep));
        assert_eq!(eng.advance_conn(conn), 0, "the head parks, the rest queue");
        let queued = || conn.tick().lock().iter().map(|q| q.0).collect::<Vec<_>>();
        assert!(eng.cancel(b), "mid-list cancel");
        assert_eq!(queued(), [a, c]);
        assert!(eng.cancel(a), "head cancel");
        assert_eq!(queued(), [c]);
        assert_eq!(eng.in_flight(), 1);
    }

    #[test]
    fn flush_retires_the_covered_prefix_in_one_pass_without_stepping() {
        let (conns, eng) = engine_with_peer();
        let conn = conns.get(1).unwrap();
        let ids = [1, 2, 3, 4].map(|t| eng.post(conn, BatchedStep(t)));
        assert_eq!(eng.advance_conn(conn), 0);
        assert_eq!(eng.steps(), 4, "one step parks each op");
        assert!(ids
            .iter()
            .all(|&id| eng.state(id) == Some(OpState::Batched)));
        // A flush covers tickets 1..=2: those two retire, in order.
        conn.set_batch_flushed(2);
        assert_eq!(eng.flushed(conn), 2);
        let done: Vec<OpId> = eng.completions().drain().iter().map(|c| c.id).collect();
        assert_eq!(done, ids[..2]);
        assert_eq!(eng.state(ids[2]), Some(OpState::Batched));
        // A parked op still cancels, wherever it sits in the list.
        assert!(eng.cancel(ids[3]));
        conn.set_batch_flushed(3);
        assert_eq!(
            eng.advance_conn(conn),
            1,
            "a tick retires what a flush covered"
        );
        assert_eq!(eng.steps(), 4, "parked ops are never stepped again");
        assert_eq!(eng.in_flight(), 0);
    }

    #[test]
    fn take_result_voids_completion_entry() {
        let (conns, eng) = engine_with_peer();
        let conn = conns.get(1).unwrap();
        let id = eng.post(conn, DoneStep);
        assert_eq!(
            eng.state(id),
            Some(OpState::Complete),
            "settled inside post"
        );
        assert_eq!(eng.advance_conn(conn), 0);
        assert!(eng.take_result(id).unwrap().is_ok());
        assert!(
            eng.completions().try_pop().is_none(),
            "consumed op must vanish from the queue"
        );
        assert!(eng.completions().is_empty());
        assert_eq!(eng.state(id), None, "result consumed");
        assert!(eng.take_result(id).is_none(), "result consumed only once");
    }

    #[test]
    fn drained_completion_still_allows_take_result() {
        let (conns, eng) = engine_with_peer();
        let conn = conns.get(1).unwrap();
        let id = eng.post(conn, DoneStep);
        let c = eng.completions().try_pop().expect("completion queued");
        assert_eq!(c.id, id);
        assert_eq!(c.peer, 1);
        assert!(eng.take_result(id).unwrap().is_ok());
    }

    #[test]
    fn op_ids_route_by_peer_slot_generation() {
        let id = OpId::encode(3, 5, 9);
        assert_eq!(id.peer(), 3);
        assert_eq!(id.slot(), 5);
        assert_eq!(id.generation(), 9);
    }
}
