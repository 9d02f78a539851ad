//! What bringing a world up allocates, counted — not timed — with a
//! counting global allocator: `WorldBuilder::build` on the calling thread
//! plus `Madeleine::init` on both nodes of a 2-node world, per protocol,
//! pinned, so state built eagerly creeps back only as a changed pin. A
//! SISCI segment's bytes are built as they are stored; each member's
//! mailbox, with its sixteen shard rings, is still built by the world
//! (about 180 KB of the 243 KB a 2-node world allocates).

use madeleine::{Config, Madeleine, Protocol};
use madsim_net::{NetKind, WorldBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(allocations, bytes)` this thread requested while it was counting.
    static COUNTED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

impl Counting {
    fn note(size: usize) {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down.
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = COUNTED.try_with(|c| {
                    let (n, bytes) = c.get();
                    c.set((n + 1, bytes + size as u64));
                });
            }
        });
    }
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only `Cell`s of
// const-initialised thread-locals and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: as for `dealloc`, with the caller's size obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `(allocations, bytes)` this thread makes in `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = COUNTED.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    let after = COUNTED.with(Cell::get);
    (out, (after.0 - before.0, after.1 - before.1))
}

/// What one set-up allocates: the build on this thread, then each node's
/// `init` on its own, added up.
fn set_up(protocol: Protocol) -> (u64, u64) {
    let (net, kind) = match protocol {
        Protocol::Tcp | Protocol::Sbp => ("eth0", NetKind::Ethernet),
        Protocol::Bip => ("myr0", NetKind::Myrinet),
        Protocol::Sisci => ("sci0", NetKind::Sci),
        Protocol::Via => ("san0", NetKind::ViaSan),
    };
    let mut b = WorldBuilder::new(2);
    b.network(net, kind, &[0, 1]);
    let (world, built) = counted(|| b.build());
    let config = Config::one("ch", net, protocol);
    let inits = world.run(|env| {
        let (mad, used) = counted(|| Madeleine::init(&env, &config));
        // Nobody drops its session (and its segments) while a peer may
        // still be connecting.
        env.barrier();
        drop(mad);
        used
    });
    inits
        .iter()
        .fold(built, |(n, bytes), i| (n + i.0, bytes + i.1))
}

/// The pins: `(protocol, allocations, bytes)` of one set-up.
const PINS: [(Protocol, u64, u64); 5] = [
    (Protocol::Sisci, 114, 245_560),
    (Protocol::Bip, 101, 243_348),
    (Protocol::Tcp, 101, 243_076),
    (Protocol::Via, 121, 247_464),
    (Protocol::Sbp, 103, 243_572),
];

/// Each protocol's set-up allocates exactly its pin. A wait that parks
/// grows its count's sleeper list — one allocation the schedule decides —
/// so the least of a few set-ups is what is pinned.
#[test]
fn a_world_set_up_allocates_its_pin() {
    let got: Vec<_> = PINS
        .iter()
        .map(|&(protocol, ..)| {
            let (n, bytes) = (0..8).map(|_| set_up(protocol)).min().expect("runs");
            (protocol, n, bytes)
        })
        .collect();
    assert_eq!(got, PINS, "(protocol, allocations, bytes) of build + init");
}
