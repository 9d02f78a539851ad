//! A finished world leaves nothing behind: live heap bytes, tracked by a
//! process-wide counting allocator, do not grow with the number of worlds
//! a process has built, run and dropped — on any of the five protocols.
//! A per-world entry in a process-global map, or a reference cycle
//! through the handles a world hands out, fails this.

use madeleine::{Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::{NetKind, WorldBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes allocated and not yet freed, process-wide.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Tracking;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping is one atomic add that never
// allocates or unwinds.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, with the caller's size obligations.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOC: Tracking = Tracking;

const WARM_WORLDS: usize = 50;
const WORLDS: usize = 200;
/// Growth allowed over `WORLDS` worlds: noise, not a per-world leak.
const SLACK: isize = 4 * 1024;

/// Build a 2-node world on `protocol`'s fabric, bring a session up on
/// both nodes, send one 4 B message from node 0 to node 1, and drop it all.
fn one_world(protocol: Protocol) {
    let (net, kind) = match protocol {
        Protocol::Tcp | Protocol::Sbp => ("eth0", NetKind::Ethernet),
        Protocol::Bip => ("myr0", NetKind::Myrinet),
        Protocol::Sisci => ("sci0", NetKind::Sci),
        Protocol::Via => ("san0", NetKind::ViaSan),
    };
    let mut b = WorldBuilder::new(2);
    b.network(net, kind, &[0, 1]);
    let world = b.build();
    let config = Config::one("ch", net, protocol);
    world.run(|env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let mut word = [0u8; 4];
        if env.id() == 0 {
            let mut msg = ch.begin_packing(1);
            msg.pack(b"ping", SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
        } else {
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut word, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            assert_eq!(&word, b"ping");
        }
    });
}

#[test]
fn a_finished_world_leaves_nothing_behind() {
    let mut grew = Vec::new();
    for protocol in [
        Protocol::Bip,
        Protocol::Sisci,
        Protocol::Tcp,
        Protocol::Via,
        Protocol::Sbp,
    ] {
        for _ in 0..WARM_WORLDS {
            one_world(protocol);
        }
        let before = LIVE.load(Ordering::SeqCst);
        for _ in 0..WORLDS {
            one_world(protocol);
        }
        grew.push((protocol, LIVE.load(Ordering::SeqCst) - before));
    }
    assert!(
        grew.iter().all(|&(_, bytes)| bytes <= SLACK),
        "live bytes grew by more than {SLACK} B over {WORLDS} worlds: {grew:?}"
    );
}
