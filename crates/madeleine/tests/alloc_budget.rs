//! Allocation budgets, counted — not timed — with a counting global
//! allocator: what one posted 64 B message over batched TCP may allocate
//! on its sender and on its receiver, that a hostile length claim never
//! sizes an allocation, and that a block streamed over SISCI allocates per
//! message, not per chunk.

use bytes::Bytes;
use madeleine::{ChannelSpec, Config, MadError, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::stacks::tcp::TcpStack;
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

/// Run `f` with this thread's allocations counted into `into`.
fn counted<T>(into: &mut (u64, u64), f: impl FnOnce() -> T) -> T {
    let before = COUNTED.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    let after = COUNTED.with(Cell::get);
    into.0 += after.0 - before.0;
    into.1 += after.1 - before.1;
    out
}

const LEN: usize = 64;
const BURST: usize = 64;
const BURSTS: usize = 64;
const WARM_BURSTS: usize = 8;

fn batched_tcp() -> (madsim_net::World, Config) {
    let mut b = WorldBuilder::new(2);
    b.network("eth0", NetKind::Ethernet, &[0, 1]);
    let spec = ChannelSpec::new("ch", "eth0", Protocol::Tcp).with_batching(16, 4096, 20.0);
    (b.build(), Config::default().with_channel_spec(spec))
}

/// Bursts of 64 x 64 B, one 1-byte ack per burst (so neither side runs
/// ahead and queues grow), the first bursts discarded as warm-up.
#[test]
fn posted_small_messages_stay_inside_their_allocation_budget() {
    let (world, config) = batched_tcp();
    let per_msg = |n: (u64, u64)| n.0 as f64 / ((BURSTS - WARM_BURSTS) * BURST) as f64;
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let block = Bytes::from(vec![0xA5u8; LEN]);
        let (mut post, mut flush, mut wait, mut recv) = ((0, 0), (0, 0), (0, 0), (0, 0));
        let mut ids = Vec::with_capacity(BURST);
        let mut got = [0u8; LEN];
        for burst in 0..BURSTS {
            if burst == WARM_BURSTS {
                (post, flush, wait, recv) = ((0, 0), (0, 0), (0, 0), (0, 0));
            }
            if env.id() == 0 {
                for _ in 0..BURST {
                    // The caller's block list is the caller's allocation.
                    let blocks = vec![(block.clone(), SendMode::Cheaper, RecvMode::Cheaper)];
                    ids.push(counted(&mut post, || ch.post_message(1, blocks)));
                }
                counted(&mut flush, || ch.flush()).expect("flush");
                for id in ids.drain(..) {
                    counted(&mut wait, || ch.wait_op(id)).expect("posted message completes");
                }
                let mut ack = [0u8; 1];
                let mut msg = ch.begin_unpacking();
                msg.unpack_express(&mut ack, SendMode::Cheaper);
                msg.end_unpacking();
            } else {
                for _ in 0..BURST {
                    counted(&mut recv, || {
                        let mut msg = ch.begin_unpacking();
                        msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                        msg.end_unpacking();
                    });
                    assert_eq!(got, [0xA5u8; LEN]);
                }
                let ack = [burst as u8];
                let mut msg = ch.begin_packing(0);
                msg.pack(&ack, SendMode::Cheaper, RecvMode::Express);
                msg.end_packing();
            }
        }
        if env.id() == 0 {
            // A message that batches whole is never boxed; what is left is
            // per frame (the gather list, and the wire copy a real kernel
            // would make), an eighth of it per message.
            assert!(
                per_msg(post) <= 1.15,
                "{:.3} allocations per post_message",
                per_msg(post)
            );
            assert_eq!(flush.0, 0, "an explicit flush allocates nothing");
            assert_eq!(wait.0, 0, "wait_op allocates nothing");
        } else {
            assert!(
                per_msg(recv) <= 0.15,
                "{:.3} allocations per received message",
                per_msg(recv)
            );
        }
    });
}

/// A batch frame header claiming a 1 GiB body, raw on the channel's own
/// TCP stream: the receiver reports corruption from the header alone —
/// nothing is allocated (or awaited) on the strength of the claim.
#[test]
fn oversize_body_claim_sizes_no_allocation() {
    let (world, config) = batched_tcp();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        if env.id() == 0 {
            // Same adapter, same port (the channel's index): the bytes land
            // in the stream node 1's channel reads.
            let raw = TcpStack::new(env.adapters_named("eth0")[0]);
            raw.connect(1, 0)
                .send(&[0xC9, 0x80, 0x80, 0x80, 0x80, 0x04]);
        } else {
            let mut used = (0, 0);
            let r = counted(&mut used, || mad.channel("ch").begin_unpacking_checked());
            match r {
                Err(MadError::CorruptStream(what)) => {
                    assert!(what.contains("1073741824-byte body"), "got {what:?}")
                }
                Err(e) => panic!("expected CorruptStream, got {e:?}"),
                Ok(_) => panic!("a 1 GiB frame was accepted"),
            }
            assert!(
                used.1 < 4096,
                "{} bytes allocated on a hostile claim",
                used.1
            );
        }
        env.barrier();
    });
}

/// One 1 MiB block over SISCI is 128 chunks through the dual-buffering
/// ring. What its sender and receiver allocate between them must not grow
/// with the chunk count: a chunk that lies inside the caller's block is
/// written straight from it, and a flag write reuses its history.
#[test]
fn a_streamed_sisci_block_allocates_per_message_not_per_chunk() {
    const LEN: usize = 1 << 20;
    let mut b = WorldBuilder::new(2);
    b.network("sci0", NetKind::Sci, &[0, 1]);
    let config = Config::one("ch", "sci0", Protocol::Sisci);
    let used = b.build().run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let data = vec![0x5Au8; LEN];
        let mut got = vec![0u8; LEN];
        let mut used = (0, 0);
        // The first message warms pools, flag slots and bus timelines.
        for round in 0..2 {
            if round == 1 {
                used = (0, 0);
            }
            if env.id() == 0 {
                counted(&mut used, || {
                    let mut msg = ch.begin_packing(1);
                    msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_packing();
                });
            } else {
                counted(&mut used, || {
                    let mut msg = ch.begin_unpacking();
                    msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_unpacking();
                });
                assert!(got == data, "round {round} corrupted");
                got.fill(0);
            }
            env.barrier();
        }
        used.0
    });
    assert!(
        used[0] + used[1] <= 16,
        "{} sender + {} receiver allocations for one 1 MiB block",
        used[0],
        used[1]
    );
}
