//! Lock-free hot path: the sharded mailbox, the MPSC completion queue,
//! and the lock-free buffer pool against their single-lock baselines.
//!
//! Unlike the other bench bins, this one measures the *concurrency
//! primitives themselves* in real time — no virtual clock, and (but for
//! the last round) no simulated fabric. The workload is the 4-peer
//! small-message storm the sharding
//! work targets: four producers (one per peer) firing small items at
//! four keyed consumers, every item demultiplexed by its peer key. The
//! baseline is the pre-refactor design, reconstructed inline: one
//! mutex-guarded deque with a condvar, every push and every keyed scan
//! serializing on the same lock.
//!
//! Headline claim asserted below: the sharded mailbox moves the storm
//! at 1.3x or more of the single-lock baseline's ops/second. The completion
//! queue and buffer pool rounds are reported (ns/op) but not gated —
//! they are single-consumer shapes whose win shows mostly under
//! contention the storm already demonstrates.
//!
//! The last round prices the progress engine's bookkeeping for a posted
//! small message end to end — `post_message` x 64, `flush`, `wait_op` x 64
//! over a batched TCP channel — in ns/op (reported) and in engine steps
//! per op, which is a deterministic count and is asserted: a batchable op
//! is stepped once and retired by the flush, so more than 2 steps per op
//! means the engine is re-stepping parked ops again.
//!
//! Writes `BENCH_hotpath.json`. Usage: `hotpath [--out PATH]`

use bench::{arg_value, json_struct, write_json};
use bytes::Bytes;
use madeleine::pool::BufPool;
use madeleine::stats::Stats;
use madeleine::{ChannelSpec, CompletionQueue, Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::{Mailbox, NetKind, Shardable, WorldBuilder};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Peers in the storm (producer/consumer pairs).
const PEERS: u64 = 4;
/// Items each producer fires per round.
const PER_PEER: u64 = 30_000;
/// Measured rounds (the slowest round is discarded as warmup noise).
const ROUNDS: usize = 3;

/// A small message of the storm: a peer key plus a payload word standing
/// in for the frame the real mailbox carries.
struct Item {
    key: u64,
    #[allow(dead_code)]
    payload: u64,
}

impl Shardable for Item {
    fn shard_key(&self) -> u64 {
        self.key
    }
}

/// The pre-refactor mailbox, reconstructed as a baseline: one deque, one
/// lock, one condvar. Keyed receives scan past other peers' items while
/// holding the lock — exactly what the shard demux was built to end.
struct LockedMailbox {
    q: Mutex<VecDeque<Item>>,
    cond: Condvar,
}

impl LockedMailbox {
    fn new() -> Self {
        LockedMailbox {
            q: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
        }
    }

    fn push(&self, item: Item) {
        self.q.lock().expect("baseline lock").push_back(item);
        self.cond.notify_all();
    }

    fn recv_keyed(&self, key: u64) -> Item {
        let mut q = self.q.lock().expect("baseline lock");
        loop {
            if let Some(i) = q.iter().position(|it| it.key == key) {
                return q.remove(i).expect("position just found");
            }
            q = self.cond.wait(q).expect("baseline wait");
        }
    }
}

json_struct! {
    struct Round {
        name: &'static str,
        ops: u64,
        elapsed_ns: u64,
        ns_per_op: f64,
        ops_per_sec: f64,
    }
}

fn round(name: &'static str, ops: u64, elapsed_ns: u64) -> Round {
    Round {
        name,
        ops,
        elapsed_ns,
        ns_per_op: elapsed_ns as f64 / ops as f64,
        ops_per_sec: ops as f64 / (elapsed_ns as f64 / 1e9),
    }
}

/// Best-of-N wall-clock for one storm body: returns elapsed ns.
fn best_of<F: FnMut() -> u64>(mut body: F) -> u64 {
    (0..ROUNDS).map(|_| body()).min().expect("rounds > 0")
}

/// The 4-peer storm over the sharded mailbox.
fn storm_sharded() -> u64 {
    best_of(|| {
        let m: Mailbox<Item> = Mailbox::new();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for key in 0..PEERS {
                let mp = m.clone();
                s.spawn(move || {
                    for payload in 0..PER_PEER {
                        mp.push(Item { key, payload });
                    }
                });
                let mc = m.clone();
                s.spawn(move || {
                    for _ in 0..PER_PEER {
                        let it = mc.recv_keyed(key, |_| true);
                        assert_eq!(it.key, key);
                    }
                });
            }
        });
        t0.elapsed().as_nanos() as u64
    })
}

/// The same storm over the single-lock baseline.
fn storm_locked() -> u64 {
    best_of(|| {
        let m = LockedMailbox::new();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for key in 0..PEERS {
                let mp = &m;
                s.spawn(move || {
                    for payload in 0..PER_PEER {
                        mp.push(Item { key, payload });
                    }
                });
                let mc = &m;
                s.spawn(move || {
                    for _ in 0..PER_PEER {
                        let it = mc.recv_keyed(key);
                        assert_eq!(it.key, key);
                    }
                });
            }
        });
        t0.elapsed().as_nanos() as u64
    })
}

/// Completion-queue round: PEERS producers, one drainer (the MPSC shape
/// of the progress engine's completion path).
fn cq_storm() -> u64 {
    best_of(|| {
        let q: CompletionQueue<u64> = CompletionQueue::new();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for p in 0..PEERS {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER_PEER {
                        q.push(p << 32 | i);
                    }
                });
            }
            let q = &q;
            s.spawn(move || {
                for _ in 0..PEERS * PER_PEER {
                    q.pop_wait().expect("queue not closed");
                }
            });
        });
        t0.elapsed().as_nanos() as u64
    })
}

/// Buffer-pool round: PEERS threads checking out and returning small
/// buffers (the per-frame allocation path of every driver).
fn pool_storm() -> u64 {
    best_of(|| {
        let pool = BufPool::new(Stats::new());
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..PEERS {
                let pool = pool.clone();
                s.spawn(move || {
                    for _ in 0..PER_PEER {
                        let mut b = pool.checkout(256);
                        b.extend_from_slice(&[0u8; 16]);
                        drop(b);
                    }
                });
            }
        });
        t0.elapsed().as_nanos() as u64
    })
}

/// Messages per burst and bursts per run of the posted-message round.
const BURST: usize = 64;
const BURSTS: usize = 256;

/// Posted-message round: node 0 posts bursts of 64 x 64 B over a batched
/// TCP channel, flushes and waits every op out; node 1 unpacks them.
/// Returns the sender's wall-clock ns and its engine's step count.
fn post_wait_batched() -> (u64, u64) {
    let mut steps = 0;
    let elapsed = best_of(|| {
        let mut b = WorldBuilder::new(2);
        b.network("eth0", NetKind::Ethernet, &[0, 1]);
        let spec = ChannelSpec::new("ch", "eth0", Protocol::Tcp).with_batching(16, 4096, 20.0);
        let config = Config::default().with_channel_spec(spec);
        let out = b.build().run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            let block = Bytes::from(vec![0x5Au8; 64]);
            env.barrier();
            let t0 = Instant::now();
            if env.id() == 0 {
                let mut ids = Vec::with_capacity(BURST);
                for _ in 0..BURSTS {
                    for _ in 0..BURST {
                        let blocks = vec![(block.clone(), SendMode::Cheaper, RecvMode::Cheaper)];
                        ids.push(ch.post_message(1, blocks));
                    }
                    ch.flush().expect("flush ships the burst");
                    for id in ids.drain(..) {
                        ch.wait_op(id).expect("posted message completes");
                    }
                }
            } else {
                let mut got = [0u8; 64];
                for _ in 0..BURSTS * BURST {
                    let mut msg = ch.begin_unpacking();
                    msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_unpacking();
                    assert_eq!(got, [0x5Au8; 64]);
                }
            }
            (t0.elapsed().as_nanos() as u64, ch.engine().steps())
        });
        steps = out[0].1;
        out[0].0
    });
    (elapsed, steps)
}

json_struct! {
    struct Output {
        rounds: Vec<Round>,
        /// Sharded-mailbox ops/second over the single-lock baseline.
        mailbox_speedup: f64,
        /// Progress-engine steps per posted 64 B message of the
        /// `post_wait_batched_64b` round (a count, identical run to run).
        post_wait_steps_per_op: f64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_hotpath.json".into());

    let storm_ops = PEERS * PER_PEER;
    let posted_ops = (BURSTS * BURST) as u64;
    let (posted_ns, posted_steps) = post_wait_batched();
    let rounds = vec![
        round("mailbox_locked_baseline", storm_ops, storm_locked()),
        round("mailbox_sharded", storm_ops, storm_sharded()),
        round("completion_queue_mpsc", storm_ops, cq_storm()),
        round("bufpool_lockfree", storm_ops, pool_storm()),
        round("post_wait_batched_64b", posted_ops, posted_ns),
    ];
    println!(
        "{:>26} {:>12} {:>10} {:>14}",
        "round", "ops", "ns/op", "ops/sec"
    );
    for r in &rounds {
        println!(
            "{:>26} {:>12} {:>10.1} {:>14.0}",
            r.name, r.ops, r.ns_per_op, r.ops_per_sec
        );
    }

    let mailbox_speedup = rounds[1].ops_per_sec / rounds[0].ops_per_sec;
    println!("4-peer storm mailbox speedup: {mailbox_speedup:.2}x");
    assert!(
        mailbox_speedup >= 1.3,
        "sharded mailbox speedup {mailbox_speedup:.2}x below 1.3x \
         ({:.0} -> {:.0} ops/sec)",
        rounds[0].ops_per_sec,
        rounds[1].ops_per_sec,
    );

    let post_wait_steps_per_op = posted_steps as f64 / posted_ops as f64;
    println!("posted 64 B message: {post_wait_steps_per_op:.2} engine steps/op");
    assert!(
        post_wait_steps_per_op <= 2.0,
        "{post_wait_steps_per_op:.2} engine steps per batchable posted message \
         ({posted_steps} steps / {posted_ops} ops): parked ops are being re-stepped"
    );

    let out = Output {
        rounds,
        mailbox_speedup,
        post_wait_steps_per_op,
    };
    write_json(&out_path, &out);
}
