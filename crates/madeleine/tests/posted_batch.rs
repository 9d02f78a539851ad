//! Posted small messages on a batched channel: what the engine's
//! bookkeeping costs per op (a step count, not a wall-clock threshold),
//! what the completion queue holds, which batch a wait flushes, and the
//! ordering and failure semantics of ops that retire at the flush.

use bytes::Bytes;
use madeleine::progress::CQ_RING_CAP;
use madeleine::{Channel, ChannelSpec, Config, MadError, Madeleine, OpId, OpState, Protocol};
use madeleine::{RecvMode, SendMode};
use madsim_net::time::{self, VDuration};
use madsim_net::{FaultPlan, NetKind, World, WorldBuilder};

const CHEAPER: (SendMode, RecvMode) = (SendMode::Cheaper, RecvMode::Cheaper);
const LEN: usize = 64;

fn batched_tcp(nodes: usize, plan: Option<FaultPlan>) -> (World, Config) {
    let mut b = WorldBuilder::new(nodes);
    let members: Vec<usize> = (0..nodes).collect();
    b.network("eth0", NetKind::Ethernet, &members);
    if let Some(plan) = plan {
        b = b.fault_plan(plan);
    }
    let spec = ChannelSpec::new("ch", "eth0", Protocol::Tcp).with_batching(16, 4096, 20.0);
    (b.build(), Config::default().with_channel_spec(spec))
}

fn payload(seq: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (seq * 131 + i * 7) as u8).collect()
}

fn post(ch: &Channel, dst: usize, seq: usize, len: usize) -> OpId {
    let block = Bytes::from(payload(seq, len));
    ch.post_message(dst, vec![(block, CHEAPER.0, CHEAPER.1)])
}

fn recv(ch: &Channel, len: usize) -> (usize, Vec<u8>) {
    let mut got = vec![0u8; len];
    let mut msg = ch.begin_unpacking();
    let src = msg.src();
    msg.unpack(&mut got, CHEAPER.0, CHEAPER.1);
    msg.end_unpacking();
    (src, got)
}

/// The gate: a batchable posted op is stepped once (it emits its packets
/// and parks) and the flush retires it — the engine never re-steps the ops
/// parked ahead of a new post, nor one op per retire.
#[test]
fn batched_posts_cost_a_constant_number_of_steps() {
    const OPS: usize = 1024;
    const BURST: usize = 64;
    let (world, config) = batched_tcp(2, None);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let mut ids = Vec::with_capacity(BURST);
            for burst in 0..OPS / BURST {
                for k in 0..BURST {
                    ids.push(post(ch, 1, burst * BURST + k, LEN));
                }
                ch.flush().expect("flush ships the burst");
                for id in ids.drain(..) {
                    ch.wait_op(id).expect("flushed op completes");
                }
            }
            let steps = ch.engine().steps();
            assert!(
                steps <= 2 * OPS as u64,
                "{steps} engine steps for {OPS} batchable posts"
            );
            assert_eq!(ch.engine().in_flight(), 0);
        } else {
            for seq in 0..OPS {
                assert_eq!(recv(ch, LEN).1, payload(seq, LEN), "message {seq}");
            }
        }
    });
}

/// The completion queue holds the results nobody consumed — not an entry
/// per op ever posted — whether results are taken by handle or drained.
#[test]
fn completion_queue_memory_is_bounded_by_unconsumed_results() {
    const OPS: usize = 100_000;
    const BURST: usize = 50;
    let (world, config) = batched_tcp(2, None);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let mut ids = Vec::with_capacity(BURST);
            // By handle, never draining `completions()`.
            for burst in 0..OPS / BURST {
                ids.extend((0..BURST).map(|k| post(ch, 1, burst * BURST + k, 8)));
                for id in ids.drain(..) {
                    ch.wait_op(id).expect("op completes");
                    let queued = ch.completions().len();
                    let bound = CQ_RING_CAP + ch.engine().in_flight();
                    assert!(queued <= bound, "{queued} entries queued in burst {burst}");
                }
            }
            // Through the queue: every op exactly once, in order.
            for burst in 0..OPS / BURST {
                ids.extend((0..BURST).map(|k| post(ch, 1, burst * BURST + k, 8)));
                ch.flush().expect("flush ships the burst");
                for id in ids.drain(..) {
                    let c = ch.completions().pop_wait().expect("queue open");
                    assert_eq!(c.id, id, "burst {burst} seen out of turn");
                    assert!(ch.engine().take_result(id).expect("retired").is_ok());
                }
            }
            assert!(ch.completions().try_pop().is_none(), "an op seen twice");
            assert_eq!(ch.completions().len(), 0);
        } else {
            for seq in 0..2 * OPS {
                assert_eq!(recv(ch, 8).1, payload(seq % OPS, 8));
            }
        }
    });
}

/// Each flush reason is counted where it fires, on a channel batching 16
/// packets, 4096 B or 20 µs: a burst of 64 posted 64 B messages — a
/// header packet and a block each — fills eight frames (`Full`) and never
/// waits out a deadline; an EXPRESS block ships
/// its frame at once (`Express`); `Channel::flush` ships what is left
/// (`Explicit`); and a progress tick after the clock passes a straggler's
/// deadline ships it (`Deadline`).
#[test]
fn each_flush_reason_is_counted_where_it_fires() {
    const EXPRESS: (SendMode, RecvMode) = (SendMode::Cheaper, RecvMode::Express);
    let (world, config) = batched_tcp(2, None);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let stats = ch.stats();
            let reasons = |since| {
                let d = stats.snapshot().since(&since);
                let (full, express) = (d.batch_flush_full, d.batch_flush_express);
                (
                    full,
                    express,
                    d.batch_flush_explicit,
                    d.batch_flush_deadline,
                )
            };
            let mut ids = Vec::new();
            let at = stats.snapshot();
            ids.extend((0..64).map(|seq| post(ch, 1, seq, LEN)));
            assert_eq!(reasons(at), (8, 0, 0, 0), "the burst");
            let at = stats.snapshot();
            let block = (Bytes::from(payload(64, LEN)), EXPRESS.0, EXPRESS.1);
            ids.push(ch.post_message(1, vec![block]));
            assert_eq!(reasons(at), (0, 1, 0, 0), "an EXPRESS block");
            let at = stats.snapshot();
            ids.push(post(ch, 1, 65, LEN));
            ch.flush().expect("flush ships the straggler");
            assert_eq!(reasons(at), (0, 0, 1, 0), "Channel::flush");
            let at = stats.snapshot();
            ids.push(post(ch, 1, 66, LEN));
            ch.progress();
            assert_eq!(reasons(at), (0, 0, 0, 0), "a tick before the deadline");
            time::advance(VDuration::from_micros(21));
            ch.progress();
            assert_eq!(reasons(at), (0, 0, 0, 1), "a tick past the deadline");
            for id in ids {
                ch.wait_op(id).expect("flushed op completes");
            }
        } else {
            for seq in 0..67 {
                let mode = if seq == 64 { EXPRESS } else { CHEAPER };
                let mut got = vec![0u8; LEN];
                let mut msg = ch.begin_unpacking();
                msg.unpack(&mut got, mode.0, mode.1);
                msg.end_unpacking();
                assert_eq!(got, payload(seq, LEN), "message {seq}");
            }
        }
    });
}

/// A wait flushes the batch its op sits in — the connection toward the
/// op's peer — and leaves the other peers' batches coalescing.
#[test]
fn wait_op_flushes_only_its_peers_batch() {
    let (world, config) = batched_tcp(3, None);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        match env.id() {
            0 => {
                let to_b: Vec<OpId> = (0..3).map(|seq| post(ch, 2, seq, LEN)).collect();
                let to_a = post(ch, 1, 9, LEN);
                ch.wait_op(to_a).expect("op to A completes");
                for &id in &to_b {
                    assert_eq!(ch.engine().state(id), Some(OpState::Batched));
                }
                assert_eq!(ch.stats().batches(), 1, "only A's frame may ship");
                ch.flush().expect("flush ships B's frame");
                assert_eq!(ch.stats().batches(), 2, "B's three messages are one frame");
                for id in to_b {
                    ch.wait_op(id).expect("op to B completes");
                }
            }
            1 => assert_eq!(recv(ch, LEN), (0, payload(9, LEN))),
            _ => {
                for seq in 0..3 {
                    assert_eq!(recv(ch, LEN), (0, payload(seq, LEN)));
                }
            }
        }
    });
}

/// A non-batchable block is a barrier: its flush retires the op parked
/// ahead of it before the block's own op completes, and the peer unpacks
/// the three messages in posting order.
#[test]
fn flush_retires_in_posting_order_across_a_barrier() {
    const BIG: usize = 64 * 1024;
    let (world, config) = batched_tcp(2, None);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let a = post(ch, 1, 0, LEN);
            assert_eq!(ch.engine().state(a), Some(OpState::Batched));
            let b = post(ch, 1, 1, BIG);
            assert_eq!(ch.engine().state(a), Some(OpState::Complete));
            let c = post(ch, 1, 2, LEN);
            assert_eq!(ch.engine().state(c), Some(OpState::Batched));
            ch.flush().expect("flush ships C");
            let order: Vec<OpId> = ch.completions().drain().iter().map(|c| c.id).collect();
            assert_eq!(order, [a, b, c]);
            for id in order {
                assert!(ch.engine().take_result(id).expect("retired").is_ok());
            }
        } else {
            for (seq, len) in [(0, LEN), (1, BIG), (2, LEN)] {
                assert_eq!(recv(ch, len).1, payload(seq, len), "message {seq}");
            }
        }
    });
}

/// A frame that fails to ship fails every op it covered — none completes —
/// and poisons the batch, so later posts fail fast.
#[test]
fn failed_flush_fails_every_op_it_covered() {
    let (world, config) = batched_tcp(2, Some(FaultPlan::new(1)));
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let doomed: Vec<OpId> = (0..3).map(|seq| post(ch, 1, seq, LEN)).collect();
            // The link is cut before the frame ships.
            env.faults().expect("fault-armed world").crash(1);
            let poison = ch.flush().expect_err("flush toward a dead peer");
            for id in doomed {
                assert_eq!(ch.engine().state(id), Some(OpState::Failed));
                let e = ch.wait_op(id).expect_err("covered op must not complete");
                assert_eq!(format!("{e:?}"), format!("{poison:?}"));
            }
            let late = post(ch, 1, 3, LEN);
            assert_eq!(ch.engine().state(late), Some(OpState::Failed));
            assert!(ch.wait_op(late).is_err());
            assert_eq!(ch.engine().in_flight(), 0);
        }
        env.barrier();
    });
}

/// A failed flush fails the ops *it* covered, not the ones an earlier
/// frame already delivered: a message that flushes twice inside one step
/// ships the op parked ahead of it with its first frame, loses its second
/// frame to a link cut — and the delivered op still completes. The cut is
/// on the rail itself, so the ARQ's liveness test sees it before the frame
/// leaves: no frame is dropped and no retransmission timer runs.
#[test]
fn failed_flush_spares_ops_an_earlier_frame_shipped() {
    // The link dies once it has carried one frame toward the peer.
    let plan = FaultPlan::new(1).partition_rail_after(0, 0, 0, 1, 1);
    let (world, config) = batched_tcp(2, Some(plan));
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let a = post(ch, 1, 0, LEN);
            assert_eq!(ch.engine().state(a), Some(OpState::Batched));
            // 40 blocks + a header behind A's two packets: the 16th packet
            // trips a Full flush (A rides in it), the 32nd the next one.
            let block = |k| (Bytes::from(payload(k, LEN)), CHEAPER.0, CHEAPER.1);
            let big = ch.post_message(1, (1..=40).map(block).collect());
            assert_eq!(ch.stats().batches(), 1, "only the first frame shipped");
            assert_eq!(ch.engine().state(big), Some(OpState::Failed));
            let lost = ch.wait_op(big).expect_err("its second frame was lost");
            assert_eq!(lost, MadError::PeerUnreachable { peer: 1 });
            assert_eq!(ch.stats().link_timeouts(), 0, "no bounded wait expired");
            ch.wait_op(a).expect("A was delivered by the first frame");
            let late = post(ch, 1, 41, LEN);
            assert!(ch.wait_op(late).is_err(), "the batch stays poisoned");
            assert_eq!(ch.engine().in_flight(), 0);
        } else {
            assert_eq!(recv(ch, LEN).1, payload(0, LEN), "A arrives intact");
        }
        env.barrier();
    });
    let faults = world.faults().expect("fault-armed world");
    assert_eq!(faults.drops(), 0, "a frame was sent into the cut rail");
}
