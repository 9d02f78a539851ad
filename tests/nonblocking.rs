//! The nonblocking op path end to end: posted message state machines,
//! completion-queue semantics, cancellation, and failure under quarantine.
//!
//! Every test runs over BIP (Myrinet), whose credit-gated short TM and
//! rendezvous long TM exercise all three parked op states.

use bytes::Bytes;
use mad_mpi::Mpi;
use madeleine::{Config, MadError, Madeleine, OpState, Protocol, RecvMode, SendMode};
use madsim_net::{NetKind, WorldBuilder};
use std::sync::Arc;

fn bip_world(nodes: usize) -> (madsim_net::World, Config) {
    let mut b = WorldBuilder::new(nodes);
    let members: Vec<usize> = (0..nodes).collect();
    b.network("myr0", NetKind::Myrinet, &members);
    (b.build(), Config::one("net", "myr0", Protocol::Bip))
}

/// Interleaved sends to two peers: a short message posted *after* a
/// rendezvous retires *before* it, so the completion queue orders by
/// completion, not posting — and the blocked rendezvous drains later
/// through a progress-driven queue pop.
#[test]
fn completion_queue_orders_by_completion_not_posting() {
    const LEN: usize = 64 * 1024;
    let (world, config) = bip_world(3);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("net");
        if env.id() == 0 {
            let long: Vec<u8> = (0..LEN).map(|i| (i % 255) as u8).collect();
            let a = ch.post_message(
                1,
                vec![(
                    Bytes::copy_from_slice(&long),
                    SendMode::Cheaper,
                    RecvMode::Cheaper,
                )],
            );
            let b = ch.post_message(
                2,
                vec![(
                    Bytes::from_static(b"tiny"),
                    SendMode::Cheaper,
                    RecvMode::Cheaper,
                )],
            );
            // Node 1 is parked at the barrier, so its CTS cannot have
            // arrived: the long op must be parked, the short one retired.
            assert_eq!(ch.engine().state(a), Some(OpState::RendezvousWait));
            let first = ch
                .completions()
                .try_pop()
                .expect("short op retires at post time");
            assert_eq!(first.id, b, "short message must complete first");
            assert_eq!(first.peer, 2);
            assert!(first.result.is_ok());
            assert!(ch.completions().is_empty());
            env.barrier();
            // Drain the rendezvous through the queue, ticking the engine.
            let second = loop {
                ch.progress();
                if let Some(c) = ch.completions().try_pop() {
                    break c;
                }
                std::thread::yield_now();
            };
            assert_eq!(second.id, a);
            assert_eq!(second.peer, 1);
            assert!(second.result.is_ok());
            assert_eq!(ch.engine().in_flight(), 0);
        } else {
            env.barrier();
            let mut buf = vec![0u8; if env.id() == 1 { LEN } else { 4 }];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut buf, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            if env.id() == 1 {
                assert!(buf.iter().enumerate().all(|(i, &x)| x == (i % 255) as u8));
            } else {
                assert_eq!(&buf, b"tiny");
            }
        }
    });
}

/// `MPI_Isend` of a rendezvous-sized message genuinely returns before the
/// transfer can complete; `test` reports false across the rendezvous
/// boundary and flips to true once the receiver posts.
#[test]
fn mpi_isend_test_false_then_true_across_rendezvous() {
    const LEN: usize = 64 * 1024;
    let (world, config) = bip_world(2);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = Arc::clone(mad.channel("net"));
        let mpi = Mpi::init(&mad, "net");
        if mpi.rank() == 0 {
            let data: Vec<u8> = (0..LEN).map(|i| (i * 7 % 251) as u8).collect();
            let mut req = mpi.isend(1, 42, &data);
            // ≥ 1 kB over BIP needs the receiver's CTS, and the receiver
            // is parked at the barrier: isend must have returned with the
            // transfer still in flight.
            assert_eq!(ch.engine().in_flight(), 1);
            assert!(
                mpi.test(&mut req).is_none(),
                "rendezvous send completed with no receiver posted"
            );
            env.barrier();
            let st = loop {
                if let Some(st) = mpi.test(&mut req) {
                    break st;
                }
                std::thread::yield_now();
            };
            assert_eq!((st.source, st.tag, st.len), (1, 42, LEN));
            assert_eq!(ch.engine().in_flight(), 0, "transfer finished inside test");
        } else {
            env.barrier();
            let mut buf = vec![0u8; LEN];
            let st = mpi.recv(Some(0), Some(42), &mut buf);
            assert_eq!(st.len, LEN);
            assert!(buf
                .iter()
                .enumerate()
                .all(|(i, &x)| x == (i * 7 % 251) as u8));
        }
        mpi.barrier();
    });
}

/// An op queued behind a parked rendezvous has shipped nothing, so it can
/// be cancelled — and because the header sequence number is claimed at
/// ship time, the cancel leaves no gap in the peer's sequence space.
#[test]
fn cancel_of_unstarted_op_leaves_stream_intact() {
    const LEN: usize = 32 * 1024;
    let (world, config) = bip_world(2);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("net");
        if env.id() == 0 {
            let a = ch.post_message(
                1,
                vec![(
                    Bytes::from(vec![9u8; LEN]),
                    SendMode::Cheaper,
                    RecvMode::Cheaper,
                )],
            );
            let b = ch.post_message(
                1,
                vec![(
                    Bytes::from_static(b"never"),
                    SendMode::Cheaper,
                    RecvMode::Cheaper,
                )],
            );
            assert_eq!(ch.engine().state(b), Some(OpState::Posted));
            assert!(ch.cancel_op(b), "unstarted op must be cancellable");
            assert_eq!(ch.engine().state(b), None, "cancelled op is forgotten");
            assert!(
                !ch.cancel_op(a),
                "an op whose header shipped must be uncancellable"
            );
            env.barrier();
            ch.wait_op(a).expect("rendezvous completes once peer posts");
            // No sequence hole: a blocking message to the same peer flows.
            let mut msg = ch.begin_packing(1);
            msg.pack(b"after", SendMode::Cheaper, RecvMode::Express);
            msg.end_packing();
        } else {
            env.barrier();
            let mut buf = vec![0u8; LEN];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut buf, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            assert!(buf.iter().all(|&x| x == 9));
            let mut tail = [0u8; 5];
            let mut msg = ch.begin_unpacking();
            msg.unpack_express(&mut tail, SendMode::Cheaper);
            msg.end_unpacking();
            assert_eq!(&tail, b"after");
        }
    });
}

/// A posted small message on a batched channel parks in `Batched`: its
/// packets are staged in the open coalescing frame but nothing has hit the
/// wire. Cancelling it must pull those packets back out of the batch — the
/// peer sees only later traffic, with no sequence gap, because both the
/// envelope and the message sequence numbers are claimed at flush time.
#[test]
fn cancel_while_batched_withholds_the_envelope() {
    use madeleine::ChannelSpec;

    let mut b = WorldBuilder::new(2);
    b.network("eth0", NetKind::Ethernet, &[0, 1]);
    let world = b.build();
    let config = Config::default().with_channel_spec(
        ChannelSpec::new("net", "eth0", Protocol::Tcp).with_batching(16, 4096, 20.0),
    );
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("net");
        if env.id() == 0 {
            let doomed = ch.post_message(
                1,
                vec![(
                    Bytes::from_static(b"never"),
                    SendMode::Cheaper,
                    RecvMode::Cheaper,
                )],
            );
            assert_eq!(ch.engine().state(doomed), Some(OpState::Batched));
            assert!(
                ch.cancel_op(doomed),
                "a staged-but-unflushed op must be cancellable"
            );
            assert_eq!(ch.engine().state(doomed), None, "cancelled op is forgotten");
            let keep = ch.post_message(
                1,
                vec![(
                    Bytes::from_static(b"lives"),
                    SendMode::Cheaper,
                    RecvMode::Cheaper,
                )],
            );
            ch.flush().expect("explicit flush ships the survivor");
            ch.wait_op(keep).expect("surviving op completes");
            let s = ch.stats();
            assert!(s.batches() >= 1, "flush of a non-empty batch must count");
            assert_eq!(
                s.batched_packets(),
                2,
                "only the survivor's header + data may ship"
            );
        } else {
            let mut buf = [0u8; 5];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut buf, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            assert_eq!(&buf, b"lives", "cancelled message leaked to the peer");
        }
        env.barrier();
    });
}

/// Dropping a posted-but-unmatched nonblocking receive must neither hang
/// nor panic, and must not disturb later traffic.
#[test]
fn dropping_unmatched_irecv_is_harmless() {
    let (world, config) = bip_world(2);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let mpi = Mpi::init(&mad, "net");
        if mpi.rank() == 0 {
            let mut buf = [0u8; 16];
            let mut req = mpi.irecv(Some(1), Some(99), &mut buf);
            assert!(mpi.test(&mut req).is_none(), "nobody sent tag 99");
            let _ = req;
            mpi.send(1, 7, b"ping");
            let mut back = [0u8; 4];
            let st = mpi.recv(Some(1), Some(7), &mut back);
            assert_eq!((st.len, &back), (4, b"pong"));
        } else {
            let mut buf = [0u8; 4];
            mpi.recv(Some(0), Some(7), &mut buf);
            assert_eq!(&buf, b"ping");
            mpi.send(0, 7, b"pong");
        }
    });
}

/// Chaos: every rail quarantined mid-op. Both the parked rendezvous and
/// the op queued behind it must fail with `ChannelDown` — promptly, not by
/// hanging until a fault timeout.
#[test]
fn quarantined_rails_fail_in_flight_ops_with_channel_down() {
    const LEN: usize = 16 * 1024;
    let (world, config) = bip_world(2);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("net");
        if env.id() == 0 {
            let a = ch.post_message(
                1,
                vec![(
                    Bytes::from(vec![1u8; LEN]),
                    SendMode::Cheaper,
                    RecvMode::Cheaper,
                )],
            );
            let b = ch.post_message(
                1,
                vec![(
                    Bytes::from_static(b"queued"),
                    SendMode::Cheaper,
                    RecvMode::Cheaper,
                )],
            );
            assert_eq!(ch.engine().state(a), Some(OpState::RendezvousWait));
            // The channel's only rail dies under the in-flight ops.
            ch.quarantine_rail(0);
            let ea = ch.wait_op(a).expect_err("op on a dead rail must fail");
            assert!(matches!(ea, MadError::ChannelDown), "got {ea:?}");
            let eb = ch.wait_op(b).expect_err("queued op must fail too");
            assert!(matches!(eb, MadError::ChannelDown), "got {eb:?}");
            assert_eq!(ch.engine().in_flight(), 0);
        }
        env.barrier();
    });
}

/// `wait_op` on an op the engine has forgotten — its result was consumed,
/// or it was cancelled — is API misuse: it panics instead of spinning on
/// a result that can never come.
#[test]
#[should_panic(expected = "is not in flight")]
fn wait_op_on_a_consumed_op_panics() {
    let (world, config) = bip_world(2);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("net");
        if env.id() == 0 {
            let block = (
                Bytes::from_static(b"once"),
                SendMode::Cheaper,
                RecvMode::Cheaper,
            );
            let id = ch.post_message(1, vec![block]);
            ch.wait_op(id).expect("short message completes");
            let _ = ch.wait_op(id);
        }
    });
}

/// A posted op parks *inside* a BMM: its short blocks fill BIP static
/// buffers, and with the receiver held back the ring's credits run out on
/// a buffer that filled in mid-block — the rest of that block and the
/// blocks behind it wait in the BMM's queue, the op in `CreditWait`. Once
/// the receiver drains, every byte arrives in order and everything posted
/// behind the parked op follows; an op queued behind it is still
/// unstarted, so it cancels.
#[test]
fn credit_park_inside_a_bmm_keeps_order_and_drains() {
    use madsim_net::stacks::bip::{BIP_SHORT_MAX, BIP_SHORT_RING};
    // A message is its header's buffer, four buffers filled by its blocks
    // and the partial one its commit ships.
    const BLOCKS: usize = 5;
    const LEN: usize = 1000;
    let per_msg = 1 + (BLOCKS * LEN).div_ceil(BIP_SHORT_MAX);
    assert!(
        (2..per_msg).contains(&((BIP_SHORT_RING + 1) % per_msg)),
        "the first buffer without a credit must be one filled in mid-block"
    );
    let byte = |msg: usize, block: usize, i: usize| (msg * 37 + block * 11 + i) as u8;
    let (world, config) = bip_world(2);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("net");
        let message = |m: usize| -> Vec<Vec<u8>> {
            let block = |b: usize| (0..LEN).map(|i| byte(m, b, i)).collect();
            (0..BLOCKS).map(block).collect()
        };
        let sent = BIP_SHORT_RING / per_msg + 3;
        if env.id() == 0 {
            let post = |m: usize| {
                let blocks = message(m).into_iter();
                let modes = (SendMode::Cheaper, RecvMode::Cheaper);
                ch.post_message(
                    1,
                    blocks.map(|b| (Bytes::from(b), modes.0, modes.1)).collect(),
                )
            };
            let ids: Vec<_> = (0..sent).map(post).collect();
            let parked = BIP_SHORT_RING / per_msg;
            assert_eq!(ch.engine().state(ids[parked]), Some(OpState::CreditWait));
            assert_eq!(ch.engine().state(ids[parked + 1]), Some(OpState::Posted));
            let doomed = post(sent);
            assert!(
                ch.cancel_op(doomed),
                "an op queued behind the parked one is unstarted"
            );
            env.barrier();
            for id in ids {
                ch.wait_op(id).expect("parked and queued ops complete");
            }
            assert_eq!(ch.engine().in_flight(), 0);
        } else {
            env.barrier();
            for m in 0..sent {
                let mut got = vec![vec![0u8; LEN]; BLOCKS];
                let mut msg = ch.begin_unpacking();
                for block in got.iter_mut() {
                    msg.unpack(block, SendMode::Cheaper, RecvMode::Cheaper);
                }
                msg.end_unpacking();
                assert!(got == message(m), "message {m} corrupted or out of order");
            }
        }
    });
}
