//! MPI-over-Madeleine integration tests (the `ch_mad` device, §5.3.1).

use mad_mpi::{Mpi, ReduceOp};
use madeleine::{Config, Madeleine, Protocol};
use madsim_net::{NetKind, WorldBuilder};
use std::sync::Arc;

fn mpi_world(n: usize, protocol: Protocol) -> (madsim_net::World, Config) {
    let mut b = WorldBuilder::new(n);
    let (net, kind) = match protocol {
        Protocol::Tcp | Protocol::Sbp => ("eth0", NetKind::Ethernet),
        Protocol::Bip => ("myr0", NetKind::Myrinet),
        Protocol::Sisci => ("sci0", NetKind::Sci),
        Protocol::Via => ("san0", NetKind::ViaSan),
    };
    b.network(net, kind, &(0..n).collect::<Vec<_>>());
    (b.build(), Config::one("mpi", net, protocol))
}

fn with_mpi(n: usize, protocol: Protocol, f: impl Fn(Arc<Mpi>) + Send + Sync) {
    let (world, config) = mpi_world(n, protocol);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let mpi = Mpi::init(&mad, "mpi");
        f(mpi);
    });
}

#[test]
fn ranks_are_consistent() {
    with_mpi(4, Protocol::Sisci, |mpi| {
        assert_eq!(mpi.size(), 4);
        assert!(mpi.rank() < 4);
    });
}

#[test]
fn tagged_send_recv() {
    with_mpi(2, Protocol::Sisci, |mpi| {
        if mpi.rank() == 0 {
            mpi.send(1, 7, b"payload-seven");
            mpi.send(1, 9, b"payload-nine");
        } else {
            // Receive out of order: tag 9 first forces the unexpected
            // queue to hold tag 7.
            let mut buf = [0u8; 64];
            let st = mpi.recv(Some(0), Some(9), &mut buf);
            assert_eq!(&buf[..st.len], b"payload-nine");
            let st = mpi.recv(Some(0), Some(7), &mut buf);
            assert_eq!(&buf[..st.len], b"payload-seven");
        }
    });
}

#[test]
fn any_source_any_tag() {
    with_mpi(3, Protocol::Bip, |mpi| {
        if mpi.rank() != 2 {
            let data = vec![mpi.rank() as u8; 100];
            mpi.send(2, mpi.rank() as i32, &data);
        } else {
            let mut seen = Vec::new();
            for _ in 0..2 {
                let mut buf = [0u8; 100];
                let st = mpi.recv(None, None, &mut buf);
                assert_eq!(st.tag as usize, st.source);
                assert!(buf[..st.len].iter().all(|&b| b == st.source as u8));
                seen.push(st.source);
            }
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1]);
        }
    });
}

#[test]
fn large_messages_use_bulk_path() {
    with_mpi(2, Protocol::Sisci, |mpi| {
        let data: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        if mpi.rank() == 0 {
            mpi.send(1, 1, &data);
        } else {
            let mut buf = vec![0u8; data.len()];
            let st = mpi.recv(Some(0), Some(1), &mut buf);
            assert_eq!(st.len, data.len());
            assert_eq!(buf, data);
        }
    });
}

#[test]
fn sendrecv_ring_exchange() {
    for protocol in [Protocol::Sisci, Protocol::Bip] {
        with_mpi(4, protocol, |mpi| {
            let right = (mpi.rank() + 1) % mpi.size();
            let left = (mpi.rank() + mpi.size() - 1) % mpi.size();
            // Ring shift: everyone passes 4000 bytes to the right. Split
            // into two phases to stay deadlock-free over rendezvous
            // protocols (classic even/odd ordering).
            let data = vec![mpi.rank() as u8; 4000];
            let mut buf = vec![0u8; 4000];
            if mpi.rank() % 2 == 0 {
                mpi.send(right, 5, &data);
                mpi.recv(Some(left), Some(5), &mut buf);
            } else {
                mpi.recv(Some(left), Some(5), &mut buf);
                mpi.send(right, 5, &data);
            }
            assert!(buf.iter().all(|&b| b == left as u8));
        });
    }
}

#[test]
fn barrier_synchronizes() {
    with_mpi(5, Protocol::Sisci, |mpi| {
        for _ in 0..3 {
            mpi.barrier();
        }
    });
}

#[test]
fn bcast_from_every_root() {
    with_mpi(5, Protocol::Sisci, |mpi| {
        for root in 0..5 {
            let mut buf = if mpi.rank() == root {
                vec![root as u8 ^ 0x5A; 3000]
            } else {
                vec![0u8; 3000]
            };
            mpi.bcast(root, &mut buf);
            assert!(buf.iter().all(|&b| b == root as u8 ^ 0x5A), "root {root}");
        }
    });
}

#[test]
fn reduce_and_allreduce() {
    with_mpi(4, Protocol::Bip, |mpi| {
        let data = vec![mpi.rank() as f64 + 1.0; 16];
        let sum = mpi.reduce(0, ReduceOp::Sum, &data);
        if mpi.rank() == 0 {
            let sum = sum.expect("root gets the result");
            assert!(sum.iter().all(|&v| (v - 10.0).abs() < 1e-12)); // 1+2+3+4
        } else {
            assert!(sum.is_none());
        }
        let mx = mpi.allreduce(ReduceOp::Max, &data);
        assert!(mx.iter().all(|&v| (v - 4.0).abs() < 1e-12));
        let mn = mpi.allreduce(ReduceOp::Min, &data);
        assert!(mn.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    });
}

#[test]
fn gather_collects_in_rank_order() {
    with_mpi(4, Protocol::Sisci, |mpi| {
        let data = vec![mpi.rank() as u8; 10 + mpi.rank() * 100];
        let out = mpi.gather(2, &data);
        if mpi.rank() == 2 {
            let out = out.expect("root");
            for (r, block) in out.iter().enumerate() {
                assert_eq!(block.len(), 10 + r * 100);
                assert!(block.iter().all(|&b| b == r as u8));
            }
        }
    });
}

#[test]
fn alltoall_exchanges_blocks() {
    with_mpi(4, Protocol::Sisci, |mpi| {
        let blocks: Vec<Vec<u8>> = (0..4)
            .map(|r| vec![(mpi.rank() * 16 + r) as u8; 500])
            .collect();
        let out = mpi.alltoall(&blocks);
        for (src, block) in out.iter().enumerate() {
            assert_eq!(block.len(), 500);
            assert!(block.iter().all(|&b| b == (src * 16 + mpi.rank()) as u8));
        }
    });
}

#[test]
fn mpi_works_over_every_protocol() {
    for protocol in [
        Protocol::Sisci,
        Protocol::Bip,
        Protocol::Tcp,
        Protocol::Via,
        Protocol::Sbp,
    ] {
        with_mpi(2, protocol, |mpi| {
            if mpi.rank() == 0 {
                mpi.send(1, 3, &vec![9u8; 6000]);
            } else {
                let mut buf = vec![0u8; 6000];
                mpi.recv(Some(0), Some(3), &mut buf);
                assert!(buf.iter().all(|&b| b == 9));
            }
        });
    }
}

#[test]
fn irecv_completes_after_send() {
    with_mpi(2, Protocol::Sisci, |mpi| {
        if mpi.rank() == 0 {
            mpi.send(1, 5, b"async-payload");
        } else {
            let mut buf = [0u8; 32];
            let req = mpi.irecv(Some(0), Some(5), &mut buf);
            let st = mpi.wait(req);
            assert_eq!(st.len, 13);
            assert_eq!(&buf[..13], b"async-payload");
        }
    });
}

#[test]
fn test_polls_without_blocking() {
    with_mpi(2, Protocol::Sisci, |mpi| {
        if mpi.rank() == 0 {
            // Give the receiver time to observe the not-ready state.
            std::thread::sleep(std::time::Duration::from_millis(30));
            mpi.send(1, 6, b"late");
        } else {
            let mut buf = [0u8; 8];
            let mut req = mpi.irecv(Some(0), Some(6), &mut buf);
            // Immediately after posting, nothing has arrived.
            assert!(mpi.test(&mut req).is_none());
            let st = mpi.wait(req);
            assert_eq!(st.len, 4);
        }
    });
}

#[test]
fn waitall_completes_out_of_order_arrivals() {
    with_mpi(3, Protocol::Sisci, |mpi| match mpi.rank() {
        0 => {
            std::thread::sleep(std::time::Duration::from_millis(10));
            mpi.send(2, 10, &vec![1u8; 2000]);
        }
        1 => {
            mpi.send(2, 11, &vec![2u8; 3000]);
        }
        _ => {
            let mut a = vec![0u8; 2000];
            let mut b = vec![0u8; 3000];
            let ra = mpi.irecv(Some(0), Some(10), &mut a);
            let rb = mpi.irecv(Some(1), Some(11), &mut b);
            let sts = mpi.waitall(vec![ra, rb]);
            assert_eq!(sts[0].len, 2000);
            assert_eq!(sts[1].len, 3000);
            assert!(a.iter().all(|&x| x == 1));
            assert!(b.iter().all(|&x| x == 2));
        }
    });
}

#[test]
fn isend_requests_complete() {
    with_mpi(2, Protocol::Sisci, |mpi| {
        if mpi.rank() == 0 {
            let data = vec![7u8; 512];
            let r1 = mpi.isend(1, 1, &data);
            let r2 = mpi.isend(1, 2, &data);
            let sts = mpi.waitall(vec![r1, r2]);
            assert_eq!(sts.len(), 2);
        } else {
            let mut buf = vec![0u8; 512];
            mpi.recv(Some(0), Some(1), &mut buf);
            mpi.recv(Some(0), Some(2), &mut buf);
        }
    });
}

#[test]
fn scatter_distributes_blocks() {
    with_mpi(4, Protocol::Sisci, |mpi| {
        let blocks: Option<Vec<Vec<u8>>> =
            (mpi.rank() == 1).then(|| (0..4).map(|r| vec![r as u8; 100 + r * 10]).collect());
        let mine = mpi.scatter(1, blocks.as_deref());
        assert_eq!(mine.len(), 100 + mpi.rank() * 10);
        assert!(mine.iter().all(|&b| b == mpi.rank() as u8));
    });
}

#[test]
fn allgather_ring_collects_everything() {
    with_mpi(5, Protocol::Bip, |mpi| {
        let data = vec![mpi.rank() as u8; 64 * (mpi.rank() + 1)];
        let out = mpi.allgather(&data);
        for (r, block) in out.iter().enumerate() {
            assert_eq!(block.len(), 64 * (r + 1), "rank {r} block length");
            assert!(block.iter().all(|&b| b == r as u8));
        }
    });
}

#[test]
fn scan_computes_prefix_sums() {
    with_mpi(4, Protocol::Sisci, |mpi| {
        let data = vec![(mpi.rank() + 1) as f64; 8];
        let pfx = mpi.scan(ReduceOp::Sum, &data);
        let expect: f64 = (1..=mpi.rank() + 1).map(|x| x as f64).sum();
        assert!(pfx.iter().all(|&v| (v - expect).abs() < 1e-12));
    });
}

#[test]
fn probe_reports_length_before_receive() {
    with_mpi(2, Protocol::Sisci, |mpi| {
        if mpi.rank() == 0 {
            mpi.send(1, 3, &vec![5u8; 12_345]);
        } else {
            // MPI_Probe then allocate exactly.
            let st = mpi.probe(Some(0), Some(3));
            assert_eq!(st.len, 12_345);
            let mut buf = vec![0u8; st.len];
            let st2 = mpi.recv(Some(st.source), Some(st.tag), &mut buf);
            assert_eq!(st2.len, 12_345);
            assert!(buf.iter().all(|&b| b == 5));
        }
    });
}

#[test]
fn iprobe_is_nonblocking() {
    with_mpi(2, Protocol::Sisci, |mpi| {
        if mpi.rank() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(25));
            mpi.send(1, 4, b"now");
        } else {
            assert!(mpi.iprobe(Some(0), Some(4)).is_none());
            let st = mpi.probe(Some(0), Some(4));
            assert_eq!(st.len, 3);
            // Probing again still sees it (probe does not consume).
            assert!(mpi.iprobe(Some(0), Some(4)).is_some());
            let mut buf = [0u8; 3];
            mpi.recv(Some(0), Some(4), &mut buf);
            assert!(mpi.iprobe(Some(0), Some(4)).is_none());
        }
    });
}

#[test]
fn comm_split_creates_isolated_subgroups() {
    with_mpi(6, Protocol::Sisci, |mpi| {
        // Evens and odds.
        let sub = mpi.split((mpi.rank() % 2) as u32);
        assert_eq!(sub.size(), 3);
        assert_eq!(sub.rank(), mpi.rank() / 2);
        // Collectives run independently within each subgroup.
        let sum = sub.allreduce(ReduceOp::Sum, &[mpi.rank() as f64]);
        let expect: f64 = if mpi.rank() % 2 == 0 {
            0.0 + 2.0 + 4.0
        } else {
            1.0 + 3.0 + 5.0
        };
        assert!((sum[0] - expect).abs() < 1e-12);
        // Point-to-point within the subgroup.
        if sub.rank() == 0 {
            sub.send(1, 9, b"subgroup");
        } else if sub.rank() == 1 {
            let mut buf = [0u8; 8];
            let st = sub.recv(Some(0), Some(9), &mut buf);
            assert_eq!(st.len, 8);
        }
        mpi.barrier();
    });
}

#[test]
fn contexts_prevent_cross_communicator_matching() {
    with_mpi(2, Protocol::Sisci, |mpi| {
        // Everyone in one color: sub spans both ranks with a new context.
        let sub = mpi.split(0);
        if mpi.rank() == 0 {
            // Same (dst, tag) on both communicators; different contexts.
            sub.send(1, 5, b"sub");
            mpi.send(1, 5, b"parent");
        } else {
            // Receive on the parent FIRST: must get the parent's message
            // even though the sub-communicator's arrived earlier.
            let mut buf = [0u8; 6];
            let st = mpi.recv(Some(0), Some(5), &mut buf);
            assert_eq!(&buf[..st.len], b"parent");
            let st = sub.recv(Some(0), Some(5), &mut buf);
            assert_eq!(&buf[..st.len], b"sub");
        }
    });
}

#[test]
fn nested_splits_work() {
    with_mpi(4, Protocol::Bip, |mpi| {
        let half = mpi.split((mpi.rank() / 2) as u32); // {0,1} and {2,3}
        assert_eq!(half.size(), 2);
        let solo = half.split(half.rank() as u32); // singletons
        assert_eq!(solo.size(), 1);
        assert_eq!(solo.rank(), 0);
        // Pairwise exchange within each half still works.
        let peer = 1 - half.rank();
        let mut buf = [0u8; 4];
        half.sendrecv(
            peer,
            1,
            &(mpi.rank() as u32).to_le_bytes(),
            Some(peer),
            Some(1),
            &mut buf,
        );
        let got = u32::from_le_bytes(buf) as usize;
        assert_eq!(got / 2, mpi.rank() / 2, "peer is in my half");
        assert_ne!(got, mpi.rank());
        mpi.barrier();
    });
}

/// On a batched channel the MPI envelope is EXPRESS, so it closes its
/// frame: the first message's payload leaves in the frame that carries the
/// second (empty) message's header and envelope. Once the first is
/// received the second lies whole in memory with nothing left on the wire,
/// and `iprobe` must still see it — it asks the channel whether a message
/// is announced, not rail 0's protocol module.
#[test]
fn iprobe_sees_a_message_left_in_an_arrived_batch_frame() {
    use madeleine::ChannelSpec;
    let mut b = WorldBuilder::new(2);
    b.network("eth0", NetKind::Ethernet, &[0, 1]);
    let world = b.build();
    let spec = ChannelSpec::new("mpi", "eth0", Protocol::Tcp).with_batching(16, 4096, 20.0);
    let config = Config::default().with_channel_spec(spec);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let mpi = Mpi::init(&mad, "mpi");
        if mpi.rank() == 0 {
            mpi.waitall(vec![mpi.isend(1, 1, b"first"), mpi.isend(1, 2, b"")]);
            let stats = mad.channel("mpi").stats();
            assert_eq!(
                (stats.batches(), stats.batched_packets()),
                (2, 5),
                "[header 1, envelope 1] then [payload 1, header 2, envelope 2]"
            );
        } else {
            let mut buf = [0u8; 16];
            let st = mpi.recv(Some(0), Some(1), &mut buf);
            assert_eq!(&buf[..st.len], b"first");
            let ch = mad.channel("mpi");
            assert_eq!(ch.pmm().poll_incoming(), None, "nothing left on the wire");
            let st = mpi.iprobe(Some(0), Some(2));
            assert_eq!(
                st.map(|s| s.len),
                Some(0),
                "the second message is in memory"
            );
        }
        env.barrier();
    });
}

/// On a batched channel an `isend`'s EXPRESS envelope closes its frame and
/// the payload opens the next one, which only a deadline in virtual time
/// would ship — one a spinning wait's clock never reaches. A blocking wait
/// force-flushes the op's peer, as `Channel::wait_op` does: `wait` on an
/// `isend` with a payload returns, and so does a `waitall` mixing an
/// `isend` and an `irecv`. The world runs on a helper thread, so a wait
/// that hangs fails the test after 10 s instead of hanging it.
#[test]
fn blocking_waits_ship_an_isend_payload_on_a_batched_channel() {
    use madeleine::ChannelSpec;
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;
    let (done, finished) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let mut b = WorldBuilder::new(2);
        b.network("eth0", NetKind::Ethernet, &[0, 1]);
        let world = b.build();
        let spec = ChannelSpec::new("mpi", "eth0", Protocol::Tcp).with_batching(16, 4096, 20.0);
        let config = Config::default().with_channel_spec(spec);
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let mpi = Mpi::init(&mad, "mpi");
            let mut buf = [0u8; 16];
            if mpi.rank() == 0 {
                assert_eq!(mpi.wait(mpi.isend(1, 1, b"payload")).len, 7);
                let reqs = vec![
                    mpi.isend(1, 2, b"request"),
                    mpi.irecv(Some(1), Some(3), &mut buf),
                ];
                let st = mpi.waitall(reqs);
                assert_eq!(&buf[..st[1].len], b"reply");
            } else {
                let st = mpi.recv(Some(0), Some(1), &mut buf);
                assert_eq!(&buf[..st.len], b"payload");
                let st = mpi.recv(Some(0), Some(2), &mut buf);
                assert_eq!(&buf[..st.len], b"request");
                mpi.send(0, 3, b"reply");
            }
        });
        let _ = done.send(());
    });
    let ended = finished.recv_timeout(Duration::from_secs(10));
    assert_ne!(
        ended,
        Err(RecvTimeoutError::Timeout),
        "a blocking wait hung"
    );
    if let Err(panic) = helper.join() {
        std::panic::resume_unwind(panic);
    }
}

/// A message longer than its receive buffer is truncated, as MPI's
/// `MPI_ERR_TRUNCATE`: the buffer gets the head, the status says so, and
/// the rest of the body is drained so the next message arrives intact —
/// off the wire, out of the unexpected queue and through `wait` alike.
#[test]
fn a_short_receive_buffer_truncates_and_the_stream_survives() {
    let long: Vec<u8> = (0..100).collect();
    with_mpi(2, Protocol::Sisci, |mpi| {
        if mpi.rank() == 0 {
            for tag in 1..=5 {
                let body = if tag % 2 == 1 { &long[..] } else { &long[..10] };
                mpi.send(1, tag, body);
            }
            return;
        }
        let (mut small, mut big) = ([0u8; 50], [0u8; 64]);
        // Tag 1 is queued unexpected on the way to tag 2.
        let st = mpi.recv(Some(0), Some(2), &mut big);
        assert_eq!((st.len, st.truncated), (10, false));
        assert_eq!(&big[..10], &long[..10]);
        let truncated = |st: mad_mpi::Status, tag| {
            assert_eq!((st.tag, st.len, st.truncated), (tag, 50, true));
        };
        truncated(mpi.recv(Some(0), Some(1), &mut small), 1);
        assert_eq!(small, long[..50]);
        small.fill(0);
        truncated(mpi.recv(Some(0), Some(3), &mut small), 3);
        assert_eq!(small, long[..50]);
        small.fill(0);
        // Tag 4 is queued unexpected on the way to tag 5.
        truncated(mpi.wait(mpi.irecv(Some(0), Some(5), &mut small)), 5);
        assert_eq!(small, long[..50]);
        let st = mpi.recv(Some(0), Some(4), &mut big);
        assert_eq!((st.len, st.truncated), (10, false));
        assert_eq!(&big[..10], &long[..10]);
    });
}

/// Collectives size each received block by its message: blocks above the
/// 4 MiB the receive buffers were once fixed at arrive whole.
#[test]
fn gather_and_allgather_carry_blocks_above_4_mib() {
    const BLOCK: usize = 5 << 20;
    with_mpi(3, Protocol::Sisci, |mpi| {
        let data = vec![mpi.rank() as u8 + 1; BLOCK];
        let check = |blocks: &[Vec<u8>]| {
            assert_eq!(blocks.len(), 3);
            for (r, block) in blocks.iter().enumerate() {
                assert_eq!(block.len(), BLOCK, "rank {r} block length");
                assert!(block.iter().all(|&b| b == r as u8 + 1));
            }
        };
        if let Some(all) = mpi.gather(0, &data) {
            check(&all);
        }
        check(&mpi.allgather(&data));
    });
}
