//! Chaos tests: the robustness layer under seeded fault injection.
//!
//! Every test here runs the regular Madeleine stack over a fabric armed
//! with a [`FaultPlan`]; the plan's seeded, counter-indexed decisions make
//! each failure schedule reproducible, so these are ordinary deterministic
//! tests, not flaky stress tests.

use madeleine::trace::TraceEvent;
use madeleine::{Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::{FaultPlan, NetKind, WorldBuilder};

/// Two nodes on one Ethernet segment, optionally fault-armed.
fn eth_pair(plan: Option<FaultPlan>) -> (madsim_net::World, Config) {
    let mut b = WorldBuilder::new(2);
    b.network("eth0", NetKind::Ethernet, &[0, 1]);
    let b = match plan {
        Some(p) => b.fault_plan(p),
        None => b,
    };
    (b.build(), Config::one("net", "eth0", Protocol::Tcp))
}

/// `rounds` of request/echo between nodes 0 and 1; returns the node's
/// retransmission count.
fn ping_pong(world: &madsim_net::World, config: Config, rounds: usize, len: usize) -> u64 {
    let counts = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let chan = mad.channel("net");
        let ping: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        for round in 0..rounds {
            if env.id() == 0 {
                let mut msg = chan.begin_packing(1);
                msg.pack(&ping, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_packing();
                let mut back = vec![0u8; len];
                let mut msg = chan.begin_unpacking();
                msg.unpack(&mut back, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_unpacking();
                assert_eq!(back, ping, "echo corrupted in round {round}");
            } else {
                let mut got = vec![0u8; len];
                let mut msg = chan.begin_unpacking();
                msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_unpacking();
                assert_eq!(got, ping, "ping corrupted in round {round}");
                let mut msg = chan.begin_packing(0);
                msg.pack(&got, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_packing();
            }
        }
        chan.stats().retransmits()
    });
    counts.iter().sum()
}

/// The same seed must produce the byte-identical fault schedule in two
/// independently built worlds — the property that makes every other test
/// in this file reproducible.
#[test]
fn same_seed_gives_identical_fault_logs() {
    let plan = FaultPlan::new(42).drop_rate(0.05).duplicate_rate(0.02);
    let mut logs = Vec::new();
    for _ in 0..2 {
        let (world, config) = eth_pair(Some(plan.clone()));
        ping_pong(&world, config, 100, 512);
        logs.push(world.faults().expect("plan installed").log());
    }
    assert!(!logs[0].is_empty(), "5% loss over 100 rounds hit nothing");
    assert_eq!(logs[0], logs[1], "fault schedule depends on the run");
}

/// TCP ping-pong completes under 1% frame loss: every drop is repaired by
/// the ack/retransmit machinery and counted.
#[test]
fn tcp_ping_pong_survives_loss() {
    let (world, config) = eth_pair(Some(FaultPlan::new(7).drop_rate(0.01)));
    let retransmits = ping_pong(&world, config, 400, 256);
    let faults = world.faults().expect("plan installed");
    assert!(
        faults.drops() > 0,
        "1% loss over 400 rounds dropped nothing"
    );
    assert!(
        retransmits >= faults.drops(),
        "{} drops but only {retransmits} retransmissions recorded",
        faults.drops()
    );
}

/// A 1 MiB CHEAPER/CHEAPER transfer arrives intact under 1% frame loss.
/// One transfer rolls only ~17 loss decisions (64 KiB ARQ segments), so
/// the exchange repeats with a fresh payload until the seeded schedule
/// has actually dropped something.
#[test]
fn bulk_transfer_survives_loss() {
    const LEN: usize = 1 << 20;
    const MAX_ATTEMPTS: usize = 64;
    let (world, config) = eth_pair(Some(FaultPlan::new(11).drop_rate(0.01)));
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let chan = mad.channel("net");
        for attempt in 0..MAX_ATTEMPTS {
            let fill = |i: usize| (i * 31 + 7 + attempt) as u8;
            if env.id() == 0 {
                let data: Vec<u8> = (0..LEN).map(fill).collect();
                let mut msg = chan.begin_packing(1);
                msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_packing();
            } else {
                let mut got = vec![0u8; LEN];
                let mut msg = chan.begin_unpacking();
                msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_unpacking();
                let bad = got.iter().enumerate().find(|&(i, &b)| b != fill(i));
                assert_eq!(
                    bad, None,
                    "corruption after loss recovery, attempt {attempt}"
                );
            }
            // The transfer is fully acknowledged before either side gets
            // here, so the drop total is stable across the barrier and
            // both nodes take the same branch.
            env.barrier();
            if env.faults().expect("plan installed").drops() > 0 {
                break;
            }
        }
    });
    assert!(
        world.faults().expect("plan installed").drops() > 0,
        "1% loss dropped nothing across 64 MiB of transfers"
    );
}

/// A virtual channel with an alternate route survives its primary gateway
/// crashing between messages: the send fails fast, the block restarts on
/// the alternate, and the failover is counted and traced.
#[test]
fn virtual_channel_fails_over_after_gateway_crash() {
    use mad_gateway::{Gateway, VirtualChannel, VirtualChannelSpec};

    // Endpoints 0 and 1; primary route through gateway 2, alternate
    // through gateway 3, each hop its own Ethernet segment.
    let mut b = WorldBuilder::new(4);
    b.network("ethA", NetKind::Ethernet, &[0, 2]);
    b.network("ethB", NetKind::Ethernet, &[2, 1]);
    b.network("ethC", NetKind::Ethernet, &[0, 3]);
    b.network("ethD", NetKind::Ethernet, &[3, 1]);
    let world = b.fault_plan(FaultPlan::new(1)).build();
    let config = Config::one("chA", "ethA", Protocol::Tcp)
        .with_channel("chB", "ethB", Protocol::Tcp)
        .with_channel("chC", "ethC", Protocol::Tcp)
        .with_channel("chD", "ethD", Protocol::Tcp);
    const LEN: usize = 20_000;
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let spec =
            VirtualChannelSpec::new("vc", &["chA", "chB"], 4096).with_alternate(&["chC", "chD"]);
        let gw = Gateway::spawn(&env, &mad, &config, &spec);
        let vc = VirtualChannel::open(&env, &mad, &config, &spec);
        if let Some(vc) = vc.as_ref() {
            vc.enable_trace();
        }
        let payload: Vec<u8> = (0..LEN).map(|i| (i % 247) as u8).collect();

        // Message 1 crosses the healthy primary route.
        if env.id() == 0 {
            let vc = vc.as_ref().expect("endpoint");
            let mut msg = vc.begin_packing(1);
            msg.pack(&payload, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
        } else if env.id() == 1 {
            let vc = vc.as_ref().expect("endpoint");
            let mut got = vec![0u8; LEN];
            let mut msg = vc.begin_unpacking();
            msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            assert_eq!(got, payload, "message 1 corrupted on the primary");
        }
        env.barrier();

        // The primary gateway dies.
        if env.id() == 0 {
            env.faults().expect("plan installed").crash(2);
        }
        env.barrier();

        // Message 2 fails over to the alternate route transparently.
        if env.id() == 0 {
            let vc = vc.as_ref().expect("endpoint");
            let mut msg = vc.begin_packing(1);
            msg.pack(&payload, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
            assert!(
                vc.stats().failovers() >= 1,
                "send after the crash did not fail over"
            );
            let events: Vec<TraceEvent> =
                vc.tracer().events().into_iter().map(|t| t.event).collect();
            assert!(
                events.contains(&TraceEvent::RouteDown { route: 0 }),
                "primary route was never marked down: {events:?}"
            );
            assert!(
                events.contains(&TraceEvent::Failover { dst: 1, route: 1 }),
                "failover to the alternate was not traced: {events:?}"
            );
        } else if env.id() == 1 {
            let vc = vc.as_ref().expect("endpoint");
            let mut got = vec![0u8; LEN];
            let mut msg = vc.begin_unpacking();
            msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            assert_eq!(got, payload, "message 2 corrupted on the alternate");
        }
        env.barrier();
        if let Some(gw) = gw {
            gw.stop();
        }
    });
}

/// A striped transfer over a 2-rail channel survives one rail partitioning
/// mid-message: the sender quarantines the dead rail, re-stripes the lost
/// chunks over the survivor, and the block arrives byte-exact. The cut is
/// counter-armed on rail 1 only, so the failure lands *inside* the striped
/// block deterministically.
#[test]
fn striped_transfer_survives_rail_partition() {
    use madeleine::ChannelSpec;

    const LEN: usize = 192 * 1024;
    let mut b = WorldBuilder::new(2);
    let myr = b.network_with_rails("myr0", NetKind::Myrinet, &[0, 1], 2);
    let world = b
        .fault_plan(FaultPlan::new(3).partition_rail_after(myr.0, 1, 0, 1, 5))
        .build();
    let config = Config::default().with_channel_spec(
        ChannelSpec::new("ch", "myr0", Protocol::Bip)
            .with_rails(2)
            .with_striping(64 * 1024, 32 * 1024),
    );
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let chan = mad.channel("ch");
        chan.enable_trace();
        let fill = |i: usize| (i % 249) as u8;
        if env.id() == 0 {
            let data: Vec<u8> = (0..LEN).map(fill).collect();
            let mut msg = chan.begin_packing(1);
            msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
            assert!(
                chan.stats().failovers() >= 1,
                "rail 1 was cut but never quarantined"
            );
            let events: Vec<TraceEvent> = chan
                .tracer()
                .events()
                .into_iter()
                .map(|t| t.event)
                .collect();
            assert!(
                events.contains(&TraceEvent::RailDown { rail: 1 }),
                "rail quarantine was not traced: {events:?}"
            );
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, TraceEvent::Stripe { .. })),
                "transfer never striped: {events:?}"
            );
        } else {
            let mut got = vec![0u8; LEN];
            let mut msg = chan.begin_unpacking();
            msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            let bad = got.iter().enumerate().find(|&(i, &b)| b != fill(i));
            assert_eq!(bad, None, "corruption after rail failover");
        }
        env.barrier();
    });
    assert!(
        world.faults().expect("plan installed").drops() > 0,
        "the rail cut never dropped a frame"
    );
}

/// The seeded drop/dup schedule over a **batched** channel: multi-envelope
/// frames are retransmitted as a unit by the same ARQ machinery, every
/// round's data arrives intact and in order, and the fault log stays
/// byte-identical across independently built worlds — batching must not
/// perturb the deterministic schedule.
#[test]
fn batched_channel_survives_seeded_loss_and_dup() {
    use madeleine::ChannelSpec;

    const ROUNDS: usize = 100;
    const LEN: usize = 512;
    let plan = FaultPlan::new(42).drop_rate(0.05).duplicate_rate(0.02);
    let mut logs = Vec::new();
    for _ in 0..2 {
        let mut b = WorldBuilder::new(2);
        b.network("eth0", NetKind::Ethernet, &[0, 1]);
        let world = b.fault_plan(plan.clone()).build();
        let config = Config::default().with_channel_spec(
            ChannelSpec::new("net", "eth0", Protocol::Tcp).with_batching(16, 4096, 20.0),
        );
        let counters = world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let chan = mad.channel("net");
            let ping: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
            for round in 0..ROUNDS {
                if env.id() == 0 {
                    let mut msg = chan.begin_packing(1);
                    msg.pack(&ping, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_packing();
                    let mut back = vec![0u8; LEN];
                    let mut msg = chan.begin_unpacking();
                    msg.unpack(&mut back, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_unpacking();
                    assert_eq!(back, ping, "echo corrupted in round {round}");
                } else {
                    let mut got = vec![0u8; LEN];
                    let mut msg = chan.begin_unpacking();
                    msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_unpacking();
                    assert_eq!(got, ping, "ping corrupted in round {round}");
                    let mut msg = chan.begin_packing(0);
                    msg.pack(&got, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_packing();
                }
            }
            (chan.stats().batches(), chan.stats().retransmits())
        });
        let batches: u64 = counters.iter().map(|c| c.0).sum();
        assert!(
            batches >= ROUNDS as u64,
            "a batched ping-pong of {ROUNDS} rounds flushed only {batches} batch frames"
        );
        logs.push(world.faults().expect("plan installed").log());
    }
    assert!(
        !logs[0].is_empty(),
        "5% loss + 2% dup over {ROUNDS} rounds hit nothing"
    );
    assert_eq!(
        logs[0], logs[1],
        "fault schedule over a batched channel depends on the run"
    );
}

/// Every stack notices a dead peer within one slice of the link layer's
/// bounded wait: node 1 crashes right after the barrier, and node 0's
/// receive from it — each protocol's small-message TM — must fail with
/// `PeerUnreachable` long before the 2 s bound, with no link timeout
/// counted.
#[test]
fn every_stack_notices_a_dead_peer_within_a_slice() {
    use madeleine::MadError;
    use std::time::{Duration, Instant};

    for (protocol, kind) in [
        (Protocol::Sisci, NetKind::Sci),
        (Protocol::Bip, NetKind::Myrinet),
        (Protocol::Via, NetKind::ViaSan),
        (Protocol::Tcp, NetKind::Ethernet),
        (Protocol::Sbp, NetKind::Ethernet),
    ] {
        let mut b = WorldBuilder::new(2);
        b.network("net0", kind, &[0, 1]);
        let world = b.fault_plan(FaultPlan::new(1)).build();
        let config = Config::one("ch", "net0", protocol);
        let seen = world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            env.barrier();
            if env.id() == 1 {
                env.faults().expect("plan installed").crash(1);
                return None;
            }
            let started = Instant::now();
            let r = ch.pmm().tm(0).receive_buffer(1, &mut [0; 8]);
            Some((r, started.elapsed(), ch.stats().link_timeouts()))
        });
        let (r, took, timeouts) = seen[0].clone().expect("node 0 waited");
        assert_eq!(
            r,
            Err(MadError::PeerUnreachable { peer: 1 }),
            "{protocol:?}"
        );
        assert_eq!(timeouts, 0, "{protocol:?}: a bounded wait expired");
        assert!(
            took < Duration::from_millis(500),
            "{protocol:?}: the dead peer took {took:?} to notice"
        );
    }
}

/// With no fault plan installed nothing is armed: the recovery machinery
/// must stay entirely out of the fast path and every fault counter must
/// read zero.
#[test]
fn zero_fault_runs_count_nothing() {
    let (world, config) = eth_pair(None);
    assert!(world.faults().is_none());
    let counters = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let chan = mad.channel("net");
        if env.id() == 0 {
            let mut msg = chan.begin_packing(1);
            msg.pack(&[9u8; 4096], SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
        } else {
            let mut got = [0u8; 4096];
            let mut msg = chan.begin_unpacking();
            msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
        }
        let s = chan.stats();
        (
            s.retransmits(),
            s.link_timeouts(),
            s.failovers(),
            s.frags_discarded(),
        )
    });
    for (node, c) in counters.iter().enumerate() {
        assert_eq!(
            *c,
            (0, 0, 0, 0),
            "fault counters moved on node {node} with no plan installed"
        );
    }
}

/// Hierarchical collectives on a two-cluster world under seeded loss and
/// duplication: the topology-aware schedules must deliver bit-identical
/// results to their flat baselines, with every drop repaired below them.
#[test]
fn hierarchical_collectives_match_flat_under_seeded_loss_and_dup() {
    use mad_gateway::{Gateway, VirtualChannel, VirtualChannelSpec};
    use mad_mpi::{Mpi, ReduceOp, Topology};
    use std::sync::Arc;

    // Two Ethernet clusters ({0,1,2} and {4,5,6}) joined by gateway 3;
    // TCP on both hops so the ARQ machinery repairs the seeded faults.
    let mut b = WorldBuilder::new(7);
    b.network("eth0", NetKind::Ethernet, &[0, 1, 2, 3]);
    b.network("eth1", NetKind::Ethernet, &[3, 4, 5, 6]);
    let plan = FaultPlan::new(29).drop_rate(0.02).duplicate_rate(0.01);
    let world = b.fault_plan(plan).build();
    let config =
        Config::one("left", "eth0", Protocol::Tcp).with_channel("right", "eth1", Protocol::Tcp);
    let spec = VirtualChannelSpec::new("vc", &["left", "right"], 8192);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let gw = Gateway::spawn(&env, &mad, &config, &spec);
        let vc = VirtualChannel::open(&env, &mad, &config, &spec);
        if let Some(vc) = vc {
            let nodes: Vec<madsim_net::NodeId> = vec![0, 1, 2, 4, 5, 6];
            let mpi = Mpi::init_over(Arc::clone(vc.channel()), Some(&nodes));
            let topo = Topology::split_at(6, 3);
            let me = mpi.rank();
            // Broadcast, large enough to fragment at the gateway and to
            // trip the hierarchical chunk pipeline.
            let pattern: Vec<u8> = (0..80_000).map(|i| (i * 7 % 251) as u8).collect();
            let mut flat = vec![0u8; pattern.len()];
            let mut hier = vec![0u8; pattern.len()];
            if me == 2 {
                flat.copy_from_slice(&pattern);
                hier.copy_from_slice(&pattern);
            }
            mpi.bcast(2, &mut flat);
            mpi.bcast_hier(&topo, 2, &mut hier);
            assert_eq!(flat, pattern, "flat bcast corrupted under faults");
            assert_eq!(hier, flat, "hierarchical bcast diverged from flat");
            // Allreduce over integer-valued f64: both reduction orders
            // are exact, so the results must agree bit for bit.
            let vals: Vec<f64> = (0..2048).map(|i| ((me * 37 + i) % 10_000) as f64).collect();
            let f = mpi.allreduce(ReduceOp::Sum, &vals);
            let h = mpi.allreduce_hier(&topo, ReduceOp::Sum, &vals);
            let fb: Vec<u64> = f.iter().map(|x| x.to_bits()).collect();
            let hb: Vec<u64> = h.iter().map(|x| x.to_bits()).collect();
            assert_eq!(hb, fb, "hierarchical allreduce not bit-identical to flat");
            let fm = mpi.allreduce(ReduceOp::Max, &vals);
            let hm = mpi.allreduce_hier(&topo, ReduceOp::Max, &vals);
            assert_eq!(hm, fm, "hierarchical Max allreduce diverged");
        }
        env.barrier();
        if let Some(gw) = gw {
            gw.stop();
        }
    });
    let faults = world.faults().expect("plan installed");
    assert!(
        faults.drops() > 0,
        "the seeded schedule never dropped a frame — nothing was exercised"
    );
}
