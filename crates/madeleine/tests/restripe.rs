//! Fault-armed stripe reassembly on the one wire codec: the dynamic
//! receive path reads the same self-describing stripe headers as the
//! fault-free mirror path.

use madeleine::trace::TraceEvent;
use madeleine::{ChannelSpec, Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::fault::FaultRecord;
use madsim_net::{FaultPlan, NetKind, WorldBuilder};

const LEN: usize = 1 << 20;

/// Which frame of a chunk the rail cut lands on.
#[derive(Clone, Copy, Debug)]
enum Cut {
    StripeHeader,
    Payload,
}

/// Ship one 1 MiB block over 2-rail BIP with rail 1 cut mid-block at a
/// seed-chosen frame; returns the world's fault log and how many bounded
/// waits expired at either end.
fn restriped_block(seed: u64, cut: Cut) -> (Vec<FaultRecord>, u64) {
    let mut b = WorldBuilder::new(2);
    let myr = b.network_with_rails("myr0", NetKind::Myrinet, &[0, 1], 2);
    // Rail 1 carries the message header (frame 0), then a stripe header
    // and a payload frame for each of its 4 chunks of 128 KiB: an odd
    // cut point is the stripe header of chunk 1, 2 or 3 of the rail, the
    // even one after it that chunk's payload.
    let header_frame = 3 + 2 * (seed % 3);
    let after = match cut {
        Cut::StripeHeader => header_frame,
        Cut::Payload => header_frame + 1,
    };
    let plan = FaultPlan::new(seed).partition_rail_after(myr.0, 1, 0, 1, after);
    let world = b.fault_plan(plan).build();
    let config = Config::default()
        .with_channel_spec(ChannelSpec::new("ch", "myr0", Protocol::Bip).with_rails(2));
    let fill = move |i: usize| (i as u64 * 31 + seed) as u8;
    let expired = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let chan = mad.channel("ch");
        if env.id() == 0 {
            chan.enable_trace();
            let data: Vec<u8> = (0..LEN).map(fill).collect();
            let mut msg = chan.begin_packing(1);
            msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
            let events = chan.tracer().events();
            assert!(
                events
                    .iter()
                    .any(|t| t.event == TraceEvent::RailDown { rail: 1 }),
                "seed {seed} {cut:?}: rail 1 was cut but never quarantined"
            );
        } else {
            let mut got = vec![0u8; LEN];
            let mut msg = chan.begin_unpacking();
            msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            let bad = got.iter().enumerate().find(|&(i, &b)| b != fill(i));
            assert_eq!(
                bad, None,
                "seed {seed} {cut:?}: corruption after re-striping"
            );
        }
        env.barrier();
        // The healthy rail stayed up (the receiver may finish on it
        // without ever touching the cut one).
        assert!(chan.stats().failovers() <= 1, "seed {seed} {cut:?}");
        chan.stats().link_timeouts()
    });
    let log = world.faults().expect("plan installed").log();
    (log, expired.iter().sum())
}

#[test]
fn restriped_block_arrives_intact_with_replayable_fault_logs() {
    for seed in [3, 7, 11] {
        let (first, _) = restriped_block(seed, Cut::StripeHeader);
        assert!(!first.is_empty(), "seed {seed}: the cut dropped nothing");
        assert_eq!(
            first,
            restriped_block(seed, Cut::StripeHeader).0,
            "seed {seed}: fault log depends on the run"
        );
    }
}

/// The cut lands between a stripe header and its payload: the receiver
/// has the header and waits for a payload the sender will not release
/// into the dead link. Both ends must notice the cut link itself — the
/// sender before shipping, the receiver within a slice of its bounded
/// wait — instead of sitting out their symmetric 2 s timers (which used
/// to expire together and take the healthy rail down with them). Checked
/// on the counters, not the wall clock: no bounded wait may expire, and
/// (in `restriped_block`) the healthy rail must stay in service.
#[test]
fn cut_between_stripe_header_and_payload_costs_no_fault_timer() {
    for seed in [3, 7, 11] {
        let (first, expired) = restriped_block(seed, Cut::Payload);
        assert_eq!(expired, 0, "seed {seed}: a 2 s fault timer ran");
        // The payload is held back rather than lost, so the log may be
        // empty; either way it must not depend on the run.
        let (second, _) = restriped_block(seed, Cut::Payload);
        assert_eq!(first, second, "seed {seed}: fault log depends on the run");
    }
}
