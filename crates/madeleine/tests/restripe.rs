//! Fault-armed stripe reassembly on the one wire codec: the dynamic
//! receive path reads the same self-describing stripe headers as the
//! fault-free mirror path.

use madeleine::trace::TraceEvent;
use madeleine::{ChannelSpec, Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::fault::FaultRecord;
use madsim_net::{FaultPlan, NetKind, WorldBuilder};

const LEN: usize = 1 << 20;

/// Ship one 1 MiB block over 2-rail BIP with rail 1 cut mid-block at a
/// seed-chosen frame; returns the world's fault log.
fn restriped_block(seed: u64) -> Vec<FaultRecord> {
    let mut b = WorldBuilder::new(2);
    let myr = b.network_with_rails("myr0", NetKind::Myrinet, &[0, 1], 2);
    // Rail 1 carries the message header (frame 0), then a stripe header
    // and a payload frame for each of its 4 chunks of 128 KiB: an odd
    // cut point drops the stripe header of chunk 1, 2 or 3 of the rail.
    let cut = 3 + 2 * (seed % 3);
    let plan = FaultPlan::new(seed).partition_rail_after(myr.0, 1, 0, 1, cut);
    let world = b.fault_plan(plan).build();
    let config = Config::default()
        .with_channel_spec(ChannelSpec::new("ch", "myr0", Protocol::Bip).with_rails(2));
    let fill = move |i: usize| (i as u64 * 31 + seed) as u8;
    world.run(move |env| {
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
                "seed {seed}: rail 1 was cut but never quarantined"
            );
        } else {
            let mut got = vec![0u8; LEN];
            let mut msg = chan.begin_unpacking();
            msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            let bad = got.iter().enumerate().find(|&(i, &b)| b != fill(i));
            assert_eq!(bad, None, "seed {seed}: corruption after re-striping");
        }
        env.barrier();
    });
    world.faults().expect("plan installed").log()
}

#[test]
fn restriped_block_arrives_intact_with_replayable_fault_logs() {
    for seed in [3, 7, 11] {
        let first = restriped_block(seed);
        assert!(!first.is_empty(), "seed {seed}: the cut dropped nothing");
        assert_eq!(
            first,
            restriped_block(seed),
            "seed {seed}: fault log depends on the run"
        );
    }
}
