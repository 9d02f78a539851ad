//! The SISCI bulk pipeline, pinned in virtual time and exercised under
//! faults.
//!
//! Chunk boundaries, flag values and ack batching decide every virtual
//! instant of a SISCI transfer, so the receiver's clock at
//! `end_unpacking` is pinned here to the nanosecond: a change to how the
//! driver waits, stages or writes chunks must leave all of them alone.
//! The fault cases put a peer's death *inside* a block, where the
//! driver's waits poll before they park.

use madeleine::{Config, MadError, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::time;
use madsim_net::{FaultPlan, NetKind, WorldBuilder};
use std::time::{Duration, Instant};

/// The driver's bounded fault wait (`FAULT_WAIT`) plus slack.
const FAULT_BOUND: Duration = Duration::from_millis(3_000);

fn payload(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + salt * 7 + 3) as u8).collect()
}

/// Receiver's virtual clock (ns) after one message of CHEAPER blocks of
/// the given sizes over a fresh two-node SISCI world; payloads verified.
fn recv_clock_ns(dma: bool, blocks: &[usize]) -> u64 {
    let mut b = WorldBuilder::new(2);
    b.network("sci0", NetKind::Sci, &[0, 1]);
    let config = Config::one("ch", "sci0", Protocol::Sisci).with_sci_dma(dma);
    let blocks = blocks.to_vec();
    let out = b.build().run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let data: Vec<Vec<u8>> = blocks
            .iter()
            .enumerate()
            .map(|(i, &n)| payload(n, i))
            .collect();
        if env.id() == 0 {
            let mut msg = ch.begin_packing(1);
            for d in &data {
                msg.pack(d, SendMode::Cheaper, RecvMode::Cheaper);
            }
            msg.end_packing();
            0
        } else {
            let mut got: Vec<Vec<u8>> = blocks.iter().map(|&n| vec![0u8; n]).collect();
            let mut msg = ch.begin_unpacking();
            for g in got.iter_mut() {
                msg.unpack(g, SendMode::Cheaper, RecvMode::Cheaper);
            }
            msg.end_unpacking();
            assert!(got == data, "payload corrupted for blocks {blocks:?}");
            time::now().as_nanos()
        }
    });
    out[1]
}

/// Every mismatch is reported at once, so re-pinning after a deliberate
/// model change is one run.
fn assert_pinned(cases: &[(bool, &[usize], u64)]) {
    let wrong: Vec<String> = cases
        .iter()
        .filter_map(|&(dma, blocks, want)| {
            let got = recv_clock_ns(dma, blocks);
            (got != want).then(|| format!("dma={dma} {blocks:?}: got {got} ns, pinned {want} ns"))
        })
        .collect();
    let wrong = wrong.join("\n");
    assert!(wrong.is_empty(), "virtual time moved:\n{wrong}");
}

#[test]
fn single_block_receiver_clock_is_pinned() {
    assert_pinned(&[
        (false, &[4], 4_548),
        (false, &[512], 12_574),
        (false, &[513], 12_591),
        (false, &[8192], 134_418),
        (false, &[8193], 154_522),
        (false, &[24_576], 347_472),
        (false, &[65_536], 830_107),
        (false, &[1 << 20], 12_413_347),
        (true, &[8193], 272_014),
        (true, &[24_576], 789_680),
        (true, &[65_536], 2_072_473),
        (true, &[1 << 20], 33_134_293),
    ]);
}

/// A chunk that spans caller blocks takes the staged path: 12 kB + 40 kB
/// packed back to back are one commit group whose second chunk holds the
/// end of one block and the start of the next. With a 3 B block between
/// them (a TM switch) they travel as two groups and nothing spans.
#[test]
fn multi_block_receiver_clock_is_pinned() {
    assert_pinned(&[
        (false, &[16, 12_288, 3, 40_960], 710_739),
        (false, &[12_288, 40_960], 668_514),
        (true, &[12_288, 40_960], 1_702_125),
    ]);
}

fn fault_armed_pair() -> (madsim_net::World, Config) {
    let mut b = WorldBuilder::new(2).fault_plan(FaultPlan::new(18));
    b.network("sci0", NetKind::Sci, &[0, 1]);
    (b.build(), Config::one("ch", "sci0", Protocol::Sisci))
}

fn assert_peer_lost(r: Result<(), MadError>, started: Instant) {
    match r {
        Err(MadError::PeerUnreachable { .. }) | Err(MadError::ChannelDown) => {}
        other => panic!("expected PeerUnreachable or ChannelDown, got {other:?}"),
    }
    let took = started.elapsed();
    assert!(took < FAULT_BOUND, "a dead peer cost {took:?}");
}

/// The sender packs 40 KiB, five chunks through a four-chunk ring, so its
/// `end_packing` returns only once the receiver has consumed (and
/// acknowledged) the first chunk of what it believes is a 256 KiB block;
/// then it dies. Every wait the receiver still makes is inside the block,
/// where the driver polls before it parks.
#[test]
fn sender_death_inside_a_block_fails_the_receivers_polling_wait() {
    const SENT: usize = 40 << 10;
    let (world, config) = fault_armed_pair();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let data = payload(SENT, 0);
            let mut msg = ch.begin_packing(1);
            msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
            env.faults().expect("fault-armed world").crash(0);
        } else {
            let mut got = vec![0u8; 256 << 10];
            let started = Instant::now();
            let r = ch
                .begin_unpacking()
                .try_unpack(&mut got, SendMode::Cheaper, RecvMode::Express);
            assert_peer_lost(r, started);
            assert_eq!(got[..8 << 10], payload(SENT, 0)[..8 << 10]);
        }
    });
}

/// Symmetric: the receiver consumes one chunk (which acknowledges it),
/// then dies; the sender's ring-space wait, which polls, must fail in
/// bounded time rather than spin on an ack that never comes.
#[test]
fn receiver_death_after_its_first_ack_fails_the_senders_ring_wait() {
    let (world, config) = fault_armed_pair();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let data = payload(256 << 10, 0);
            let started = Instant::now();
            let mut msg = ch.begin_packing(1);
            let r = msg
                .try_pack(&data, SendMode::Cheaper, RecvMode::Cheaper)
                .and_then(|()| msg.try_end_packing());
            assert_peer_lost(r, started);
        } else {
            let mut got = vec![0u8; 8 << 10];
            ch.begin_unpacking()
                .unpack(&mut got, SendMode::Cheaper, RecvMode::Express);
            env.faults().expect("fault-armed world").crash(1);
            assert_eq!(got, payload(256 << 10, 0)[..8 << 10]);
        }
    });
}
