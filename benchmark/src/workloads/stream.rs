//! `stream_64b`: message **rate**. Node 0 posts bursts of 64 x 64 B over
//! batched TCP, flushes and waits the ops out; node 1 unpacks them all and
//! returns a 1-byte EXPRESS ack per burst (window-64 closed loop). Batch,
//! wire codec, pool and the mailbox ring do most of the work and wake-ups
//! amortise — the opposite balance to `pingpong_64b`.

use crate::node::{build_world, recv_one, NodeCtx, Rep, RepCfg};
use crate::payload::{stamp, verify};
use crate::rng::Rng;
use bytes::Bytes;
use madeleine::{ChannelSpec, Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::{NetKind, WorldBuilder};
use std::time::Instant;

const LEN: usize = 64;
const BURST: usize = 64;
const WARM_BURSTS: usize = 16;
const TIMED_BURSTS: usize = 500;

pub fn rep(cfg: &RepCfg) -> Rep {
    let base = Instant::now();
    let content = Rng::new(cfg.seed).bytes(LEN);
    // Every message is a slice of one pre-stamped buffer: posting it costs
    // a reference-count bump, never a copy or an allocation.
    let total = (WARM_BURSTS + TIMED_BURSTS) * BURST;
    let mut all = Vec::with_capacity(total * LEN);
    for seq in 0..total {
        all.extend_from_slice(&content);
        stamp(&mut all[seq * LEN..], seq as u64);
    }
    let all = Bytes::from(all);
    let mut b = WorldBuilder::new(2);
    b.network("eth0", NetKind::Ethernet, &[0, 1]);
    let (world, build_us) = build_world(b);
    let config = Config::default().with_channel_spec(
        ChannelSpec::new("ch", "eth0", Protocol::Tcp).with_batching(16, 4096, 20.0),
    );
    let nodes = world.run(|env| {
        let mut nc = NodeCtx::new(&env, *cfg, base);
        let mad = nc.tr.span("init", || Madeleine::init(&env, &config));
        let ch = mad.channel("ch");
        let mut got = vec![0u8; LEN];
        let mut ids = Vec::with_capacity(BURST);
        nc.drive(WARM_BURSTS, TIMED_BURSTS, &[ch], |nc, burst, check| {
            let o = nc.tr.begin("op");
            if nc.id() == 0 {
                for k in 0..BURST {
                    let at = (burst * BURST + k) * LEN;
                    let block = all.slice(at..at + LEN);
                    nc.stamp_now();
                    ids.push(nc.tr.span("post_message", || {
                        ch.post_message(1, vec![(block, SendMode::Cheaper, RecvMode::Cheaper)])
                    }));
                }
                if nc.tr.span("flush", || ch.flush()).is_err() {
                    nc.fail();
                }
                for id in ids.drain(..) {
                    if nc.tr.span("wait_op", || ch.wait_op(id)).is_err() {
                        nc.fail();
                    }
                    nc.op_done();
                }
                let mut ack = [0u8; 1];
                let s = nc.tr.begin("recv");
                let mut msg = nc.tr.span("begin_unpacking", || ch.begin_unpacking());
                nc.tr
                    .span("unpack", || msg.unpack_express(&mut ack, SendMode::Cheaper));
                nc.tr.span("end_unpacking", || msg.end_unpacking());
                nc.tr.end(s);
                if ack[0] != burst as u8 {
                    nc.fail();
                }
            } else {
                for k in 0..BURST {
                    recv_one(&mut nc.tr, ch, &mut got);
                    nc.stamp_now();
                    nc.maybe_corrupt(&mut got);
                    let ok = verify(&got, &content, (burst * BURST + k) as u64, check);
                    nc.msg(ok);
                }
                let ack = [burst as u8];
                let s = nc.tr.begin("send");
                let mut msg = nc.tr.span("begin_packing", || ch.begin_packing(0));
                nc.tr.span("pack", || {
                    msg.pack(&ack, SendMode::Cheaper, RecvMode::Express)
                });
                nc.tr.span("end_packing", || msg.end_packing());
                nc.tr.end(s);
            }
            nc.tr.end(o);
        });
        if nc.id() == 0 {
            nc.count("payload_bytes", (TIMED_BURSTS * (BURST * LEN + 1)) as u64);
        }
        nc.finish()
    });
    let (mut rep, nodes) = Rep::fold(nodes, build_us);
    // One op = one message, timed from the sender's stamp at post to the
    // receiver's end_unpacking (one process, one Instant base).
    rep.lat_ns = nodes[0]
        .stamps_ns
        .iter()
        .zip(&nodes[1].stamps_ns)
        .map(|(post, done)| done.saturating_sub(*post))
        .collect();
    // Taken at the receiver: the sender's clock stops at its last flush.
    rep.virt_us_per_op = nodes[1].timed_virt_us / rep.ops as f64;
    rep
}
