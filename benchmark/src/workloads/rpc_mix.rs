//! `rpc_mix`: the paper's motivating PM2/Nexus pattern. One session, two
//! channels (`myr`/BIP and `sci`/SISCI), one RPC in flight, alternating
//! channel per RPC. A request is a 16 B EXPRESS header carrying the body
//! length plus a CHEAPER body of seeded log-uniform size 16 B - 64 KiB; the
//! reply is a 16 B header plus a 64 B body. Multi-block messages crossing
//! BIP's 1 kB eager/rendezvous split and SISCI's 8 kB dual-buffer threshold
//! force TM switches and commit/checkout inside a message, which the
//! single-block workloads never do.

use crate::node::{build_world, NodeCtx, Rep, RepCfg};
use crate::payload::{stamp, verify, Check};
use crate::rng::Rng;
use madeleine::{Channel, Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::{NetKind, WorldBuilder};
use std::time::Instant;

const HDR: usize = 16;
const REPLY: usize = 64;
const MIN_BODY: usize = 16;
const MAX_BODY: usize = 64 * 1024;
const WARM_OPS: usize = 50;
const TIMED_OPS: usize = 600;

/// Header + body out.
fn send(nc: &mut NodeCtx, ch: &Channel, dst: usize, hdr: &[u8], body: &[u8]) {
    let s = nc.tr.begin("send");
    let mut msg = nc.tr.span("begin_packing", || ch.begin_packing(dst));
    nc.tr.span("pack", || {
        msg.pack(hdr, SendMode::Cheaper, RecvMode::Express)
    });
    nc.tr.span("pack", || {
        msg.pack(body, SendMode::Cheaper, RecvMode::Cheaper)
    });
    nc.tr.span("end_packing", || msg.end_packing());
    nc.tr.end(s);
}

/// Header in, then a body whose length the header announces (at most
/// `body.len()`); returns `(seq, body_len)` as read off the header.
fn recv(nc: &mut NodeCtx, ch: &Channel, body: &mut [u8]) -> (u64, usize) {
    let mut hdr = [0u8; HDR];
    let s = nc.tr.begin("recv");
    let mut msg = nc.tr.span("begin_unpacking", || ch.begin_unpacking());
    nc.tr
        .span("unpack", || msg.unpack_express(&mut hdr, SendMode::Cheaper));
    let seq = u64::from_le_bytes(hdr[..8].try_into().expect("8 bytes"));
    let len = (u64::from_le_bytes(hdr[8..].try_into().expect("8 bytes")) as usize).min(body.len());
    nc.tr.span("unpack", || {
        msg.unpack(&mut body[..len], SendMode::Cheaper, RecvMode::Cheaper)
    });
    nc.tr.span("end_unpacking", || msg.end_unpacking());
    nc.tr.end(s);
    (seq, len)
}

fn header(seq: u64, len: usize) -> [u8; HDR] {
    let mut h = [0u8; HDR];
    h[..8].copy_from_slice(&seq.to_le_bytes());
    h[8..].copy_from_slice(&(len as u64).to_le_bytes());
    h
}

pub fn rep(cfg: &RepCfg) -> Rep {
    let base = Instant::now();
    let mut rng = Rng::new(cfg.seed);
    // One seeded source buffer; request `i` is `src[off_i .. off_i + len_i]`
    // with the sequence stamp over its head.
    let src = rng.bytes(2 * MAX_BODY);
    let reply_content = rng.bytes(REPLY);
    let schedule: Vec<(usize, usize)> = (0..WARM_OPS + TIMED_OPS)
        .map(|_| {
            (
                rng.below(MAX_BODY as u64) as usize,
                rng.log_uniform(MIN_BODY, MAX_BODY),
            )
        })
        .collect();
    let payload_bytes: usize = schedule[WARM_OPS..]
        .iter()
        .map(|&(_, len)| HDR + len + HDR + REPLY)
        .sum();
    let mut b = WorldBuilder::new(2);
    b.network("myr0", NetKind::Myrinet, &[0, 1]);
    b.network("sci0", NetKind::Sci, &[0, 1]);
    let (world, build_us) = build_world(b);
    let config =
        Config::one("myr", "myr0", Protocol::Bip).with_channel("sci", "sci0", Protocol::Sisci);
    let nodes = world.run(|env| {
        let mut nc = NodeCtx::new(&env, *cfg, base);
        let mad = nc.tr.span("init", || Madeleine::init(&env, &config));
        let chans = [&**mad.channel("myr"), &**mad.channel("sci")];
        let mut body = vec![0u8; MAX_BODY];
        let mut expect = vec![0u8; MAX_BODY];
        nc.drive(WARM_OPS, TIMED_OPS, &chans, |nc, i, check: Check| {
            let ch = chans[i % 2];
            let (off, len) = schedule[i];
            let seq = i as u64;
            let o = nc.tr.begin("op");
            if nc.id() == 0 {
                body[..len].copy_from_slice(&src[off..off + len]);
                stamp(&mut body, seq);
                let t0 = nc.now_ns();
                send(nc, ch, 1, &header(seq, len), &body[..len]);
                let (rseq, rlen) = recv(nc, ch, &mut expect[..REPLY]);
                nc.lat_since(t0);
                let ok = rseq == seq && verify(&expect[..rlen], &reply_content, seq, check);
                nc.msg(ok);
            } else {
                let (rseq, rlen) = recv(nc, ch, &mut body);
                nc.maybe_corrupt(&mut body[..rlen]);
                let ok = rseq == seq
                    && rlen == len
                    && verify(&body[..rlen], &src[off..off + len], seq, check);
                nc.msg(ok);
                expect[..REPLY].copy_from_slice(&reply_content);
                stamp(&mut expect, seq);
                send(nc, ch, 0, &header(seq, REPLY), &expect[..REPLY]);
            }
            nc.op_done();
            nc.tr.end(o);
        });
        if nc.id() == 0 {
            nc.count("payload_bytes", payload_bytes as u64);
        }
        nc.finish()
    });
    let (mut rep, mut nodes) = Rep::fold(nodes, build_us);
    rep.lat_ns = std::mem::take(&mut nodes[0].lat_ns);
    rep.virt_us_per_op = nodes[0].timed_virt_us / rep.ops as f64;
    rep
}
