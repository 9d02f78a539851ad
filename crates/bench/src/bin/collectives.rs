//! Topology-aware hierarchical collectives vs the flat binomial baselines.
//!
//! Two clusters (SCI and Myrinet) joined by one gateway, with MPI rank
//! placement **interleaved** across the clusters — the realistic case
//! where the application's rank order does not follow network locality.
//! The flat binomial `bcast` then routes roughly half its tree edges
//! through the gateway, and the flat linear-fan-in `allreduce` crosses it
//! once per remote rank; the hierarchical schedules cross exactly once
//! per remote cluster and keep every other edge inside a leaf network.
//!
//! Sweeps world sizes and payload sizes and measures both algorithms on
//! the same virtual fabric.
//!
//! Headline claim asserted here: hierarchical bcast and allreduce reach
//! 1.5x or better over their flat counterparts at 64 ranks across a
//! gateway.
//!
//! Writes `BENCH_collectives.json`.
//!
//! Usage: `collectives [--out PATH]`

#![forbid(unsafe_code)]

use bench::{arg_value, json_struct, write_json};
use mad_gateway::{Gateway, VirtualChannel, VirtualChannelSpec};
use mad_mpi::{Mpi, ReduceOp, Topology};
use madeleine::{Config, Madeleine, Protocol};
use madsim_net::time;
use madsim_net::{NetKind, WorldBuilder};
use std::sync::Arc;

const ITERS: usize = 3;
const SIZES: &[usize] = &[1 << 10, 64 << 10];
const RANK_SWEEP: &[usize] = &[8, 16, 32, 64];

json_struct! {
    struct Point {
        collective: &'static str,
        ranks: usize,
        bytes: usize,
        flat_us: f64,
        hier_us: f64,
        speedup: f64,
    }
}

json_struct! {
    struct Output {
        measured: Vec<Point>,
        speedup_bcast_64: f64,
        speedup_allreduce_64: f64,
    }
}

/// Build the two-cluster world for `n` end ranks: end nodes `0..n` plus
/// gateway node `n`; even end nodes sit on the SCI segment, odd ones on
/// Myrinet, so MPI rank order (sorted node ids) interleaves the clusters.
fn bridged_world(n: usize) -> (madsim_net::World, Config, VirtualChannelSpec, Topology) {
    let gw = n;
    let mut sci: Vec<usize> = (0..n).step_by(2).collect();
    let mut myr: Vec<usize> = (1..n).step_by(2).collect();
    sci.push(gw);
    myr.push(gw);
    let mut b = WorldBuilder::new(n + 1);
    b.network("sci0", NetKind::Sci, &sci);
    b.network("myr0", NetKind::Myrinet, &myr);
    let world = b.build();
    let config =
        Config::one("sci", "sci0", Protocol::Sisci).with_channel("myr", "myr0", Protocol::Bip);
    let spec = VirtualChannelSpec::new("vc", &["sci", "myr"], 8192);
    // Rank r is node r (ranks are sorted node ids and the gateway is not
    // a member), so the cluster map interleaves: even -> 0, odd -> 1.
    let topo = Topology::new((0..n).map(|r| r % 2).collect());
    (world, config, spec, topo)
}

/// One timed section: barrier in, `ITERS` runs of `body`, barrier out.
/// Returns this rank's elapsed virtual microseconds.
fn timed(mpi: &Mpi, mut body: impl FnMut()) -> f64 {
    mpi.barrier();
    let t0 = time::now().as_micros_f64();
    for _ in 0..ITERS {
        body();
    }
    mpi.barrier();
    (time::now().as_micros_f64() - t0) / ITERS as f64
}

/// Run every (collective, size, algorithm) section in one world; returns
/// per-section elapsed times, max over ranks (section order: for each
/// size: bcast flat, bcast hier, allreduce flat, allreduce hier, gather
/// flat, gather hier).
fn measure_world(n: usize) -> Vec<f64> {
    let (world, config, spec, topo) = bridged_world(n);
    let per_node = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let gw = Gateway::spawn(&env, &mad, &config, &spec);
        let vc = VirtualChannel::open(&env, &mad, &config, &spec);
        let mut out = Vec::new();
        if let Some(vc) = vc {
            let ranks: Vec<usize> = (0..n).collect();
            let nodes: Vec<madsim_net::NodeId> = ranks.clone();
            let mpi = Mpi::init_over(Arc::clone(vc.channel()), Some(&nodes));
            let me = mpi.rank();
            for &size in SIZES {
                let pattern: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
                let mut buf = vec![0u8; size];
                out.push(timed(&mpi, || {
                    if me == 0 {
                        buf.copy_from_slice(&pattern);
                    }
                    mpi.bcast(0, &mut buf);
                    assert_eq!(buf, pattern, "flat bcast corrupted");
                }));
                out.push(timed(&mpi, || {
                    buf.fill(0);
                    if me == 0 {
                        buf.copy_from_slice(&pattern);
                    }
                    mpi.bcast_hier(&topo, 0, &mut buf);
                    assert_eq!(buf, pattern, "hierarchical bcast corrupted");
                }));
                // Integer-valued contributions: both reduction orders are
                // exact, so the results must agree bit for bit.
                let vals: Vec<f64> = (0..size / 8).map(|i| ((me + i) % 1000) as f64).collect();
                let mut flat_sum = Vec::new();
                out.push(timed(&mpi, || {
                    flat_sum = mpi.allreduce(ReduceOp::Sum, &vals);
                }));
                out.push(timed(&mpi, || {
                    let hier = mpi.allreduce_hier(&topo, ReduceOp::Sum, &vals);
                    assert_eq!(hier, flat_sum, "hierarchical allreduce diverged");
                }));
                let block: Vec<u8> = pattern[..size / n.max(1)].to_vec();
                out.push(timed(&mpi, || {
                    let g = mpi.gather(0, &block);
                    if me == 0 {
                        assert_eq!(g.expect("root").len(), n);
                    }
                }));
                out.push(timed(&mpi, || {
                    let g = mpi.gather_hier(&topo, 0, &block);
                    if me == 0 {
                        let g = g.expect("root");
                        assert!(g.iter().all(|b| b == &block), "hier gather corrupted");
                    }
                }));
            }
        }
        env.barrier();
        if let Some(gw) = gw {
            gw.stop();
        }
        out
    });
    let sections = per_node.iter().map(|v| v.len()).max().unwrap_or(0);
    (0..sections)
        .map(|s| {
            per_node
                .iter()
                .filter_map(|v| v.get(s).copied())
                .fold(0.0f64, f64::max)
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_collectives.json".into());

    let mut measured = Vec::new();
    println!(
        "{:>10} {:>6} {:>8} {:>10} {:>10} {:>8}",
        "collective", "ranks", "bytes", "flat us", "hier us", "speedup"
    );
    let mut speedup_bcast_64 = 0.0;
    let mut speedup_allreduce_64 = 0.0;
    for &n in RANK_SWEEP {
        let sections = measure_world(n);
        for (si, &size) in SIZES.iter().enumerate() {
            let base = si * 6;
            for (ci, name) in ["bcast", "allreduce", "gather"].iter().enumerate() {
                let flat_us = sections[base + ci * 2];
                let hier_us = sections[base + ci * 2 + 1];
                let speedup = flat_us / hier_us;
                println!(
                    "{name:>10} {n:>6} {size:>8} {flat_us:>10.1} {hier_us:>10.1} {speedup:>7.2}x"
                );
                if n == 64 && si == 0 {
                    match ci {
                        0 => speedup_bcast_64 = speedup,
                        1 => speedup_allreduce_64 = speedup,
                        _ => {}
                    }
                }
                measured.push(Point {
                    collective: ["bcast", "allreduce", "gather"][ci],
                    ranks: n,
                    bytes: size,
                    flat_us,
                    hier_us,
                    speedup,
                });
            }
        }
    }

    // The acceptance claims: >= 1.5x at 64 ranks across the gateway.
    assert!(
        speedup_bcast_64 >= 1.5,
        "hierarchical bcast speedup {speedup_bcast_64:.2}x below 1.5x at 64 ranks"
    );
    assert!(
        speedup_allreduce_64 >= 1.5,
        "hierarchical allreduce speedup {speedup_allreduce_64:.2}x below 1.5x at 64 ranks"
    );

    println!(
        "64-rank speedups: bcast {speedup_bcast_64:.2}x, allreduce {speedup_allreduce_64:.2}x"
    );
    let out = Output {
        measured,
        speedup_bcast_64,
        speedup_allreduce_64,
    };
    write_json(&out_path, &out);
}
