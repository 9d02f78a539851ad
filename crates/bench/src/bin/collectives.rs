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
//! Sweeps world sizes and payload sizes, measures both algorithms on the
//! same virtual fabric, and closes with an analytic (labelled *modeled*)
//! 1024-rank point: both schedules evaluated as discrete-event trees over
//! the same per-edge cost pair, far beyond what the simulator can host.
//!
//! Headline claims asserted here: hierarchical bcast and allreduce
//! reach 1.5x or better over their flat counterparts at 64 ranks across
//! a gateway, and the modeled 1k-rank point keeps hierarchical at or
//! below flat.
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
    struct ModeledPoint {
        collective: &'static str,
        ranks: usize,
        clusters: usize,
        note: &'static str,
        flat_us: f64,
        hier_us: f64,
        speedup: f64,
    }
}

json_struct! {
    struct Output {
        measured: Vec<Point>,
        modeled: Vec<ModeledPoint>,
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

// ---------------------------------------------------------------------
// Modeled 1k-rank point: both schedules evaluated as discrete-event
// trees over one per-edge cost pair. Costs are round numbers in the
// shape of the simulated fabric (one SCI/Myrinet hop vs store-and-
// forward through the gateway); the point is the *schedule* comparison,
// not the absolute numbers — hence "modeled" in the output.
// ---------------------------------------------------------------------

const MODEL_LOCAL_US: f64 = 8.0;
const MODEL_CROSS_US: f64 = 60.0;
const MODEL_SEND_GAP_US: f64 = 2.0;
/// Store-and-forward occupancy of the single gateway per cross-cluster
/// message — the shared resource every cross edge queues on.
const MODEL_GW_US: f64 = 20.0;

fn model_cluster(rank: usize) -> usize {
    rank % 2
}

/// Completion time of a binomial bcast over `ranks` rooted at position 0,
/// given per-edge latency `cost(parent, child)`; senders serialize their
/// child sends `MODEL_SEND_GAP_US` apart, and cross-cluster edges queue
/// on the shared gateway (`gw_free` carries its availability across the
/// trees of one schedule). Tree indices are settled in increasing order,
/// which tracks chronological order closely enough for a labelled model.
fn model_tree_bcast(ranks: &[usize], gw_free: &mut f64, cost: impl Fn(usize, usize) -> f64) -> f64 {
    let n = ranks.len();
    let mut ready = vec![0.0f64; n];
    // Virtual ranks become ready in increasing numeric order (the parent
    // of v clears v's lowest set bit), so one forward pass settles all.
    for v in 1..n {
        let m = v & v.wrapping_neg(); // the edge bit: v's lowest set bit
        let parent = v ^ m;
        // The parent sends to its children highest-bit-first; siblings
        // dispatched before this one add a serialization gap each.
        let limit = if parent == 0 {
            n.next_power_of_two()
        } else {
            parent & parent.wrapping_neg()
        };
        let mut slot = 0usize;
        let mut bit = m << 1;
        while bit < limit {
            if parent | bit < n {
                slot += 1;
            }
            bit <<= 1;
        }
        let sent = ready[parent] + slot as f64 * MODEL_SEND_GAP_US;
        let edge = cost(ranks[parent], ranks[v]);
        ready[v] = if edge >= MODEL_CROSS_US {
            let start = sent.max(*gw_free);
            *gw_free = start + MODEL_GW_US;
            start + edge
        } else {
            sent + edge
        };
    }
    ready.into_iter().fold(0.0, f64::max)
}

fn edge_cost(a: usize, b: usize) -> f64 {
    if model_cluster(a) == model_cluster(b) {
        MODEL_LOCAL_US
    } else {
        MODEL_CROSS_US
    }
}

fn model_bcast(n: usize) -> (f64, f64) {
    let all: Vec<usize> = (0..n).collect();
    let flat = model_tree_bcast(&all, &mut 0.0, edge_cost);
    // Hierarchical: leader tree (always cross edges), then the two
    // intra-cluster trees run concurrently — completion is the max.
    let mut gw = 0.0;
    let leaders = [0usize, 1usize];
    let inter = model_tree_bcast(&leaders, &mut gw, edge_cost);
    let c0: Vec<usize> = (0..n).filter(|r| model_cluster(*r) == 0).collect();
    let c1: Vec<usize> = (0..n).filter(|r| model_cluster(*r) == 1).collect();
    let intra =
        model_tree_bcast(&c0, &mut gw, edge_cost).max(model_tree_bcast(&c1, &mut gw, edge_cost));
    (flat, inter + intra)
}

fn model_allreduce(n: usize) -> (f64, f64) {
    // Flat allreduce is a linear fan-in to rank 0 plus a binomial bcast.
    // Model the fan-in generously for flat: all n-1 messages in flight at
    // once, the root draining one per send gap, the n/2 cross-cluster
    // ones also queueing on the gateway, plus one trailing latency.
    let all: Vec<usize> = (0..n).collect();
    let fan_in =
        ((n - 1) as f64 * MODEL_SEND_GAP_US).max(n as f64 / 2.0 * MODEL_GW_US) + MODEL_CROSS_US;
    let flat = fan_in + model_tree_bcast(&all, &mut 0.0, edge_cost);
    // Hierarchical: binomial fan-in mirrors the bcast tree cost, leaders
    // exchange once each way, binomial bcast back down.
    let (_, hier_bcast) = model_bcast(n);
    let hier = hier_bcast + hier_bcast; // reduce mirror + bcast
    (flat, hier)
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

    // Modeled 1k-rank point (the simulator cannot host 1024 live nodes).
    let mut modeled = Vec::new();
    for (name, (flat_us, hier_us)) in [
        ("bcast", model_bcast(1024)),
        ("allreduce", model_allreduce(1024)),
    ] {
        let speedup = flat_us / hier_us;
        println!(
            "{name:>10} {:>6} {:>8} {flat_us:>10.1} {hier_us:>10.1} {speedup:>7.2}x  (modeled)",
            1024, "-"
        );
        assert!(
            hier_us <= flat_us,
            "modeled 1k-rank {name}: hierarchical {hier_us:.1}us above flat {flat_us:.1}us"
        );
        modeled.push(ModeledPoint {
            collective: name,
            ranks: 1024,
            clusters: 2,
            note: "modeled",
            flat_us,
            hier_us,
            speedup,
        });
    }

    println!(
        "64-rank speedups: bcast {speedup_bcast_64:.2}x, allreduce {speedup_allreduce_64:.2}x"
    );
    let out = Output {
        measured,
        modeled,
        speedup_bcast_64,
        speedup_allreduce_64,
    };
    write_json(&out_path, &out);
}
