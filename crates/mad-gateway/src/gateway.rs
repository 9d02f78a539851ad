//! The gateway packet-forwarding pipeline (paper §6.2.1, Fig. 9).
//!
//! A gateway node bridges two hop channels with **two threads and a
//! dual-buffering strategy**: while one fragment is being received from the
//! incoming network into one buffer, the previous fragment is sent from the
//! other buffer onto the outgoing network. With balanced per-packet times
//! the two overlap perfectly and the pipeline period is
//! `max(recv, send) + software overhead` — the paper measures that overhead
//! at roughly 50 µs per step.
//!
//! Copy avoidance follows §6.1 exactly:
//!
//! * outgoing protocol uses **static buffers** → obtain one from the
//!   outgoing TM and receive the fragment *directly into it* (saves the
//!   staging copy regardless of the incoming protocol);
//! * incoming protocol uses static buffers, outgoing is dynamic → forward
//!   straight **out of the arrival buffer**;
//! * both static → the one unavoidable copy;
//! * both dynamic → through a reusable staging buffer, no extra copies.

use crate::generic_tm::{hop_recv, hop_send, recv_fragment_header};
use crate::route::Route;
use crate::vchannel::{route_of_chain, VirtualChannelSpec};
use crate::wire::FragHeader;
use madeleine::bmm::SendPolicy;
use madeleine::config::Config;
use madeleine::error::MadResult;
use madeleine::flags::{RecvMode, SendMode};
use madeleine::pmm::Pmm;
use madeleine::pool::{BufPool, PooledBuf};
use madeleine::stats::Stats;
use madeleine::tm::StaticBuf;
use madeleine::{CompletionQueue, Madeleine};
use madsim_net::time::{self, VDuration, VTime};
use madsim_net::world::NodeEnv;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Gateway software overhead charged on the receiving half of each step.
pub const GW_RECV_OVERHEAD_US: f64 = 15.0;
/// Gateway software overhead charged on the sending half of each step
/// (buffer exchange, demultiplexing, next-hop lookup).
pub const GW_SEND_OVERHEAD_US: f64 = 35.0;

/// Number of pipeline buffers (the paper's dual-buffering).
const PIPELINE_DEPTH: usize = 2;

/// Tunables of a node's forwarders — including the **bandwidth control**
/// mechanism the paper's conclusion calls for: "the sharing of the gateway
/// internal system bus bandwidth appears to be a central issue: some
/// sophisticated bandwidth control mechanism is needed to regulate the
/// incoming communication flow on gateways."
#[derive(Clone, Copy, Debug)]
pub struct GatewayConfig {
    /// Cap the inbound payload rate per direction (MiB/s). Pacing the
    /// receive side frees host-bus arbitration slots for the outgoing
    /// transfers — see the `ablations` bench for the measured effect.
    pub inbound_limit_mibps: Option<f64>,
    /// Pipeline buffers per direction (the paper's dual buffering = 2).
    pub depth: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            inbound_limit_mibps: None,
            depth: PIPELINE_DEPTH,
        }
    }
}

/// Virtual-time token bucket regulating the inbound flow of one pipeline
/// direction.
struct RateLimiter {
    bytes_per_us: f64,
    next_allowed: VTime,
}

impl RateLimiter {
    fn new(mibps: f64) -> Self {
        RateLimiter {
            bytes_per_us: mibps * 1.048576,
            next_allowed: VTime::ZERO,
        }
    }

    /// Block (in virtual time) until `len` more payload bytes may enter.
    fn admit(&mut self, len: usize) {
        let now = time::advance_to(self.next_allowed);
        self.next_allowed = now + VDuration::from_micros_f64(len as f64 / self.bytes_per_us);
    }
}

enum GwPayload {
    /// Pooled staging memory (dynamic→dynamic): with dual buffering the
    /// direction's pool converges on `depth` warm slabs that just cycle.
    Dyn(PooledBuf),
    /// A buffer obtained from the *outgoing* TM and filled directly.
    OutStatic(StaticBuf),
    /// The *incoming* protocol's arrival buffer, forwarded as-is.
    InStatic(StaticBuf),
}

struct Filled {
    hdr: FragHeader,
    payload: GwPayload,
    ready: VTime,
}

/// Handle over a node's running forwarders; dropping it leaves them
/// running, [`stop`](Gateway::stop) shuts them down once idle.
pub struct Gateway {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    stats: Vec<(String, Arc<Stats>)>,
}

impl Gateway {
    /// Spawn the forwarding pipelines this node owes to `spec` (one
    /// two-thread pipeline per direction per adjacency it gateways, on the
    /// primary route **and on every alternate**), with the default
    /// configuration. Returns `None` on nodes gatewaying no route of the
    /// spec.
    pub fn spawn(
        env: &NodeEnv,
        mad: &Madeleine,
        config: &Config,
        spec: &VirtualChannelSpec,
    ) -> Option<Gateway> {
        Self::spawn_with(env, mad, config, spec, GatewayConfig::default())
    }

    /// [`spawn`](Self::spawn) with explicit forwarder tunables.
    pub fn spawn_with(
        env: &NodeEnv,
        mad: &Madeleine,
        config: &Config,
        spec: &VirtualChannelSpec,
        gwcfg: GatewayConfig,
    ) -> Option<Gateway> {
        let me = env.id();
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        let mut stats_out = Vec::new();
        for chain in spec.chains() {
            let route = Arc::new(route_of_chain(env, config, chain));
            for i in route.gateway_positions(me) {
                // Two directions: left-to-right (hop i → hop i+1) and back.
                for (hop_in, hop_out) in [(i, i + 1), (i + 1, i)] {
                    let in_pmm = Arc::clone(mad.channel(&chain[hop_in]).pmm());
                    let out_pmm = Arc::clone(mad.channel(&chain[hop_out]).pmm());
                    let stats = Stats::new();
                    stats_out.push((
                        format!("{}:{}->{}", spec.name, chain[hop_in], chain[hop_out]),
                        Arc::clone(&stats),
                    ));
                    threads.extend(spawn_direction(
                        env,
                        Arc::clone(&route),
                        in_pmm,
                        out_pmm,
                        gwcfg,
                        Arc::clone(&stats),
                        Arc::clone(&stop),
                    ));
                }
            }
        }
        if threads.is_empty() {
            return None;
        }
        Some(Gateway {
            stop,
            threads,
            stats: stats_out,
        })
    }

    /// Per-direction copy/traffic counters (label, stats).
    pub fn stats(&self) -> &[(String, Arc<Stats>)] {
        &self.stats
    }

    /// Ask the forwarders to stop once idle and join them.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn spawn_direction(
    env: &NodeEnv,
    route: Arc<Route>,
    in_pmm: Arc<dyn Pmm>,
    out_pmm: Arc<dyn Pmm>,
    gwcfg: GatewayConfig,
    stats: Arc<Stats>,
    stop: Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    let (me, host) = (env.id(), env.calib().host);
    let depth = gwcfg.depth.max(1);
    // Finished fragments flow to the sending half through a completion
    // queue (the progress engine's terminal primitive); the dual-buffering
    // backpressure stays on the bounded `free` slot channel, so at most
    // `depth` fragments are ever in flight per direction.
    let filled = Arc::new(CompletionQueue::<Filled>::new());
    let (free_tx, free_rx) = crossbeam::channel::bounded::<VTime>(depth);
    for _ in 0..depth {
        free_tx.send(VTime::ZERO).expect("fresh channel");
    }

    // ---- receiving half ----
    let recv_handle = {
        let route = Arc::clone(&route);
        let in_pmm = Arc::clone(&in_pmm);
        let out_pmm = Arc::clone(&out_pmm);
        let stats = Arc::clone(&stats);
        let stop = Arc::clone(&stop);
        let filled = Arc::clone(&filled);
        let free_tx = free_tx.clone();
        let mut limiter = gwcfg.inbound_limit_mibps.map(RateLimiter::new);
        let pool = BufPool::new(Arc::clone(&stats));
        env.spawn_thread(move || {
            loop {
                let Some(neighbor) = in_pmm.poll_incoming() else {
                    if stop.load(Ordering::Acquire) {
                        // Closing the queue drains the sending half: it
                        // forwards what is already filled, then exits.
                        filled.close();
                        return;
                    }
                    time::check_abort();
                    std::thread::sleep(Duration::from_micros(20));
                    continue;
                };
                // Dual buffering: wait (in virtual time too) for a free slot.
                let Ok(slot_free_at) = free_rx.recv() else {
                    filled.close();
                    return;
                };
                time::advance_to(slot_free_at);

                let hdr = match recv_fragment_header(&in_pmm, neighbor, host, &stats) {
                    Ok(h) => h,
                    Err(_) => {
                        // The incoming hop died mid-fragment: drop it and
                        // recycle the slot — the end nodes' failover makes
                        // the block whole again on another route.
                        stats.record_frag_discarded();
                        let _ = free_tx.send(time::now());
                        continue;
                    }
                };
                debug_assert_ne!(hdr.dst, me, "gateways are not endpoints");
                // Bandwidth control: admit the payload at the regulated
                // rate before pulling it across the bus.
                if let Some(l) = limiter.as_mut() {
                    l.admit(hdr.len);
                }
                let got = receive_payload(&in_pmm, &out_pmm, neighbor, &hdr, &pool, host, &stats);
                let payload = match got {
                    Ok(p) => p,
                    Err(_) => {
                        stats.record_frag_discarded();
                        let _ = free_tx.send(time::now());
                        continue;
                    }
                };
                time::advance(VDuration::from_micros_f64(GW_RECV_OVERHEAD_US));
                if !filled.push(Filled {
                    hdr,
                    payload,
                    ready: time::now(),
                }) {
                    return;
                }
                let _ = route; // route is used by the sending half only
            }
        })
    };

    // ---- sending half ----
    let send_handle = {
        let stats = Arc::clone(&stats);
        env.spawn_thread(move || {
            while let Some(Filled {
                hdr,
                payload,
                ready,
            }) = filled.pop_wait()
            {
                time::advance_to(ready);
                let (_hop, next) = route.next_leg(me, hdr.dst);
                let forwarded: MadResult<()> = (|| {
                    hop_send(
                        &out_pmm,
                        next,
                        &hdr.to_wire(),
                        RecvMode::Express,
                        host,
                        &stats,
                    )?;
                    match payload {
                        GwPayload::Dyn(v) => {
                            if !v.is_empty() {
                                hop_send(&out_pmm, next, &v, RecvMode::Cheaper, host, &stats)?;
                            }
                        }
                        GwPayload::OutStatic(buf) => {
                            let id =
                                out_pmm.select(buf.len(), SendMode::Cheaper, RecvMode::Cheaper);
                            out_pmm.tm(id).send_static_buffer(next, buf)?;
                            stats.record_buffer_sent();
                        }
                        GwPayload::InStatic(buf) => {
                            hop_send(
                                &out_pmm,
                                next,
                                buf.filled(),
                                RecvMode::Cheaper,
                                host,
                                &stats,
                            )?;
                        }
                    }
                    Ok(())
                })();
                if forwarded.is_err() {
                    // The outgoing hop is dead. Drop the fragment — the
                    // end nodes' offset-checked reassembly discards the
                    // stale tail and restarts the block on another route.
                    stats.record_frag_discarded();
                }
                time::advance(VDuration::from_micros_f64(GW_SEND_OVERHEAD_US));
                if free_tx.send(time::now()).is_err() {
                    return;
                }
            }
        })
    };

    vec![recv_handle, send_handle]
}

/// Receive one fragment payload using the §6.1 copy-avoidance matrix.
fn receive_payload(
    in_pmm: &Arc<dyn Pmm>,
    out_pmm: &Arc<dyn Pmm>,
    neighbor: madsim_net::NodeId,
    hdr: &FragHeader,
    pool: &BufPool,
    host: madeleine::config::HostModel,
    stats: &Arc<Stats>,
) -> MadResult<GwPayload> {
    if hdr.len == 0 {
        return Ok(GwPayload::Dyn(pool.checkout(0)));
    }
    let out_id = out_pmm.select(hdr.len, SendMode::Cheaper, RecvMode::Cheaper);
    let out_tm = out_pmm.tm(out_id);
    let out_static = out_pmm.policy(out_id) == SendPolicy::StaticCopy;
    let in_id = in_pmm.select(hdr.len, SendMode::Cheaper, RecvMode::Cheaper);
    let in_tm = in_pmm.tm(in_id);
    let in_static = in_pmm.policy(in_id) == SendPolicy::StaticCopy;

    if out_static && hdr.len <= out_tm.caps().buffer_cap {
        // Receive straight into the outgoing protocol's buffer.
        let mut buf = out_tm.obtain_static_buffer();
        hop_recv(
            in_pmm,
            neighbor,
            &mut buf.spare_mut()[..hdr.len],
            RecvMode::Cheaper,
            host,
            stats,
        )?;
        buf.advance(hdr.len);
        Ok(GwPayload::OutStatic(buf))
    } else if in_static && hdr.len <= in_tm.caps().buffer_cap {
        // Forward the arrival buffer itself.
        let buf = in_tm.receive_static_buffer(neighbor)?;
        assert_eq!(
            buf.len(),
            hdr.len,
            "arrival buffer does not match the fragment header"
        );
        Ok(GwPayload::InStatic(buf))
    } else {
        let mut v = pool.checkout(hdr.len);
        hop_recv(
            in_pmm,
            neighbor,
            &mut v.spare_mut()[..hdr.len],
            RecvMode::Cheaper,
            host,
            stats,
        )?;
        v.advance(hdr.len);
        Ok(GwPayload::Dyn(v))
    }
}
