//! The gateway packet-forwarding pipeline (paper §6.2.1, Fig. 9).
//!
//! A gateway node bridges two hop channels with **two threads and a
//! dual-buffering strategy**: while one fragment is being received from the
//! incoming network into one buffer, the previous fragment is sent from the
//! other buffer onto the outgoing network. With balanced per-packet times
//! the two overlap perfectly and the pipeline period is
//! `max(recv, send) + software overhead` — the paper measures that overhead
//! at roughly 50 µs per step. An idle receiving half parks on the gateway
//! node's arrivals count, which every frame or flag reaching it notifies.
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

use crate::generic_tm::{hop_recv, recv_fragment_header, send_fragment, stage};
use crate::route::Route;
use crate::vchannel::{route_of_chain, VirtualChannelSpec};
use madeleine::bmm::SendPolicy;
use madeleine::config::Config;
use madeleine::error::{MadError, MadResult};
use madeleine::flags::{RecvMode, SendMode};
use madeleine::pmm::Pmm;
use madeleine::pool::{BufPool, PooledBuf};
use madeleine::stats::Stats;
use madeleine::tm::{self, StaticBuf};
use madeleine::wire::FragHeader;
use madeleine::{CompletionQueue, Madeleine};
use madsim_net::eventcount::EventCount;
use madsim_net::time::{self, VDuration, VTime};
use madsim_net::world::NodeEnv;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Gateway software overhead charged on the receiving half of each step.
pub const GW_RECV_OVERHEAD_US: f64 = 15.0;
/// Gateway software overhead charged on the sending half of each step
/// (buffer exchange, demultiplexing, next-hop lookup).
pub const GW_SEND_OVERHEAD_US: f64 = 35.0;

/// Pipeline buffers per direction (the paper's dual buffering).
const PIPELINE_DEPTH: usize = 2;

enum GwPayload {
    /// Pooled staging memory (dynamic→dynamic): with dual buffering the
    /// direction's pool converges on `PIPELINE_DEPTH` warm slabs that just
    /// cycle.
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
    /// The node's arrivals count, which idle receiving halves park on.
    arrivals: Arc<EventCount>,
    threads: Vec<JoinHandle<()>>,
    stats: Vec<(String, Arc<Stats>)>,
}

impl Gateway {
    /// Spawn the forwarding pipelines this node owes to `spec` (one
    /// two-thread pipeline per direction per adjacency it gateways, on the
    /// primary route **and on every alternate**). Returns `None` on nodes
    /// gatewaying no route of the spec.
    pub fn spawn(
        env: &NodeEnv,
        mad: &Madeleine,
        config: &Config,
        spec: &VirtualChannelSpec,
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
            arrivals: Arc::clone(env.arrivals()),
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
        self.arrivals.notify();
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
    stats: Arc<Stats>,
    stop: Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    let (me, host) = (env.id(), env.calib().host);
    // Finished fragments flow to the sending half, and emptied slots back
    // to the receiving half (stamped with the virtual instant they freed),
    // through two completion queues (the progress engine's terminal
    // primitive): `PIPELINE_DEPTH` slot tokens circulate, so at most that
    // many fragments are ever in flight per direction.
    let filled = Arc::new(CompletionQueue::<Filled>::new());
    let free = Arc::new(CompletionQueue::<VTime>::new());
    for _ in 0..PIPELINE_DEPTH {
        free.push(VTime::ZERO);
    }

    // ---- receiving half ----
    let recv_handle = {
        let route = Arc::clone(&route);
        let in_pmm = Arc::clone(&in_pmm);
        let out_pmm = Arc::clone(&out_pmm);
        let stats = Arc::clone(&stats);
        let stop = Arc::clone(&stop);
        let filled = Arc::clone(&filled);
        let free = Arc::clone(&free);
        let pool = BufPool::new(Arc::clone(&stats));
        let arrivals = Arc::clone(env.arrivals());
        env.spawn_thread(move || {
            loop {
                // The next announced fragment, or `None` once stopped.
                let next = arrivals.wait_timeout(0, None, || match in_pmm.poll_incoming() {
                    Some(neighbor) => Some(Some(neighbor)),
                    None => stop.load(Ordering::Acquire).then_some(None),
                });
                let Some(neighbor) = next.expect("a wait without a timeout only succeeds") else {
                    // Closing the queue drains the sending half: it
                    // forwards what is already filled, then exits.
                    filled.close();
                    return;
                };
                // Dual buffering: wait (in virtual time too) for a free slot.
                let Some(slot_free_at) = free.pop_wait() else {
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
                        free.push(time::now());
                        continue;
                    }
                };
                // A fragment addressed to this gateway or off the route has
                // no next leg: its payload is still received, so the stream
                // stays in step, and then dropped like a failed one.
                let routable = hdr.dst != me && !route.hops_of(hdr.dst).is_empty();
                let got = receive_payload(&in_pmm, &out_pmm, neighbor, &hdr, &pool, host, &stats);
                let payload = match got {
                    Ok(p) if routable => p,
                    _ => {
                        stats.record_frag_discarded();
                        free.push(time::now());
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
                let forwarded = match payload {
                    GwPayload::Dyn(v) => send_fragment(&out_pmm, next, &hdr, &v, host, &stats),
                    GwPayload::InStatic(buf) => {
                        send_fragment(&out_pmm, next, &hdr, buf.filled(), host, &stats)
                    }
                    GwPayload::OutStatic(buf) => {
                        send_static_fragment(&out_pmm, next, &hdr, buf, host, &stats)
                    }
                };
                if forwarded.is_err() {
                    // The outgoing hop is dead. Drop the fragment — the
                    // end nodes' offset-checked reassembly discards the
                    // stale tail and restarts the block on another route.
                    stats.record_frag_discarded();
                }
                time::advance(VDuration::from_micros_f64(GW_SEND_OVERHEAD_US));
                free.push(time::now());
            }
        })
    };

    vec![recv_handle, send_handle]
}

/// Send a fragment whose payload already sits in a static buffer of the
/// outgoing TM: the header alone through [`send_fragment`], then the
/// buffer itself, posted and waited out in place.
fn send_static_fragment(
    out_pmm: &Arc<dyn Pmm>,
    next: madsim_net::NodeId,
    hdr: &FragHeader,
    buf: StaticBuf,
    host: madeleine::config::HostModel,
    stats: &Arc<Stats>,
) -> MadResult<()> {
    send_fragment(out_pmm, next, hdr, &[], host, stats)?;
    let id = out_pmm.select(buf.len(), SendMode::Cheaper, RecvMode::Cheaper);
    tm::wait_out(out_pmm.tm(id).post_static_buffer(next, buf)?)?;
    stats.record_buffer_sent();
    Ok(())
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
        if buf.len() != hdr.len {
            return Err(MadError::corrupt(
                "arrival buffer does not match the fragment header",
            ));
        }
        Ok(GwPayload::InStatic(buf))
    } else {
        stage(in_pmm, neighbor, hdr.len, pool, host, stats).map(GwPayload::Dyn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vchannel::VirtualChannel;
    use madeleine::Protocol;
    use madsim_net::{NetKind, WorldBuilder};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::{Duration, Instant};

    /// An idle gateway's receiving halves park on the node's arrivals count:
    /// with nothing announced, the count shows a park per direction and no
    /// poll (their budget is 0), and `stop` wakes them and returns.
    #[test]
    fn an_idle_gateway_parks_until_stopped() {
        let mut b = WorldBuilder::new(3);
        b.network("sci0", NetKind::Sci, &[0, 1]);
        b.network("myr0", NetKind::Myrinet, &[1, 2]);
        let world = b.build();
        let config =
            Config::one("sci", "sci0", Protocol::Sisci).with_channel("myr", "myr0", Protocol::Bip);
        world.run(|env| {
            let mad = Madeleine::init(&env, &config);
            let before = env.arrivals().stats();
            let spec = VirtualChannelSpec::new("vc", &["sci", "myr"], 8192);
            let Some(gw) = Gateway::spawn(&env, &mad, &config, &spec) else {
                return;
            };
            let parked = || env.arrivals().stats().parks - before.parks;
            let deadline = Instant::now() + Duration::from_secs(10);
            while parked() < 2 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            let polls = env.arrivals().stats().polls - before.polls;
            assert_eq!((parked() >= 2, polls), (true, 0));
            gw.stop();
        });
    }

    /// A fragment the gateway cannot route — addressed off the route, or to
    /// the gateway itself — is received, counted as discarded and dropped:
    /// the forwarder lives on, and the message sent after it arrives whole.
    #[test]
    fn an_unroutable_fragment_is_dropped_and_counted() {
        let mut b = WorldBuilder::new(3);
        b.network("sci0", NetKind::Sci, &[0, 1]);
        b.network("myr0", NetKind::Myrinet, &[1, 2]);
        let world = b.build();
        let config =
            Config::one("sci", "sci0", Protocol::Sisci).with_channel("myr", "myr0", Protocol::Bip);
        let data: Vec<u8> = (0..20_000).map(|i| (i % 251) as u8).collect();
        // A wedged forwarder never lets the world return: watch it from
        // another thread instead of hanging the suite.
        let (done_tx, done) = mpsc::channel();
        let watched = std::thread::spawn(move || {
            let discarded = world.run(move |env| {
                let mad = Madeleine::init(&env, &config);
                let spec = VirtualChannelSpec::new("vc", &["sci", "myr"], 8192);
                let gw = Gateway::spawn(&env, &mad, &config, &spec);
                let vc = VirtualChannel::open(&env, &mad, &config, &spec);
                if env.id() == 0 {
                    let (pmm, stats) = (mad.channel("sci").pmm(), Stats::new());
                    for dst in [9, 1] {
                        let hdr = FragHeader {
                            src: 0,
                            dst,
                            len: 64,
                            offset: 0,
                        };
                        send_fragment(pmm, 1, &hdr, &[0xEE; 64], env.calib().host, &stats)
                            .expect("hop send to the gateway");
                    }
                    let vc = vc.expect("endpoint");
                    let mut m = vc.begin_packing(2);
                    m.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
                    m.end_packing();
                } else if env.id() == 2 {
                    let mut got = vec![0u8; data.len()];
                    let vc = vc.expect("endpoint");
                    let mut m = vc.begin_unpacking();
                    m.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                    m.end_unpacking();
                    assert_eq!(got, data);
                }
                env.barrier();
                gw.map_or(0, |gw| {
                    let n = gw.stats().iter().map(|(_, s)| s.frags_discarded()).sum();
                    gw.stop();
                    n
                })
            });
            let _ = done_tx.send(());
            discarded
        });
        if let Err(RecvTimeoutError::Timeout) = done.recv_timeout(Duration::from_secs(60)) {
            panic!("an unroutable fragment wedged the gateway");
        }
        let discarded = watched
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
        assert_eq!(discarded, vec![0, 2, 0]);
    }
}
