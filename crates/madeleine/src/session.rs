//! Session management: `Madeleine::init`.

use crate::batch::BatchPolicy;
use crate::channel::Channel;
use crate::config::Config;
use crate::drivers;
use crate::flags::{RecvMode, SendMode};
use crate::pool::BufPool;
use crate::rail::{Rail, RailScheduler};
use crate::stats::Stats;
use crate::trace::Tracer;
use madsim_net::world::NodeEnv;
use madsim_net::NodeId;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A node's Madeleine II session: the set of configured channels.
///
/// Initialization is **collective**: every node of the world calls
/// [`Madeleine::init`] with the same configuration; channel drivers
/// exchange their segments/connections/descriptors during construction.
/// A node that is not a member of a channel's network simply does not get
/// that channel.
pub struct Madeleine {
    me: NodeId,
    channels: HashMap<String, Arc<Channel>>,
}

impl Madeleine {
    /// Bring up the session on this node.
    ///
    /// # Panics
    /// Panics if a channel references an unknown network, duplicates a
    /// name, its protocol does not match the network's fabric, or it
    /// stripes over several rails in chunks its TM cannot carry.
    pub fn init(env: &NodeEnv, config: &Config) -> Self {
        let me = env.id();
        // Validate the configuration before any membership filtering: a
        // duplicate name is a config bug and must fail on *every* node,
        // including nodes outside the offending channels' networks (the
        // old in-loop check silently missed those).
        let mut names = HashSet::new();
        for spec in &config.channels {
            assert!(
                names.insert(spec.name.as_str()),
                "duplicate channel name {:?}",
                spec.name
            );
        }
        let mut channels = HashMap::new();
        for (idx, spec) in config.channels.iter().enumerate() {
            let adapters = env.adapters_named(&spec.network);
            if adapters.is_empty() {
                // Not a member of this network: skip the channel. (If the
                // network does not exist anywhere the user gets an empty
                // session, which the channel() accessor reports clearly.)
                continue;
            }
            assert!(
                adapters.len() >= spec.rails,
                "channel {:?} spans {} rails but node {me} owns only {} \
                 adapter(s) on network {:?}",
                spec.name,
                spec.rails,
                adapters.len(),
                spec.network
            );
            let stats = Stats::new();
            // The tracer is shared between the channel and its drivers so
            // fault-recovery events (retransmissions, credit timeouts)
            // land in the same stream as the pack/unpack events.
            let tracer = Arc::new(Tracer::new());
            // One driver stack per rail, each with its own buffer pool —
            // shared between that rail's generic-layer traffic and its
            // protocol driver (static buffers), so a rail's traffic
            // recycles one set of warm slabs. Per-rail channel ids keep
            // every rail's wire tags disjoint; rail 0's id equals the
            // single-rail id, so classic channels are bit-identical.
            let rails: Vec<Rail> = adapters[..spec.rails]
                .iter()
                .enumerate()
                .map(|(r, adapter)| {
                    let pool = BufPool::new(Arc::clone(&stats));
                    let pmm = drivers::build_pmm(
                        spec.protocol,
                        adapter,
                        (idx as u32) | ((r as u32) << 16),
                        config,
                        Arc::clone(&stats),
                        pool.clone(),
                        Arc::clone(&tracer),
                    );
                    Rail::new(r, pmm, pool, Some((*adapter).clone()))
                })
                .collect();
            // A stripe chunk is one buffer of the TM the Switch picks for
            // it: a TM that cannot carry one would fail the first striped
            // send, so the channel is refused here instead.
            if spec.rails > 1 {
                let pmm = rails[0].pmm();
                let chunk = spec.stripe_chunk;
                let tm = pmm.tm(pmm.select(chunk, SendMode::Cheaper, RecvMode::Cheaper));
                let cap = tm.caps().buffer_cap;
                assert!(
                    cap >= chunk,
                    "channel {:?} stripes {chunk}-byte chunks over {} rails, but its TM {:?} \
                     carries at most {cap} bytes per buffer (lower the chunk with_striping)",
                    spec.name,
                    spec.rails,
                    tm.name()
                );
            }
            let peers = adapters[0].peers().to_vec();
            // Wire-level batching is opt-in per spec, and only on stacks
            // whose drivers speak the multi-envelope frame format.
            assert!(
                spec.batch_packets <= 1 || rails[0].pmm().supports_batching(),
                "channel {:?} requests batching but protocol {:?} does not \
                 support multi-envelope frames",
                spec.name,
                spec.protocol
            );
            let sched = RailScheduler::new(spec.stripe_threshold, spec.stripe_chunk).with_batching(
                BatchPolicy {
                    max_packets: spec.batch_packets,
                    max_bytes: spec.batch_bytes,
                    flush_us: spec.batch_flush_us,
                },
            );
            let channel = Channel::multirail(
                spec.name.clone(),
                rails,
                sched,
                me,
                peers,
                env.calib().host,
                stats,
                tracer,
                idx as u64,
                config.poll,
                Arc::clone(env.arrivals()),
            );
            channels.insert(spec.name.clone(), channel);
        }
        // Initialization is collective: nobody may proceed (or tear its
        // session down) before every node has finished connecting, else a
        // fast node could unregister its segments/descriptors while a slow
        // peer is still dialing them.
        env.barrier();
        Madeleine { me, channels }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Look up a channel by name.
    ///
    /// # Panics
    /// Panics with a listing of available channels if absent (typically:
    /// this node is not on the channel's network).
    pub fn channel(&self, name: &str) -> &Arc<Channel> {
        self.channels.get(name).unwrap_or_else(|| {
            panic!(
                "no channel {name:?} on node {} (available: {:?})",
                self.me,
                self.channels.keys().collect::<Vec<_>>()
            )
        })
    }
}
