//! Virtual channels (paper §6): the only interface change the extension
//! needs — "instead of a single channel using a given network protocol, one
//! has to specify a virtual channel that includes a sequence of real
//! channels."
//!
//! A spec may additionally carry **alternate routes**
//! ([`VirtualChannelSpec::with_alternate`]): independent chains of real
//! channels joining the same end nodes through different gateways. They
//! cost nothing while the primary route is healthy; when a send on the
//! primary fails (gateway crashed, link partitioned), the Generic TM
//! restarts the affected block on the first live alternate and the channel
//! keeps working.

use crate::generic_tm::{GenericPmm, GenericTm, RouteState};
use crate::route::Route;
use madeleine::channel::Channel;
use madeleine::config::Config;
use madeleine::pmm::Pmm;
use madeleine::stats::Stats;
use madeleine::trace::Tracer;
use madeleine::Madeleine;
use madsim_net::world::NodeEnv;
use std::sync::Arc;

/// Default fragment size. The paper fixes the route MTU at compile time
/// ("the network configuration is statically configured"); here it is a
/// per-virtual-channel constant chosen at creation.
pub const DEFAULT_MTU: usize = 8192;

/// Declaration of a virtual channel.
#[derive(Clone, Debug)]
pub struct VirtualChannelSpec {
    pub name: String,
    /// Names of the real channels forming the chain, in order. These
    /// channels become the virtual channel's transport and must not carry
    /// direct application traffic.
    pub hops: Vec<String>,
    /// Backup chains joining the same end nodes (possibly through
    /// different gateways), tried in order when the primary fails.
    pub alternates: Vec<Vec<String>>,
    /// Route-wide fragment size (the paper's common MTU, chosen so every
    /// hop can carry a fragment without further splitting).
    pub mtu: usize,
}

impl VirtualChannelSpec {
    pub fn new(name: &str, hops: &[&str], mtu: usize) -> Self {
        assert!(
            mtu > 0 && mtu < 1 << 24,
            "MTU must be positive and fit the fragment header's 24-bit length"
        );
        VirtualChannelSpec {
            name: name.to_string(),
            hops: hops.iter().map(|h| h.to_string()).collect(),
            alternates: Vec::new(),
            mtu,
        }
    }

    /// Add a backup chain of real channels. The alternate must join the
    /// same end nodes as the primary chain; its gateways may differ.
    pub fn with_alternate(mut self, hops: &[&str]) -> Self {
        self.alternates
            .push(hops.iter().map(|h| h.to_string()).collect());
        self
    }

    /// All chains of this spec: the primary first, then the alternates.
    pub(crate) fn chains(&self) -> impl Iterator<Item = &Vec<String>> {
        std::iter::once(&self.hops).chain(self.alternates.iter())
    }
}

/// Compute the route of one chain of real channels from the session
/// configuration and world topology (usable on any node, member or not).
pub(crate) fn route_of_chain(env: &NodeEnv, config: &Config, chain: &[String]) -> Route {
    let hops = chain
        .iter()
        .map(|hop_name| {
            let cs = config
                .channels
                .iter()
                .find(|c| &c.name == hop_name)
                .unwrap_or_else(|| {
                    panic!("virtual channel hop {hop_name:?} is not a configured channel")
                });
            env.members_of(&cs.network)
                .unwrap_or_else(|| panic!("unknown network {:?} for hop {hop_name:?}", cs.network))
        })
        .collect();
    Route::new(hops)
}

/// Compute the primary route of `spec` from the session configuration and
/// world topology (usable on any node, member or not).
pub fn route_of(env: &NodeEnv, config: &Config, spec: &VirtualChannelSpec) -> Route {
    route_of_chain(env, config, &spec.hops)
}

/// A fully-usable virtual channel on an end node. Dereferences to a plain
/// [`Channel`], so the entire Madeleine interface (pack/unpack, all mode
/// flags, express headers, ...) works unchanged across clusters — the
/// paper's transparency claim.
pub struct VirtualChannel {
    chan: Arc<Channel>,
    route: Arc<Route>,
}

impl VirtualChannel {
    /// Open the virtual channel on this node. Returns `None` on nodes that
    /// are not on any hop **and on gateway nodes**: a gateway only runs
    /// forwarders (see [`crate::gateway`]) and must never originate or
    /// consume messages of its own on the channel it forwards.
    pub fn open(
        env: &NodeEnv,
        mad: &Madeleine,
        config: &Config,
        spec: &VirtualChannelSpec,
    ) -> Option<VirtualChannel> {
        let route = Arc::new(route_of(env, config, spec));
        let me = env.id();
        if route.hops_of(me).is_empty() || !route.gateway_positions(me).is_empty() {
            return None;
        }
        let mut routes = Vec::new();
        for chain in spec.chains() {
            let r = if chain == &spec.hops {
                Arc::clone(&route)
            } else {
                Arc::new(route_of_chain(env, config, chain))
            };
            // Skip alternates where this end node is absent or a gateway:
            // it could neither originate nor consume on them.
            if r.hops_of(me).len() != 1 || !r.gateway_positions(me).is_empty() {
                continue;
            }
            let hops = chain.iter().map(|h| mad.try_channel(h).cloned());
            routes.push(RouteState::new(r, hops.collect()));
        }
        let stats = Stats::new();
        let host = env.calib().host;
        let tracer = Arc::new(Tracer::new());
        let generic = Arc::new(GenericTm::new(
            routes,
            me,
            spec.mtu,
            host,
            Arc::clone(&stats),
            Arc::clone(&tracer),
            Arc::clone(env.arrivals()),
        ));
        let pmm: Arc<dyn Pmm> = Arc::new(GenericPmm::new(generic));
        let chan = Channel::with_pmm(
            spec.name.clone(),
            pmm,
            me,
            route.all_members(),
            host,
            stats,
            tracer,
            Arc::clone(env.arrivals()),
        );
        Some(VirtualChannel { chan, route })
    }

    /// The underlying channel object (also available via `Deref`).
    pub fn channel(&self) -> &Arc<Channel> {
        &self.chan
    }

    /// The primary route (alternates are internal to the Generic TM).
    pub fn route(&self) -> &Arc<Route> {
        &self.route
    }
}

impl std::ops::Deref for VirtualChannel {
    type Target = Channel;

    fn deref(&self) -> &Channel {
        &self.chan
    }
}
