//! The Madeleine II error taxonomy.
//!
//! The original library (like the paper's hardware) assumes perfectly
//! reliable interconnects, so every unexpected condition was a `panic!`.
//! On a fault-armed fabric (see `madsim_net::FaultPlan`) links really do
//! drop frames, peers really do crash, and those conditions must surface
//! to the caller as values. [`MadError`] is that surface: the `try_`
//! variants of the channel/TM API return [`MadResult`], and the original
//! panicking entry points remain as thin shims over them — so the
//! zero-fault fast path pays nothing for the machinery.
//!
//! A link-level failure (`madsim_net::LinkError`) becomes a [`MadError`] in
//! one place, [`MadError::from_link`], the same way on all five protocols.

use crate::stats::Stats;
use crate::trace::{TraceEvent, Tracer};
use madsim_net::{LinkError, NodeId};

/// Everything that can go wrong on a Madeleine data path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MadError {
    /// The peer is known dead: crashed, partitioned away, or cut off on
    /// the rail the operation used.
    PeerUnreachable {
        /// The unreachable node.
        peer: NodeId,
    },
    /// The channel (or virtual-channel route) can no longer deliver —
    /// retransmission was exhausted, a live peer stayed silent for a whole
    /// bounded wait (credit, rendezvous, data, flag), or every route of a
    /// virtual channel is down.
    ChannelDown,
    /// Incoming bytes violate a wire protocol (bad magic, corrupt
    /// envelope, malformed header). The stream cannot be resynchronized.
    CorruptStream(String),
    /// A virtual channel has no route configured that could reach the
    /// destination.
    NoRoute,
}

/// Result alias used by all fallible Madeleine APIs.
pub type MadResult<T> = Result<T, MadError>;

impl MadError {
    /// The one lift of a link error on the link to `peer` into the
    /// taxonomy, as a `map_err` adapter: `PeerDead` is
    /// [`PeerUnreachable`](MadError::PeerUnreachable), `Timeout` is
    /// [`ChannelDown`](MadError::ChannelDown) — counted as a link timeout
    /// and traced, here and nowhere else.
    pub(crate) fn from_link<'a>(
        peer: NodeId,
        stats: &'a Stats,
        tracer: &'a Tracer,
    ) -> impl Fn(LinkError) -> MadError + 'a {
        move |e| match e {
            LinkError::PeerDead => MadError::PeerUnreachable { peer },
            LinkError::Timeout => {
                stats.record_link_timeout();
                tracer.record(TraceEvent::CreditTimeout { peer });
                MadError::ChannelDown
            }
        }
    }

    /// Convenience constructor for [`MadError::CorruptStream`].
    pub fn corrupt(what: impl Into<String>) -> Self {
        MadError::CorruptStream(what.into())
    }
}

impl std::fmt::Display for MadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MadError::PeerUnreachable { peer } => write!(f, "peer node {peer} is unreachable"),
            MadError::ChannelDown => write!(f, "channel is down"),
            MadError::CorruptStream(what) => write!(f, "corrupt stream: {what}"),
            MadError::NoRoute => write!(f, "no route to destination"),
        }
    }
}

impl std::error::Error for MadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_link_maps_both_variants() {
        let (stats, tracer) = (Stats::new(), Tracer::new());
        let lift = MadError::from_link(3, &stats, &tracer);
        assert_eq!(
            lift(LinkError::PeerDead),
            MadError::PeerUnreachable { peer: 3 }
        );
        assert_eq!(stats.link_timeouts(), 0, "a dead peer is not a timeout");
        assert_eq!(lift(LinkError::Timeout), MadError::ChannelDown);
        assert_eq!(stats.link_timeouts(), 1);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            MadError::corrupt("bad magic 0xdead").to_string(),
            "corrupt stream: bad magic 0xdead"
        );
        assert_eq!(
            MadError::PeerUnreachable { peer: 7 }.to_string(),
            "peer node 7 is unreachable"
        );
    }
}
