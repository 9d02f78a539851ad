//! Session configuration.

use crate::polling::PollPolicy;
pub use madsim_net::calib::HostModel;

/// Which protocol stack drives a channel. A network fabric may admit more
/// than one protocol (Ethernet carries both TCP and SBP), so the choice is
/// explicit, mirroring Madeleine II's per-channel driver selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// TCP over Ethernet.
    Tcp,
    /// BIP over Myrinet.
    Bip,
    /// SISCI over SCI.
    Sisci,
    /// VIA over a SAN.
    Via,
    /// SBP (static buffers) over Ethernet.
    Sbp,
}

/// Default length above which a large CHEAPER block is striped across a
/// multirail channel's rails.
pub const DEFAULT_STRIPE_THRESHOLD: usize = 256 * 1024;
/// Default stripe chunk size (MTU-ish for the simulated gigabit-class
/// fabrics: big enough to amortize the per-chunk header and rendezvous,
/// small enough that 1 MB blocks spread over four rails).
pub const DEFAULT_STRIPE_CHUNK: usize = 128 * 1024;

/// Default packet-count cap of a send batch once batching is turned on via
/// [`ChannelSpec::with_batching`]. The default *spec* ships with
/// `batch_packets == 1`, i.e. batching off and the classic one-frame-per-
/// packet wire format.
pub const DEFAULT_BATCH_PACKETS: usize = 16;
/// Default payload-byte cap of a send batch.
pub const DEFAULT_BATCH_BYTES: usize = 4096;
/// Default flush deadline (virtual µs) after the first packet enters an
/// open batch; a progress tick past the deadline closes it.
pub const DEFAULT_BATCH_FLUSH_US: f64 = 20.0;

/// Declaration of one communication channel (paper §2.1): a closed world of
/// point-to-point connections bound to one network interface and `rails`
/// adapters of that network.
#[derive(Clone, Debug)]
pub struct ChannelSpec {
    /// Channel name, unique within a session.
    pub name: String,
    /// Name of the network (as declared to the `WorldBuilder`) whose
    /// adapters carry this channel.
    pub network: String,
    /// Protocol stack to drive.
    pub protocol: Protocol,
    /// Number of rails (adapters) the channel spans. Every member node
    /// must own at least this many adapters on the network. `1` (the
    /// default) is the classic single-adapter channel.
    pub rails: usize,
    /// Large CHEAPER blocks at least this long are striped across the
    /// rails (ignored when `rails == 1`).
    pub stripe_threshold: usize,
    /// Chunk size of the stripe engine.
    pub stripe_chunk: usize,
    /// Maximum packets coalesced into one wire frame. `1` (the default)
    /// disables batching entirely: every packet ships as its own frame,
    /// byte-identical to the pre-batching wire format.
    pub batch_packets: usize,
    /// Maximum payload bytes held in an open batch before it flushes.
    pub batch_bytes: usize,
    /// Flush deadline in virtual µs: a progress tick this long after the
    /// first packet entered the batch closes it even if under-full.
    pub batch_flush_us: f64,
}

impl ChannelSpec {
    pub fn new(name: &str, network: &str, protocol: Protocol) -> Self {
        ChannelSpec {
            name: name.to_string(),
            network: network.to_string(),
            protocol,
            rails: 1,
            stripe_threshold: DEFAULT_STRIPE_THRESHOLD,
            stripe_chunk: DEFAULT_STRIPE_CHUNK,
            batch_packets: 1,
            batch_bytes: DEFAULT_BATCH_BYTES,
            batch_flush_us: DEFAULT_BATCH_FLUSH_US,
        }
    }

    /// Span the channel over `rails` adapters of its network.
    pub fn with_rails(mut self, rails: usize) -> Self {
        assert!(rails >= 1, "a channel needs at least one rail");
        self.rails = rails;
        self
    }

    /// Override the stripe engine's threshold and chunk size.
    pub fn with_striping(mut self, threshold: usize, chunk: usize) -> Self {
        assert!(threshold > 0 && chunk > 0, "stripe sizes must be positive");
        self.stripe_threshold = threshold;
        self.stripe_chunk = chunk;
        self
    }

    /// Turn on adaptive wire-level batching: up to `packets` consecutive
    /// small packets to the same peer (at most `bytes` payload bytes total)
    /// coalesce into one multi-envelope wire frame, and a progress tick
    /// `flush_us` virtual µs after the first packet entered the batch
    /// closes it regardless. `packets == 1` keeps batching off.
    pub fn with_batching(mut self, packets: usize, bytes: usize, flush_us: f64) -> Self {
        assert!(packets >= 1, "a batch holds at least one packet");
        assert!(bytes > 0, "batch byte cap must be positive");
        assert!(flush_us > 0.0, "batch flush deadline must be positive");
        self.batch_packets = packets;
        self.batch_bytes = bytes;
        self.batch_flush_us = flush_us;
        self
    }
}

/// Full session configuration. What the session costs in virtual time —
/// the stacks, the bus and the generic layer's [`HostModel`] — is the
/// world's calibration table ([`madsim_net::WorldBuilder::calib`]), not
/// the session's.
#[derive(Clone, Debug, Default)]
pub struct Config {
    pub channels: Vec<ChannelSpec>,
    /// Enable the SISCI DMA transmission module. The paper ships it
    /// disabled: D310 DMA measured at ≤35 MB/s versus 82 MB/s for PIO
    /// (§5.2.1). Kept as a switch for the ablation benchmark.
    pub enable_sci_dma: bool,
    /// How receivers wait for incoming traffic (see
    /// [`crate::polling`]). Default: pure polling, the paper-era
    /// behaviour.
    pub poll: PollPolicy,
}

impl Config {
    /// Convenience: a single-channel configuration.
    pub fn one(name: &str, network: &str, protocol: Protocol) -> Self {
        Config {
            channels: vec![ChannelSpec::new(name, network, protocol)],
            ..Config::default()
        }
    }

    pub fn with_channel(mut self, name: &str, network: &str, protocol: Protocol) -> Self {
        self.channels
            .push(ChannelSpec::new(name, network, protocol));
        self
    }

    /// Add a fully spelled-out channel declaration (multirail channels,
    /// custom stripe sizes).
    pub fn with_channel_spec(mut self, spec: ChannelSpec) -> Self {
        self.channels.push(spec);
        self
    }

    pub fn with_sci_dma(mut self, on: bool) -> Self {
        self.enable_sci_dma = on;
        self
    }

    pub fn with_poll_policy(mut self, policy: PollPolicy) -> Self {
        self.poll = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_channels() {
        let c =
            Config::one("sci", "sci0", Protocol::Sisci).with_channel("myr", "myr0", Protocol::Bip);
        assert_eq!(c.channels.len(), 2);
        assert_eq!(c.channels[0].protocol, Protocol::Sisci);
        assert_eq!(c.channels[1].network, "myr0");
        assert!(!c.enable_sci_dma);
    }

    #[test]
    fn rail_spec_defaults_and_builders() {
        let spec = ChannelSpec::new("ch", "myr0", Protocol::Bip);
        assert_eq!(spec.rails, 1);
        assert_eq!(spec.stripe_threshold, DEFAULT_STRIPE_THRESHOLD);
        assert_eq!(spec.stripe_chunk, DEFAULT_STRIPE_CHUNK);

        let spec = spec.with_rails(3).with_striping(4096, 1024);
        assert_eq!(spec.rails, 3);
        assert_eq!(spec.stripe_threshold, 4096);
        assert_eq!(spec.stripe_chunk, 1024);
        assert_eq!(spec.batch_packets, 1, "batching defaults to off");

        let spec = spec.clone().with_batching(8, 2048, 10.0);
        assert_eq!(spec.batch_packets, 8);
        assert_eq!(spec.batch_bytes, 2048);
        assert!((spec.batch_flush_us - 10.0).abs() < 1e-9);

        let c = Config::default().with_channel_spec(spec);
        assert_eq!(c.channels.len(), 1);
        assert_eq!(c.channels[0].rails, 3);
    }

    #[test]
    fn memcpy_model_scales() {
        let h = HostModel::default();
        let small = h.memcpy(0).as_micros_f64();
        let big = h.memcpy(1000).as_micros_f64();
        assert!((small - 0.2).abs() < 1e-9);
        assert!((big - 4.4).abs() < 1e-9);
    }
}
