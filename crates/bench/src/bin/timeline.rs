//! Virtual-time timeline of a message's trip through the stack.
//!
//! Runs a two-node scenario with tracing enabled and prints each node's
//! Switch/commit/checkout events with virtual timestamps — the paper's
//! Fig. 3 walk-through ("A Message Transmission Step-by-Step"), observed
//! live.
//!
//! Usage: `cargo run -p bench --bin timeline [-- <protocol>]`
//! where `<protocol>` is one of sisci|bip|tcp|via|sbp (default sisci).

#![forbid(unsafe_code)]

use madeleine::trace::TraceEvent;
use madeleine::{Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::{NetKind, WorldBuilder};

fn main() {
    let proto = std::env::args().nth(1).unwrap_or_else(|| "sisci".into());
    let (protocol, net, kind) = match proto.as_str() {
        "bip" => (Protocol::Bip, "myr0", NetKind::Myrinet),
        "tcp" => (Protocol::Tcp, "eth0", NetKind::Ethernet),
        "via" => (Protocol::Via, "san0", NetKind::ViaSan),
        "sbp" => (Protocol::Sbp, "eth0", NetKind::Ethernet),
        _ => (Protocol::Sisci, "sci0", NetKind::Sci),
    };
    let mut b = WorldBuilder::new(2);
    b.network(net, kind, &[0, 1]);
    let world = b.build();
    let config = Config::one("ch", net, protocol);

    let timelines = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        ch.enable_trace();
        // The paper's RPC shape: name (express) + small arg (express) +
        // bulk array (cheaper).
        let name = b"remote_sort";
        let arg = 42u32.to_le_bytes();
        let bulk = vec![7u8; 50_000];
        if env.id() == 0 {
            let mut m = ch.begin_packing(1);
            m.pack(name, SendMode::Cheaper, RecvMode::Express);
            m.pack(&arg, SendMode::Cheaper, RecvMode::Express);
            m.pack(&bulk, SendMode::Cheaper, RecvMode::Cheaper);
            m.end_packing();
        } else {
            let mut nm = [0u8; 11];
            let mut ar = [0u8; 4];
            let mut bk = vec![0u8; 50_000];
            let mut m = ch.begin_unpacking();
            m.unpack_express(&mut nm, SendMode::Cheaper);
            m.unpack_express(&mut ar, SendMode::Cheaper);
            m.unpack(&mut bk, SendMode::Cheaper, RecvMode::Cheaper);
            m.end_unpacking();
        }
        ch.tracer().events()
    });

    for (node, events) in timelines.iter().enumerate() {
        println!("\n== node {node} ==");
        println!("{:>12}  event", "virtual time");
        for t in events {
            let desc = match &t.event {
                TraceEvent::BeginPacking { dst } => format!("begin_packing -> node {dst}"),
                TraceEvent::Pack {
                    len,
                    smode,
                    rmode,
                    tm,
                } => format!("pack {len} B  ({smode}, {rmode})  -> TM {tm}"),
                TraceEvent::CommitOnSwitch { from, to } => {
                    format!("COMMIT (TM switch {from} -> {to})")
                }
                TraceEvent::EndPacking => "end_packing (final commit)".into(),
                TraceEvent::BeginUnpacking { src } => {
                    format!("begin_unpacking <- node {src}")
                }
                TraceEvent::Unpack {
                    len,
                    smode,
                    rmode,
                    tm,
                } => format!("unpack {len} B  ({smode}, {rmode})  <- TM {tm}"),
                TraceEvent::CheckoutOnSwitch { from, to } => {
                    format!("CHECKOUT (TM switch {from} -> {to})")
                }
                TraceEvent::EndUnpacking => "end_unpacking (final checkout)".into(),
                TraceEvent::MessageStats {
                    copied_bytes,
                    borrowed_bytes,
                    pool_hits,
                    pool_misses,
                } => format!(
                    "message stats: {copied_bytes} B copied, {borrowed_bytes} B \
                     by reference, pool {pool_hits} hits / {pool_misses} misses"
                ),
                // Multirail, fault, nonblocking, and batching events are
                // not part of the Fig. 3 two-node walk-through.
                other => format!("{other:?}"),
            };
            println!("{:>10.2}us  {desc}", t.at.as_micros_f64());
        }
    }
}
