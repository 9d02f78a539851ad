//! The set-up waits are bounded polls: a session opens collectively, so
//! the world barrier `Madeleine::init` ends with and SISCI's segment
//! connect poll the eventcount's evidence grant before they park — and
//! only that grant. A peer that is late costs the early node its grant,
//! not the peer's delay in CPU time.

use madeleine::{Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::eventcount::EVIDENCE_POLLS;
use madsim_net::stacks::sisci::Sisci;
use madsim_net::{NetKind, WorldBuilder};
use std::time::Duration;

/// How late node 1 starts its `init`.
const DELAY: Duration = Duration::from_millis(20);

/// The calling thread's CPU time so far, in ns (Linux's per-thread
/// scheduler statistics; `None` where they are not kept).
fn thread_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// Node 1 of a 2-node world on each protocol sleeps [`DELAY`] before its
/// `init`. The world completes and moves a message; node 0's `init` —
/// which waits out the delay in its connect or in the barrier — spends
/// less than half the delay on a CPU, its set-up waits parked, and none
/// polled past the grant.
#[test]
fn a_late_peer_costs_the_early_node_its_grant_not_its_delay() {
    for protocol in [
        Protocol::Sisci,
        Protocol::Bip,
        Protocol::Tcp,
        Protocol::Via,
        Protocol::Sbp,
    ] {
        let (net, kind) = match protocol {
            Protocol::Tcp | Protocol::Sbp => ("eth0", NetKind::Ethernet),
            Protocol::Bip => ("myr0", NetKind::Myrinet),
            Protocol::Sisci => ("sci0", NetKind::Sci),
            Protocol::Via => ("san0", NetKind::ViaSan),
        };
        let mut b = WorldBuilder::new(2);
        b.network(net, kind, &[0, 1]);
        let config = Config::one("ch", net, protocol);
        let out = b.build().run(|env| {
            if env.id() == 1 {
                std::thread::sleep(DELAY);
            }
            let cpu = thread_cpu_ns();
            let mad = Madeleine::init(&env, &config);
            let cpu = cpu.zip(thread_cpu_ns()).map(|(t0, t1)| t1 - t0);
            let ch = mad.channel("ch");
            let mut word = [0u8; 4];
            if env.id() == 0 {
                let mut msg = ch.begin_packing(1);
                msg.pack(b"late", SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_packing();
            } else {
                let mut msg = ch.begin_unpacking();
                msg.unpack(&mut word, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_unpacking();
            }
            env.barrier();
            let connects = (protocol == Protocol::Sisci)
                .then(|| Sisci::new(&env.adapters()[0]).connect_stats());
            (cpu, word, env.barrier_stats(), connects)
        });
        assert_eq!(&out[1].1, b"late", "{protocol:?}: the message");
        let (cpu, _, barrier, connects) = out[0];
        if let Some(cpu) = cpu {
            assert!(
                cpu < DELAY.as_nanos() as u64 / 2,
                "{protocol:?}: node 0 spent {cpu} ns on a CPU in init, waiting out a {DELAY:?} peer"
            );
        }
        let mut parks = 0;
        for stats in [Some(barrier), connects].into_iter().flatten() {
            assert!(
                stats.polls <= u64::from(EVIDENCE_POLLS) * stats.waits,
                "{protocol:?}: a set-up wait polled past its grant: {stats:?}"
            );
            parks += stats.parks;
        }
        assert!(parks >= 1, "{protocol:?}: nobody parked through the delay");
    }
}
