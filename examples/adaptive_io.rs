//! The paper's future-work features in action: adaptive
//! polling/interruption (the Marcel integration) and gateway bandwidth
//! control (the conclusion's open question).
//!
//! Part 1 measures the one-way latency of a message that arrives while the
//! receiver is blocked, under the three network-interaction policies.
//! Part 2 forwards a message across a gateway while sweeping the inbound
//! admission limit.
//!
//! Run: `cargo run -p mad-examples --example adaptive_io`

use mad_gateway::{Gateway, GatewayConfig, VirtualChannel, VirtualChannelSpec};
use madeleine::{Config, Madeleine, PollPolicy, Protocol, RecvMode, SendMode};
use madsim_net::time;
use madsim_net::{NetKind, WorldBuilder};

fn main() {
    println!("-- network interaction policies (receiver blocked, sender slow) --");
    for (name, policy) in [
        ("spin      ", PollPolicy::Spin),
        ("interrupt ", PollPolicy::interrupt()),
        ("adaptive  ", PollPolicy::adaptive()),
    ] {
        let t = latency_under(policy);
        println!("  {name} one-way latency: {t:>7.2} us");
    }

    println!("\n-- gateway inbound admission control (200 kB across clusters) --");
    for limit in [None, Some(100.0), Some(40.0), Some(10.0)] {
        let t = forward_with_limit(limit);
        let label = match limit {
            None => "unlimited".to_string(),
            Some(l) => format!("{l:>5.0} MiB/s"),
        };
        println!(
            "  inbound {label}: completion {t:>9.1} us ({:.2} MiB/s)",
            200_000.0 / t / 1.048576
        );
    }
    println!("adaptive_io: OK");
}

fn latency_under(policy: PollPolicy) -> f64 {
    let mut b = WorldBuilder::new(2);
    b.network("sci0", NetKind::Sci, &[0, 1]);
    let world = b.build();
    let config = Config::one("ch", "sci0", Protocol::Sisci).with_poll_policy(policy);
    let out = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            // Ensure the receiver blocks (and, under the interrupt
            // policies, parks) before the message leaves.
            std::thread::sleep(std::time::Duration::from_millis(30));
            let mut m = ch.begin_packing(1);
            m.pack(&[1u8; 64], SendMode::Cheaper, RecvMode::Cheaper);
            m.end_packing();
            0.0
        } else {
            let mut buf = [0u8; 64];
            let mut m = ch.begin_unpacking();
            m.unpack(&mut buf, SendMode::Cheaper, RecvMode::Cheaper);
            m.end_unpacking();
            time::now().as_micros_f64()
        }
    });
    out[1]
}

fn forward_with_limit(limit: Option<f64>) -> f64 {
    let mut b = WorldBuilder::new(3);
    b.network("myr0", NetKind::Myrinet, &[0, 1]);
    b.network("sci0", NetKind::Sci, &[1, 2]);
    let world = b.build();
    let config =
        Config::one("myr", "myr0", Protocol::Bip).with_channel("sci", "sci0", Protocol::Sisci);
    let out = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let spec = VirtualChannelSpec::new("vc", &["myr", "sci"], 16384);
        let gw = Gateway::spawn_with(
            &env,
            &mad,
            &config,
            &spec,
            GatewayConfig {
                inbound_limit_mibps: limit,
            },
        );
        let vc = VirtualChannel::open(&env, &mad, &config, &spec);
        let mut t = 0.0;
        if env.id() == 0 {
            let vc = vc.expect("endpoint");
            let data = vec![0x42u8; 200_000];
            let mut m = vc.begin_packing(2);
            m.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
            m.end_packing();
        } else if env.id() == 2 {
            let vc = vc.expect("endpoint");
            let mut buf = vec![0u8; 200_000];
            let mut m = vc.begin_unpacking();
            m.unpack(&mut buf, SendMode::Cheaper, RecvMode::Cheaper);
            m.end_unpacking();
            assert!(buf.iter().all(|&b| b == 0x42));
            t = time::now().as_micros_f64();
        }
        env.barrier();
        if let Some(gw) = gw {
            gw.stop();
        }
        t
    });
    out[2]
}
