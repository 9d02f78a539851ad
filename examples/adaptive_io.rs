//! The paper's future-work adaptive polling/interruption (the Marcel
//! integration) in action: the one-way latency of a message that arrives
//! while the receiver is blocked, under the three network-interaction
//! policies.
//!
//! Run: `cargo run -p mad-examples --example adaptive_io`

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
