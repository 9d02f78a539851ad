//! Nexus/Madeleine RSR integration tests (§5.3.2).

use mad_nexus::{GetBuffer, Nexus, PutBuffer};
use madeleine::{Config, Madeleine, Protocol};
use madsim_net::{NetKind, WorldBuilder};
use parking_lot::Mutex;
use std::sync::Arc;

fn nexus_world(protocol: Protocol) -> (madsim_net::World, Config) {
    let mut b = WorldBuilder::new(2);
    let (net, kind) = match protocol {
        Protocol::Tcp => ("eth0", NetKind::Ethernet),
        _ => ("sci0", NetKind::Sci),
    };
    b.network(net, kind, &[0, 1]);
    (b.build(), Config::one("nx", net, protocol))
}

#[test]
fn rsr_dispatches_registered_handler() {
    for protocol in [Protocol::Sisci, Protocol::Tcp] {
        let (world, config) = nexus_world(protocol);
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let nx = Nexus::new(Arc::clone(mad.channel("nx")));
            if env.id() == 0 {
                nx.send_rsr(1, 42, b"do the thing");
            } else {
                let got: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
                let got2 = Arc::clone(&got);
                nx.register(42, move |_, rsr| {
                    got2.lock().extend_from_slice(&rsr.data);
                });
                let ran = nx.handle_one();
                assert_eq!(ran, 42);
                assert_eq!(&*got.lock(), b"do the thing");
            }
        });
    }
}

#[test]
fn handler_can_reply_with_rsr() {
    let (world, config) = nexus_world(Protocol::Sisci);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let nx = Nexus::new(Arc::clone(mad.channel("nx")));
        const PING: u32 = 1;
        const PONG: u32 = 2;
        if env.id() == 0 {
            let done = Arc::new(Mutex::new(false));
            let d2 = Arc::clone(&done);
            nx.register(PONG, move |_, rsr| {
                assert_eq!(&rsr.data[..], b"pong");
                *d2.lock() = true;
            });
            nx.send_rsr(1, PING, b"ping");
            nx.handle_one();
            assert!(*done.lock());
        } else {
            nx.register(PING, |nx, rsr| {
                assert_eq!(&rsr.data[..], b"ping");
                nx.send_rsr(rsr.src, PONG, b"pong");
            });
            nx.handle_one();
        }
    });
}

#[test]
fn marshaled_rpc_with_dynamic_array() {
    // The paper's motivating RPC shape (§2.2): a header the runtime reads,
    // then an array whose size the receiver learns from the buffer.
    let (world, config) = nexus_world(Protocol::Sisci);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let nx = Nexus::new(Arc::clone(mad.channel("nx")));
        if env.id() == 0 {
            let array: Vec<u8> = (0..10_000u32).map(|i| (i % 250) as u8).collect();
            let mut buf = PutBuffer::new();
            buf.put_str("vector_scale").put_f64(2.5).put_bytes(&array);
            nx.send_rsr(1, 7, buf.as_slice());
        } else {
            nx.register(7, |_, rsr| {
                let mut g = GetBuffer::new(&rsr.data);
                assert_eq!(g.get_str().unwrap(), "vector_scale");
                assert_eq!(g.get_f64().unwrap(), 2.5);
                let arr = g.get_bytes().unwrap();
                assert_eq!(arr.len(), 10_000);
                assert_eq!(arr[9_999], (9_999u32 % 250) as u8);
            });
            nx.handle_one();
        }
    });
}

#[test]
fn nexus_over_sci_is_much_faster_than_over_tcp() {
    let lat = |protocol: Protocol| -> f64 {
        let (world, config) = nexus_world(protocol);
        let out = world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let nx = Nexus::new(Arc::clone(mad.channel("nx")));
            if env.id() == 0 {
                nx.send_rsr(1, 1, &[0u8; 4]);
                0.0
            } else {
                nx.register(1, |_, _| {});
                nx.handle_one();
                madsim_net::time::now().as_micros_f64()
            }
        });
        out[1]
    };
    let sci = lat(Protocol::Sisci);
    let tcp = lat(Protocol::Tcp);
    // Fig. 7: Nexus/Mad/SISCI one-way latency below 25 us; TCP far behind.
    assert!(sci < 25.0, "Nexus/SISCI latency {sci:.1} us >= 25");
    assert!(
        sci > 10.0,
        "Nexus overhead should dominate raw Madeleine ({sci:.1})"
    );
    assert!(
        tcp > 100.0,
        "Nexus/TCP latency {tcp:.1} us suspiciously low"
    );
}

#[test]
fn serve_handles_a_burst() {
    let (world, config) = nexus_world(Protocol::Sisci);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let nx = Nexus::new(Arc::clone(mad.channel("nx")));
        if env.id() == 0 {
            for i in 0..20u32 {
                nx.send_rsr(1, 3, &i.to_le_bytes());
            }
        } else {
            let count = Arc::new(Mutex::new(0u32));
            let c2 = Arc::clone(&count);
            nx.register(3, move |_, rsr| {
                let mut c = c2.lock();
                let i = u32::from_le_bytes(rsr.data[..4].try_into().unwrap());
                assert_eq!(i, *c, "in-order dispatch");
                *c += 1;
            });
            nx.serve(20);
            assert_eq!(*count.lock(), 20);
        }
    });
}

#[test]
#[should_panic(expected = "no handler registered")]
fn unregistered_handler_panics() {
    let (world, config) = nexus_world(Protocol::Sisci);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let nx = Nexus::new(Arc::clone(mad.channel("nx")));
        if env.id() == 0 {
            nx.send_rsr(1, 99, b"?");
        } else {
            nx.handle_one();
        }
    });
}

#[test]
fn startpoints_are_shippable_references() {
    let (world, config) = nexus_world(Protocol::Sisci);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let nx = Nexus::new(Arc::clone(mad.channel("nx")));
        if env.id() == 0 {
            let sp = nx.startpoint(1, 8);
            let sp2 = sp.clone();
            sp.rsr(b"one");
            sp2.rsr(b"two");
        } else {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let s2 = Arc::clone(&seen);
            nx.register(8, move |_, rsr| s2.lock().push(rsr.data.to_vec()));
            nx.serve(2);
            assert_eq!(&*seen.lock(), &[b"one".to_vec(), b"two".to_vec()]);
        }
    });
}

#[test]
fn dispatcher_serves_in_background_until_stopped() {
    let (world, config) = nexus_world(Protocol::Sisci);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let nx = Nexus::new(Arc::clone(mad.channel("nx")));
        if env.id() == 1 {
            let count = Arc::new(Mutex::new(0u32));
            let c2 = Arc::clone(&count);
            nx.register(4, move |_, _| *c2.lock() += 1);
            let dispatcher = nx.spawn_dispatcher(&env);
            env.barrier(); // announce: serving
            let served = dispatcher.join();
            assert_eq!(served, 7);
            assert_eq!(*count.lock(), 7);
        } else {
            env.barrier();
            let sp = nx.startpoint(1, 4);
            for _ in 0..7 {
                sp.rsr(b"work");
            }
            nx.stop_dispatcher_of(1);
        }
    });
}
