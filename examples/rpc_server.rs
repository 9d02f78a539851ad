//! An RPC service over Nexus/Madeleine II (paper §5.3.2).
//!
//! The motivating workload of the paper's introduction: a multithreaded
//! runtime whose nodes invoke services on each other by *remote service
//! request*. Node 0 is a client issuing marshaled requests; the other
//! nodes run a small compute service (dot products over dynamically-sized
//! vectors) and reply by RSR.
//!
//! Run: `cargo run -p mad-examples --example rpc_server`

use mad_nexus::{GetBuffer, Nexus, PutBuffer};
use madeleine::{Config, MadResult, Madeleine, Protocol};
use madsim_net::time;
use madsim_net::{NetKind, WorldBuilder};
use parking_lot::Mutex;
use std::sync::Arc;

const H_DOT: u32 = 1;
const H_REPLY: u32 = 2;
const H_SHUTDOWN: u32 = 3;

fn main() {
    let nodes = 4;
    let mut b = WorldBuilder::new(nodes);
    b.network("sci0", NetKind::Sci, &(0..nodes).collect::<Vec<_>>());
    let world = b.build();
    let config = Config::one("rpc", "sci0", Protocol::Sisci);

    world.run(|env| {
        let mad = Madeleine::init(&env, &config);
        let nx = Nexus::new(Arc::clone(mad.channel("rpc")));

        if env.id() == 0 {
            client(&nx, env.n_nodes());
        } else {
            server(&nx);
        }
    });
    println!("rpc_server: OK");
}

fn client(nx: &Arc<Nexus>, nodes: usize) {
    let results: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let r2 = Arc::clone(&results);
    nx.register(H_REPLY, move |_, rsr| {
        let dot = GetBuffer::new(&rsr.data)
            .get_f64()
            .expect("a reply holds one f64");
        r2.lock().push(dot);
    });

    // Issue one dot-product request per server, with different vector sizes.
    for (k, &server) in (1..nodes).collect::<Vec<_>>().iter().enumerate() {
        let n = 1_000 * (k + 1);
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..n).map(|_| 2.0).collect();
        let mut req = PutBuffer::new();
        req.put_u32(n as u32);
        for v in xs.iter().chain(ys.iter()) {
            req.put_f64(*v);
        }
        nx.send_rsr(server, H_DOT, req.as_slice());
    }

    // Collect all replies.
    for _ in 1..nodes {
        nx.handle_one();
    }
    let results = results.lock();
    println!(
        "[client] {} replies in; virtual time {}",
        results.len(),
        time::now()
    );
    // dot(xs, ys) = 2 * sum(0..n) = n*(n-1)
    for r in results.iter() {
        let n = ((1.0 + (1.0 + 4.0 * r).sqrt()) / 2.0).round();
        assert!((r - n * (n - 1.0)).abs() < 1e-6, "bad dot product {r}");
    }

    // Shut the servers down.
    for server in 1..nodes {
        nx.send_rsr(server, H_SHUTDOWN, &[]);
    }
}

fn server(nx: &Arc<Nexus>) {
    nx.register(H_DOT, |nx, rsr| {
        let dot = match dot_product(&rsr.data) {
            Ok(dot) => dot,
            // A malformed request is the sender's bug: drop it, say so.
            Err(e) => return eprintln!("[server] request from node {}: {e}", rsr.src),
        };
        let mut reply = PutBuffer::new();
        reply.put_f64(dot);
        nx.send_rsr(rsr.src, H_REPLY, reply.as_slice());
    });
    nx.register(H_SHUTDOWN, |_, _| {});

    // Serve until the shutdown RSR.
    loop {
        if nx.handle_one() == H_SHUTDOWN {
            break;
        }
    }
}

/// Decode a dot-product request (`n`, then `n` xs and `n` ys) and
/// evaluate it.
fn dot_product(request: &[u8]) -> MadResult<f64> {
    let mut g = GetBuffer::new(request);
    let n = g.get_u32()? as usize;
    let xs = (0..n)
        .map(|_| g.get_f64())
        .collect::<MadResult<Vec<f64>>>()?;
    let ys = (0..n)
        .map(|_| g.get_f64())
        .collect::<MadResult<Vec<f64>>>()?;
    Ok(xs.iter().zip(&ys).map(|(a, b)| a * b).sum())
}
