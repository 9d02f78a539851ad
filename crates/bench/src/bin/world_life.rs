//! World life: the wall time of a short world, phase by phase.
//!
//! Madeleine II opens a session collectively (paper §5.2.1), and
//! `paper_curves` pays that once per point: a fresh 2-node world, a
//! session, one small message, teardown. This bin runs that life over and
//! over for each protocol — worlds interleaved across protocols, so drift
//! of the box reaches them all alike — and splits every life at instants
//! every thread has passed:
//!
//! | phase | from | to |
//! |---|---|---|
//! | `build` | `WorldBuilder::new` | `build` returned |
//! | `dispatch` | `World::run` called | the last node's closure started |
//! | `init` | | the last node's `Madeleine::init` returned |
//! | `first_message` | | the 4 B message unpacked (and the sender done) |
//! | `session_drop` | | the last node's session dropped |
//! | `join` | | `World::run` returned |
//! | `world_drop` | | the world dropped |
//!
//! The phases of one life add up to it; the file holds each phase's
//! median, and the median life.
//!
//! Gate (counted, not timed): the two set-up waits whose peers are
//! dispatched with them — the world barrier `Madeleine::init` ends with,
//! and SISCI's segment connect — poll the eventcount's evidence grant
//! before they park, so a world's set-up parks on neither. Asserted:
//! at most [`SETUP_PARKS_GATE`] parks per world on each, for every
//! protocol. With a zero grant the barrier's early node parks every time.
//!
//! `--before PATH` copies the `protocols` rows of an earlier run of this
//! bin (the committed file, or a run on a parent commit) into `before`,
//! so one file shows a change's phases next to its parent's.
//!
//! Writes `BENCH_world.json`. Usage: `world_life [--out PATH] [--before PATH]`

#![forbid(unsafe_code)]

use bench::json::{self, ToJson};
use bench::{arg_value, json_struct, net_for, write_json};
use madeleine::{Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::stacks::sisci::Sisci;
use madsim_net::WorldBuilder;
use std::time::Instant;

const PROTOCOLS: [Protocol; 5] = [
    Protocol::Sisci,
    Protocol::Bip,
    Protocol::Tcp,
    Protocol::Via,
    Protocol::Sbp,
];
/// Lives per protocol measured, after [`WARM`] discarded ones.
const WORLDS: usize = 2000;
const WARM: usize = 50;
const PAYLOAD: [u8; 4] = *b"mad2";
/// Set-up parks per world allowed on the barrier and on the connect.
const SETUP_PARKS_GATE: f64 = 0.25;
/// What a row holds, in file order: the median life, each phase's median
/// (µs), and the set-up waits' parks per world.
const KEYS: [&str; 10] = [
    "life_us",
    "build_us",
    "dispatch_us",
    "init_us",
    "first_message_us",
    "session_drop_us",
    "join_us",
    "world_drop_us",
    "barrier_parks_per_world",
    "connect_parks_per_world",
];
/// Where the two park counts sit in a row.
const BARRIER_PARKS: usize = 8;
const CONNECT_PARKS: usize = 9;

/// One node's instants, and what the receiver saw of the set-up waits.
struct NodeLife {
    start: Instant,
    inited: Instant,
    messaged: Instant,
    dropped: Instant,
    /// `(barrier parks, connect parks)` of the world (receiver only).
    parks: (u64, u64),
}

/// One life: its phases in ns, in the order of [`KEYS`], and its set-up
/// parks.
struct Life {
    phases: [u64; 7],
    parks: (u64, u64),
}

fn live(protocol: Protocol) -> Life {
    let (net, kind) = net_for(protocol);
    let config = Config::one("ch", net, protocol);
    let born = Instant::now();
    let mut b = WorldBuilder::new(2);
    b.network(net, kind, &[0, 1]);
    let world = b.build();
    let built = Instant::now();
    let nodes = world.run(|env| {
        let start = Instant::now();
        let mad = Madeleine::init(&env, &config);
        let inited = Instant::now();
        let ch = mad.channel("ch");
        let mut parks = (0, 0);
        if env.id() == 0 {
            let mut msg = ch.begin_packing(1);
            msg.pack(&PAYLOAD, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
        } else {
            let mut got = [0u8; 4];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            assert_eq!(got, PAYLOAD, "{protocol:?}: payload corrupted");
            // Both nodes are past the barrier and every connect: node 0
            // sent after its own.
            let connects = match protocol {
                Protocol::Sisci => Sisci::new(&env.adapters()[0]).connect_stats().parks,
                _ => 0,
            };
            parks = (env.barrier_stats().parks, connects);
        }
        let messaged = Instant::now();
        drop(mad);
        NodeLife {
            start,
            inited,
            messaged,
            dropped: Instant::now(),
            parks,
        }
    });
    let joined = Instant::now();
    drop(world);
    let gone = Instant::now();
    let last = |at: fn(&NodeLife) -> Instant| nodes.iter().map(at).max().expect("two nodes");
    let bounds = [
        born,
        built,
        last(|n| n.start),
        last(|n| n.inited),
        last(|n| n.messaged),
        last(|n| n.dropped),
        joined,
        gone,
    ];
    let mut phases = [0u64; 7];
    for (p, w) in phases.iter_mut().zip(bounds.windows(2)) {
        *p = w[1].saturating_duration_since(w[0]).as_nanos() as u64;
    }
    Life {
        phases,
        parks: nodes[1].parks,
    }
}

fn median_us(mut ns: Vec<u64>) -> f64 {
    ns.sort_unstable();
    ns[ns.len() / 2] as f64 / 1e3
}

/// One protocol's row: its [`KEYS`] values.
struct Row {
    protocol: String,
    values: [f64; KEYS.len()],
}

impl ToJson for Row {
    fn write_json(&self, out: &mut String, depth: usize) {
        let mut fields: Vec<(&str, &dyn ToJson)> = vec![("protocol", &self.protocol)];
        fields.extend(
            KEYS.iter()
                .zip(&self.values)
                .map(|(k, v)| (*k, v as &dyn ToJson)),
        );
        json::object(out, depth, &fields);
    }
}

impl Row {
    fn of(protocol: Protocol, lives: &[Life]) -> Row {
        let per_world = |parks: u64| parks as f64 / lives.len() as f64;
        let mut values = [0.0; KEYS.len()];
        values[0] = median_us(lives.iter().map(|l| l.phases.iter().sum()).collect());
        for (i, v) in values[1..BARRIER_PARKS].iter_mut().enumerate() {
            *v = median_us(lives.iter().map(|l| l.phases[i]).collect());
        }
        values[BARRIER_PARKS] = per_world(lives.iter().map(|l| l.parks.0).sum());
        values[CONNECT_PARKS] = per_world(lives.iter().map(|l| l.parks.1).sum());
        Row {
            protocol: format!("{protocol:?}").to_lowercase(),
            values,
        }
    }
}

/// The `protocols` rows of an earlier run's file, read line by line in
/// the layout this bin writes (its `before` rows are not read).
fn rows_of(text: &str) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    for line in text.lines().map(str::trim) {
        let Some((key, value)) = line.split_once(": ") else {
            continue;
        };
        let (key, value) = (key.trim_matches('"'), value.trim_end_matches(','));
        match (key, rows.last_mut()) {
            ("before", _) => break,
            ("protocol", _) => rows.push(Row {
                protocol: value.trim_matches('"').to_owned(),
                values: [f64::NAN; KEYS.len()],
            }),
            (_, Some(row)) => {
                if let Some(i) = KEYS.iter().position(|k| *k == key) {
                    row.values[i] = value.parse().unwrap_or(f64::NAN);
                }
            }
            (_, None) => {}
        }
    }
    rows
}

json_struct! {
    struct Output {
        worlds_per_protocol: usize,
        protocols: Vec<Row>,
        /// An earlier run's rows (`--before`), for comparison.
        before: Vec<Row>,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_world.json".into());
    let before = arg_value(&args, "--before").map_or_else(Vec::new, |path| {
        rows_of(&std::fs::read_to_string(&path).expect("read the --before file"))
    });

    let mut lives: Vec<Vec<Life>> = PROTOCOLS.iter().map(|_| Vec::new()).collect();
    for round in 0..WARM + WORLDS {
        for (p, &protocol) in PROTOCOLS.iter().enumerate() {
            let life = live(protocol);
            if round >= WARM {
                lives[p].push(life);
            }
        }
    }
    let rows: Vec<Row> = PROTOCOLS
        .iter()
        .zip(&lives)
        .map(|(&p, l)| Row::of(p, l))
        .collect();

    print!("{:>8}", "protocol");
    KEYS.iter()
        .for_each(|k| print!(" {:>13}", k.trim_end_matches("_per_world")));
    println!();
    for r in &rows {
        print!("{:>8}", r.protocol);
        let (times, parks) = r.values.split_at(BARRIER_PARKS);
        times.iter().for_each(|v| print!(" {v:>13.1}"));
        parks.iter().for_each(|v| print!(" {v:>13.3}"));
        println!();
    }
    println!("(median wall us per phase over {WORLDS} lives; parks per world)");

    let out = Output {
        worlds_per_protocol: WORLDS,
        protocols: rows,
        before,
    };
    write_json(&out_path, &out);

    // Gated after writing, so a failing run leaves its numbers behind.
    for r in &out.protocols {
        for (wait, parks) in [
            ("world barrier", r.values[BARRIER_PARKS]),
            ("segment connect", r.values[CONNECT_PARKS]),
        ] {
            assert!(
                parks <= SETUP_PARKS_GATE,
                "{}: the {wait} parked {parks:.3} times per world (gate {SETUP_PARKS_GATE}): \
                 a set-up wait whose peer was dispatched with it parks instead of polling",
                r.protocol
            );
        }
    }
}
