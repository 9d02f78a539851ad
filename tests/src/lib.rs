//! Cross-crate integration tests live as cargo tests of this package; this
//! lib is their seeded case generator.
//!
//! A property is a function of a [`Gen`], and a `Gen` is a function of
//! `(seed, size)`: `seed` drives a splitmix64 stream, `size` caps every
//! length drawn from it. [`check`] runs a property over seeds `0..cases`
//! with nothing capped (`size` = `usize::MAX`), catches a panicking case,
//! halves `size` until the case passes, and panics naming the smallest
//! failing `(property, seed, size)`. Adding that
//! pair to the property's regression list replays it first on every later
//! run — the repo's `FaultPlan` discipline: a failing seed replays.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The source of one case.
pub struct Gen {
    state: u64,
    size: usize,
}

impl Gen {
    pub fn new(seed: u64, size: usize) -> Self {
        Gen { state: seed, size }
    }

    /// Next splitmix64 output.
    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    pub fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.u64() % from.len() as u64) as usize]
    }

    /// A length in `range`, at most `size` above the range's start. One
    /// draw in eight lands on an end of the range. `size` caps the value
    /// after it is drawn, so a shrunk case is the same case with its long
    /// parts cut short (until a shorter count draws fewer values).
    pub fn len(&mut self, range: Range<usize>) -> usize {
        let span = (range.end - range.start) as u64;
        let v = match self.u64() % 16 {
            0 => 0,
            1 => span - 1,
            _ => self.u64() % span,
        };
        range.start + (v as usize).min(self.size)
    }

    /// `len(count)` bytes, from a stream of their own.
    pub fn bytes(&mut self, count: Range<usize>) -> Vec<u8> {
        let mut content = Gen::new(self.u64(), 0);
        (0..self.len(count)).map(|_| content.u64() as u8).collect()
    }
}

/// The smallest failing case [`find_failure`] reached, with its panic message.
#[derive(Debug, PartialEq)]
pub struct Failure {
    pub seed: u64,
    pub size: usize,
    pub message: String,
}

fn run_case(case: &impl Fn(&mut Gen), seed: u64, size: usize) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| case(&mut Gen::new(seed, size)))).map_err(|payload| {
        let text = payload.downcast_ref::<String>().map(String::as_str);
        text.or(payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload")
            .to_string()
    })
}

/// Run `case` on every `regressions` pair, then on seeds `0..cases` with
/// lengths uncapped. The first case that panics is shrunk — `size` halved
/// until the case passes — and the smallest failing one returned.
pub fn find_failure(
    cases: u64,
    regressions: &[(u64, usize)],
    case: impl Fn(&mut Gen),
) -> Option<Failure> {
    let fresh = (0..cases).map(|seed| (seed, usize::MAX));
    for (seed, mut size) in regressions.iter().copied().chain(fresh) {
        let Err(mut message) = run_case(&case, seed, size) else {
            continue;
        };
        while size > 0 {
            match run_case(&case, seed, size / 2) {
                Err(smaller) => (size, message) = (size / 2, smaller),
                Ok(()) => break,
            }
        }
        return Some(Failure {
            seed,
            size,
            message,
        });
    }
    None
}

/// [`find_failure`], panicking with the failure it finds.
pub fn check(property: &str, cases: u64, regressions: &[(u64, usize)], case: impl Fn(&mut Gen)) {
    if let Some(f) = find_failure(cases, regressions, case) {
        let (seed, size) = (f.seed, f.size);
        panic!(
            "property {property} fails at (seed {seed}, size {size}): {}\n\
             replay and pin it: add ({seed}, {size}) to {property}'s regression list",
            f.message
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madeleine::{Config, Madeleine, Protocol, RecvMode, SendMode};
    use madsim_net::{NetKind, WorldBuilder};

    #[test]
    fn the_same_seed_and_size_give_the_same_case() {
        let draw = |seed, size| {
            let mut g = Gen::new(seed, size);
            (
                g.bytes(0..300),
                g.len(5..90),
                g.bool(),
                g.pick(&[1, 2, 3]),
                g.u64(),
            )
        };
        assert_eq!(draw(7, 100), draw(7, 100));
        assert_ne!(draw(7, 100), draw(8, 100));
        // A smaller size cuts lengths short and leaves the rest of the case alone.
        let (big, small) = (draw(7, 1000), draw(7, 10));
        assert_eq!(small.0[..], big.0[..small.0.len()]);
        assert!(small.0.len() <= 10 && small.1 <= 15);
        assert_eq!((small.2, small.3), (big.2, big.3));
    }

    /// Fails iff it draws a length of 37 or more.
    fn planted(g: &mut Gen) {
        let len = g.len(0..1000);
        assert!(len < 37, "planted: len {len}");
    }

    #[test]
    fn a_planted_failure_shrinks_to_within_one_halving_and_replays() {
        let f = find_failure(64, &[], planted).expect("planted failure found");
        assert!((37..74).contains(&f.size), "shrunk to size {}", f.size);
        assert!(f.message.starts_with("planted: len "), "{}", f.message);
        // The reported pair alone, as a regression list would hold it, fails the same way.
        assert_eq!(find_failure(0, &[(f.seed, 36)], planted), None);
        assert_eq!(find_failure(0, &[(f.seed, f.size)], planted), Some(f));
    }

    #[test]
    #[should_panic(expected = "property planted fails at (seed 0, size 63): planted: len 63")]
    fn a_failure_names_property_seed_and_size() {
        check("planted", 64, &[], planted);
    }

    /// A failing *world* returns instead of hanging: the receiver panics on
    /// byte 0 while the sender sits in the barrier, `World::run` re-raises
    /// the receiver's payload, and the case shrinks to a one-byte message.
    #[test]
    fn a_planted_world_failure_is_caught_and_shrunk() {
        let case = |g: &mut Gen| {
            let data = vec![0xA5u8; g.len(0..4096)];
            let mut b = WorldBuilder::new(2);
            b.network("eth0", NetKind::Ethernet, &[0, 1]);
            let config = Config::one("ch", "eth0", Protocol::Tcp);
            b.build().run(|env| {
                let mad = Madeleine::init(&env, &config);
                let ch = mad.channel("ch");
                if env.id() == 0 {
                    let mut msg = ch.begin_packing(1);
                    msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_packing();
                } else {
                    let mut got = vec![0u8; data.len()];
                    let mut msg = ch.begin_unpacking();
                    msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_unpacking();
                    assert_ne!(got.first(), Some(&0xA5), "planted: byte 0 arrived");
                }
                env.barrier();
            });
        };
        let f = find_failure(8, &[], case).expect("failure found");
        assert_eq!(f.size, 1);
        assert!(
            f.message.contains("planted: byte 0 arrived"),
            "{}",
            f.message
        );
    }
}
