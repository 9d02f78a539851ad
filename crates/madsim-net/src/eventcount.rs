//! The one way library code blocks: an eventcount — a version counter plus
//! a waiter count over the list of threads asleep on it. A publisher makes
//! its data visible, then calls [`notify`](EventCount::notify); a waiter
//! runs an *attempt* closure in [`wait_timeout`](EventCount::wait_timeout)
//! until it yields. The version handshake loses no wake-up (a publication
//! that lands after a failed attempt bumps the version before the waiter
//! commits to sleeping), and the waiter count keeps the sleeper list out of
//! the publisher's path unless someone is actually asleep.
//!
//! Every wait is **poll, then park**, and the poll budget is the caller's:
//! where the next publication is due within a few re-checks, a park puts a
//! futex round-trip (paid by both sides) on the per-item path; a waiter
//! with evidence that its publisher is running passes [`EVIDENCE_POLLS`],
//! a waiter with no such evidence passes 0 and parks at once, and one that
//! must never park (a spinning receiver, a packed striped block) passes
//! `u32::MAX`.
//! The poll phase yields the CPU every [`YIELD_EVERY`]th probe, and a park
//! once before it sleeps, so with more runnable threads than cores the
//! publisher gets to run; each yielding probe also looks for a world
//! abort, so an unbounded poll ends with its world.
//!
//! A park is the thread's own (`std::thread::park`): a world abort unparks
//! every thread of its run, whatever count each sleeps on. Each node has
//! one count every arrival at it notifies
//! ([`crate::world::NodeEnv::arrivals`]); the other counts belong to
//! waits no arrival announces (segment registry, SBP pool, barrier, ...).
//!
//! Linted by `scripts/verify.sh` as a lock-free hot-path module: no
//! `parking_lot`; the sleeper list is `std::sync` only.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// One probe in this many gives up the CPU instead of pausing.
const YIELD_EVERY: u64 = 8;

/// The evidence grant: probes a wait may make when it has evidence that
/// its publisher is running and about to publish — a peer streaming the
/// rest of a transfer, or a set-up wait on peers dispatched at the same
/// instant as the waiter (the world barrier, a SISCI segment connect).
/// About one park + wake-up long, so a wait that does end up parking has
/// spent at most what the park would have cost both sides.
pub const EVIDENCE_POLLS: u32 = 400;

/// Recover a poisoned guard: nothing guarded this way is left mid-mutation.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Default)]
pub struct EventCount {
    /// Bumped by every `notify`; sleepers re-run their attempt when it moves.
    version: AtomicU64,
    /// How many waiters are (about to be) asleep.
    waiters: AtomicUsize,
    /// The threads asleep on this count.
    sleepers: Mutex<Vec<Thread>>,
    /// Statistics, see [`WaitStats`].
    waits: AtomicU64,
    polls: AtomicU64,
    parks: AtomicU64,
}

/// What the waits on one [`EventCount`] cost so far.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitStats {
    /// Rounds that had to wait: a failed attempt, then up to `budget`
    /// re-probes. A wait woken without finding its condition starts another.
    pub waits: u64,
    /// Re-probes made in those rounds.
    pub polls: u64,
    /// Rounds that exhausted their budget and went to sleep.
    pub parks: u64,
}

impl EventCount {
    /// Announce a publication. Call *after* the data an attempt looks for
    /// is visible. Touches the sleeper list only if a waiter is asleep.
    pub fn notify(&self) {
        self.version.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            // Every sleeper: they wait on *different* conditions, so waking
            // only one could wake the wrong one and lose the wake-up.
            lock_unpoisoned(&self.sleepers)
                .iter()
                .for_each(Thread::unpark);
        }
    }

    /// Run `attempt` until it yields: re-probe up to `budget` times
    /// (`u32::MAX`: without end), park until the next `notify`, start over.
    /// A real-time `timeout` (looked at only while parked) ends the wait
    /// with one final attempt — a publication may have raced it; without
    /// one the result is `Some`.
    pub fn wait_timeout<R>(
        &self,
        budget: u32,
        timeout: Option<Duration>,
        mut attempt: impl FnMut() -> Option<R>,
    ) -> Option<R> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut polled = 0u64;
        loop {
            let seen = self.version.load(Ordering::SeqCst);
            let got = attempt();
            if got.is_none() && (polled < u64::from(budget) || budget == u32::MAX) {
                polled += 1;
                if polled % YIELD_EVERY == 0 {
                    crate::time::check_abort();
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                continue;
            }
            if got.is_none() || polled > 0 {
                // A round that had to wait ends here; counted before any
                // park, so the statistics can be read while a waiter sleeps.
                self.waits.fetch_add(1, Ordering::Relaxed);
                self.polls.fetch_add(polled, Ordering::Relaxed);
                polled = 0;
            }
            if got.is_some() {
                return got;
            }
            self.parks.fetch_add(1, Ordering::Relaxed);
            if !self.park(seen, deadline) {
                return attempt();
            }
        }
    }

    /// Give the CPU away once (a publication landing meanwhile saves both
    /// sides the futex round-trip), then sleep until the version moves past
    /// `seen` (`true`) or `deadline` passes. A world abort, raised before
    /// or during the sleep, ends it with the abort's panic.
    fn park(&self, seen: u64, deadline: Option<Instant>) -> bool {
        std::thread::yield_now();
        let me = std::thread::current();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        lock_unpoisoned(&self.sleepers).push(me.clone());
        // An unpark that lands before `park` is kept for it, so a notify
        // between the version check and the sleep is not lost.
        while self.version.load(Ordering::SeqCst) == seen && crate::time::aborted_by().is_none() {
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => std::thread::park(),
                Some(Duration::ZERO) => break,
                Some(t) => std::thread::park_timeout(t),
            }
        }
        lock_unpoisoned(&self.sleepers).retain(|t| t.id() != me.id());
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        crate::time::check_abort();
        self.version.load(Ordering::SeqCst) != seen
    }

    pub fn stats(&self) -> WaitStats {
        WaitStats {
            waits: self.waits.load(Ordering::Relaxed),
            polls: self.polls.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// Attempts a never-true wait makes before its (only) park: the first
    /// one plus exactly `budget` re-probes. Counted, not timed — the park
    /// is ended by a timeout of zero, which is only looked at once the
    /// waiter is parking, and is followed by the final attempt.
    #[test]
    fn a_wait_parks_after_exactly_its_budget_of_probes() {
        for budget in [0u32, 1, 7, 8, 64, 400] {
            let ec = EventCount::default();
            let mut attempts = 0u64;
            let got: Option<()> = ec.wait_timeout(budget, Some(Duration::ZERO), || {
                attempts += 1;
                None
            });
            assert_eq!(got, None);
            assert_eq!(attempts, 1 + budget as u64 + 1, "budget {budget}");
            let s = ec.stats();
            assert_eq!((s.waits, s.polls, s.parks), (1, budget as u64, 1));
        }
    }

    /// A wait that never parks still ends with its world: node 1 panics,
    /// and node 0's `u32::MAX`-budget poll gives up with the abort's panic
    /// at its next yielding probe, so `run` re-raises node 1's payload
    /// promptly.
    #[test]
    fn an_unbounded_poll_ends_with_its_world() {
        let w = crate::WorldBuilder::new(2).build();
        let started = Instant::now();
        let run = std::panic::AssertUnwindSafe(|| {
            w.run(|env| {
                if env.id() == 1 {
                    thread::sleep(Duration::from_millis(20));
                    panic!("node 1 dies");
                }
                let ec = EventCount::default();
                ec.wait_timeout(u32::MAX, None, || None::<()>)
            })
        });
        let payload = std::panic::catch_unwind(run).expect_err("the run re-raises the panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"node 1 dies"));
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn a_wait_satisfied_at_once_counts_nothing() {
        let ec = EventCount::default();
        assert_eq!(ec.wait_timeout(400, None, || Some(7)), Some(7));
        let s = ec.stats();
        assert_eq!((s.waits, s.polls, s.parks), (0, 0, 0));
    }

    /// With nobody asleep `notify` must not touch the sleeper list: its
    /// lock is held here, so a `notify` that took it would never report back.
    #[test]
    fn notify_with_no_waiter_leaves_the_sleepers_alone() {
        let ec = EventCount::default();
        let held = lock_unpoisoned(&ec.sleepers);
        let (tx, rx) = mpsc::channel();
        thread::scope(|s| {
            s.spawn(|| {
                ec.notify();
                tx.send(()).expect("test thread listens");
            });
            rx.recv_timeout(Duration::from_secs(10))
                .expect("notify took the sleep lock with no waiter");
        });
        drop(held);
        assert_eq!(ec.version.load(Ordering::SeqCst), 1);
    }

    /// Two producers each publish `PER` tokens and notify; one consumer
    /// takes them one wait at a time, alternating between parking at once
    /// and polling first. A lost wake-up leaves the consumer asleep with
    /// tokens outstanding; the watchdog then feeds it to the end (so the
    /// scope can join) and fails the test.
    #[test]
    fn two_producers_one_consumer_lose_no_wakeup() {
        const PER: u64 = 20_000;
        for seed in [0x9E37_79B9u64, 0xDEAD_BEEF, 0x1234_5678] {
            let ec = EventCount::default();
            let tokens = AtomicU64::new(0);
            let done = AtomicBool::new(false);
            let mut stuck = false;
            thread::scope(|s| {
                for p in 0..2u64 {
                    let (ec, tokens) = (&ec, &tokens);
                    let mut rng = seed ^ (p.wrapping_mul(0x85EB_CA6B) | 1);
                    s.spawn(move || {
                        for _ in 0..PER {
                            tokens.fetch_add(1, Ordering::SeqCst);
                            ec.notify();
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            if rng % 5 == 0 {
                                thread::yield_now();
                            }
                        }
                    });
                }
                s.spawn(|| {
                    for i in 0..2 * PER {
                        let budget = if i % 2 == 0 { 0 } else { 16 };
                        ec.wait_timeout(budget, None, || {
                            let n = tokens.load(Ordering::SeqCst);
                            (n > 0).then(|| tokens.fetch_sub(1, Ordering::SeqCst))
                        });
                    }
                    done.store(true, Ordering::SeqCst);
                });
                let started = Instant::now();
                while !done.load(Ordering::SeqCst) {
                    if started.elapsed() > Duration::from_secs(60) {
                        stuck = true;
                        tokens.fetch_add(2 * PER, Ordering::SeqCst);
                        ec.notify();
                    }
                    thread::sleep(Duration::from_millis(1));
                }
            });
            assert!(!stuck, "a wake-up was lost under seed {seed:#x}");
            assert_eq!(tokens.load(Ordering::SeqCst), 0);
        }
    }
}
