//! Network interaction policies: polling vs. interrupts.
//!
//! The paper's conclusion announces "the design and development of
//! advanced **adaptive polling/interruption network interaction
//! mechanisms**" for the integration with the Marcel thread library. This
//! module implements that future-work item: every channel waits for
//! incoming traffic through a configurable [`PollPolicy`], and the cost
//! model reflects the real trade-off —
//!
//! * **polling** (spinning on the NIC's status words) detects arrival with
//!   no extra latency but monopolizes a CPU;
//! * **interrupts** free the CPU but add a wakeup cost (interrupt +
//!   scheduler) to every message that arrives while the receiver sleeps —
//!   order 10 µs on the paper's hardware, several times the SCI network
//!   latency itself;
//! * **adaptive** (Marcel-style) spins briefly — long enough to catch the
//!   common fast reply — then arms the interrupt path.
//!
//! The virtual-time model: an interrupt wakeup charges its latency to the
//! receiver's clock if (and only if) the receiver had to block; a spin
//! catch is free. The interrupt fires *at message arrival*, so the charge
//! is recorded as **pending** and applied by the caller right after it has
//! synchronized with the arrival instant (see
//! [`take_pending_wakeup_charge`]). Tests can therefore assert the latency
//! difference exactly.

use madsim_net::time::{self, VDuration};
use std::cell::Cell;
use std::time::Duration;

/// How a channel waits for incoming traffic.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum PollPolicy {
    /// Busy-poll until traffic shows up. Lowest latency, one CPU burned.
    #[default]
    Spin,
    /// Sleep-and-recheck; every arrival that finds the receiver parked
    /// pays the interrupt/wakeup latency.
    Interrupt {
        /// Wakeup cost charged to the receiver (µs).
        latency_us: f64,
    },
    /// Spin for a bounded number of rounds, then fall back to the
    /// interrupt path (the Marcel adaptive scheme).
    Adaptive {
        /// Spin rounds before arming the interrupt path.
        spin_rounds: u32,
        /// Wakeup cost once parked (µs).
        interrupt_latency_us: f64,
    },
}

impl PollPolicy {
    /// A typical interrupt-driven configuration (10 µs wakeup).
    pub fn interrupt() -> Self {
        PollPolicy::Interrupt { latency_us: 10.0 }
    }

    /// A typical adaptive configuration.
    pub fn adaptive() -> Self {
        PollPolicy::Adaptive {
            spin_rounds: 64,
            interrupt_latency_us: 10.0,
        }
    }

    /// Wait until `probe` yields a value, honouring the policy's cost
    /// model. `probe` must be cheap and side-effect-free on failure.
    pub fn wait<T>(&self, mut probe: impl FnMut() -> Option<T>) -> T {
        // Arrival before we ever wait is free under every policy.
        if let Some(v) = probe() {
            return v;
        }
        match *self {
            PollPolicy::Spin => loop {
                if let Some(v) = probe() {
                    return v;
                }
                time::check_abort();
                std::thread::yield_now();
            },
            PollPolicy::Interrupt { latency_us } => {
                let v = park_until(&mut probe);
                add_pending_wakeup(latency_us);
                v
            }
            PollPolicy::Adaptive {
                spin_rounds,
                interrupt_latency_us,
            } => {
                for _ in 0..spin_rounds {
                    if let Some(v) = probe() {
                        return v; // caught while spinning: free
                    }
                    std::thread::yield_now();
                }
                let v = park_until(&mut probe);
                add_pending_wakeup(interrupt_latency_us);
                v
            }
        }
    }

    /// [`wait`](Self::wait) for probes with *idempotent side effects* —
    /// specifically a progress-engine tick, which may ship frames and
    /// retire ops on each call. The cost model is identical (a hit on the
    /// first probe is free; a parked wakeup charges the interrupt
    /// latency); the separate entry point exists because `wait` documents
    /// its probe as side-effect-free and the engine's is deliberately not.
    pub fn drive<T>(&self, probe: impl FnMut() -> Option<T>) -> T {
        self.wait(probe)
    }
}

thread_local! {
    static PENDING_WAKEUP_NS: Cell<u64> = const { Cell::new(0) };
}

fn add_pending_wakeup(latency_us: f64) {
    PENDING_WAKEUP_NS.with(|c| c.set(c.get() + (latency_us * 1_000.0).round() as u64));
}

/// Drain the wakeup latency accrued by interrupt-path waits on this
/// thread. Callers apply it with `time::advance` **after** synchronizing
/// with the message's arrival (the interrupt fires at arrival; the
/// receiver resumes one wakeup later).
pub fn take_pending_wakeup_charge() -> VDuration {
    VDuration::from_nanos(PENDING_WAKEUP_NS.with(|c| c.replace(0)))
}

/// Sleep-and-recheck loop (the "parked waiting for an interrupt" state).
fn park_until<T>(probe: &mut impl FnMut() -> Option<T>) -> T {
    let mut backoff_us = 20u64;
    loop {
        if let Some(v) = probe() {
            return v;
        }
        time::check_abort();
        std::thread::sleep(Duration::from_micros(backoff_us));
        backoff_us = (backoff_us * 2).min(500);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madsim_net::time::ClockHandle;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn with_clock<T>(f: impl FnOnce() -> T) -> (T, f64) {
        let clock = ClockHandle::new();
        let prev = time::install_clock(clock.clone());
        let out = f();
        // Apply any pending wakeup as a caller would.
        time::advance(take_pending_wakeup_charge());
        let t = clock.now().as_micros_f64();
        time::restore_clock(prev);
        (out, t)
    }

    #[test]
    fn immediate_data_is_free_under_every_policy() {
        for policy in [
            PollPolicy::Spin,
            PollPolicy::interrupt(),
            PollPolicy::adaptive(),
        ] {
            let ((), t) = with_clock(|| {
                policy.wait(|| Some(()));
            });
            assert_eq!(t, 0.0, "{policy:?} charged {t} us for present data");
        }
    }

    #[test]
    fn interrupt_charges_wakeup_latency_when_blocked() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let setter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            f2.store(true, Ordering::Release);
        });
        let ((), t) = with_clock(|| {
            PollPolicy::Interrupt { latency_us: 12.5 }
                .wait(|| flag.load(Ordering::Acquire).then_some(()));
        });
        setter.join().unwrap();
        assert_eq!(t, 12.5);
    }

    #[test]
    fn spin_never_charges() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let setter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            f2.store(true, Ordering::Release);
        });
        let ((), t) = with_clock(|| {
            PollPolicy::Spin.wait(|| flag.load(Ordering::Acquire).then_some(()));
        });
        setter.join().unwrap();
        assert_eq!(t, 0.0);
    }

    #[test]
    fn adaptive_charges_only_past_the_spin_phase() {
        // Data that shows up within the spin rounds is free.
        let mut calls = 0;
        let ((), t) = with_clock(|| {
            PollPolicy::Adaptive {
                spin_rounds: 64,
                interrupt_latency_us: 10.0,
            }
            .wait(|| {
                calls += 1;
                (calls > 5).then_some(())
            });
        });
        assert_eq!(t, 0.0);

        // Data that arrives long after the spin phase pays the wakeup.
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let setter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            f2.store(true, Ordering::Release);
        });
        let ((), t) = with_clock(|| {
            PollPolicy::Adaptive {
                spin_rounds: 4,
                interrupt_latency_us: 10.0,
            }
            .wait(|| flag.load(Ordering::Acquire).then_some(()));
        });
        setter.join().unwrap();
        assert_eq!(t, 10.0);
    }
}
