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
//!
//! In real time every wait is one [`EventCount::wait_timeout`] on the
//! node's arrivals count (see [`madsim_net::eventcount`]): poll, then park.
//! The three policies differ only in the poll budget and the wakeup
//! latency — `Spin` is an unbounded budget (it never parks, and never
//! pays), `Interrupt` a budget of 0, `Adaptive` its `spin_rounds`. Every
//! frame or SISCI flag that reaches the node notifies the count, so a
//! park ends at the arrival. A probe that is a progress-engine tick can
//! also succeed with no arrival at all — another thread retired the op —
//! so its parks recheck after 20 µs, doubling up to 500 µs. The library's
//! waits that spin whatever the channel's policy (a packed striped block,
//! the `begin_packing` fence, a fault-armed stripe reassembly) are
//! `PollPolicy::Spin` waits on the same count; a blocking TM send polls
//! the mailbox's grant (`tm::wait_out`).

use madsim_net::eventcount::EventCount;
use madsim_net::time::{self, VDuration};
use std::time::Duration;

/// How a channel waits for incoming traffic.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum PollPolicy {
    /// Busy-poll until traffic shows up: an unbounded poll budget, so it
    /// never parks. Lowest latency, one CPU burned.
    #[default]
    Spin,
    /// Park at once; every arrival that finds the receiver parked pays the
    /// interrupt/wakeup latency.
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
    /// model: re-probe up to the policy's budget (unbounded for `Spin`, 0
    /// for `Interrupt`, `spin_rounds` for `Adaptive`), then park on
    /// `arrivals`; a wait that parked charges the wakeup latency. Set
    /// `tick` when the probe is a progress-engine tick (see module docs).
    pub fn wait<T>(
        &self,
        arrivals: &EventCount,
        tick: bool,
        mut probe: impl FnMut() -> Option<T>,
    ) -> T {
        let (mut budget, latency_us) = match *self {
            PollPolicy::Spin => (u32::MAX, 0.0),
            PollPolicy::Interrupt { latency_us } => (0, latency_us),
            PollPolicy::Adaptive {
                spin_rounds,
                interrupt_latency_us,
            } => (spin_rounds, interrupt_latency_us),
        };
        // Arrival within the first probe and the poll budget is free.
        let free_probes = 1 + u64::from(budget);
        let mut probes = 0u64;
        let mut recheck_us = 20;
        let v = loop {
            let timeout = tick.then(|| Duration::from_micros(recheck_us));
            let got = arrivals.wait_timeout(budget, timeout, || {
                probes += 1;
                probe()
            });
            if let Some(v) = got {
                break v;
            }
            budget = 0;
            recheck_us = (recheck_us * 2).min(500);
        };
        if probes > free_probes {
            time::add_pending(VDuration::from_micros_f64(latency_us));
        }
        v
    }
}

/// Drain the wakeup latency accrued by interrupt-path waits on this
/// thread's clock. Callers apply it with `time::advance` **after**
/// synchronizing with the message's arrival (the interrupt fires at
/// arrival; the receiver resumes one wakeup later). The charge is the
/// clock's ([`ClockHandle::add_pending`](madsim_net::time::ClockHandle::add_pending)),
/// so one left untaken when a world ends dies with that world's clock.
pub fn take_pending_wakeup_charge() -> VDuration {
    time::take_pending()
}

#[cfg(test)]
mod tests {
    use super::*;
    use madsim_net::time::ClockHandle;
    use std::sync::atomic::{AtomicBool, Ordering};

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

    /// Wait under `policy` for a flag another thread raises after `ms` of
    /// real time. An `announce`d flag also notifies the count, as every
    /// arrival at a node does; one that is not is what a tick finds. Returns
    /// the virtual time charged.
    fn wait_for_flag(policy: PollPolicy, ms: u64, arrivals: &EventCount, announce: bool) -> f64 {
        let flag = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(ms));
                flag.store(true, Ordering::Release);
                if announce {
                    arrivals.notify();
                }
            });
            let raised = || flag.load(Ordering::Acquire).then_some(());
            with_clock(|| policy.wait(arrivals, !announce, raised)).1
        })
    }

    #[test]
    fn immediate_data_is_free_under_every_policy() {
        let arrivals = EventCount::default();
        for policy in [
            PollPolicy::Spin,
            PollPolicy::interrupt(),
            PollPolicy::adaptive(),
        ] {
            let ((), t) = with_clock(|| {
                policy.wait(&arrivals, false, || Some(()));
            });
            assert_eq!(t, 0.0, "{policy:?} charged {t} us for present data");
        }
        assert_eq!(arrivals.stats().parks, 0);
    }

    /// A blocked interrupt wait parks once, on the count, and charges its
    /// wakeup latency once.
    #[test]
    fn interrupt_charges_wakeup_latency_when_blocked() {
        let arrivals = EventCount::default();
        let t = wait_for_flag(
            PollPolicy::Interrupt { latency_us: 12.5 },
            20,
            &arrivals,
            true,
        );
        assert_eq!(t, 12.5);
        let s = arrivals.stats();
        assert_eq!((s.polls, s.parks), (0, 1), "{s:?}");
    }

    /// Nothing notifies the count when another thread retires the op a
    /// tick waits for: the park rechecks on its own.
    #[test]
    fn a_tick_wait_rechecks_without_an_arrival() {
        let arrivals = EventCount::default();
        let t = wait_for_flag(
            PollPolicy::Interrupt { latency_us: 12.5 },
            5,
            &arrivals,
            false,
        );
        assert_eq!(t, 12.5, "charged once however many rechecks");
        assert!(arrivals.stats().parks >= 1);
    }

    #[test]
    fn spin_never_charges() {
        let arrivals = EventCount::default();
        let t = wait_for_flag(PollPolicy::Spin, 5, &arrivals, false);
        assert_eq!(t, 0.0);
        assert_eq!(arrivals.stats().parks, 0, "spinning never parks");
    }

    #[test]
    fn adaptive_charges_only_past_the_spin_phase() {
        // Data that shows up within the spin rounds is free.
        let arrivals = EventCount::default();
        let mut calls = 0;
        let ((), t) = with_clock(|| {
            PollPolicy::Adaptive {
                spin_rounds: 64,
                interrupt_latency_us: 10.0,
            }
            .wait(&arrivals, false, || {
                calls += 1;
                (calls > 5).then_some(())
            });
        });
        assert_eq!(t, 0.0);
        assert_eq!(arrivals.stats().parks, 0);

        // Data that arrives long after the spin phase pays the wakeup.
        let adaptive = PollPolicy::Adaptive {
            spin_rounds: 4,
            interrupt_latency_us: 10.0,
        };
        assert_eq!(wait_for_flag(adaptive, 30, &arrivals, true), 10.0);
        let s = arrivals.stats();
        assert_eq!(s.parks, 1, "{s:?}");
    }

    /// A wakeup charge nobody takes dies with its world's clock: the next
    /// world run from the same caller, whose node 0 is the same OS thread,
    /// starts with nothing pending.
    #[test]
    fn a_charge_left_pending_is_not_carried_into_the_next_world() {
        let world = || madsim_net::WorldBuilder::new(1).build();
        let (first, clock) = world()
            .run(|env| {
                // The first probe fails, the tick's recheck succeeds: a
                // wait that parked, so its wakeup is charged — and left.
                let mut probes = 0;
                PollPolicy::interrupt().wait(env.arrivals(), true, || {
                    probes += 1;
                    (probes > 1).then_some(())
                });
                (std::thread::current().id(), time::clock())
            })
            .remove(0);
        let (next, charge) = world()
            .run(|_| (std::thread::current().id(), take_pending_wakeup_charge()))
            .remove(0);
        assert_eq!(next, first, "node 0 of both worlds is one OS thread");
        assert_eq!(charge, VDuration::ZERO);
        assert_eq!(
            clock.take_pending(),
            VDuration::from_micros(10),
            "left by the first world"
        );
    }
}
