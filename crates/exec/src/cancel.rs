//! Cooperative query cancellation and deadlines.
//!
//! Subgraph queries can run for a very long time (a clique pattern over a dense region explores
//! an exponential search space), so a serving system needs a way to stop one that has overstayed
//! its welcome. The executors poll an [`Interrupt`] — a shared [`CancellationToken`] plus an
//! optional deadline — **at batch granularity**: a cheap countdown is decremented once per unit
//! of work (scanned edge, extension candidate, probed group), and every
//! [`INTERRUPT_CHECK_INTERVAL`] units the token and the clock are actually consulted. A tripped
//! check unwinds the whole pipeline (including hash-join build sides, which run through the same
//! machinery) within one batch, and the interrupt remembers *why* it stopped; the driver copies
//! that into the run's [`RuntimeStats`](crate::RuntimeStats) (`cancelled` / `timed_out`) so the
//! facade can surface a typed error instead of a silently truncated result.
//!
//! The token is a plain atomic flag behind an `Arc`: cloning it is how it crosses threads, and
//! every worker of a run polls the *same* flag, so one `cancel()` stops all of
//! them within a batch each.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How many units of work (scanned edges, extension candidates, probed groups) pass between two
/// real interrupt checks. Small enough that a 1 ms deadline on a pathological query trips within
/// microseconds of real work; large enough that the atomic load and `Instant::now()` never show
/// up in a profile.
pub const INTERRUPT_CHECK_INTERVAL: u32 = 256;

/// A cloneable, thread-safe cancellation flag.
///
/// Cancellation is **cooperative and sticky**: [`cancel`](CancellationToken::cancel) flips a
/// shared atomic flag that executors poll at batch granularity, and the flag never resets — a
/// token is meant to govern one query execution (the facade's `QueryHandle` creates one per
/// run). All clones share the same flag.
///
/// ```
/// use graphflow_exec::CancellationToken;
/// let token = CancellationToken::new();
/// let clone = token.clone();
/// assert!(!clone.is_cancelled());
/// token.cancel();
/// assert!(clone.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl PartialEq for CancellationToken {
    /// Tokens are equal when they share one flag (clones of each other), mirroring
    /// [`same_token`](CancellationToken::same_token).
    fn eq(&self, other: &Self) -> bool {
        self.same_token(other)
    }
}

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Every executor polling this token (or any clone of it) stops
    /// within one batch of work. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Whether `other` is a clone of this token (shares the same flag).
    pub fn same_token(&self, other: &CancellationToken) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

/// The executor-side interrupt state of one worker: an optional [`CancellationToken`], an
/// optional deadline, the countdown that amortises the cost of consulting them, and the two
/// flags recording which of them stopped the worker.
///
/// The driver builds one per worker: all share the token and deadline, each has its own
/// countdown and flags, so workers never contend on the check state.
#[derive(Debug, Clone)]
pub struct Interrupt {
    token: Option<CancellationToken>,
    deadline: Option<Instant>,
    /// Units of work until the next real check. Interior-mutable so the hot paths can tick it
    /// through a shared reference.
    countdown: Cell<u32>,
    cancelled: Cell<bool>,
    timed_out: Cell<bool>,
}

impl PartialEq for Interrupt {
    /// Countdown position is check-amortisation state, not configuration: two interrupts are
    /// equal when they watch the same token and deadline.
    fn eq(&self, other: &Self) -> bool {
        let tokens_match = match (&self.token, &other.token) {
            (Some(a), Some(b)) => a.same_token(b),
            (None, None) => true,
            _ => false,
        };
        tokens_match && self.deadline == other.deadline
    }
}

impl Interrupt {
    /// Build the interrupt state for one run. Returns `None` when there is nothing to watch
    /// (no token, no deadline), so un-cancellable runs skip even the countdown tick.
    pub fn new(token: Option<CancellationToken>, deadline: Option<Instant>) -> Option<Self> {
        if token.is_none() && deadline.is_none() {
            return None;
        }
        Some(Interrupt {
            token,
            deadline,
            countdown: Cell::new(0),
            cancelled: Cell::new(false),
            timed_out: Cell::new(false),
        })
    }

    /// Consult the token and the clock right now, recording the outcome.
    fn trip(&self) -> bool {
        if let Some(token) = &self.token {
            if token.is_cancelled() {
                self.cancelled.set(true);
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.timed_out.set(true);
                return true;
            }
        }
        false
    }

    /// Tick one unit of work; every [`INTERRUPT_CHECK_INTERVAL`] ticks the token and deadline
    /// are actually consulted. Returns `true` when the run must stop (and remembers why).
    #[inline]
    pub fn should_stop(&self) -> bool {
        let remaining = self.countdown.get();
        if remaining > 0 {
            self.countdown.set(remaining - 1);
            return false;
        }
        self.countdown.set(INTERRUPT_CHECK_INTERVAL);
        self.trip()
    }

    /// Whether a check found the token cancelled.
    pub fn cancelled(&self) -> bool {
        self.cancelled.get()
    }

    /// Whether a check found the deadline passed.
    pub fn timed_out(&self) -> bool {
        self.timed_out.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn token_is_shared_across_clones() {
        let token = CancellationToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        assert!(token.same_token(&clone));
        assert!(!token.same_token(&CancellationToken::new()));
    }

    #[test]
    fn new_without_anything_to_watch_is_none() {
        assert!(Interrupt::new(None, None).is_none());
        assert!(Interrupt::new(Some(CancellationToken::new()), None).is_some());
        assert!(Interrupt::new(None, Some(Instant::now())).is_some());
    }

    #[test]
    fn cancellation_trips_within_one_interval() {
        let token = CancellationToken::new();
        let interrupt = Interrupt::new(Some(token.clone()), None).unwrap();
        // The first call always does a real check.
        assert!(!interrupt.should_stop());
        token.cancel();
        let mut calls = 0u32;
        while !interrupt.should_stop() {
            calls += 1;
            assert!(
                calls <= INTERRUPT_CHECK_INTERVAL,
                "must trip within a batch"
            );
        }
        assert!(interrupt.cancelled());
        assert!(!interrupt.timed_out());
    }

    #[test]
    fn elapsed_deadline_times_out() {
        let deadline = Instant::now() - Duration::from_millis(1);
        let interrupt = Interrupt::new(None, Some(deadline)).unwrap();
        assert!(interrupt.should_stop());
        assert!(interrupt.timed_out());
        assert!(!interrupt.cancelled());
    }

    #[test]
    fn cancellation_wins_over_an_elapsed_deadline() {
        let token = CancellationToken::new();
        token.cancel();
        let deadline = Instant::now() - Duration::from_millis(1);
        let interrupt = Interrupt::new(Some(token), Some(deadline)).unwrap();
        assert!(interrupt.should_stop());
        assert!(
            interrupt.cancelled(),
            "explicit cancellation is reported as such"
        );
        assert!(!interrupt.timed_out());
    }

    #[test]
    fn far_deadline_does_not_trip() {
        let deadline = Instant::now() + Duration::from_secs(3600);
        let interrupt = Interrupt::new(None, Some(deadline)).unwrap();
        for _ in 0..(INTERRUPT_CHECK_INTERVAL * 4) {
            assert!(!interrupt.should_stop());
        }
        assert!(!interrupt.cancelled() && !interrupt.timed_out());
    }
}
