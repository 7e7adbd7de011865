//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the reproduction's substitute for OMNeT++ (the
//! simulator used in the paper's evaluation, §6). It provides exactly
//! the services the QMA/CSMA/DSME models need:
//!
//! * [`SimTime`]/[`SimDuration`] — integer microsecond simulated time,
//! * [`Scheduler`] — a priority queue of timestamped events with
//!   deterministic FIFO tie-breaking,
//! * [`seed`] — splitmix64 seed derivation so every node/replication
//!   gets an independent, reproducible random stream.
//!
//! The run loop belongs to the model: it pops events in order and
//! handles each, scheduling follow-ups on the same scheduler
//! (`qma-netsim`'s `Sim::try_run_until` is the simulator's).
//!
//! Determinism: two runs with the same seed and the same event
//! insertion order produce identical traces. Ties in time are broken
//! by insertion sequence number, never by hash order.
//!
//! # Examples
//!
//! ```
//! use qma_des::{Scheduler, SimDuration, SimTime};
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_at(SimTime::ZERO, "tick");
//! let mut ticks = 0;
//! while let Some(entry) = sched.pop() {
//!     ticks += 1;
//!     if ticks < 3 {
//!         sched.schedule_in(SimDuration::from_millis(10), entry.event);
//!     }
//! }
//! assert_eq!(ticks, 3);
//! assert_eq!(sched.now(), SimTime::from_millis(20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sched;
pub mod seed;
pub mod time;

pub use sched::{EventEntry, Scheduler};
pub use seed::SeedSequence;
pub use time::{SimDuration, SimTime};
