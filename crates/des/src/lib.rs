//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the reproduction's substitute for OMNeT++ (the
//! simulator used in the paper's evaluation, §6). It provides exactly
//! the services the QMA/CSMA/DSME models need:
//!
//! * [`SimTime`]/[`SimDuration`] — integer microsecond simulated time,
//! * [`Scheduler`] — a priority queue of timestamped events with
//!   deterministic FIFO tie-breaking and O(1) logical cancellation,
//! * [`Executor`] — a run loop dispatching events to a [`Handler`],
//! * [`seed`] — splitmix64 seed derivation so every node/replication
//!   gets an independent, reproducible random stream.
//!
//! Determinism: two runs with the same seed and the same event
//! insertion order produce identical traces. Ties in time are broken
//! by insertion sequence number, never by hash order.
//!
//! # Examples
//!
//! ```
//! use qma_des::{Executor, Handler, Scheduler, SimDuration, SimTime};
//!
//! struct Counter(u32);
//! impl Handler<&'static str> for Counter {
//!     fn handle(&mut self, _now: SimTime, _ev: &'static str, sched: &mut Scheduler<&'static str>) {
//!         self.0 += 1;
//!         if self.0 < 3 {
//!             sched.schedule_in(SimDuration::from_millis(10), "tick");
//!         }
//!     }
//! }
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_at(SimTime::ZERO, "tick");
//! let mut h = Counter(0);
//! let end = Executor::new().run(&mut h, &mut sched);
//! assert_eq!(h.0, 3);
//! assert_eq!(end, SimTime::from_millis(20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod sched;
pub mod seed;
pub mod time;

pub use exec::{Executor, Handler, StopReason};
pub use sched::{EventEntry, EventKey, Scheduler};
pub use seed::SeedSequence;
pub use time::{SimDuration, SimTime};
