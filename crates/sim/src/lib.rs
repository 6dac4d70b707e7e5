//! Deterministic discrete-event simulation engine for the INFless
//! reproduction.
//!
//! The crate provides the minimal substrate every other crate in the
//! workspace builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time.
//!   The simulator never reads the wall clock, so every run is exactly
//!   reproducible from its seed.
//! * [`EventQueue`] — a stable priority queue of timestamped events.
//!   Events scheduled for the same instant pop in FIFO order, which keeps
//!   platform behaviour deterministic under ties.
//! * [`rng`] — seed-derivation helpers so that independent subsystems
//!   (workload generation, execution noise, …) draw from independent,
//!   reproducible streams.
//! * [`stats`] — fixed-width histograms and time-weighted integrals,
//!   used by the LSTH/HHP cold-start policies and the run report's
//!   resource accounting.
//! * [`FxHashMap`] — a `HashMap` over a seedless, deterministic hasher
//!   for the engine's internal keyed caches.
//!
//! # Example
//!
//! ```
//! use infless_sim::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Arrive(u32), Done(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(10), Ev::Arrive(1));
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), Ev::Arrive(0));
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, SimTime::from_millis(5));
//! assert_eq!(ev, Ev::Arrive(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod hash;
mod time;

pub mod rng;
pub mod stats;

pub use event::{as_of_ties, EventQueue, ScheduledEvent, Staged, StagedStream, Ticket};
pub use hash::{FxHashMap, FxHasher};
pub use time::{SimDuration, SimTime};
