//! Workload generation: arrival processes and production-trace shapes.
//!
//! The paper drives its evaluation with the Azure Functions production
//! trace (Shahrad et al.), classified into three arrival patterns —
//! *sporadic*, *periodic* and *bursty* (Fig. 10) — plus a 3-day
//! fraud-detection trace exhibiting long-term periodicity (LTP) with
//! short-term bursts (STB, Fig. 9a). We do not have the proprietary
//! traces themselves, so this crate generates the same pattern classes
//! synthetically, seeded and reproducible:
//!
//! * [`RateSeries`] — a piecewise-constant request-rate curve (RPS per
//!   time bin), the shape of a trace.
//! * [`TracePattern`] — generators for the four pattern classes.
//! * [`poisson_arrivals`] — turns a rate curve into individual arrival
//!   timestamps via a per-bin Poisson process.
//! * [`Workload`] — one arrival source per function; an
//!   [`ArrivalSource`] merges them in time order as a run reads them.
//!
//! # Example
//!
//! ```
//! use infless_sim::SimDuration;
//! use infless_workload::{poisson_arrivals, RateSeries, TracePattern};
//!
//! let series = TracePattern::Periodic.generate(
//!     50.0,                            // mean RPS
//!     SimDuration::from_mins(10),      // duration
//!     42,                              // seed
//! );
//! let arrivals = poisson_arrivals(&series, 42);
//! // ~50 rps over 10 minutes ≈ 30k arrivals.
//! assert!(arrivals.len() > 20_000 && arrivals.len() < 40_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod series;
pub mod trace_io;
mod traces;
mod workload;

pub use arrivals::{constant_arrivals, poisson_arrivals};
pub use series::RateSeries;
pub use trace_io::{read_csv, series_to_row, write_csv, TraceRow};
pub use traces::TracePattern;
pub use workload::{ArrivalSource, FunctionLoad, Workload};
