//! The INFless contribution: a native serverless inference platform.
//!
//! This crate implements everything inside the dashed box of the paper's
//! Fig. 4, running against the simulated substrates of the sibling
//! crates:
//!
//! * [`batching`] — built-in, non-uniform batching (§3.2): the
//!   per-instance feasible arrival-rate window of Eq. 1 and the
//!   three-case dispatch-rate controller with hysteresis constant `α`.
//! * [`predictor`] — Combined Operator Profiling (§3.3): predicts batch
//!   execution time for any `⟨b, c, g⟩` by combining per-operator
//!   profiles along the model DAG, inflated by a safety offset.
//! * [`scheduler`] — Algorithm 1 (§3.4): the greedy largest-batch-first
//!   search with the resource-efficiency placement metric of Eq. 10.
//! * [`router`] — the indexed deficit router: the allocation-free
//!   O(log n) request hot path shared by INFless (credit routing) and
//!   the baselines (least-loaded routing).
//! * [`coldstart`] — the Long-Short Term Histogram policy (§3.5) plus
//!   the hybrid-histogram (HHP) and fixed-window baselines it is
//!   evaluated against.
//! * [`engine`] / [`metrics`] — the shared platform mechanics (instance
//!   lifecycle, batch queues, request accounting) used by INFless *and*
//!   by the baseline platforms in `infless-baselines`, so every system
//!   is compared on identical machinery.
//! * [`driver`] — the one event loop every platform runs on: the
//!   arrival merge, event dispatch, fault injection and scaler ticks,
//!   calling a [`Platform`]'s policy hooks.
//! * [`platform`] — [`InflessPlatform`]: the INFless policy tying the
//!   pieces together (batch-aware dispatcher, auto-scaling engine,
//!   cold-start manager).
//! * [`apps`] — the two evaluation applications of §5.1: online
//!   second-hand vehicle trading (OSVT, SLO 200 ms) and the Q&A robot
//!   (SLO 50 ms).
//!
//! # Example
//!
//! ```
//! use infless_core::apps::Application;
//! use infless_core::platform::{InflessConfig, InflessPlatform};
//! use infless_cluster::ClusterSpec;
//! use infless_sim::SimDuration;
//! use infless_workload::{FunctionLoad, Workload};
//!
//! let app = Application::qa_robot();
//! let loads: Vec<FunctionLoad> = app
//!     .functions()
//!     .iter()
//!     .map(|_| FunctionLoad::constant(30.0, SimDuration::from_secs(20)))
//!     .collect();
//! let workload = Workload::build(&loads, 7);
//!
//! let mut platform = InflessPlatform::new(
//!     ClusterSpec::testbed(),
//!     app.functions().to_vec(),
//!     InflessConfig::default(),
//!     7,
//! );
//! let report = platform.run(&workload);
//! assert!(report.total_completed() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod batching;
pub mod chains;
pub mod coldstart;
pub mod driver;
pub mod engine;
pub mod metrics;
pub mod platform;
pub mod predictor;
pub mod residency;
pub mod router;
pub mod runconfig;
pub mod scheduler;
pub mod sharded;

pub use batching::RpsWindow;
pub use chains::{ChainReport, ChainSpec, ChainSplit};
pub use coldstart::{ColdStartPolicy, FixedKeepAlive, HybridHistogram, Lsth, Windows};
pub use driver::Platform;
pub use engine::{Engine, EngineEvent, FunctionInfo};
pub use metrics::{
    BreakdownHists, FunctionReport, LatencyParts, LlmFunctionStats, RunReport, StartupKind,
};
pub use platform::{InflessConfig, InflessPlatform};
pub use predictor::CopPredictor;
pub use residency::ResidencyConfig;
pub use router::{Admission, DeficitRouter, LeastLoadedScratch, RouterEntry};
pub use runconfig::{RunConfig, RunConfigError};
pub use scheduler::{PlacementStrategy, ScheduledInstance, Scheduler, SchedulerConfig};
pub use sharded::ShardedInfless;

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, BuildHasherDefault};

    use infless_models::{ModelId, ResourceConfig};
    use infless_sim::FxHasher;

    /// The per-request and per-batch path keys its caches through
    /// `FxHashMap`; a std `HashMap`/`HashSet` (randomly seeded SipHash)
    /// in the non-test code of these files fails the build's tests.
    #[test]
    fn no_std_hash_maps_on_the_per_request_path() {
        for (file, src) in [
            ("engine.rs", include_str!("engine.rs")),
            ("platform.rs", include_str!("platform.rs")),
            ("predictor.rs", include_str!("predictor.rs")),
            ("scheduler.rs", include_str!("scheduler.rs")),
        ] {
            let code = src.split("#[cfg(test)]").next().unwrap_or(src);
            for (n, line) in code.lines().enumerate() {
                let line = line.split("//").next().unwrap_or(line);
                for name in ["HashMap", "HashSet"] {
                    let std_map = line.match_indices(name).any(|(i, _)| {
                        !line[..i].ends_with(|c: char| c.is_alphanumeric() || c == '_')
                    });
                    assert!(
                        !std_map,
                        "{file}:{}: std {name} on the per-request path: {}",
                        n + 1,
                        line.trim()
                    );
                }
            }
        }
    }

    /// The COP memo key hashes to the same value on every run and host.
    #[test]
    fn cop_key_hash_is_pinned() {
        let key = (ModelId::ResNet50, 8u32, ResourceConfig::new(2, 20));
        let hash = BuildHasherDefault::<FxHasher>::default().hash_one(key);
        assert_eq!(hash, 0x7df9_a38f_1cd4_e679);
    }
}
