//! Baseline systems the paper compares INFless against (§5.1, Table 3).
//!
//! * [`ReactivePlatform`] — the reactive baselines, one platform
//!   whose launch path is boot or swap-in ([`reactive`]):
//!   - **OpenFaaS+** ([`LaunchPath::Boot`]) — the enhanced
//!     OpenFaaS baseline: GPU support added for fairness, but
//!     one-to-one request→instance mapping (no batching), a uniform
//!     fixed instance configuration (2 CPU cores + 10 % GPU SMs),
//!     rate-limited reactive scaling and a fixed 300 s keep-alive
//!     window. Every launch boots a container and loads the model.
//!   - **Torpor** ([`LaunchPath::SwapIn`]) — a GPU-memory-tier
//!     baseline (Yu et al.): the same platform, but every model's
//!     weights stay pinned in host RAM and a launch is a pipelined
//!     PCIe swap-in instead of a container boot + disk load.
//! * [`BatchPlatform`] — the BATCH system (Ali et al., SC'20),
//!   re-hosted on the same substrate as in the paper: on-top-of-platform
//!   adaptive batching with a *uniform* per-function batch/resource
//!   configuration, uniform scaling, a fixed keep-alive window and the
//!   OTP buffer's extra dispatch latency. A best-fit placement variant
//!   gives the paper's **BATCH+RS** system (Fig. 17b).
//! * [`lambda`] — an AWS-Lambda-like platform model (proportional
//!   CPU-memory allocation, CPU only) for the §2 motivation study
//!   (Fig. 2, Fig. 3).
//! * [`cost`] — the Table 4 cost model (CPU $0.034/h, 2080Ti $2.5/h)
//!   plus the statically-provisioned EC2 reference point.
//! * [`System`] — the registry of every platform above plus INFless,
//!   and [`System::serve`], the one run executor every entry point
//!   calls ([`system`]).
//!
//! All platforms run on `infless-core`'s [`Engine`](infless_core::Engine)
//! and its one event loop ([`infless_core::driver`]), so that
//! differences in results come from policy, not plumbing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cost;
pub mod lambda;
pub mod reactive;
pub mod system;

pub use batch::{
    uniform_plan, BatchConfig, BatchPlacement, BatchPlatform, UniformPlan, BATCH_PROFILE_MARGIN,
};
pub use cost::{CostModel, CostSummary};
pub use lambda::{LambdaModel, LAMBDA_MEMORY_STEPS_MB};
pub use reactive::{LaunchPath, ReactivePlatform};
pub use system::{Deployment, RunError, System};
