//! Cluster substrate: servers with hybrid CPU/GPU resources, placement
//! accounting and function-instance lifecycle.
//!
//! This crate is the mechanical layer under every platform in the
//! reproduction (INFless and the baselines alike): it owns *what is
//! where* — which instance holds which cores and which GPU slice on
//! which server — and enforces capacity invariants, while the policy
//! crates decide *what to place*.
//!
//! The default [`ClusterSpec::testbed`] mirrors the paper's Table 2
//! cluster: 8 machines, 32 CPU threads each, 2× RTX 2080Ti per machine
//! (GPU shares are percentages of a single physical device, so a slice
//! never spans devices). [`ClusterSpec::large`] builds the 2 000-server
//! simulation cluster of §5.3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classes;
mod ids;
mod instance;
mod server;
mod state;

pub use ids::{FunctionId, InstanceId, ServerId};
pub use instance::{Instance, InstanceConfig, InstanceState, Request};
pub use server::{Placement, Server, ServerHealth};
pub use state::{ClusterOp, ClusterSpec, ClusterState, PlacementError, TxnAlreadyOpen};
