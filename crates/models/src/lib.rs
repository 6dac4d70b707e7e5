//! Operator DAGs, the Table-1 model zoo and the analytic hardware model
//! for the INFless reproduction.
//!
//! The original paper runs real TensorFlow models on an 8-node cluster
//! with 16 RTX 2080Ti GPUs. This crate replaces that testbed with an
//! *analytic* substrate that preserves the behaviours INFless's design
//! exploits:
//!
//! * inference models are DAGs of a small shared operator vocabulary,
//!   with execution time dominated by a few compute-heavy operators
//!   (paper Observation #6, Fig. 7);
//! * execution time falls with more CPU cores / GPU SMs and grows
//!   sub-linearly with batchsize, so larger batches buy throughput
//!   (Fig. 2, Fig. 3b);
//! * GPUs are far faster than CPUs for large models but need batch to
//!   saturate, and carry launch + PCIe-transfer overheads;
//! * cold starts cost seconds and scale with model size (§3.5).
//!
//! The layers:
//!
//! * [`operator`] — the operator vocabulary ([`OpKind`]) and per-node
//!   [`Operator`] descriptors (FLOPs, arithmetic-intensity class).
//! * [`dag`] — [`OperatorDag`]: a validated DAG with topological order,
//!   critical path and work aggregates.
//! * [`hardware`] — [`HardwareModel`]: maps `(operator, batch, resources)`
//!   to execution time, and whole-DAG ground-truth latency including the
//!   cross-operator effects (branch contention, framework overhead) that
//!   the paper's Combined Operator Profiling can only approximate.
//! * [`zoo`] — the eleven Table-1 models (plus DSSM-2389 used by the Q&A
//!   robot application) as concrete DAGs.
//! * [`profile`] — the operator profile database (❸ in Fig. 4): offline
//!   "measurements" of each distinct operator over a `(b, c, g)` grid.
//!
//! # Example
//!
//! ```
//! use infless_models::{HardwareModel, ModelId, ResourceConfig};
//!
//! let hw = HardwareModel::default();
//! let model = ModelId::ResNet50.spec();
//! let cpu_only = hw.model_latency(&model, 1, ResourceConfig::cpu(2));
//! let with_gpu = hw.model_latency(&model, 8, ResourceConfig::new(2, 20));
//! // A 20% GPU slice runs a ResNet-50 batch of 8 faster than two CPU
//! // cores run a single sample.
//! assert!(with_gpu < cpu_only);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dag;
pub mod hardware;
pub mod operator;
pub mod profile;
pub mod zoo;

pub use dag::{DagBuilder, NodeId, OperatorDag};
pub use hardware::{DecodeCost, HardwareCalibration, HardwareModel, ResourceConfig};
pub use operator::{OpClass, OpKind, Operator};
pub use profile::{CacheOutcome, CacheStats, OpSignature, ProfileDatabase};
pub use zoo::{ModelId, ModelSpec};
