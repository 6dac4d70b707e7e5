//! Whole-cluster state: a set of servers plus aggregate accounting.

use infless_models::ResourceConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::classes::ClassIndex;
use crate::ids::ServerId;
use crate::server::{Placement, Server, ServerHealth, DEFAULT_GPU_MEM_MB};

/// Shape of a cluster to build.
///
/// # Example
///
/// ```
/// use infless_cluster::ClusterSpec;
///
/// let testbed = ClusterSpec::testbed();
/// assert_eq!(testbed.servers, 8);
/// let big = ClusterSpec::large(2000);
/// assert_eq!(big.servers, 2000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of servers.
    pub servers: usize,
    /// CPU threads per server.
    pub cores_per_server: u32,
    /// Physical GPUs per server.
    pub gpus_per_server: usize,
    /// Memory per server, MB (Table 2: 128 GB).
    pub mem_per_server_mb: f64,
    /// Device memory per GPU, MB. Zero (the serde default, so
    /// pre-tier snapshots keep parsing) means "use the 2080Ti-class
    /// default" of 11 GiB.
    #[serde(default)]
    pub gpu_mem_per_device_mb: f64,
}

impl ClusterSpec {
    /// The paper's Table 2 testbed: 8 machines × 32 threads × 2 GPUs ×
    /// 128 GB.
    pub fn testbed() -> Self {
        ClusterSpec {
            servers: 8,
            cores_per_server: 32,
            gpus_per_server: 2,
            mem_per_server_mb: 128.0 * 1024.0,
            gpu_mem_per_device_mb: DEFAULT_GPU_MEM_MB,
        }
    }

    /// The per-device memory to build servers with: the configured
    /// value, or the 2080Ti-class default when unset/zero.
    pub fn device_mem_mb(&self) -> f64 {
        if self.gpu_mem_per_device_mb > 0.0 {
            self.gpu_mem_per_device_mb
        } else {
            DEFAULT_GPU_MEM_MB
        }
    }

    /// The §5.3 large-scale simulation cluster with `servers` machines
    /// of testbed shape.
    pub fn large(servers: usize) -> Self {
        ClusterSpec {
            servers,
            ..ClusterSpec::testbed()
        }
    }

    /// Builds the cluster.
    pub fn build(self) -> ClusterState {
        ClusterState::new(self)
    }
}

/// Why a placement request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementError {
    /// No server has enough free resources for the requested config.
    InsufficientResources,
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::InsufficientResources => {
                f.write_str("no server can satisfy the requested resource configuration")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// One replayable cluster mutation, as recorded by the journal (see
/// [`ClusterState::enable_journal`]).
///
/// Sharded runs keep one cluster replica per shard; after a shard
/// mutates its replica, the coordinator drains that shard's journal and
/// [`ClusterState::apply_ops`]-replays it onto every other replica, so
/// all replicas agree again at the epoch barrier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterOp {
    /// A committed allocation of `cfg` (+`mem_mb` MB) that landed at
    /// `placement`. Replay allocates on the recorded server and asserts
    /// the replica hands back the identical placement — identical
    /// replicas make per-server allocation deterministic.
    Allocate {
        /// The allocated configuration.
        cfg: ResourceConfig,
        /// Memory footprint of the allocation, MB.
        mem_mb: f64,
        /// Where it landed.
        placement: Placement,
    },
    /// A release of `cfg` at `placement`.
    Release {
        /// The released configuration.
        cfg: ResourceConfig,
        /// The allocation being released.
        placement: Placement,
    },
    /// A health transition of `server`.
    SetHealth {
        /// The affected server.
        server: ServerId,
        /// The new health state.
        health: ServerHealth,
    },
    /// An in-place resize of a committed allocation from `old_cfg` to
    /// `new_cfg` (host memory adjusted by `mem_delta_mb`). `placement`
    /// is the *pre-resize* placement; replay re-derives the post-resize
    /// placement deterministically (same server, same device) and
    /// asserts it succeeds.
    Resize {
        /// The configuration before the resize.
        old_cfg: ResourceConfig,
        /// The configuration after the resize.
        new_cfg: ResourceConfig,
        /// Host-memory delta, MB (negative for a shrink).
        mem_delta_mb: f64,
        /// The pre-resize placement.
        placement: Placement,
    },
}

/// Error from [`ClusterState::try_begin_txn`]: a transaction was
/// already open. Transactions do not nest; recoverable callers skip
/// their dry-run instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnAlreadyOpen;

impl fmt::Display for TxnAlreadyOpen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("cluster transaction already open")
    }
}

impl std::error::Error for TxnAlreadyOpen {}

/// The cluster: servers plus aggregate capacity/usage views.
///
/// # Example
///
/// ```
/// use infless_cluster::ClusterSpec;
/// use infless_models::ResourceConfig;
///
/// let mut cluster = ClusterSpec::testbed().build();
/// let placement = cluster.allocate_anywhere(ResourceConfig::new(4, 50))?;
/// cluster.release(ResourceConfig::new(4, 50), placement);
/// # Ok::<(), infless_cluster::PlacementError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClusterState {
    servers: Vec<Server>,
    spec: ClusterSpec,
    /// Undo log for the open transaction, if any. Scratch state: not
    /// part of the cluster's logical identity (excluded from serde and
    /// `PartialEq` via the manual impls below), and its buffers are
    /// reused across transactions so steady-state dry-runs allocate
    /// nothing.
    txn: TxnLog,
    /// Replay journal for replica synchronisation; `None` (the
    /// default) records nothing and costs nothing. Scratch state like
    /// `txn`: excluded from serde and `PartialEq`.
    journal: Option<Vec<ClusterOp>>,
    /// Server-state classes for the placement scans (see
    /// [`Self::class_representatives`]). Derived scratch state like
    /// `txn`: excluded from serde and `PartialEq`, rebuilt from the
    /// books on first use.
    classes: ClassIndex,
}

// The serialized form covers only the logical state (servers + spec);
// the transaction scratch is never persisted, so snapshots taken
// before the transaction API existed keep round-tripping.
impl Serialize for ClusterState {
    fn serialize(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert("servers".to_string(), self.servers.serialize());
        map.insert("spec".to_string(), self.spec.serialize());
        serde::Value::Object(map)
    }
}

impl Deserialize for ClusterState {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let servers = value
            .get("servers")
            .ok_or_else(|| serde::Error::custom("ClusterState: missing field `servers`"))?;
        let spec = value
            .get("spec")
            .ok_or_else(|| serde::Error::custom("ClusterState: missing field `spec`"))?;
        let servers: Vec<Server> = Deserialize::deserialize(servers)?;
        Ok(ClusterState {
            classes: ClassIndex::new(servers.len()),
            servers,
            spec: Deserialize::deserialize(spec)?,
            txn: TxnLog::default(),
            journal: None,
        })
    }
}

/// First-touch snapshot undo log. Rollback restores each touched
/// server from its pre-transaction snapshot, which is bit-identical by
/// construction — unlike replaying inverse `release` calls, whose
/// saturating float arithmetic (`(x - m) + m`) need not round-trip.
#[derive(Debug, Clone, Default)]
struct TxnLog {
    open: bool,
    /// Indexed by server; `Some` holds the pre-transaction state of a
    /// touched server.
    snapshots: Vec<Option<Server>>,
    /// Indices of servers with a live snapshot, for cheap clearing.
    touched: Vec<usize>,
    /// Journal length at `begin_txn`; rollback truncates back to it so
    /// dry-run mutations never leak into replica replay.
    journal_mark: usize,
}

impl PartialEq for ClusterState {
    fn eq(&self, other: &Self) -> bool {
        self.servers == other.servers && self.spec == other.spec
    }
}

impl ClusterState {
    /// Builds a cluster from a spec.
    pub fn new(spec: ClusterSpec) -> Self {
        let gpus = vec![100u32; spec.gpus_per_server];
        let servers = (0..spec.servers)
            .map(|i| {
                Server::with_memory_split(
                    ServerId::new(i),
                    spec.cores_per_server,
                    &gpus,
                    spec.mem_per_server_mb,
                    spec.device_mem_mb(),
                )
            })
            .collect();
        ClusterState {
            classes: ClassIndex::new(spec.servers),
            servers,
            spec,
            txn: TxnLog::default(),
            journal: None,
        }
    }

    /// Turns on the replay journal: every committed allocation,
    /// release, and health change is recorded as a [`ClusterOp`] until
    /// drained by [`Self::take_journal`]. Mutations rolled back by
    /// [`Self::rollback_txn`] are truncated out of the journal, so only
    /// surviving state changes replay.
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    /// `true` once [`Self::enable_journal`] has been called.
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// Drains and returns the recorded ops (journal stays enabled).
    pub fn take_journal(&mut self) -> Vec<ClusterOp> {
        match &mut self.journal {
            Some(ops) => std::mem::take(ops),
            None => Vec::new(),
        }
    }

    /// Replays `ops` (from another replica's journal) onto this
    /// replica without re-recording them. Replay runs through the same
    /// mutators as the original ops, so it keeps the replica's
    /// server-state classes current too.
    ///
    /// # Panics
    ///
    /// Panics if a replayed allocation does not land exactly where the
    /// originating replica placed it — replicas that were identical
    /// when the ops were recorded always re-derive the same placement,
    /// so a mismatch means the replicas had already diverged.
    pub fn apply_ops(&mut self, ops: &[ClusterOp]) {
        let saved = self.journal.take();
        for op in ops {
            match *op {
                ClusterOp::Allocate {
                    cfg,
                    mem_mb,
                    placement,
                } => {
                    let got = self
                        .allocate_on_with_split(
                            placement.server(),
                            cfg,
                            mem_mb,
                            placement.device_mb(),
                        )
                        .expect("replica replay: allocation no longer fits");
                    assert_eq!(
                        got, placement,
                        "replica replay: allocation landed elsewhere (replica divergence)"
                    );
                }
                ClusterOp::Release { cfg, placement } => self.release(cfg, placement),
                ClusterOp::SetHealth { server, health } => self.set_health(server, health),
                ClusterOp::Resize {
                    old_cfg,
                    new_cfg,
                    mem_delta_mb,
                    placement,
                } => {
                    self.try_resize(placement, old_cfg, new_cfg, mem_delta_mb)
                        .expect("replica replay: resize no longer fits (replica divergence)");
                }
            }
        }
        self.journal = saved;
    }

    fn record(&mut self, op: ClusterOp) {
        if let Some(ops) = &mut self.journal {
            ops.push(op);
        }
    }

    /// Opens a transaction: every subsequent mutation (allocation,
    /// release, resize, health change) is recorded so
    /// [`Self::rollback_txn`] can restore the exact pre-transaction
    /// state. Dry-runs use this instead of cloning the whole cluster.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open (transactions do not
    /// nest).
    pub fn begin_txn(&mut self) {
        self.try_begin_txn()
            .expect("cluster transaction already open");
    }

    /// Fallible [`Self::begin_txn`]: returns [`TxnAlreadyOpen`] instead
    /// of panicking when a transaction is already open, so layered
    /// policy passes (consolidation, resize) can detect reentrancy and
    /// skip their dry-run rather than abort the run.
    pub fn try_begin_txn(&mut self) -> Result<(), TxnAlreadyOpen> {
        if self.txn.open {
            return Err(TxnAlreadyOpen);
        }
        self.txn.open = true;
        self.txn.journal_mark = self.journal.as_ref().map_or(0, Vec::len);
        Ok(())
    }

    /// `true` while a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.open
    }

    /// Commits the open transaction: keeps all mutations and discards
    /// the undo log.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn commit_txn(&mut self) {
        assert!(self.txn.open, "commit_txn without begin_txn");
        for &i in &self.txn.touched {
            self.txn.snapshots[i] = None;
        }
        self.txn.touched.clear();
        self.txn.open = false;
    }

    /// Rolls back the open transaction: restores every touched server
    /// from its snapshot (and marks it for re-keying in the class
    /// index). The result is bit-identical to the state at
    /// [`Self::begin_txn`].
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn rollback_txn(&mut self) {
        assert!(self.txn.open, "rollback_txn without begin_txn");
        let TxnLog {
            touched, snapshots, ..
        } = &mut self.txn;
        for i in touched.drain(..) {
            self.servers[i] = snapshots[i].take().expect("touched server has a snapshot");
            self.classes.mark(i);
        }
        if let Some(ops) = &mut self.journal {
            ops.truncate(self.txn.journal_mark);
        }
        self.txn.open = false;
    }

    /// The one chokepoint every mutation passes through: marks `idx`
    /// for re-keying in the class index and, inside an open
    /// transaction, records it in the undo log before its first
    /// mutation.
    fn note_touch(&mut self, idx: usize) {
        self.classes.mark(idx);
        if !self.txn.open {
            return;
        }
        if self.txn.snapshots.len() < self.servers.len() {
            self.txn.snapshots.resize(self.servers.len(), None);
        }
        if self.txn.snapshots[idx].is_none() {
            self.txn.snapshots[idx] = Some(self.servers[idx].clone());
            self.txn.touched.push(idx);
        }
    }

    /// The spec this cluster was built from.
    pub fn spec(&self) -> ClusterSpec {
        self.spec
    }

    /// The servers.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// A server by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids come from this cluster, so
    /// an out-of-range id is a logic error).
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[id.raw()]
    }

    /// One server per server-state class, in ascending id order: the
    /// lowest-id server of each distinct exact free-resource state
    /// (health, free cores, free host memory, and per device the free
    /// SM share and device memory).
    ///
    /// Servers in one class answer every placement query alike — same
    /// [`Server::fits_with_split`], same free resources for Eq. 10 — so
    /// a scan that keeps the first *strictly* better server in id order
    /// picks the same server over the representatives as over
    /// [`Self::servers`]. Refreshes only the servers mutated since the
    /// last call: the cost is O(mutated + classes), not O(servers).
    pub fn class_representatives(&mut self) -> impl Iterator<Item = &Server> + Clone + '_ {
        let reps = self.classes.refresh(&self.servers);
        let servers = &self.servers;
        reps.iter().map(move |&i| &servers[i as usize])
    }

    /// Checks the class index against one rebuilt from the books; see
    /// [`ClassIndex::check`]. A hook for runtime invariant audits.
    #[allow(dead_code)]
    pub(crate) fn check_class_index(&mut self) -> Result<(), String> {
        self.classes.check(&self.servers)
    }

    /// The health of a server under the fault model.
    pub fn health(&self, id: ServerId) -> ServerHealth {
        self.servers[id.raw()].health()
    }

    /// Sets the health of a server. Unhealthy servers are skipped by
    /// every placement path ([`Server::fits_with_memory`] refuses), so
    /// no caller needs to re-check health itself.
    pub fn set_health(&mut self, id: ServerId, health: ServerHealth) {
        self.note_touch(id.raw());
        self.servers[id.raw()].set_health(health);
        self.record(ClusterOp::SetHealth { server: id, health });
    }

    /// Number of servers currently accepting placements.
    pub fn up_servers(&self) -> usize {
        self.servers
            .iter()
            .filter(|s| s.health() == ServerHealth::Up)
            .count()
    }

    /// Tries to allocate `cfg` on a specific server.
    pub fn allocate_on(
        &mut self,
        server: ServerId,
        cfg: ResourceConfig,
    ) -> Result<Placement, PlacementError> {
        self.allocate_on_with_memory(server, cfg, 0.0)
    }

    /// [`Self::allocate_on`] with an additional host-memory demand in
    /// MB.
    pub fn allocate_on_with_memory(
        &mut self,
        server: ServerId,
        cfg: ResourceConfig,
        mem_mb: f64,
    ) -> Result<Placement, PlacementError> {
        self.allocate_on_with_split(server, cfg, mem_mb, 0.0)
    }

    /// [`Self::allocate_on_with_memory`] with an additional per-device
    /// GPU-memory demand in MB, booked against the chosen device.
    pub fn allocate_on_with_split(
        &mut self,
        server: ServerId,
        cfg: ResourceConfig,
        mem_mb: f64,
        device_mb: f64,
    ) -> Result<Placement, PlacementError> {
        self.note_touch(server.raw());
        let placement = self.servers[server.raw()]
            .allocate_with_split(cfg, mem_mb, device_mb)
            .ok_or(PlacementError::InsufficientResources)?;
        self.record(ClusterOp::Allocate {
            cfg,
            mem_mb,
            placement,
        });
        Ok(placement)
    }

    /// Allocates `cfg` on the first server that fits (first-fit). The
    /// INFless scheduler makes its own placement choices via
    /// [`Self::allocate_on`]; first-fit is what the simpler baselines
    /// use.
    pub fn allocate_anywhere(&mut self, cfg: ResourceConfig) -> Result<Placement, PlacementError> {
        self.allocate_anywhere_with_memory(cfg, 0.0)
    }

    /// [`Self::allocate_anywhere`] with an additional host-memory
    /// demand.
    pub fn allocate_anywhere_with_memory(
        &mut self,
        cfg: ResourceConfig,
        mem_mb: f64,
    ) -> Result<Placement, PlacementError> {
        self.allocate_anywhere_with_split(cfg, mem_mb, 0.0)
    }

    /// [`Self::allocate_anywhere_with_memory`] with an additional
    /// per-device GPU-memory demand.
    pub fn allocate_anywhere_with_split(
        &mut self,
        cfg: ResourceConfig,
        mem_mb: f64,
        device_mb: f64,
    ) -> Result<Placement, PlacementError> {
        let server = self
            .class_representatives()
            .find(|s| s.fits_with_split(cfg, mem_mb, device_mb))
            .ok_or(PlacementError::InsufficientResources)?
            .id();
        self.allocate_on_with_split(server, cfg, mem_mb, device_mb)
    }

    /// Transactional placement: [`Self::allocate_anywhere_with_memory`]
    /// under a name that makes dry-run call sites read naturally. Pair
    /// with [`Self::begin_txn`] / [`Self::rollback_txn`] to trial a
    /// placement without committing it.
    pub fn try_place(
        &mut self,
        cfg: ResourceConfig,
        mem_mb: f64,
    ) -> Result<Placement, PlacementError> {
        self.allocate_anywhere_with_memory(cfg, mem_mb)
    }

    /// Transactional in-place resize of a committed allocation: grows
    /// or shrinks `placement` from `old_cfg` to `new_cfg` on its
    /// existing server and GPU device, adjusting host memory by
    /// `mem_delta_mb`. Symmetric with [`Self::try_place`]: it
    /// participates in the undo log (a rollback restores the
    /// pre-resize books bit-identically) and in the replay journal (so
    /// sharded replicas re-derive the identical post-resize state).
    ///
    /// Returns the updated placement; fails without touching any book
    /// when the grow does not fit on the same device, the server is
    /// unhealthy, or the new config crosses the CPU/GPU boundary.
    pub fn try_resize(
        &mut self,
        placement: Placement,
        old_cfg: ResourceConfig,
        new_cfg: ResourceConfig,
        mem_delta_mb: f64,
    ) -> Result<Placement, PlacementError> {
        let idx = placement.server().raw();
        self.note_touch(idx);
        let updated = self.servers[idx]
            .resize(old_cfg, new_cfg, placement, mem_delta_mb)
            .ok_or(PlacementError::InsufficientResources)?;
        self.record(ClusterOp::Resize {
            old_cfg,
            new_cfg,
            mem_delta_mb,
            placement,
        });
        Ok(updated)
    }

    /// Releases an allocation.
    ///
    /// # Panics
    ///
    /// Panics on accounting mismatches (see [`Server::release`]).
    pub fn release(&mut self, cfg: ResourceConfig, placement: Placement) {
        self.note_touch(placement.server().raw());
        self.servers[placement.server().raw()].release(cfg, placement);
        self.record(ClusterOp::Release { cfg, placement });
    }

    /// Total CPU cores in the cluster.
    pub fn cpu_capacity(&self) -> u64 {
        self.servers
            .iter()
            .map(|s| u64::from(s.cpu_capacity()))
            .sum()
    }

    /// CPU cores currently allocated.
    pub fn cpu_in_use(&self) -> u64 {
        self.servers
            .iter()
            .map(|s| u64::from(s.cpu_capacity() - s.cpu_free()))
            .sum()
    }

    /// Total GPU SM percentage points in the cluster (100 per device).
    pub fn gpu_capacity(&self) -> u64 {
        self.servers
            .iter()
            .map(|s| u64::from(s.gpu_capacity_total()))
            .sum()
    }

    /// GPU SM percentage points currently allocated.
    pub fn gpu_in_use(&self) -> u64 {
        self.servers
            .iter()
            .map(|s| u64::from(s.gpu_capacity_total() - s.gpu_free_total()))
            .sum()
    }

    /// Weighted resources in use, `β·cpu + gpu` (the unit of the
    /// scheduling objective, Eq. 2).
    pub fn weighted_in_use(&self, beta: f64) -> f64 {
        beta * self.cpu_in_use() as f64 + self.gpu_in_use() as f64
    }

    /// Total memory capacity across the cluster, MB.
    pub fn mem_capacity_mb(&self) -> f64 {
        self.servers.iter().map(|s| s.mem_capacity_mb()).sum()
    }

    /// Memory currently reserved across the cluster, MB.
    pub fn mem_in_use_mb(&self) -> f64 {
        self.servers
            .iter()
            .map(|s| s.mem_capacity_mb() - s.mem_free_mb())
            .sum()
    }

    /// Total GPU device memory across the cluster, MB.
    pub fn gpu_mem_capacity_mb(&self) -> f64 {
        self.servers
            .iter()
            .map(|s| s.gpu_mem_capacity_total_mb())
            .sum()
    }

    /// GPU device memory currently reserved across the cluster, MB.
    pub fn gpu_mem_in_use_mb(&self) -> f64 {
        self.servers
            .iter()
            .map(|s| s.gpu_mem_capacity_total_mb() - s.gpu_mem_free_total_mb())
            .sum()
    }

    /// Number of servers hosting at least one instance.
    pub fn active_servers(&self) -> usize {
        self.servers.iter().filter(|s| s.is_active()).count()
    }

    /// The resource-fragment ratio of Fig. 17b: the mean weighted free
    /// fraction across *active* servers (idle servers are not
    /// fragments — they are simply off). Returns 0.0 when no server is
    /// active.
    pub fn fragment_ratio(&self, beta: f64) -> f64 {
        let active: Vec<&Server> = self.servers.iter().filter(|s| s.is_active()).collect();
        if active.is_empty() {
            return 0.0;
        }
        active.iter().map(|s| s.free_fraction(beta)).sum::<f64>() / active.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn testbed_matches_table2() {
        let c = ClusterSpec::testbed().build();
        assert_eq!(c.servers().len(), 8);
        assert_eq!(c.cpu_capacity(), 8 * 32);
        assert_eq!(c.gpu_capacity(), 8 * 2 * 100);
        assert_eq!(c.active_servers(), 0);
    }

    #[test]
    fn first_fit_packs_early_servers() {
        let mut c = ClusterSpec::testbed().build();
        let cfg = ResourceConfig::new(8, 0);
        for _ in 0..4 {
            let p = c.allocate_anywhere(cfg).unwrap();
            assert_eq!(p.server(), ServerId::new(0));
        }
        // Server 0 is now CPU-full; next goes to server 1.
        let p = c.allocate_anywhere(cfg).unwrap();
        assert_eq!(p.server(), ServerId::new(1));
        assert_eq!(c.active_servers(), 2);
        assert_eq!(c.cpu_in_use(), 40);
    }

    #[test]
    fn allocate_on_specific_server() {
        let mut c = ClusterSpec::testbed().build();
        let cfg = ResourceConfig::new(1, 30);
        let p = c.allocate_on(ServerId::new(5), cfg).unwrap();
        assert_eq!(p.server(), ServerId::new(5));
        assert_eq!(c.gpu_in_use(), 30);
        c.release(cfg, p);
        assert_eq!(c.gpu_in_use(), 0);
    }

    #[test]
    fn exhaustion_reports_error() {
        let mut c = ClusterSpec {
            servers: 1,
            cores_per_server: 2,
            gpus_per_server: 0,
            mem_per_server_mb: 1024.0,
            gpu_mem_per_device_mb: 0.0,
        }
        .build();
        assert!(c.allocate_anywhere(ResourceConfig::cpu(2)).is_ok());
        let err = c.allocate_anywhere(ResourceConfig::cpu(1)).unwrap_err();
        assert_eq!(err, PlacementError::InsufficientResources);
        assert!(err.to_string().contains("no server"));
    }

    #[test]
    fn fragment_ratio_counts_only_active_servers() {
        let mut c = ClusterSpec::testbed().build();
        assert_eq!(c.fragment_ratio(0.13), 0.0);
        // Fill half of server 0.
        let cfg = ResourceConfig::new(16, 100);
        c.allocate_anywhere(cfg).unwrap();
        let ratio = c.fragment_ratio(0.13);
        assert!(ratio > 0.3 && ratio < 0.7, "half-full server: {ratio}");
    }

    #[test]
    fn down_servers_are_skipped_by_placement() {
        let mut c = ClusterSpec::large(2).build();
        assert_eq!(c.up_servers(), 2);
        c.set_health(ServerId::new(0), ServerHealth::Down);
        assert_eq!(c.up_servers(), 1);
        let cfg = ResourceConfig::new(4, 50);
        // First-fit skips the crashed server 0 and lands on server 1.
        let p = c.allocate_anywhere(cfg).unwrap();
        assert_eq!(p.server(), ServerId::new(1));
        // Targeted placement on the crashed server is refused outright.
        assert!(c.allocate_on(ServerId::new(0), cfg).is_err());
        c.set_health(ServerId::new(0), ServerHealth::Up);
        assert!(c.allocate_on(ServerId::new(0), cfg).is_ok());
    }

    #[test]
    fn weighted_usage_combines_cpu_and_gpu() {
        let mut c = ClusterSpec::testbed().build();
        c.allocate_anywhere(ResourceConfig::new(10, 50)).unwrap();
        let beta = 0.2;
        assert!((c.weighted_in_use(beta) - (0.2 * 10.0 + 50.0)).abs() < 1e-12);
    }

    #[test]
    fn txn_rollback_undoes_allocations() {
        let mut c = ClusterSpec::testbed().build();
        let cfg = ResourceConfig::new(4, 50);
        let live = c.allocate_anywhere(cfg).unwrap();
        c.begin_txn();
        assert!(c.in_txn());
        for _ in 0..5 {
            c.try_place(ResourceConfig::new(2, 20), 512.0).unwrap();
        }
        c.set_health(ServerId::new(3), ServerHealth::Down);
        c.rollback_txn();
        assert!(!c.in_txn());
        assert_eq!(c.cpu_in_use(), 4);
        assert_eq!(c.gpu_in_use(), 50);
        assert_eq!(c.mem_in_use_mb(), 0.0);
        assert_eq!(c.health(ServerId::new(3)), ServerHealth::Up);
        // The pre-transaction allocation is still releasable.
        c.release(cfg, live);
        assert_eq!(c.cpu_in_use(), 0);
    }

    #[test]
    fn txn_commit_keeps_mutations() {
        let mut c = ClusterSpec::testbed().build();
        c.begin_txn();
        let p = c.try_place(ResourceConfig::new(2, 0), 0.0).unwrap();
        c.commit_txn();
        assert_eq!(c.cpu_in_use(), 2);
        // The undo log is gone: releasing after commit must not be
        // undone by a later transaction's rollback.
        c.begin_txn();
        c.rollback_txn();
        assert_eq!(c.cpu_in_use(), 2);
        c.release(ResourceConfig::new(2, 0), p);
        assert_eq!(c.cpu_in_use(), 0);
    }

    /// Replaying one replica's journal onto another keeps the replicas
    /// bit-identical — the mechanism sharded runs use to reconverge
    /// cluster views at epoch barriers.
    #[test]
    fn journal_replay_synchronises_replicas() {
        let mut a = ClusterSpec::testbed().build();
        let mut b = a.clone();
        a.enable_journal();
        assert!(a.journal_enabled());

        let cfg = ResourceConfig::new(4, 50);
        let p0 = a.allocate_anywhere_with_memory(cfg, 512.0).unwrap();
        let p1 = a
            .allocate_on_with_memory(ServerId::new(3), cfg, 256.0)
            .unwrap();
        a.release(cfg, p0);
        a.set_health(ServerId::new(7), ServerHealth::Down);
        let _ = p1;

        let ops = a.take_journal();
        assert_eq!(ops.len(), 4);
        b.apply_ops(&ops);
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        // The journal was drained and keeps recording.
        assert!(a.take_journal().is_empty());
        a.set_health(ServerId::new(7), ServerHealth::Up);
        assert_eq!(a.take_journal().len(), 1);
    }

    /// Rolled-back dry-run mutations never reach the journal, so they
    /// are never replayed onto sibling replicas.
    #[test]
    fn journal_excludes_rolled_back_mutations() {
        let mut c = ClusterSpec::testbed().build();
        c.enable_journal();
        let cfg = ResourceConfig::new(2, 20);
        let keep = c.allocate_anywhere(cfg).unwrap();
        c.begin_txn();
        for _ in 0..3 {
            c.try_place(cfg, 128.0).unwrap();
        }
        c.rollback_txn();
        c.release(cfg, keep);
        let ops = c.take_journal();
        assert_eq!(ops.len(), 2);
        assert!(matches!(ops[0], ClusterOp::Allocate { .. }));
        assert!(matches!(ops[1], ClusterOp::Release { .. }));
        // Committed transactions keep their ops.
        c.begin_txn();
        c.try_place(cfg, 128.0).unwrap();
        c.commit_txn();
        assert_eq!(c.take_journal().len(), 1);
    }

    /// Device-memory bookings ride the same journal: a replayed
    /// split allocation lands on the recorded device and restores the
    /// replica's device books bit-identically.
    #[test]
    fn journal_replay_covers_device_memory() {
        let mut a = ClusterSpec::testbed().build();
        let mut b = a.clone();
        a.enable_journal();

        let cfg = ResourceConfig::new(2, 40);
        let p0 = a.allocate_anywhere_with_split(cfg, 512.0, 6000.0).unwrap();
        assert!(p0.device_mb() > 0.0);
        let p1 = a
            .allocate_on_with_split(ServerId::new(2), cfg, 256.0, 8000.0)
            .unwrap();
        a.release(cfg, p0);
        let _ = p1;

        let ops = a.take_journal();
        b.apply_ops(&ops);
        assert_eq!(a, b);
        assert!((a.gpu_mem_in_use_mb() - 8000.0).abs() < 1e-9);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn device_memory_aggregates_track_bookings() {
        let mut c = ClusterSpec::large(2).build();
        assert_eq!(c.gpu_mem_capacity_mb(), 2.0 * 2.0 * DEFAULT_GPU_MEM_MB);
        assert_eq!(c.gpu_mem_in_use_mb(), 0.0);
        let cfg = ResourceConfig::new(1, 25);
        let p = c.allocate_anywhere_with_split(cfg, 0.0, 1234.0).unwrap();
        assert!((c.gpu_mem_in_use_mb() - 1234.0).abs() < 1e-9);
        c.release(cfg, p);
        assert_eq!(c.gpu_mem_in_use_mb(), 0.0);
    }

    #[test]
    #[should_panic(expected = "already open")]
    fn txns_do_not_nest() {
        let mut c = ClusterSpec::testbed().build();
        c.begin_txn();
        c.begin_txn();
    }

    /// Nested begin is recoverable through the fallible entry point:
    /// the caller learns the transaction is taken, the open one is
    /// undisturbed, and after settling it a new one opens fine.
    #[test]
    fn nested_begin_is_recoverable() {
        let mut c = ClusterSpec::testbed().build();
        c.try_begin_txn().expect("first begin succeeds");
        let err = c.try_begin_txn().expect_err("nested begin must fail");
        assert_eq!(err, TxnAlreadyOpen);
        assert!(err.to_string().contains("already open"));
        assert!(c.in_txn(), "failed nested begin leaves the txn open");
        let p = c.try_place(ResourceConfig::new(2, 20), 0.0).unwrap();
        c.rollback_txn();
        let _ = p;
        assert_eq!(c.cpu_in_use(), 0);
        c.try_begin_txn().expect("reopens after rollback");
        c.commit_txn();
    }

    /// A resize is a journaled, transactional op exactly like a
    /// placement: replaying it reconverges a sibling replica, and a
    /// rolled-back resize inside a transaction leaves the journal
    /// balanced (no resize op escapes to the replicas).
    #[test]
    fn resize_journal_replay_and_rollback_balance() {
        let mut a = ClusterSpec::testbed().build();
        let mut b = a.clone();
        a.enable_journal();

        let old = ResourceConfig::new(2, 20);
        let big = ResourceConfig::new(4, 40);
        let p = a.allocate_anywhere_with_memory(old, 512.0).unwrap();
        let p2 = a.try_resize(p, old, big, 256.0).expect("grow fits");
        assert_eq!(p2.mem_mb(), 768.0);
        assert_eq!(p2.gpu_index(), p.gpu_index());

        // A dry-run resize rolled back inside a consolidation-style
        // transaction must not leak into the journal.
        let mark = a.take_journal();
        assert_eq!(mark.len(), 2, "allocate + resize recorded");
        b.apply_ops(&mark);
        assert_eq!(a, b, "replay reconverges the replica");

        a.begin_txn();
        let p3 = a
            .try_resize(p2, big, ResourceConfig::new(8, 60), 128.0)
            .expect("dry-run grow fits");
        let _ = p3;
        a.rollback_txn();
        assert!(
            a.take_journal().is_empty(),
            "rolled-back resize leaves the journal balanced"
        );
        assert_eq!(a, b, "rollback restored the pre-dry-run state");

        // Shrink back and release under the final config.
        let p4 = a.try_resize(p2, big, old, -256.0).unwrap();
        b.apply_ops(&a.take_journal());
        assert_eq!(a, b);
        a.release(old, p4);
        assert_eq!(a.cpu_in_use(), 0);
        assert_eq!(a.gpu_in_use(), 0);
    }

    /// A failed resize records nothing: the journal and the books are
    /// untouched, so replicas never see the attempt.
    #[test]
    fn failed_resize_records_nothing() {
        let mut c = ClusterSpec::large(1).build();
        c.enable_journal();
        let old = ResourceConfig::new(2, 90);
        let p = c.allocate_anywhere(old).unwrap();
        let _ = c.take_journal();
        // A neighbour takes 5 of the 10 remaining points on the same
        // device, so growing to a full device can no longer fit.
        let filler = c.allocate_anywhere(ResourceConfig::new(1, 5)).unwrap();
        assert_eq!(filler.gpu_index(), p.gpu_index());
        let _ = c.take_journal();
        let before = c.clone();
        let err = c
            .try_resize(p, old, ResourceConfig::new(2, 100), 0.0)
            .unwrap_err();
        assert_eq!(err, PlacementError::InsufficientResources);
        // An absurd host-memory grow fails the same way.
        assert!(c
            .try_resize(p, old, ResourceConfig::new(2, 95), 1e12)
            .is_err());
        assert_eq!(c, before);
        assert!(c.take_journal().is_empty());
    }

    /// The linear scan the class index replaced, kept as the oracle
    /// for first-fit placement.
    fn first_fit_linear(
        c: &ClusterState,
        cfg: ResourceConfig,
        mem_mb: f64,
        device_mb: f64,
    ) -> Option<ServerId> {
        c.servers()
            .iter()
            .find(|s| s.fits_with_split(cfg, mem_mb, device_mb))
            .map(|s| s.id())
    }

    fn reps(c: &mut ClusterState) -> Vec<usize> {
        c.class_representatives().map(|s| s.id().raw()).collect()
    }

    #[test]
    fn classes_group_servers_by_exact_state() {
        let mut c = ClusterSpec::large(6).build();
        assert_eq!(reps(&mut c), [0], "an empty cluster is one class");
        let cfg = ResourceConfig::new(4, 50);
        c.allocate_on(ServerId::new(3), cfg).unwrap();
        c.allocate_on(ServerId::new(1), cfg).unwrap();
        c.set_health(ServerId::new(0), ServerHealth::Down);
        // {0} down, {1, 3} holding one config, {2, 4, 5} empty.
        assert_eq!(reps(&mut c), [0, 1, 2]);
        c.check_class_index().unwrap();
        // A different host-memory booking is a different state.
        c.allocate_on_with_memory(ServerId::new(4), cfg, 1.0)
            .unwrap();
        c.allocate_on(ServerId::new(5), cfg).unwrap();
        assert_eq!(reps(&mut c), [0, 1, 2, 4]);
        c.check_class_index().unwrap();
    }

    #[test]
    fn rollback_restores_pre_transaction_classes() {
        let mut c = ClusterSpec::large(5).build();
        c.allocate_on(ServerId::new(2), ResourceConfig::new(2, 20))
            .unwrap();
        let before = reps(&mut c);
        c.begin_txn();
        for _ in 0..4 {
            c.try_place(ResourceConfig::new(3, 30), 64.0).unwrap();
        }
        c.set_health(ServerId::new(4), ServerHealth::Down);
        assert_ne!(reps(&mut c), before, "the dry-run moved servers");
        c.rollback_txn();
        assert_eq!(reps(&mut c), before);
        c.check_class_index().unwrap();
    }

    #[test]
    fn deserialized_cluster_places_identically() {
        let mut a = ClusterSpec::large(5).build();
        a.allocate_on_with_split(ServerId::new(1), ResourceConfig::new(2, 40), 512.0, 900.0)
            .unwrap();
        a.allocate_on(ServerId::new(3), ResourceConfig::cpu(4))
            .unwrap();
        // Build `a`'s index before the round trip; `b` starts unkeyed.
        let _ = reps(&mut a);
        let json = serde_json::to_string(&a).unwrap();
        let mut b: ClusterState = serde_json::from_str(&json).unwrap();
        assert_eq!(a, b);
        assert_eq!(reps(&mut a), reps(&mut b));
        for (cpu, gpu, mem, dev) in [(4, 60, 256.0, 2000.0), (30, 0, 0.0, 0.0), (1, 45, 0.0, 0.0)] {
            let cfg = ResourceConfig::new(cpu, gpu);
            let pa = a.allocate_anywhere_with_split(cfg, mem, dev).unwrap();
            let pb = b.allocate_anywhere_with_split(cfg, mem, dev).unwrap();
            assert_eq!(pa, pb);
        }
        assert_eq!(a, b);
        b.check_class_index().unwrap();
    }

    /// Emptied classes are kept for reuse only up to a budget of
    /// 2 × servers + 64; past it the index starts over from the books
    /// and must still answer exactly.
    #[test]
    fn class_index_stays_exact_past_its_class_budget() {
        let mut c = ClusterSpec::large(2).build();
        let cfg = ResourceConfig::cpu(1);
        for mb in 1..=200 {
            let p = c
                .allocate_on_with_memory(ServerId::new(1), cfg, f64::from(mb))
                .unwrap();
            assert_eq!(reps(&mut c), [0, 1], "a new state for server 1");
            c.check_class_index().unwrap();
            c.release(cfg, p);
        }
        assert_eq!(reps(&mut c), [0]);
    }

    proptest! {
        /// Tentpole pin: rolling back a transaction restores the exact
        /// pre-transaction state, bit for bit — verified through the
        /// serialized form, which exposes every float's full precision.
        #[test]
        fn prop_txn_rollback_is_bit_identical(
            setup in prop::collection::vec((1u32..6, 0u32..80, 0.0f64..4096.0), 0..40),
            trial in prop::collection::vec((1u32..8, 0u32..100, 0.0f64..8192.0), 1..60),
            kill in 0usize..4, // 0..3 flips that server's health; 3 = no flip

        ) {
            let mut c = ClusterSpec::large(3).build();
            let mut live = Vec::new();
            for (cpu, gpu, mem) in setup {
                if let Ok(p) = c.allocate_anywhere_with_memory(ResourceConfig::new(cpu, gpu), mem) {
                    live.push((ResourceConfig::new(cpu, gpu), mem, p));
                }
            }
            let before_json = serde_json::to_string(&c).expect("serializes");
            let before = c.clone();

            c.begin_txn();
            // Mix transactional allocations, releases of pre-existing
            // placements, and a health flip — every mutator kind.
            for (i, (cpu, gpu, mem)) in trial.iter().enumerate() {
                if i % 3 == 2 {
                    if let Some((cfg, mem, p)) = live.pop() {
                        let _ = mem;
                        c.release(cfg, p);
                    }
                } else {
                    let _ = c.try_place(ResourceConfig::new(*cpu, *gpu), *mem);
                }
            }
            if kill < 3 {
                c.set_health(ServerId::new(kill), ServerHealth::Down);
            }
            c.rollback_txn();

            let after_json = serde_json::to_string(&c).expect("serializes");
            prop_assert_eq!(before_json, after_json);
            prop_assert_eq!(&before, &c);
        }

        /// Resize conservation: a grow+shrink round-trip restores the
        /// exact pre-resize books (weighted in-use and the serialized
        /// form, bit for bit), and a rollback across interleaved
        /// place/resize mutations is equally bit-identical.
        #[test]
        fn prop_resize_round_trip_conserves(
            base in prop::collection::vec((1u32..6, 1u32..50, 0u32..2048), 1..20),
            grow in (0u32..4, 0u32..30, 0u32..1024),
        ) {
            let mut c = ClusterSpec::large(2).build();
            let mut live = Vec::new();
            for (cpu, gpu, mem) in base {
                let cfg = ResourceConfig::new(cpu, gpu);
                // Integral MB so the float books stay exact under
                // grow+shrink deltas (integers < 2^53 round-trip).
                if let Ok(p) = c.allocate_anywhere_with_memory(cfg, f64::from(mem)) {
                    live.push((cfg, p));
                }
            }
            let before_json = serde_json::to_string(&c).expect("serializes");
            let weighted_before = c.weighted_in_use(0.13);

            // Round-trip every live allocation through a grow+shrink.
            let (dc, dg, dm) = grow;
            let dm = f64::from(dm);
            for (cfg, p) in &mut live {
                let new_gpu = (cfg.gpu_pct() + dg).min(100);
                let new_cfg = ResourceConfig::new(cfg.cpu_cores() + dc,
                    if cfg.gpu_pct() == 0 { 0 } else { new_gpu });
                if let Ok(p2) = c.try_resize(*p, *cfg, new_cfg, dm) {
                    let p3 = c.try_resize(p2, new_cfg, *cfg, -dm)
                        .expect("shrink back always fits");
                    *p = p3;
                }
            }
            prop_assert!((c.weighted_in_use(0.13) - weighted_before).abs() < 1e-9);
            let after_json = serde_json::to_string(&c).expect("serializes");
            prop_assert_eq!(&before_json, &after_json,
                "grow+shrink round-trip is bit-identical");

            // And a rolled-back mix of resizes and placements restores
            // the same serialized form.
            c.begin_txn();
            for (i, (cfg, p)) in live.iter().enumerate() {
                if i % 2 == 0 {
                    let bigger = ResourceConfig::new(cfg.cpu_cores() + 1, cfg.gpu_pct());
                    let _ = c.try_resize(*p, *cfg, bigger, 64.0);
                } else {
                    let _ = c.try_place(*cfg, 128.0);
                }
            }
            c.rollback_txn();
            let rolled_json = serde_json::to_string(&c).expect("serializes");
            prop_assert_eq!(&before_json, &rolled_json,
                "rollback across resizes is bit-identical");

            for (cfg, p) in live.drain(..) {
                c.release(cfg, p);
            }
            prop_assert_eq!(c.cpu_in_use(), 0);
            prop_assert_eq!(c.gpu_in_use(), 0);
        }

        /// Oracle test for the class index over random histories of
        /// every mutator: targeted and first-fit placements, releases,
        /// resizes, health changes, transactions committed and rolled
        /// back, and journal replay onto a replica. Checks (every few
        /// steps, so mutations pile up between refreshes) that the index
        /// equals one rebuilt from the books, and that first-fit over
        /// the representatives picks the linear scan's server.
        #[test]
        fn prop_class_index_tracks_every_history(
            steps in prop::collection::vec((0u8..8, 0u32..64, 0u32..64, 0u32..4), 1..80),
        ) {
            let spec = ClusterSpec {
                servers: 6,
                cores_per_server: 8,
                gpus_per_server: 2,
                mem_per_server_mb: 4096.0,
                gpu_mem_per_device_mb: 2048.0,
            };
            let gpu = [0, 10, 25, 50, 100];
            let health = [ServerHealth::Up, ServerHealth::Down, ServerHealth::Recovering];
            let mut c = spec.build();
            c.enable_journal();
            let mut replica = c.clone();
            let mut live: Vec<(ResourceConfig, Placement)> = Vec::new();
            let mut live_at_begin = Vec::new();
            for (op, a, b, m) in steps {
                let cfg = ResourceConfig::new(1 + a % 4, gpu[(b % 5) as usize]);
                let mem = f64::from(m) * 256.0;
                let dev = if cfg.gpu_pct() > 0 { f64::from(m) * 512.0 } else { 0.0 };
                let server = ServerId::new((a % 6) as usize);
                match op {
                    0 => {
                        if let Ok(p) = c.allocate_on_with_split(server, cfg, mem, dev) {
                            live.push((cfg, p));
                        }
                    }
                    1 => {
                        let want = first_fit_linear(&c, cfg, mem, dev);
                        let got = c.allocate_anywhere_with_split(cfg, mem, dev);
                        prop_assert_eq!(got.ok().map(|p| p.server()), want);
                        if let Ok(p) = got {
                            live.push((cfg, p));
                        }
                    }
                    2 if !live.is_empty() => {
                        let (cfg, p) = live.swap_remove(a as usize % live.len());
                        c.release(cfg, p);
                    }
                    3 if !live.is_empty() => {
                        let i = a as usize % live.len();
                        let (old, p) = live[i];
                        let pct = if old.gpu_pct() > 0 { gpu[1 + (b % 4) as usize] } else { 0 };
                        let new = ResourceConfig::new(1 + b % 4, pct);
                        let delta = if m % 2 == 0 { 128.0 } else { -p.mem_mb().min(128.0) };
                        if let Ok(p2) = c.try_resize(p, old, new, delta) {
                            live[i] = (new, p2);
                        }
                    }
                    4 => c.set_health(server, health[(b % 3) as usize]),
                    5 if c.in_txn() => {
                        c.rollback_txn();
                        live = std::mem::take(&mut live_at_begin);
                    }
                    5 => {
                        c.begin_txn();
                        live_at_begin = live.clone();
                    }
                    6 if c.in_txn() => c.commit_txn(),
                    7 if !c.in_txn() => {
                        replica.apply_ops(&c.take_journal());
                        prop_assert_eq!(&replica, &c);
                        prop_assert_eq!(reps(&mut replica), reps(&mut c));
                        prop_assert_eq!(replica.check_class_index(), Ok(()));
                    }
                    _ => {}
                }
                if b % 3 == 0 {
                    prop_assert_eq!(c.check_class_index(), Ok(()));
                    let want = first_fit_linear(&c, cfg, mem, dev);
                    let got = c.clone().allocate_anywhere_with_split(cfg, mem, dev);
                    prop_assert_eq!(got.ok().map(|p| p.server()), want);
                }
            }
            prop_assert_eq!(c.check_class_index(), Ok(()));
        }

        /// Cluster-level conservation: allocations plus frees equal capacity.
        #[test]
        fn prop_cluster_conservation(ops in prop::collection::vec((1u32..6, 0u32..80), 1..80)) {
            let mut c = ClusterSpec::large(3).build();
            let mut live = Vec::new();
            for (cpu, gpu) in ops {
                let cfg = ResourceConfig::new(cpu, gpu);
                if let Ok(p) = c.allocate_anywhere(cfg) {
                    live.push((cfg, p));
                }
                prop_assert!(c.cpu_in_use() <= c.cpu_capacity());
                prop_assert!(c.gpu_in_use() <= c.gpu_capacity());
            }
            let expected_cpu: u64 = live.iter().map(|(c, _)| u64::from(c.cpu_cores())).sum();
            prop_assert_eq!(c.cpu_in_use(), expected_cpu);
            for (cfg, p) in live.drain(..) {
                c.release(cfg, p);
            }
            prop_assert_eq!(c.cpu_in_use(), 0);
            prop_assert_eq!(c.gpu_in_use(), 0);
            prop_assert_eq!(c.active_servers(), 0);
        }
    }
}
