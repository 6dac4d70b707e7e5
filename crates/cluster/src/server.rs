//! A single server: CPU cores plus one or more physical GPUs whose SMs
//! are partitioned by percentage (CUDA MPS style).

use infless_models::ResourceConfig;
use serde::{Deserialize, Serialize};

use crate::ids::ServerId;

/// Where an allocation landed on a server: which GPU device (if any)
/// supplied the SM share. Needed to release the share to the right
/// device later.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    server: ServerId,
    gpu_index: Option<usize>,
    mem_mb: f64,
    // Defaulted so placements serialized before the host/device memory
    // split still load (they reserved no device memory).
    #[serde(default)]
    device_mb: f64,
}

impl Placement {
    /// The server the allocation lives on.
    pub fn server(self) -> ServerId {
        self.server
    }

    /// The GPU device index supplying the SM share, if any.
    pub fn gpu_index(self) -> Option<usize> {
        self.gpu_index
    }

    /// The host memory reserved by the allocation, in MB.
    pub fn mem_mb(self) -> f64 {
        self.mem_mb
    }

    /// The GPU device memory reserved by the allocation, in MB (zero
    /// when the caller does not model the device-memory tier).
    pub fn device_mb(self) -> f64 {
        self.device_mb
    }
}

/// Liveness of a server under the fault model (PR 3).
///
/// Only [`ServerHealth::Up`] servers accept placements; a crashed
/// ([`ServerHealth::Down`]) or rebooting ([`ServerHealth::Recovering`])
/// server is skipped by every placement path (Algorithm 1, first-fit,
/// spread, best-fit) because [`Server::fits_with_memory`] and
/// [`Server::allocate_with_memory`] refuse while unhealthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ServerHealth {
    /// Healthy: accepts placements.
    #[default]
    Up,
    /// Crashed: all instances died; accepts nothing.
    Down,
    /// Outage over, still booting; accepts nothing yet.
    Recovering,
}

/// One server's capacity and free-resource accounting.
///
/// GPU shares must fit within a single physical device — a 60 % slice
/// cannot be satisfied by two devices with 30 % free each. That is why
/// free GPU capacity is tracked per device rather than pooled.
///
/// # Example
///
/// ```
/// use infless_cluster::{Server, ServerId};
/// use infless_models::ResourceConfig;
///
/// let mut s = Server::new(ServerId::new(0), 32, &[100, 100]);
/// let p = s.allocate(ResourceConfig::new(4, 60)).expect("fits");
/// assert_eq!(s.cpu_free(), 28);
/// s.release(ResourceConfig::new(4, 60), p);
/// assert_eq!(s.cpu_free(), 32);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Server {
    id: ServerId,
    cpu_capacity: u32,
    cpu_free: u32,
    gpu_capacity: Vec<u32>,
    gpu_free: Vec<u32>,
    mem_capacity_mb: f64,
    mem_free_mb: f64,
    // Per-device GPU memory books (MB), same indexing as the SM-share
    // vectors. Defaulted so pre-split serialized servers still load
    // (their allocations reserved no device memory, so empty books are
    // consistent).
    #[serde(default)]
    gpu_mem_capacity_mb: Vec<f64>,
    #[serde(default)]
    gpu_mem_free_mb: Vec<f64>,
    instances: usize,
    // Defaulted so pre-fault-model serialized servers still load.
    #[serde(default)]
    health: ServerHealth,
}

/// Per-device GPU memory of the testbed's 2080Ti-class cards, MB.
pub const DEFAULT_GPU_MEM_MB: f64 = 11.0 * 1024.0;

impl Server {
    /// Creates a server with `cpu_capacity` cores, one entry in `gpus`
    /// per physical device giving its SM capacity in percent (normally
    /// 100), and the Table 2 default of 128 GB of memory.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_capacity` is zero.
    pub fn new(id: ServerId, cpu_capacity: u32, gpus: &[u32]) -> Self {
        Self::with_memory(id, cpu_capacity, gpus, 128.0 * 1024.0)
    }

    /// Creates a server with an explicit memory capacity in MB.
    ///
    /// The paper's scheduler omits the memory constraint because model
    /// footprints are far below server capacity (§3.4), but notes the
    /// formulation "can be easily extended to cover more resource
    /// dimensions" — this is that extension, and it matters on
    /// memory-constrained clusters.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_capacity` is zero or `mem_capacity_mb` is not
    /// positive.
    pub fn with_memory(
        id: ServerId,
        cpu_capacity: u32,
        gpus: &[u32],
        mem_capacity_mb: f64,
    ) -> Self {
        Self::with_memory_split(id, cpu_capacity, gpus, mem_capacity_mb, DEFAULT_GPU_MEM_MB)
    }

    /// Creates a server with an explicit host/device memory split:
    /// `mem_capacity_mb` of host memory plus `gpu_mem_per_device_mb` of
    /// memory on each physical GPU. Device memory only constrains
    /// allocations that declare a device demand
    /// ([`Self::allocate_with_split`]); the classic paths reserve none.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_capacity` is zero or either memory capacity is
    /// not positive/finite.
    pub fn with_memory_split(
        id: ServerId,
        cpu_capacity: u32,
        gpus: &[u32],
        mem_capacity_mb: f64,
        gpu_mem_per_device_mb: f64,
    ) -> Self {
        assert!(cpu_capacity > 0, "a server needs CPU capacity");
        assert!(
            mem_capacity_mb > 0.0 && mem_capacity_mb.is_finite(),
            "a server needs memory capacity"
        );
        assert!(
            gpu_mem_per_device_mb > 0.0 && gpu_mem_per_device_mb.is_finite(),
            "a GPU needs device memory capacity"
        );
        Server {
            id,
            cpu_capacity,
            cpu_free: cpu_capacity,
            gpu_capacity: gpus.to_vec(),
            gpu_free: gpus.to_vec(),
            mem_capacity_mb,
            mem_free_mb: mem_capacity_mb,
            gpu_mem_capacity_mb: vec![gpu_mem_per_device_mb; gpus.len()],
            gpu_mem_free_mb: vec![gpu_mem_per_device_mb; gpus.len()],
            instances: 0,
            health: ServerHealth::Up,
        }
    }

    /// The server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Total CPU cores.
    pub fn cpu_capacity(&self) -> u32 {
        self.cpu_capacity
    }

    /// Currently unallocated CPU cores.
    pub fn cpu_free(&self) -> u32 {
        self.cpu_free
    }

    /// Total GPU SM percentage across all devices.
    pub fn gpu_capacity_total(&self) -> u32 {
        self.gpu_capacity.iter().sum()
    }

    /// Currently unallocated GPU SM percentage across all devices.
    pub fn gpu_free_total(&self) -> u32 {
        self.gpu_free.iter().sum()
    }

    /// Total host memory in MB.
    pub fn mem_capacity_mb(&self) -> f64 {
        self.mem_capacity_mb
    }

    /// Currently unallocated host memory in MB.
    pub fn mem_free_mb(&self) -> f64 {
        self.mem_free_mb
    }

    /// Total GPU device memory across all devices, MB.
    pub fn gpu_mem_capacity_total_mb(&self) -> f64 {
        self.gpu_mem_capacity_mb.iter().sum()
    }

    /// Currently unallocated GPU device memory across all devices, MB.
    pub fn gpu_mem_free_total_mb(&self) -> f64 {
        self.gpu_mem_free_mb.iter().sum()
    }

    /// Number of instances currently placed on this server.
    pub fn instance_count(&self) -> usize {
        self.instances
    }

    /// `true` if at least one instance is placed here (an *active*
    /// server in the fragmentation metric of Fig. 17b).
    pub fn is_active(&self) -> bool {
        self.instances > 0
    }

    /// The server's health under the fault model.
    pub fn health(&self) -> ServerHealth {
        self.health
    }

    /// Sets the server's health. Accounting is untouched: a crash
    /// releases its instances' allocations one by one as the engine
    /// kills them, so the books stay exact through the transition.
    pub fn set_health(&mut self, health: ServerHealth) {
        self.health = health;
    }

    /// Checks whether `cfg` fits without allocating. A GPU share must
    /// fit within a single device.
    pub fn fits(&self, cfg: ResourceConfig) -> bool {
        self.fits_with_memory(cfg, 0.0)
    }

    /// [`Self::fits`] with an additional host-memory demand in MB.
    pub fn fits_with_memory(&self, cfg: ResourceConfig, mem_mb: f64) -> bool {
        self.fits_with_split(cfg, mem_mb, 0.0)
    }

    /// [`Self::fits_with_memory`] with an additional GPU device-memory
    /// demand in MB: a single device must supply both the SM share and
    /// the device memory. `device_mb == 0.0` is exactly the classic
    /// check.
    pub fn fits_with_split(&self, cfg: ResourceConfig, mem_mb: f64, device_mb: f64) -> bool {
        if self.health != ServerHealth::Up {
            return false;
        }
        if cfg.cpu_cores() > self.cpu_free || mem_mb > self.mem_free_mb {
            return false;
        }
        if cfg.gpu_pct() == 0 {
            return device_mb <= 0.0;
        }
        self.gpu_free
            .iter()
            .enumerate()
            .any(|(i, &f)| f >= cfg.gpu_pct() && self.device_mem_fits(i, device_mb))
    }

    /// Whether device `i` has `device_mb` MB free. Servers deserialized
    /// from pre-split snapshots carry empty device books — their
    /// allocations reserved no device memory, so an absent book is
    /// treated as unconstrained.
    #[inline]
    fn device_mem_fits(&self, i: usize, device_mb: f64) -> bool {
        self.gpu_mem_free_mb.get(i).is_none_or(|&f| f >= device_mb)
    }

    /// Writes this server's exact free-resource state into `out`:
    /// health, free cores, free host memory, and per device the free
    /// SM share and free device memory, floats as raw bits. Every
    /// input of [`Self::fits_with_split`], of
    /// [`Self::allocate_with_split`]'s device choice and of the Eq. 10
    /// fragment term is in the key, so two servers with equal keys
    /// answer every placement query alike.
    pub(crate) fn state_key(&self, out: &mut Vec<u64>) {
        out.clear();
        out.push(self.health as u64);
        out.push(u64::from(self.cpu_free));
        out.push(self.mem_free_mb.to_bits());
        out.push(self.gpu_free.len() as u64);
        out.extend(self.gpu_free.iter().map(|&f| u64::from(f)));
        out.extend(self.gpu_mem_free_mb.iter().map(|f| f.to_bits()));
    }

    /// Allocates `cfg` with no memory demand; see
    /// [`Self::allocate_with_memory`].
    pub fn allocate(&mut self, cfg: ResourceConfig) -> Option<Placement> {
        self.allocate_with_memory(cfg, 0.0)
    }

    /// Allocates `cfg` plus `mem_mb` MB of memory, preferring the GPU
    /// device with the *least* sufficient free share (best-fit, to keep
    /// large contiguous shares available). Returns `None` if the config
    /// does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `mem_mb` is negative or non-finite.
    pub fn allocate_with_memory(&mut self, cfg: ResourceConfig, mem_mb: f64) -> Option<Placement> {
        self.allocate_with_split(cfg, mem_mb, 0.0)
    }

    /// [`Self::allocate_with_memory`] with an additional GPU
    /// device-memory demand: the chosen device supplies both the SM
    /// share and `device_mb` MB of device memory (best-fit by free
    /// share among devices that satisfy both). `device_mb == 0.0`
    /// behaves identically to the classic path.
    ///
    /// # Panics
    ///
    /// Panics if either memory demand is negative or non-finite, or if
    /// a device demand is attached to a CPU-only configuration (there
    /// is no device to hold it).
    pub fn allocate_with_split(
        &mut self,
        cfg: ResourceConfig,
        mem_mb: f64,
        device_mb: f64,
    ) -> Option<Placement> {
        assert!(mem_mb >= 0.0 && mem_mb.is_finite(), "bad memory demand");
        assert!(
            device_mb >= 0.0 && device_mb.is_finite(),
            "bad device memory demand"
        );
        assert!(
            device_mb == 0.0 || cfg.gpu_pct() > 0,
            "device memory demand on a CPU-only configuration"
        );
        if self.health != ServerHealth::Up {
            return None;
        }
        if cfg.cpu_cores() > self.cpu_free || mem_mb > self.mem_free_mb {
            return None;
        }
        let gpu_index = if cfg.gpu_pct() == 0 {
            None
        } else {
            let best = self
                .gpu_free
                .iter()
                .enumerate()
                .filter(|&(i, &f)| f >= cfg.gpu_pct() && self.device_mem_fits(i, device_mb))
                .min_by_key(|(_, &f)| f)
                .map(|(i, _)| i)?;
            Some(best)
        };
        self.cpu_free -= cfg.cpu_cores();
        self.mem_free_mb -= mem_mb;
        if let Some(i) = gpu_index {
            self.gpu_free[i] -= cfg.gpu_pct();
            if let Some(f) = self.gpu_mem_free_mb.get_mut(i) {
                *f -= device_mb;
            }
        }
        self.instances += 1;
        Some(Placement {
            server: self.id,
            gpu_index,
            mem_mb,
            device_mb,
        })
    }

    /// Resizes a committed allocation in place: the instance keeps its
    /// server and GPU device while its CPU/SM share and host memory
    /// grow or shrink by the config delta. Returns the updated
    /// placement, or `None` when the grow does not fit (caller falls
    /// back to horizontal scale-out).
    ///
    /// The resize never migrates across devices — a grow must fit on
    /// the *same* GPU the share already lives on, and CPU-only
    /// allocations must stay CPU-only (and vice versa): crossing the
    /// CPU/GPU boundary is a relaunch, not a resize. Device memory is
    /// untouched (the model weights do not resize). All checks happen
    /// before any book is mutated, so a failed resize leaves the server
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the placement belongs to a different server, its GPU
    /// kind does not match `old_cfg`, or `mem_delta_mb` is non-finite —
    /// type-level misuse, not capacity races.
    pub fn resize(
        &mut self,
        old_cfg: ResourceConfig,
        new_cfg: ResourceConfig,
        placement: Placement,
        mem_delta_mb: f64,
    ) -> Option<Placement> {
        assert_eq!(placement.server, self.id, "resize on the wrong server");
        assert!(mem_delta_mb.is_finite(), "bad memory delta");
        assert!(
            (placement.gpu_index.is_some()) == (old_cfg.gpu_pct() > 0),
            "placement/config GPU mismatch"
        );
        // Crossing the CPU/GPU boundary is not a resize.
        if (old_cfg.gpu_pct() > 0) != (new_cfg.gpu_pct() > 0) {
            return None;
        }
        if self.health != ServerHealth::Up {
            return None;
        }
        // Check every delta before mutating any book: atomicity.
        let cpu_grow = new_cfg.cpu_cores().saturating_sub(old_cfg.cpu_cores());
        if cpu_grow > self.cpu_free {
            return None;
        }
        if mem_delta_mb > self.mem_free_mb {
            return None;
        }
        if let Some(i) = placement.gpu_index {
            let gpu_grow = new_cfg.gpu_pct().saturating_sub(old_cfg.gpu_pct());
            if gpu_grow > self.gpu_free[i] {
                return None;
            }
        }
        // All deltas fit: apply them.
        self.cpu_free = (self.cpu_free + old_cfg.cpu_cores())
            .min(self.cpu_capacity)
            .saturating_sub(new_cfg.cpu_cores());
        self.mem_free_mb = (self.mem_free_mb - mem_delta_mb).min(self.mem_capacity_mb);
        if let Some(i) = placement.gpu_index {
            self.gpu_free[i] = (self.gpu_free[i] + old_cfg.gpu_pct())
                .min(self.gpu_capacity[i])
                .saturating_sub(new_cfg.gpu_pct());
        }
        Some(Placement {
            server: self.id,
            gpu_index: placement.gpu_index,
            mem_mb: placement.mem_mb + mem_delta_mb,
            device_mb: placement.device_mb,
        })
    }

    /// Releases an allocation made by [`Self::allocate`] /
    /// [`Self::allocate_with_memory`].
    ///
    /// A double release (e.g. a crash-forced release racing a normal
    /// retirement) is flagged with `debug_assert!` in debug builds; in
    /// release builds the books saturate at capacity instead of
    /// overflowing, so a slipped-through accounting bug degrades into a
    /// bounded over-count rather than corruption.
    ///
    /// # Panics
    ///
    /// Panics if the placement belongs to a different server or its GPU
    /// share does not match the config — those are type-level misuse,
    /// not races. Debug builds additionally panic on double release.
    pub fn release(&mut self, cfg: ResourceConfig, placement: Placement) {
        assert_eq!(placement.server, self.id, "release on the wrong server");
        debug_assert!(self.instances > 0, "release with no instances placed");
        debug_assert!(
            self.cpu_free + cfg.cpu_cores() <= self.cpu_capacity,
            "CPU release exceeds capacity"
        );
        self.cpu_free = (self.cpu_free + cfg.cpu_cores()).min(self.cpu_capacity);
        self.mem_free_mb = (self.mem_free_mb + placement.mem_mb).min(self.mem_capacity_mb);
        match (placement.gpu_index, cfg.gpu_pct()) {
            (None, 0) => {}
            (Some(i), pct) if pct > 0 => {
                debug_assert!(
                    self.gpu_free[i] + pct <= self.gpu_capacity[i],
                    "GPU release exceeds device capacity"
                );
                self.gpu_free[i] = (self.gpu_free[i] + pct).min(self.gpu_capacity[i]);
                if let Some(f) = self.gpu_mem_free_mb.get_mut(i) {
                    *f = (*f + placement.device_mb).min(self.gpu_mem_capacity_mb[i]);
                }
            }
            _ => panic!("placement/config GPU mismatch"),
        }
        self.instances = self.instances.saturating_sub(1);
    }

    /// Weighted free fraction `((β·cpu_free + gpu_free) / (β·C + G))`
    /// used by the fragmentation metric; `beta` converts cores to GPU
    /// percentage points.
    pub fn free_fraction(&self, beta: f64) -> f64 {
        let free = beta * f64::from(self.cpu_free) + f64::from(self.gpu_free_total());
        let cap = beta * f64::from(self.cpu_capacity) + f64::from(self.gpu_capacity_total());
        free / cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn server() -> Server {
        Server::new(ServerId::new(0), 32, &[100, 100])
    }

    #[test]
    fn allocate_and_release_restore_state() {
        let mut s = server();
        let cfg = ResourceConfig::new(8, 40);
        let p = s.allocate(cfg).unwrap();
        assert_eq!(s.cpu_free(), 24);
        assert_eq!(s.gpu_free_total(), 160);
        assert!(s.is_active());
        s.release(cfg, p);
        assert_eq!(s.cpu_free(), 32);
        assert_eq!(s.gpu_free_total(), 200);
        assert!(!s.is_active());
    }

    #[test]
    fn gpu_share_cannot_span_devices() {
        let mut s = server();
        // Fragment both GPUs down to 40% free each.
        let a = s.allocate(ResourceConfig::new(1, 60)).unwrap();
        let b = s.allocate(ResourceConfig::new(1, 60)).unwrap();
        assert_eq!(s.gpu_free_total(), 80);
        // 80% is free in total but no single device has it.
        assert!(!s.fits(ResourceConfig::new(1, 70)));
        assert!(s.allocate(ResourceConfig::new(1, 70)).is_none());
        // 40% fits on either device.
        assert!(s.fits(ResourceConfig::new(1, 40)));
        s.release(ResourceConfig::new(1, 60), a);
        s.release(ResourceConfig::new(1, 60), b);
    }

    #[test]
    fn best_fit_prefers_tighter_device() {
        let mut s = server();
        let _a = s.allocate(ResourceConfig::new(1, 70)).unwrap(); // dev0: 30 free
                                                                  // A 25% request should land on dev0 (30 free), not dev1 (100 free).
        let p = s.allocate(ResourceConfig::new(1, 25)).unwrap();
        assert_eq!(p.gpu_index(), Some(0));
    }

    #[test]
    fn cpu_exhaustion_blocks_allocation() {
        let mut s = server();
        assert!(s.allocate(ResourceConfig::cpu(32)).is_some());
        assert!(s.allocate(ResourceConfig::cpu(1)).is_none());
        assert!(!s.fits(ResourceConfig::cpu(1)));
    }

    #[test]
    #[should_panic(expected = "wrong server")]
    fn release_on_wrong_server_panics() {
        let mut a = Server::new(ServerId::new(0), 4, &[]);
        let mut b = Server::new(ServerId::new(1), 4, &[]);
        let p = a.allocate(ResourceConfig::cpu(2)).unwrap();
        b.release(ResourceConfig::cpu(2), p);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds capacity")]
    fn double_release_panics() {
        let mut s = Server::new(ServerId::new(0), 4, &[]);
        let p = s.allocate(ResourceConfig::cpu(2)).unwrap();
        s.release(ResourceConfig::cpu(2), p);
        // Fake instance count so we hit the capacity assertion.
        let p2 = s.allocate(ResourceConfig::cpu(1)).unwrap();
        s.release(ResourceConfig::cpu(2), p2);
    }

    /// Regression for the double-release guard: whether or not the
    /// debug assertion fires, the books saturate at capacity instead of
    /// overflowing (a crash-forced release racing a normal retirement
    /// must never corrupt accounting).
    #[test]
    fn double_release_saturates_books() {
        let mut s = Server::new(ServerId::new(0), 4, &[100]);
        let p = s.allocate(ResourceConfig::new(2, 50)).unwrap();
        s.release(ResourceConfig::new(2, 50), p);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut again = s.clone();
            again.release(ResourceConfig::new(2, 50), p);
            again
        }));
        if cfg!(debug_assertions) {
            // Debug build: the double release is flagged loudly.
            assert!(result.is_err(), "debug build must panic on double release");
        } else {
            // Release build: the books clamp, nothing overflows.
            let again = result.expect("release build must not panic on double release");
            assert_eq!(again.cpu_free(), again.cpu_capacity());
            assert_eq!(again.gpu_free_total(), again.gpu_capacity_total());
            assert_eq!(again.instance_count(), 0);
        }
    }

    #[test]
    fn unhealthy_server_rejects_placements() {
        let mut s = server();
        let cfg = ResourceConfig::new(2, 40);
        assert_eq!(s.health(), ServerHealth::Up);
        s.set_health(ServerHealth::Down);
        assert!(!s.fits(cfg));
        assert!(s.allocate(cfg).is_none());
        s.set_health(ServerHealth::Recovering);
        assert!(!s.fits(cfg));
        assert!(s.allocate(cfg).is_none());
        s.set_health(ServerHealth::Up);
        assert!(s.fits(cfg));
        assert!(s.allocate(cfg).is_some());
    }

    #[test]
    fn free_fraction_spans_zero_to_one() {
        let mut s = server();
        assert_eq!(s.free_fraction(0.13), 1.0);
        let cfgs = [ResourceConfig::new(16, 100), ResourceConfig::new(16, 100)];
        for c in cfgs {
            s.allocate(c).unwrap();
        }
        assert_eq!(s.free_fraction(0.13), 0.0);
    }

    #[test]
    fn memory_constrains_allocation() {
        let mut s = Server::with_memory(ServerId::new(0), 32, &[100], 1000.0);
        assert!(s.fits_with_memory(ResourceConfig::cpu(1), 600.0));
        let p = s
            .allocate_with_memory(ResourceConfig::cpu(1), 600.0)
            .unwrap();
        assert_eq!(s.mem_free_mb(), 400.0);
        // Plenty of cores left, but not enough memory.
        assert!(!s.fits_with_memory(ResourceConfig::cpu(1), 500.0));
        assert!(s
            .allocate_with_memory(ResourceConfig::cpu(1), 500.0)
            .is_none());
        s.release(ResourceConfig::cpu(1), p);
        assert_eq!(s.mem_free_mb(), 1000.0);
        assert_eq!(p.mem_mb(), 600.0);
    }

    #[test]
    fn default_memory_matches_table2() {
        let s = Server::new(ServerId::new(0), 32, &[100, 100]);
        assert_eq!(s.mem_capacity_mb(), 128.0 * 1024.0);
        assert_eq!(s.mem_free_mb(), s.mem_capacity_mb());
        assert_eq!(s.gpu_mem_capacity_total_mb(), 2.0 * DEFAULT_GPU_MEM_MB);
        assert_eq!(s.gpu_mem_free_total_mb(), s.gpu_mem_capacity_total_mb());
    }

    #[test]
    fn device_memory_constrains_gpu_placement() {
        let mut s = Server::with_memory_split(ServerId::new(0), 32, &[100, 100], 1e5, 1000.0);
        let cfg = ResourceConfig::new(1, 10);
        // Fill device 0's memory with a 600 MB model; a second 600 MB
        // model no longer fits there but lands on device 1, even though
        // best-fit-by-share alone would have preferred device 0.
        let a = s.allocate_with_split(cfg, 600.0, 600.0).unwrap();
        assert_eq!(a.gpu_index(), Some(0));
        assert_eq!(a.device_mb(), 600.0);
        let b = s.allocate_with_split(cfg, 600.0, 600.0).unwrap();
        assert_eq!(b.gpu_index(), Some(1));
        // Both devices' memory is now below 600 MB free: a third does
        // not fit despite ample SM share.
        assert!(!s.fits_with_split(cfg, 600.0, 600.0));
        assert!(s.allocate_with_split(cfg, 600.0, 600.0).is_none());
        // Zero-device-demand allocations are untouched by the wall.
        assert!(s.fits_with_split(cfg, 600.0, 0.0));
        s.release(cfg, a);
        s.release(cfg, b);
        assert_eq!(s.gpu_mem_free_total_mb(), 2000.0);
    }

    #[test]
    fn zero_device_demand_matches_classic_path() {
        let mut classic = server();
        let mut split = server();
        let cfg = ResourceConfig::new(2, 30);
        let a = classic.allocate_with_memory(cfg, 500.0).unwrap();
        let b = split.allocate_with_split(cfg, 500.0, 0.0).unwrap();
        assert_eq!(a, b);
        assert_eq!(classic, split);
    }

    #[test]
    #[should_panic(expected = "CPU-only")]
    fn device_demand_on_cpu_only_config_panics() {
        let mut s = server();
        s.allocate_with_split(ResourceConfig::cpu(1), 100.0, 100.0);
    }

    #[test]
    #[should_panic(expected = "memory capacity")]
    fn zero_memory_rejected() {
        Server::with_memory(ServerId::new(0), 1, &[], 0.0);
    }

    #[test]
    fn resize_grow_and_shrink_round_trip() {
        let mut s = server();
        let old = ResourceConfig::new(4, 30);
        let big = ResourceConfig::new(8, 50);
        let p = s.allocate_with_memory(old, 500.0).unwrap();
        let before = s.clone();
        let p2 = s.resize(old, big, p, 250.0).expect("grow fits");
        assert_eq!(s.cpu_free(), 32 - 8);
        assert_eq!(s.gpu_free_total(), 200 - 50);
        assert_eq!(s.mem_free_mb(), 128.0 * 1024.0 - 750.0);
        assert_eq!(p2.gpu_index(), p.gpu_index());
        assert_eq!(p2.mem_mb(), 750.0);
        assert_eq!(s.instance_count(), 1);
        let p3 = s.resize(big, old, p2, -250.0).expect("shrink always fits");
        assert_eq!(s, before, "grow+shrink round-trip is bit-identical");
        s.release(old, p3);
        assert_eq!(s.cpu_free(), 32);
        assert_eq!(s.gpu_free_total(), 200);
        assert_eq!(s.instance_count(), 0);
    }

    #[test]
    fn resize_stays_on_same_device() {
        let mut s = server();
        // dev0: 30 free after this, dev1: 100 free.
        let filler = s.allocate(ResourceConfig::new(1, 70)).unwrap();
        let old = ResourceConfig::new(1, 20);
        let p = s.allocate(old).unwrap();
        assert_eq!(p.gpu_index(), Some(0), "best-fit lands on the tight device");
        // Growing to 60% needs 40 more points; dev0 only has 10 free —
        // the resize must fail rather than migrate to dev1.
        let before = s.clone();
        assert!(s.resize(old, ResourceConfig::new(1, 60), p, 0.0).is_none());
        assert_eq!(s, before, "failed resize leaves the books untouched");
        // A grow that fits on dev0 succeeds in place.
        let p2 = s.resize(old, ResourceConfig::new(1, 30), p, 0.0).unwrap();
        assert_eq!(p2.gpu_index(), Some(0));
        s.release(ResourceConfig::new(1, 30), p2);
        s.release(ResourceConfig::new(1, 70), filler);
    }

    #[test]
    fn resize_rejects_cpu_gpu_boundary_crossing() {
        let mut s = server();
        let old = ResourceConfig::cpu(2);
        let p = s.allocate(old).unwrap();
        assert!(s.resize(old, ResourceConfig::new(2, 10), p, 0.0).is_none());
        s.release(old, p);
        let old = ResourceConfig::new(2, 10);
        let p = s.allocate(old).unwrap();
        assert!(s.resize(old, ResourceConfig::cpu(4), p, 0.0).is_none());
        s.release(old, p);
    }

    #[test]
    fn resize_refused_while_unhealthy() {
        let mut s = server();
        let old = ResourceConfig::new(2, 10);
        let p = s.allocate(old).unwrap();
        s.set_health(ServerHealth::Down);
        assert!(s.resize(old, ResourceConfig::new(4, 20), p, 0.0).is_none());
    }

    proptest! {
        /// Alloc/release sequences never corrupt the books: free never
        /// exceeds capacity and everything released returns.
        #[test]
        fn prop_accounting_conserved(ops in prop::collection::vec((1u32..8, 0u32..60), 1..50)) {
            let mut s = server();
            let mut live: Vec<(ResourceConfig, Placement)> = Vec::new();
            for (cpu, gpu) in ops {
                let cfg = ResourceConfig::new(cpu, gpu);
                if let Some(p) = s.allocate(cfg) {
                    live.push((cfg, p));
                }
                prop_assert!(s.cpu_free() <= s.cpu_capacity());
                prop_assert!(s.gpu_free_total() <= s.gpu_capacity_total());
            }
            for (cfg, p) in live.drain(..) {
                s.release(cfg, p);
            }
            prop_assert_eq!(s.cpu_free(), s.cpu_capacity());
            prop_assert_eq!(s.gpu_free_total(), s.gpu_capacity_total());
            prop_assert_eq!(s.instance_count(), 0);
        }
    }
}
