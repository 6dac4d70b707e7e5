//! Sharded multi-core simulation with deterministic epoch barriers.
//!
//! [`ShardedInfless`] partitions the deployed functions across `S`
//! shards. Each shard runs a full [`InflessPlatform`] — its own event
//! queue, staged arrival stream, and *cluster replica* — over only the
//! functions it owns. Shards exchange cross-shard effects exclusively
//! at epoch barriers, so a run's result is a pure function of
//! `(workload, seed, configuration)` and **bit-identical across shard
//! counts**: `run(w, 1)` equals `run(w, 8)` byte for byte.
//!
//! # The barrier protocol
//!
//! Simulated time is cut into epochs of `scaler_period / 5` (200 ms at
//! the defaults — exactly the emergency-scaling backoff, so deferring
//! drop-triggered scale-outs to the next barrier respects the same
//! rate limit the legacy loop enforces). Between barriers a shard
//! touches *nothing* global:
//!
//! * **No mid-epoch allocation.** Platforms run in deferred-scaling
//!   mode: requests that no instance can take wait in a pending buffer
//!   instead of triggering an emergency launch, and throughput lost to
//!   kills accrues in a pending-rate account. Both are settled by the
//!   barrier flush.
//! * **Per-function RNG.** Execution-time noise comes from streams
//!   keyed by function identity, not shard layout
//!   ([`Engine::use_per_function_noise`]).
//! * **Snapshot interference.** MPS slowdown reads the cluster-wide GPU
//!   occupancy snapshot installed at the last barrier, not the live
//!   books of whichever functions happen to co-reside on this shard.
//!
//! At each barrier the single-threaded coordinator (a) replays every
//! replica's cluster journal onto the others, (b) sweeps functions in
//! function-major order — pending-buffer flush, scaler pass on scaler
//! barriers, journal replay, recapacity crediting — and (c)
//! pre-resolves the coming epoch's fault events into concrete
//! *directives* (`DirectiveKill` / `DirectiveStraggler`) pushed into
//! the owning shards' queues. Victim selection therefore always sees
//! the same global, function-major candidate order regardless of how
//! functions are sharded.
//!
//! With more than one shard, epochs execute on scoped worker threads
//! (`std::thread::scope`) — no async runtime, no unordered channels;
//! determinism needs no locks because shards share nothing mid-epoch.
//!
//! [`Engine::use_per_function_noise`]: crate::engine::Engine::use_per_function_noise

use std::collections::HashSet;

use infless_cluster::{ClusterOp, ClusterSpec, InstanceId, ServerHealth, ServerId};
use infless_faults::{FaultEvent, FaultSchedule};
use infless_sim::{EventQueue, SimDuration, SimTime, StagedStream};
use infless_telemetry::{DecisionRecord, FaultTag, MemorySink, RecordWriter};
use infless_workload::{ArrivalSource, Workload};

use crate::chains::{ChainReport, ChainSpec};
use crate::driver::{self, TICK_MARGIN};
use crate::engine::{credit_recapacity, EngineEvent, FunctionInfo, RecapacityProbes};
use crate::metrics::RunReport;
use crate::platform::{InflessConfig, InflessPlatform};

/// Builder for sharded INFless runs. Holds the deployment description
/// (not a built platform), so one builder can drive several runs —
/// e.g. the shard-invariance tests compare `run(w, 1)` against
/// `run(w, 4)` from the same builder.
#[derive(Debug, Clone)]
pub struct ShardedInfless {
    cluster: ClusterSpec,
    functions: Vec<FunctionInfo>,
    chain_specs: Vec<ChainSpec>,
    config: InflessConfig,
    seed: u64,
    faults: FaultSchedule,
}

/// One shard: a full platform over a cluster replica, plus its private
/// event queue and arrival stream.
struct Shard<'a> {
    platform: InflessPlatform,
    queue: EventQueue<EngineEvent>,
    stream: StagedStream<ArrivalSource<'a>>,
    /// Function indices this shard owns (ascending).
    owned: Vec<usize>,
}

impl ShardedInfless {
    /// Builds the sharded runner for a plain (chainless) deployment.
    pub fn new(
        cluster: ClusterSpec,
        functions: Vec<FunctionInfo>,
        config: InflessConfig,
        seed: u64,
    ) -> Self {
        Self::with_chains(cluster, functions, Vec::new(), config, seed)
    }

    /// Builds the sharded runner with declared function chains. A
    /// chain's stages always land on the same shard (stage relays are
    /// ordinary same-shard deliveries), so chaining never constrains
    /// the barrier protocol.
    pub fn with_chains(
        cluster: ClusterSpec,
        functions: Vec<FunctionInfo>,
        chain_specs: Vec<ChainSpec>,
        config: InflessConfig,
        seed: u64,
    ) -> Self {
        ShardedInfless {
            cluster,
            functions,
            chain_specs,
            config,
            seed,
            faults: FaultSchedule::empty(),
        }
    }

    /// Attaches a fault schedule; the coordinator pre-resolves its
    /// events into per-shard directives at epoch barriers.
    pub fn with_fault_schedule(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Runs the workload on `shards` shards and returns the merged
    /// report. The report is bit-identical for every `shards >= 1`
    /// (wall-clock fields excepted; see
    /// [`RunReport::canonical_json`]).
    pub fn run(&self, workload: &Workload, shards: usize) -> RunReport {
        self.run_into(workload, shards, None)
    }

    /// Like [`run`](Self::run), but returns the decision trace
    /// [`run_into`](Self::run_into) releases, collected in memory.
    pub fn run_with_decisions(
        &self,
        workload: &Workload,
        shards: usize,
    ) -> (RunReport, Vec<DecisionRecord>) {
        let decisions = MemorySink::decisions_only();
        let mut writer = RecordWriter::new(vec![Box::new(decisions.clone())]);
        let report = self.run_into(workload, shards, Some(&mut writer));
        writer
            .finish()
            .expect("collecting records in memory cannot fail");
        let records = std::mem::take(&mut decisions.store().decisions);
        (report, records)
    }

    /// Like [`run`](Self::run), but feeds `records`, if given, every
    /// record the shards emit on the channels its outputs asked for:
    /// the run's identity first, then at each barrier every record
    /// strictly before the barrier time. Gauge rows come from the
    /// coordinator's cross-shard sample at scaler barriers. Because
    /// every record derives only from shard-invariant quantities and
    /// the writer's order is total, every output is byte-identical for
    /// every shard count. The caller finishes the writer.
    pub fn run_into(
        &self,
        workload: &Workload,
        shards: usize,
        mut records: Option<&mut RecordWriter>,
    ) -> RunReport {
        let s_count = shards.max(1);
        let (owner_of_fn, owned_by_shard) = self.partition(s_count);

        let mut shards_v: Vec<Shard<'_>> = (0..s_count)
            .map(|s| {
                let mut platform = InflessPlatform::with_chains(
                    self.cluster,
                    self.functions.clone(),
                    self.chain_specs.clone(),
                    self.config,
                    self.seed,
                );
                platform.set_deferred_scaling();
                platform.engine.use_per_function_noise(self.seed);
                platform.engine.use_interference_snapshot();
                platform.engine.use_external_recapacity();
                platform.engine.cluster_mut().enable_journal();
                Shard {
                    platform,
                    queue: EventQueue::new(),
                    // Only the arrivals of functions this shard owns,
                    // in global order.
                    stream: StagedStream::from_source(
                        workload.source(SimDuration::ZERO, |f| owner_of_fn[f] == s),
                    ),
                    owned: owned_by_shard[s].clone(),
                }
            })
            .collect();

        if let Some(writer) = records.as_deref_mut() {
            writer.begin(&shards_v[0].platform.engine.trace_meta());
            for sh in &mut shards_v {
                sh.platform.engine.open_channels(writer.channels());
            }
        }
        // Every shard's records, merged at each barrier: each shard's
        // buffer holds at most the epoch just drained.
        let mut pending = Vec::new();
        let mut collect = |shards: &mut [Shard<'_>], writer: &mut RecordWriter, t: f64| {
            for sh in shards {
                pending.append(sh.platform.engine.records_mut());
            }
            writer.flush_below(&mut pending, t);
        };

        let epoch = self.config.scaler_period / 5;
        assert!(
            epoch > SimDuration::ZERO,
            "scaler_period too short to derive an epoch length"
        );
        let fault_events = self.faults.events();
        let mut fault_idx = 0usize;
        // Coordinator-owned time-to-recapacity probes. Launches credit
        // them in function-major barrier order, which no shard layout
        // can perturb.
        let mut probes = RecapacityProbes::new();
        let mut tombstones: HashSet<(usize, InstanceId)> = HashSet::new();

        let mut t_prev = SimTime::ZERO;
        let has_arrivals = shards_v.iter().any(|sh| sh.stream.staged_time().is_some());
        if has_arrivals || !fault_events.is_empty() {
            let mut k = 0u64;
            loop {
                // A batch timer the engine never pushed counts as an
                // event until its deadline passes.
                let has_events = shards_v.iter().any(|sh| {
                    sh.stream.peek_time(&sh.queue).is_some()
                        || sh.platform.engine.timer_horizon() > t_prev
                });
                // `k % 5 == 0`: stop only on a scaler barrier, mirroring
                // the legacy loop whose final event is the first scaler
                // tick at or past the horizon.
                if !has_events
                    && fault_idx >= fault_events.len()
                    && t_prev >= last_arrival(&shards_v) + TICK_MARGIN
                    && k.is_multiple_of(5)
                {
                    break;
                }
                k += 1;
                let t_b = SimTime::ZERO + epoch * k;

                // Pre-resolve the coming epoch's faults into directives.
                fault_idx = self.resolve_faults(
                    &mut shards_v,
                    fault_events,
                    fault_idx,
                    t_b,
                    &owner_of_fn,
                    &mut probes,
                    &mut tombstones,
                );

                // Drain the epoch — in parallel when sharded.
                if s_count == 1 {
                    let sh = &mut shards_v[0];
                    driver::drain_until(&mut sh.platform, &mut sh.stream, &mut sh.queue, t_b);
                } else {
                    std::thread::scope(|scope| {
                        for sh in shards_v.iter_mut() {
                            let busy = sh.stream.peek_time(&sh.queue).is_some_and(|t| t <= t_b);
                            if busy {
                                scope.spawn(move || {
                                    driver::drain_until(
                                        &mut sh.platform,
                                        &mut sh.stream,
                                        &mut sh.queue,
                                        t_b,
                                    );
                                });
                            } else {
                                // Nothing to deliver: just advance the clock.
                                driver::drain_until(
                                    &mut sh.platform,
                                    &mut sh.stream,
                                    &mut sh.queue,
                                    t_b,
                                );
                            }
                        }
                    });
                }

                self.barrier_sweep(&mut shards_v, &owner_of_fn, k, t_b, &mut probes);
                if let Some(writer) = records.as_deref_mut() {
                    // `drain_until` and the sweep both emit at `t_b`
                    // itself, so only earlier records are final.
                    collect(&mut shards_v, writer, t_b.as_secs_f64());
                }
                t_prev = t_b;
            }
        }
        if let Some(writer) = records {
            collect(&mut shards_v, writer, f64::INFINITY);
        }

        self.merge(shards_v, t_prev)
    }

    /// Chain-aware ownership: every chain is one indivisible group,
    /// every unchained function its own group; groups round-robin onto
    /// shards. The mapping depends only on the deployment, never on
    /// runtime state.
    fn partition(&self, s_count: usize) -> (Vec<usize>, Vec<Vec<usize>>) {
        let n = self.functions.len();
        let mut group_of_fn: Vec<Option<usize>> = vec![None; n];
        let mut groups = 0usize;
        for chain in &self.chain_specs {
            for &stage in chain.stages() {
                group_of_fn[stage] = Some(groups);
            }
            groups += 1;
        }
        for slot in group_of_fn.iter_mut() {
            if slot.is_none() {
                *slot = Some(groups);
                groups += 1;
            }
        }
        let owner_of_fn: Vec<usize> = group_of_fn
            .iter()
            .map(|g| g.expect("every function grouped") % s_count)
            .collect();
        let mut owned_by_shard = vec![Vec::new(); s_count];
        for (f, &s) in owner_of_fn.iter().enumerate() {
            owned_by_shard[s].push(f);
        }
        (owner_of_fn, owned_by_shard)
    }

    /// The single-threaded barrier: journal sync, function-major sweep
    /// (flush + scaler pass + replica replay + recapacity crediting),
    /// cluster-wide sampling, and the interference snapshot refresh.
    fn barrier_sweep(
        &self,
        shards: &mut [Shard<'_>],
        owner_of_fn: &[usize],
        k: u64,
        t_b: SimTime,
        probes: &mut RecapacityProbes,
    ) {
        let n = self.functions.len();
        let scaler_barrier = k.is_multiple_of(5);

        // Mid-epoch cluster mutations (kill-directive releases) are the
        // only journal entries accumulated since the last barrier;
        // releases of distinct instances commute, so replaying shard by
        // shard reaches the same replica state for every layout.
        for s in 0..shards.len() {
            let ops = shards[s].platform.engine.cluster_mut().take_journal();
            if ops.is_empty() {
                continue;
            }
            for (r, sh) in shards.iter_mut().enumerate() {
                if r != s {
                    sh.platform.engine.cluster_mut().apply_ops(&ops);
                }
            }
        }

        for (f, &s) in owner_of_fn.iter().enumerate().take(n) {
            {
                let sh = &mut shards[s];
                sh.platform.barrier_flush_fn(f, &mut sh.queue);
                if scaler_barrier {
                    sh.platform.scaler_pass_fn(f, &mut sh.queue);
                }
            }
            // Replicate this function's barrier-time allocations before
            // the next function's scheduler runs, so placement always
            // happens against the fully-synchronised global state.
            let ops = shards[s].platform.engine.cluster_mut().take_journal();
            if !ops.is_empty() {
                for (r, sh) in shards.iter_mut().enumerate() {
                    if r != s {
                        sh.platform.engine.cluster_mut().apply_ops(&ops);
                    }
                }
            }
            // Credit outstanding capacity-loss probes from this
            // function's launches (function-major order).
            let log = shards[s].platform.engine.take_launch_log();
            for (ready_at, w) in log {
                let collector = &mut shards[0].platform.engine.collector;
                credit_recapacity(probes, ready_at, w, collector);
            }
        }

        if scaler_barrier {
            // Cluster-wide gauges: raw counts summed across shards,
            // occupancies from shard 0's (now fully synced) replica.
            let mut instances = 0u64;
            let mut starting = 0u64;
            let mut queue_depth = 0u64;
            let mut in_flight = 0u64;
            let mut kv_resident = 0u64;
            let mut host_cache_mb = 0.0;
            let mut per_fn = vec![0u64; n];
            for sh in shards.iter_mut() {
                let (i, st, q, b) = sh.platform.engine.gauge_counts();
                instances += i;
                starting += st;
                queue_depth += q;
                in_flight += b;
                kv_resident += sh.platform.engine.kv_resident_bytes(&sh.queue);
                host_cache_mb += sh.platform.host_cache_mb_now();
                for (acc, v) in per_fn
                    .iter_mut()
                    .zip(sh.platform.engine.per_function_live_counts())
                {
                    *acc += v;
                }
            }
            let e0 = &mut shards[0].platform.engine;
            e0.sample_provisioning(t_b);
            e0.record_gauges(
                instances,
                starting,
                queue_depth,
                in_flight,
                kv_resident,
                host_cache_mb,
                per_fn,
            );
        }

        // Refresh the interference snapshot: cluster-wide GPU occupancy
        // is the element-wise sum of every shard's live books.
        let devices = shards[0].platform.engine.gpu_busy_totals().len();
        let mut totals = vec![0u32; devices];
        for sh in shards.iter() {
            for (acc, v) in totals.iter_mut().zip(sh.platform.engine.gpu_busy_totals()) {
                *acc += v;
            }
        }
        for sh in shards.iter_mut() {
            sh.platform.engine.refresh_interference_snapshot(&totals);
        }
    }

    /// Pre-resolves every fault event with timestamp `<= until` into
    /// concrete directives on the owning shards' queues. Selection runs
    /// against the global function-major instance order; `tombstones`
    /// keeps one fault from picking a victim an earlier directive in
    /// the same window already claimed (instance ids are per-shard, so
    /// the key includes the function).
    #[allow(clippy::too_many_arguments)]
    fn resolve_faults(
        &self,
        shards: &mut [Shard<'_>],
        events: &[(SimTime, FaultEvent)],
        mut idx: usize,
        until: SimTime,
        owner_of_fn: &[usize],
        probes: &mut RecapacityProbes,
        tombstones: &mut HashSet<(usize, InstanceId)>,
    ) -> usize {
        if idx >= events.len() || events[idx].0 > until {
            return idx;
        }
        tombstones.clear();
        let n = self.functions.len();
        while idx < events.len() && events[idx].0 <= until {
            let (t, ev) = events[idx];
            idx += 1;
            match ev {
                FaultEvent::ServerCrash { server } => {
                    if shards[0].platform.engine.cluster().health(server) != ServerHealth::Up {
                        continue;
                    }
                    let mut lost = 0.0;
                    for f in 0..n {
                        let sh = &mut shards[owner_of_fn[f]];
                        let victims: Vec<InstanceId> = sh
                            .platform
                            .engine
                            .instances_of(f)
                            .iter()
                            .copied()
                            .filter(|&id| {
                                sh.platform.engine.instance(id).placement().server() == server
                                    && !tombstones.contains(&(f, id))
                            })
                            .collect();
                        for id in victims {
                            lost += sh
                                .platform
                                .engine
                                .weighted_cost(sh.platform.engine.instance(id).config());
                            tombstones.insert((f, id));
                            sh.queue
                                .schedule(t, EngineEvent::DirectiveKill(id, FaultTag::ServerCrash));
                        }
                    }
                    Self::set_health_everywhere(shards, server, ServerHealth::Down);
                    shards[0].platform.engine.collector.server_crash();
                    if lost > 0.0 {
                        probes.push_back((t, lost));
                    }
                }
                FaultEvent::ServerRecoveryBegin { server } => {
                    if shards[0].platform.engine.cluster().health(server) == ServerHealth::Down {
                        Self::set_health_everywhere(shards, server, ServerHealth::Recovering);
                    }
                }
                FaultEvent::ServerUp { server } => {
                    if shards[0].platform.engine.cluster().health(server)
                        == ServerHealth::Recovering
                    {
                        Self::set_health_everywhere(shards, server, ServerHealth::Up);
                        shards[0].platform.engine.collector.server_recovered();
                    }
                }
                FaultEvent::InstanceKill { selector } => {
                    self.kill_by_selector(
                        shards,
                        owner_of_fn,
                        selector,
                        t,
                        FaultTag::InstanceKill,
                        |_, _| true,
                        probes,
                        tombstones,
                    );
                }
                FaultEvent::ColdStartFailure { selector } => {
                    self.kill_by_selector(
                        shards,
                        owner_of_fn,
                        selector,
                        t,
                        FaultTag::ColdStartFailure,
                        |sh, id| sh.platform.engine.instance(id).is_starting(t),
                        probes,
                        tombstones,
                    );
                }
                FaultEvent::StragglerStart {
                    server,
                    slowdown_pct,
                    duration,
                } => {
                    // Every shard must slow its own batches on that
                    // server; the episode is tallied once.
                    for sh in shards.iter_mut() {
                        sh.queue.schedule(
                            t,
                            EngineEvent::DirectiveStraggler {
                                server,
                                slowdown_pct,
                                duration,
                            },
                        );
                    }
                    shards[0].platform.engine.collector.straggler();
                }
            }
        }
        idx
    }

    /// Global victim pick for `InstanceKill` / `ColdStartFailure`:
    /// candidates in function-major order across all shards, filtered
    /// by `eligible`, indexed by `selector % len` — the same rule the
    /// unsharded engine applies to its single global instance table.
    #[allow(clippy::too_many_arguments)]
    fn kill_by_selector(
        &self,
        shards: &mut [Shard<'_>],
        owner_of_fn: &[usize],
        selector: u64,
        t: SimTime,
        tag: FaultTag,
        eligible: impl Fn(&Shard<'_>, InstanceId) -> bool,
        probes: &mut RecapacityProbes,
        tombstones: &mut HashSet<(usize, InstanceId)>,
    ) {
        let n = self.functions.len();
        let mut candidates: Vec<(usize, InstanceId)> = Vec::new();
        for f in 0..n {
            let sh = &shards[owner_of_fn[f]];
            for &id in sh.platform.engine.instances_of(f) {
                if !tombstones.contains(&(f, id)) && eligible(sh, id) {
                    candidates.push((f, id));
                }
            }
        }
        if candidates.is_empty() {
            return;
        }
        let (f, id) = candidates[(selector % candidates.len() as u64) as usize];
        let sh = &mut shards[owner_of_fn[f]];
        let lost = sh
            .platform
            .engine
            .weighted_cost(sh.platform.engine.instance(id).config());
        tombstones.insert((f, id));
        sh.queue.schedule(t, EngineEvent::DirectiveKill(id, tag));
        if lost > 0.0 {
            probes.push_back((t, lost));
        }
    }

    fn set_health_everywhere(shards: &mut [Shard<'_>], server: ServerId, health: ServerHealth) {
        // Applied via `apply_ops` so no replica re-journals (and thus
        // re-replays) the transition.
        let ops = [ClusterOp::SetHealth { server, health }];
        for sh in shards.iter_mut() {
            sh.platform.engine.cluster_mut().apply_ops(&ops);
        }
    }

    /// Folds the worker shards' collectors and chain reports into shard
    /// 0's and freezes one report at the final barrier.
    fn merge(&self, shards: Vec<Shard<'_>>, t_end: SimTime) -> RunReport {
        let owner_of_chain: Vec<usize> = {
            let (owner_of_fn, _) = self.partition(shards.len());
            self.chain_specs
                .iter()
                .map(|c| owner_of_fn[c.stages()[0]])
                .collect()
        };
        let mut chain_parts: Vec<Vec<ChainReport>> = Vec::with_capacity(shards.len());
        let mut collector = None;
        for mut sh in shards {
            chain_parts.push(sh.platform.take_chain_reports());
            let shard_collector = sh.platform.engine.into_collector();
            match collector.as_mut() {
                None => collector = Some(shard_collector),
                Some(main) => main.absorb(shard_collector, &sh.owned),
            }
        }
        let collector = collector.expect("at least one shard");
        let mut report = collector.finish(t_end);
        report.chains = owner_of_chain
            .iter()
            .enumerate()
            .map(|(ci, &s)| {
                std::mem::replace(
                    &mut chain_parts[s][ci],
                    ChainReport::new(&self.chain_specs[ci]),
                )
            })
            .collect();
        report
    }
}

/// The last arrival across the shards' streams, once every stream is
/// exhausted (each source then knows its own).
fn last_arrival(shards: &[Shard<'_>]) -> SimTime {
    shards
        .iter()
        .map(|sh| sh.stream.source().last())
        .max()
        .unwrap_or(SimTime::ZERO)
}
