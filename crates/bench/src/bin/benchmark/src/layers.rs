//! The traced pass: spans around the benchmark's own calls, and layer
//! drivers that time each layer's public functions with inputs taken
//! from the workload. Nothing here runs in a timed round.

use std::hint::black_box;
use std::time::Instant;

use infless_cluster::{ClusterState, InstanceId};
use infless_core::{
    CopPredictor, DeficitRouter, FunctionInfo, LeastLoadedScratch, RouterEntry, RpsWindow,
    RunReport, Scheduler, SchedulerConfig,
};
use infless_models::profile::ConfigGrid;
use infless_models::{HardwareModel, ProfileDatabase, ResourceConfig};
use infless_sim::{EventQueue, SimDuration, StagedStream};
use infless_telemetry::Log2Histogram;
use serde_json::json;

use crate::workloads::Built;

/// Timed batches per driver; each value a driver reports is the median
/// over its batches.
const BATCHES: usize = 31;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// Spans kept in memory and written out when the round ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// to parent nested spans.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Spans, usize) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent,
            start_s,
            end_s: start_s,
        });
        let out = f(self, id);
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    fn duration(&self, id: usize) -> f64 {
        self.spans[id].end_s - self.spans[id].start_s
    }

    /// The span's duration minus the part its child spans cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let children: f64 = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.duration(c))
            .sum();
        self.duration(id) - children
    }

    /// Self time of the first span called `name`, or 0.
    pub fn self_time_of(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .position(|s| s.name == name)
            .map_or(0.0, |id| self.self_time(id))
    }

    /// One JSON line per span.
    pub fn jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = json!({
                "workload": workload,
                "id": id,
                "parent": s.parent,
                "name": s.name,
                "start_s": s.start_s,
                "end_s": s.end_s,
                "self_s": self.self_time(id),
            });
            out.push_str(&serde_json::to_string(&line).expect("span serializes"));
            out.push('\n');
        }
        out
    }
}

/// What the drivers take from the workload and its plain run.
pub struct Inputs<'a> {
    pub built: &'a Built,
    pub report: &'a RunReport,
    pub hardware: &'a HardwareModel,
    pub predictor: &'a CopPredictor,
}

impl Inputs<'_> {
    fn functions(&self) -> &[FunctionInfo] {
        &self.built.functions
    }

    /// Mean live instances per function over the run, at least 1.
    fn instances_per_function(&self) -> usize {
        let mean = self.report.timeseries_summary.mean_instances;
        ((mean / self.functions().len() as f64).round() as usize).clamp(1, 256)
    }

    /// Mean offered rate of each function in the first episode, req/s.
    fn rates(&self) -> Vec<f64> {
        let secs = self.built.horizon_s().max(1e-9);
        let mut counts = vec![0u64; self.functions().len()];
        for &(_, f) in self.built.episodes[0].workload.arrivals() {
            counts[f] += 1;
        }
        counts.into_iter().map(|n| n as f64 / secs).collect()
    }

    /// The resources the run launched most often.
    fn typical_config(&self) -> ResourceConfig {
        let mut launches: Vec<_> = self.report.config_launches.iter().collect();
        launches.sort_by_key(|((f, cfg), n)| {
            let r = cfg.resources();
            (std::cmp::Reverse(**n), *f, r.cpu_cores(), r.gpu_pct())
        });
        launches
            .first()
            .map_or(ResourceConfig::new(2, 10), |((_, cfg), _)| cfg.resources())
    }
}

/// Runs every driver under `parent`, returning `(metric, value)` pairs.
pub fn drive(spans: &mut Spans, parent: usize, inp: &Inputs) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    spans.span("drivers.models", Some(parent), |_, _| models(inp, &mut out));
    spans.span("drivers.sim", Some(parent), |_, _| sim(inp, &mut out));
    spans.span("drivers.router", Some(parent), |_, _| router(inp, &mut out));
    spans.span("drivers.scheduler", Some(parent), |_, _| {
        scheduler(inp, &mut out)
    });
    spans.span("drivers.cluster", Some(parent), |_, _| {
        cluster(inp, &mut out)
    });
    spans.span("drivers.llm", Some(parent), |_, _| llm(inp, &mut out));
    spans.span("drivers.telemetry", Some(parent), |_, _| {
        telemetry(inp, &mut out)
    });
    out
}

/// Mean time per call over each of [`BATCHES`] batches of `calls`
/// calls on `state`, ns; `setup` runs untimed before each batch.
fn batch_ns<S>(
    state: &mut S,
    calls: usize,
    setup: impl Fn(&mut S),
    mut call: impl FnMut(&mut S, usize),
) -> Vec<f64> {
    (0..BATCHES)
        .map(|b| {
            setup(state);
            let t = Instant::now();
            for i in 0..calls {
                call(state, b * calls + i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect()
}

/// Nearest-rank quantile of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn models(inp: &Inputs, out: &mut Vec<(&'static str, f64)>) {
    let specs: Vec<_> = inp.functions().iter().map(|f| f.spec().clone()).collect();
    let grid = ConfigGrid::standard();
    let seed = inp.built.seed;
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(ProfileDatabase::profile(inp.hardware, &specs, &grid, seed));
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.push(("models.cop_build_s", median(&builds)));

    let key = ProfileDatabase::cache_key(inp.hardware, &specs, &grid, seed);
    let snapshot = std::env::var_os("COP_CACHE_DIR")
        .map(|dir| std::path::Path::new(&dir).join(format!("{key:016x}.json")))
        .and_then(|path| std::fs::metadata(path).ok())
        .map_or(0.0, |m| m.len() as f64 / 1024.0);
    out.push(("models.cop_snapshot_kb", snapshot));

    let points: Vec<(u32, ResourceConfig)> = grid.points().collect();
    let per = batch_ns(
        &mut (),
        points.len(),
        |_| {},
        |_, i| {
            let spec = &specs[(i / points.len()) % specs.len()];
            let (b, cfg) = points[i % points.len()];
            black_box(inp.predictor.combine_raw(spec, b, cfg));
        },
    );
    out.push(("models.predict_ns", median(&per)));
}

fn sim(inp: &Inputs, out: &mut Vec<(&'static str, f64)>) {
    // Each staged arrival schedules one completion 50 ms later, so the
    // heap holds what the arrival rate keeps in flight.
    let arrivals = inp.built.episodes[0].workload.arrivals();
    let staged = &arrivals[..arrivals.len().min(1_000_000)];
    let service = SimDuration::from_millis(50);
    let per: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut queue: EventQueue<Option<usize>> = EventQueue::new();
            let mut stream = StagedStream::new(staged);
            let mut events = 0u64;
            while let Some((at, event)) = stream.next(&mut queue, Some) {
                if event.is_some() {
                    queue.schedule(at + service, None);
                }
                events += 1;
            }
            t.elapsed().as_nanos() as f64 / events.max(1) as f64
        })
        .collect();
    out.push(("sim.event_ns", median(&per)));
}

fn entry(id: u64, rate: f64) -> RouterEntry {
    let exec = SimDuration::from_millis(10);
    RouterEntry {
        id: InstanceId::new(id),
        window: RpsWindow::for_instance(exec, SimDuration::from_millis(200), 1)
            .expect("10 ms fits a 200 ms SLO"),
        rate,
        sent: 0,
        predicted_exec: exec,
    }
}

fn router(inp: &Inputs, out: &mut Vec<(&'static str, f64)>) {
    let n = inp.instances_per_function();
    let rates = inp.rates();
    let rate = (rates.iter().sum::<f64>() / rates.len() as f64 / n as f64).max(1.0);

    let mut stable = DeficitRouter::new();
    for i in 0..n {
        stable.push(entry(i as u64, rate * (1.0 + i as f64 / n as f64)));
    }
    let per = batch_ns(
        &mut stable,
        4096,
        |_| {},
        |r, _| {
            black_box(r.dispatch(|_| true));
        },
    );
    out.push(("router.dispatch_ns", median(&per)));

    // One membership change per cycle: push, dispatch, remove the
    // oldest, dispatch.
    let mut churn = DeficitRouter::new();
    for i in 0..n {
        churn.push(entry(i as u64, rate));
    }
    let per = batch_ns(
        &mut churn,
        1024,
        |_| {},
        |r, i| {
            r.push(entry((n + i) as u64, rate));
            black_box(r.dispatch(|_| true));
            r.remove_by_id(InstanceId::new(i as u64));
            black_box(r.dispatch(|_| true));
        },
    );
    out.push(("router.churn_ns", median(&per)));

    // The baselines' least-loaded ordering over the same set.
    let ids: Vec<InstanceId> = (0..n as u64).map(InstanceId::new).collect();
    let per = batch_ns(
        &mut LeastLoadedScratch::new(),
        1024,
        |_| {},
        |s, i| {
            let order = s.order(&ids, |id| (id.raw() as usize * 7 + i) % 13);
            black_box(order.first().copied());
        },
    );
    out.push(("router.least_loaded_p50_ns", quantile(&per, 0.5)));
    out.push(("router.least_loaded_p99_ns", quantile(&per, 0.99)));
}

fn scheduler(inp: &Inputs, out: &mut Vec<(&'static str, f64)>) {
    let functions = inp.functions();
    let rates = inp.rates();
    let mut cluster = inp.built.cluster.build();
    let mut sched = Scheduler::new(SchedulerConfig::default());
    let mut round = |cluster: &mut ClusterState, f: usize| {
        let t = Instant::now();
        let outcome = sched.schedule_with_cost(
            inp.predictor,
            &functions[f],
            rates[f].max(1.0),
            cluster,
            SimDuration::ZERO,
            0.0,
        );
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        for i in outcome.instances {
            cluster.release(i.config.resources(), i.placement);
        }
        us
    };
    // The first round per function fills the candidate memo.
    for f in 0..functions.len() {
        round(&mut cluster, f);
    }
    let calls = (4 * functions.len()).max(64);
    let per: Vec<f64> = (0..calls)
        .map(|i| round(&mut cluster, i % functions.len()))
        .collect();
    out.push(("scheduler.schedule_us", median(&per)));
    out.push(("scheduler.schedule_p99_us", quantile(&per, 0.99)));
}

fn cluster(inp: &Inputs, out: &mut Vec<(&'static str, f64)>) {
    let cfg = inp.typical_config();
    let mem = inp.predictor.instance_memory_mb(inp.functions()[0].spec());
    let mut base = inp.built.cluster.build();
    let live = inp.instances_per_function() * inp.functions().len();
    for _ in 0..live {
        if base.allocate_anywhere_with_memory(cfg, mem).is_err() {
            break;
        }
    }

    let mut state = (base.clone(), Vec::new());
    let per = batch_ns(
        &mut state,
        32,
        |(cluster, placed)| {
            for p in placed.drain(..) {
                cluster.release(cfg, p);
            }
        },
        |(cluster, placed), _| {
            cluster.begin_txn();
            if let Ok(p) = cluster.try_place(cfg, mem) {
                placed.push(p);
            }
            cluster.commit_txn();
        },
    );
    out.push(("cluster.place_commit_ns", median(&per)));

    let per = batch_ns(
        &mut base.clone(),
        256,
        |_| {},
        |cluster, _| {
            cluster.begin_txn();
            black_box(cluster.try_place(cfg, mem).is_ok());
            cluster.rollback_txn();
        },
    );
    out.push(("cluster.rollback_ns", median(&per)));

    // Grow and shrink one allocation in place on an otherwise empty
    // cluster of the workload's size.
    let (small, big) = (ResourceConfig::new(1, 10), ResourceConfig::new(2, 20));
    let mut cluster = inp.built.cluster.build();
    let at = cluster
        .try_place(small, mem)
        .expect("an empty cluster fits one small instance");
    let per = batch_ns(
        &mut (cluster, at, small),
        256,
        |_| {},
        |(cluster, at, cfg), _| {
            let to = if *cfg == small { big } else { small };
            *at = cluster
                .try_resize(*at, *cfg, to, 0.0)
                .expect("a lone instance resizes on its own device");
            *cfg = to;
        },
    );
    out.push(("cluster.resize_ns", median(&per)));

    // A journal of allocations and releases, replayed onto a replica.
    let mut origin = base.clone();
    origin.enable_journal();
    let placements: Vec<_> = (0..128)
        .filter_map(|_| origin.try_place(cfg, mem).ok())
        .collect();
    for p in placements {
        origin.release(cfg, p);
    }
    let ops = origin.take_journal();
    let per = batch_ns(
        &mut base.clone(),
        1,
        |replica| replica.clone_from(&base),
        |replica, _| replica.apply_ops(black_box(&ops)),
    );
    out.push((
        "cluster.replay_op_ns",
        median(&per) / ops.len().max(1) as f64,
    ));
}

fn llm(inp: &Inputs, out: &mut Vec<(&'static str, f64)>) {
    let functions = inp.functions();
    let cfg = inp.typical_config();
    let per = batch_ns(
        &mut (),
        1024,
        |_| {},
        |_, i| {
            let spec = functions[i % functions.len()].spec();
            let seqs = 1 + (i % 32) as u32;
            black_box(
                inp.predictor
                    .decode_step_latency(spec, seqs, f64::from(seqs) * 16.0, cfg),
            );
        },
    );
    out.push(("llm.decode_step_ns", median(&per)));
}

fn telemetry(inp: &Inputs, out: &mut Vec<(&'static str, f64)>) {
    // Values spread geometrically over the run's latency range.
    let (lo, hi) = latency_range(inp.report);
    let values: Vec<f64> = (0..4096)
        .map(|i| lo * (hi / lo).powf(((i * 2_654_435_761usize) % 4096) as f64 / 4096.0))
        .collect();
    let per = batch_ns(
        &mut Log2Histogram::new(),
        values.len(),
        |_| {},
        |h, i| {
            h.add(black_box(values[i % values.len()]));
        },
    );
    out.push(("telemetry.hist_record_ns", median(&per)));
}

fn latency_range(report: &RunReport) -> (f64, f64) {
    let mut all = Log2Histogram::new();
    for f in &report.functions {
        all.merge(&f.latency_ms);
    }
    let lo = all.min().unwrap_or(1.0).max(0.01);
    let hi = all.max().unwrap_or(1000.0).max(lo * 2.0);
    (lo, hi)
}
