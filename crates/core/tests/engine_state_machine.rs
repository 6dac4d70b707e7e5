//! Property-based state-machine test of the shared platform engine:
//! arbitrary interleavings of launches, enqueues, event deliveries and
//! retirements must never break the engine's accounting invariants.

use std::collections::HashMap;

use infless_cluster::{ClusterSpec, InstanceConfig, InstanceId, InstanceState};
use infless_core::engine::{Engine, EngineEvent, FunctionInfo};
use infless_core::metrics::StartupKind;
use infless_models::{HardwareModel, ModelId, ResourceConfig};
use infless_sim::{EventQueue, SimDuration};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Launch an instance for function `f` with batch `b` and config
    /// index `cfg` (cold or prewarmed).
    Launch {
        f: usize,
        b: u32,
        cfg: usize,
        cold: bool,
    },
    /// Mint a request for `f` and enqueue it on the `i`-th live
    /// instance of `f` (drop it if rejected or none live).
    Enqueue { f: usize, i: usize },
    /// Deliver the next pending engine event.
    Step,
    /// Retire the `i`-th live instance of `f` if it is idle and empty.
    Retire { f: usize, i: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            0usize..2,
            prop::sample::select(vec![1u32, 2, 4, 8]),
            0usize..3,
            any::<bool>()
        )
            .prop_map(|(f, b, cfg, cold)| Op::Launch { f, b, cfg, cold }),
        (0usize..2, 0usize..4).prop_map(|(f, i)| Op::Enqueue { f, i }),
        Just(Op::Step),
        (0usize..2, 0usize..4).prop_map(|(f, i)| Op::Retire { f, i }),
    ]
}

fn configs() -> [ResourceConfig; 3] {
    [
        ResourceConfig::cpu(2),
        ResourceConfig::new(1, 10),
        ResourceConfig::new(2, 25),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_invariants_hold_under_arbitrary_operations(
        ops in prop::collection::vec(op_strategy(), 1..120)
    ) {
        let functions = vec![
            FunctionInfo::new(ModelId::MobileNet.spec(), SimDuration::from_millis(100)),
            FunctionInfo::new(ModelId::TextCnn69.spec(), SimDuration::from_millis(100)),
        ];
        let mut engine = Engine::new(
            "proptest",
            ClusterSpec::testbed(),
            HardwareModel::default(),
            functions,
            99,
        );
        let mut queue: EventQueue<EngineEvent> = EventQueue::new();
        let mut minted = 0u64;
        let mut dropped = 0u64;
        // Our own model of what each live instance holds.
        let mut expected_cpu: HashMap<InstanceId, u32> = HashMap::new();

        for op in ops {
            match op {
                Op::Launch { f, b, cfg, cold } => {
                    let config = InstanceConfig::new(b, configs()[cfg]);
                    let kind = if cold { StartupKind::Cold } else { StartupKind::PreWarmed };
                    if let Ok(id) = engine.launch_anywhere(
                        f,
                        config,
                        kind,
                        SimDuration::from_millis(40),
                        &mut queue,
                    ) {
                        expected_cpu.insert(id, config.resources().cpu_cores());
                    }
                }
                Op::Enqueue { f, i } => {
                    let ids = engine.instances_of(f).to_vec();
                    let req = engine.mint_request(f);
                    minted += 1;
                    match ids.get(i % ids.len().max(1)) {
                        Some(id) if !ids.is_empty() => {
                            if !engine.enqueue(*id, req, &mut queue) {
                                engine.drop_request(&req);
                                dropped += 1;
                            }
                        }
                        _ => {
                            engine.drop_request(&req);
                            dropped += 1;
                        }
                    }
                }
                Op::Step => {
                    if let Some((t, ev)) = queue.pop() {
                        engine.advance(t);
                        match ev {
                            EngineEvent::InstanceReady(id) => engine.on_instance_ready(id, &mut queue),
                            EngineEvent::SwapComplete(id) => engine.on_swap_complete(id, &mut queue),
                            EngineEvent::BatchTimeout(id) => engine.on_batch_timeout(id, &mut queue),
                            EngineEvent::BatchComplete(id) => {
                                engine.on_batch_complete(id, &mut queue);
                            }
                            EngineEvent::DecodeStep(id, gen) => {
                                engine.on_decode_step(id, gen, &mut queue);
                            }
                            EngineEvent::Arrival(_)
                            | EngineEvent::ScalerTick
                            | EngineEvent::ResizeComplete(_)
                            | EngineEvent::DirectiveKill(..)
                            | EngineEvent::DirectiveStraggler { .. } => {}
                            EngineEvent::Fault(f) => {
                                engine.on_fault(f, &queue);
                            }
                        }
                    }
                }
                Op::Retire { f, i } => {
                    let ids = engine.instances_of(f).to_vec();
                    if let Some(id) = ids.get(i % ids.len().max(1)) {
                        if !ids.is_empty() {
                            let inst = engine.instance(*id);
                            let idle = inst.queue_len() == 0
                                && !matches!(inst.state(), InstanceState::Busy { .. });
                            if idle {
                                engine.retire(*id);
                                expected_cpu.remove(id);
                            }
                        }
                    }
                }
            }
            // Invariant: the cluster's CPU books match the live set.
            let expected: u64 = expected_cpu.values().map(|c| u64::from(*c)).sum();
            prop_assert_eq!(engine.cluster().cpu_in_use(), expected);
        }

        // Drain everything so all in-flight work completes.
        while let Some((t, ev)) = queue.pop() {
            engine.advance(t);
            match ev {
                EngineEvent::InstanceReady(id) => engine.on_instance_ready(id, &mut queue),
                EngineEvent::SwapComplete(id) => engine.on_swap_complete(id, &mut queue),
                EngineEvent::BatchTimeout(id) => engine.on_batch_timeout(id, &mut queue),
                EngineEvent::BatchComplete(id) => {
                    engine.on_batch_complete(id, &mut queue);
                }
                EngineEvent::DecodeStep(id, gen) => {
                    engine.on_decode_step(id, gen, &mut queue);
                }
                EngineEvent::Arrival(_)
                | EngineEvent::ScalerTick
                | EngineEvent::ResizeComplete(_)
                | EngineEvent::DirectiveKill(..)
                | EngineEvent::DirectiveStraggler { .. } => {}
                EngineEvent::Fault(f) => {
                    engine.on_fault(f, &queue);
                }
            }
        }
        // Remaining queued requests (on instances whose timeout budget
        // already fired before they were enqueued) stay pending; count
        // them as accounted.
        let still_queued: u64 = (0..2)
            .flat_map(|f| engine.instances_of(f).to_vec())
            .map(|id| engine.instance(id).queue_len() as u64)
            .sum();

        let report = engine.finish();
        // Conservation: every minted request is completed, dropped, or
        // still queued — never lost or double-counted.
        prop_assert_eq!(
            report.total_completed() + dropped + still_queued,
            minted,
            "completed {} + dropped {} + queued {} != minted {}",
            report.total_completed(),
            dropped,
            still_queued,
            minted
        );
        prop_assert_eq!(report.total_dropped(), dropped);
    }
}
