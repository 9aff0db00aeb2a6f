//! Property tests for the steering & interrupt-delivery subsystem:
//! every spec keeps deliveries on online CPUs inside the programmed
//! affinity masks, placement is independent of the sweep harness's
//! thread count, and the `AffinityMode` presets reproduce the exact
//! flow→CPU maps the pre-refactor dispatch produced.

use affinity_repro::{
    run_experiment, AffinityMode, Direction, DynamicSteer, ExperimentConfig, FlowPlacement,
    Machine, SteerSpec, VectorLayout,
};
use proptest::prelude::*;
use sim_core::CpuId;
use sim_os::{CpuMask, IoApic};
use sim_prof::SteerCounters;

/// Every point of the placement × layout × dynamic space.
fn all_specs() -> Vec<SteerSpec> {
    let mut specs = Vec::new();
    for placement in [FlowPlacement::RoundRobin, FlowPlacement::RssHash] {
        for vectors in [VectorLayout::AllCpu0, VectorLayout::SplitEven] {
            for dynamic in [
                DynamicSteer::Off,
                DynamicSteer::FlowDirector {
                    table_entries: 16,
                    resteer_cycles: 600,
                },
            ] {
                specs.push(SteerSpec {
                    placement,
                    vectors,
                    dynamic,
                    pin_processes: false,
                });
            }
        }
    }
    specs
}

proptest! {
    /// For any machine shape, every spec places each flow on a real
    /// queue, homes each vector on an online CPU, and — after arbitrary
    /// consumer activity — its filter table only ever re-targets a
    /// delivery to an online CPU that stays inside the vector's
    /// programmed affinity mask.
    #[test]
    fn policies_deliver_to_online_cpus_in_the_affinity_mask(
        cpus in 1usize..17,
        queues in 1usize..33,
        flows in 1usize..65,
        runs in prop::collection::vec((0usize..64, 0usize..16), 0..40),
    ) {
        for spec in all_specs() {
            let mut table = spec.filter_table();
            let mut counters = SteerCounters::default();
            let mut apic = IoApic::new(cpus);
            // Program the static layout the machine would install; one
            // vector per queue (vector number = 0x20 + queue).
            let vector = |q: usize| sim_core::IrqVector::new(0x20 + q as u32);
            for q in 0..queues {
                let home = spec.vector_home(q, queues, cpus);
                prop_assert!(home.index() < cpus, "{}: queue {q} homed off-line", spec.label());
                apic.set_affinity(vector(q), CpuMask::single(home)).unwrap();
            }
            // Arbitrary consumer activity on online CPUs.
            if let Some(fd) = table.as_mut() {
                for &(flow, cpu) in &runs {
                    fd.consumer_ran(flow % flows, CpuId::new((cpu % cpus) as u32), &mut counters);
                }
            }
            for flow in 0..flows {
                let q = spec.place(flow, queues);
                prop_assert!(q < queues, "{}: flow {flow} placed off-queue", spec.label());
                if let Some(target) = table.as_ref().and_then(|fd| fd.target(flow)) {
                    prop_assert!(
                        target.index() < cpus,
                        "{}: steered flow {flow} to offline cpu {:?}",
                        spec.label(),
                        target
                    );
                    apic.retarget(vector(q), target).unwrap();
                }
                // Wherever the vector ended up, its route is inside its
                // own affinity mask and online.
                let route = apic.route(vector(q));
                prop_assert!(apic.affinity(vector(q)).contains(route));
                prop_assert!(route.index() < cpus);
            }
        }
    }

    /// Flow Director filter install/teardown under arbitrary
    /// accept/close interleavings stays in lockstep with a set-based
    /// model: occupancy always equals the live-install count, capacity
    /// rejects never install, a rejected flow keeps its static route,
    /// and closing everything returns the table to exactly zero.
    #[test]
    fn flow_director_lifecycle_matches_a_set_model(
        capacity in 1usize..9,
        cpus in 1usize..9,
        ops in prop::collection::vec((0usize..24, 0usize..8, any::<bool>()), 1..80),
    ) {
        let spec = SteerSpec {
            placement: FlowPlacement::RssHash,
            vectors: VectorLayout::SplitEven,
            dynamic: DynamicSteer::FlowDirector {
                table_entries: capacity,
                resteer_cycles: 600,
            },
            pin_processes: false,
        };
        let mut table = spec.filter_table().expect("a Flow Director spec");
        let mut counters = SteerCounters::default();
        // The model: flow → last programmed CPU, bounded by capacity.
        let mut model: std::collections::BTreeMap<usize, u32> = std::collections::BTreeMap::new();
        let mut rejects = 0u64;
        for &(flow, cpu, open) in &ops {
            let cpu_id = CpuId::new((cpu % cpus) as u32);
            if open {
                table.flow_opened(flow, cpu_id, &mut counters);
                if model.contains_key(&flow) || model.len() < capacity {
                    model.insert(flow, cpu_id.raw());
                } else {
                    rejects += 1;
                }
            } else {
                table.flow_closed(flow, &mut counters);
                model.remove(&flow);
            }
            prop_assert_eq!(
                table.occupancy(),
                (model.len(), capacity),
                "occupancy diverged from the model after {:?}",
                (flow, cpu, open)
            );
            // The table steers installed flows to their programmed CPU
            // and leaves everything else on its static placement.
            match (table.target(flow), model.get(&flow)) {
                (Some(got), Some(&want)) => prop_assert_eq!(got.raw(), want),
                (None, None) => {}
                (got, want) => prop_assert!(
                    false,
                    "steer/model mismatch for flow {flow}: {got:?} vs {want:?}"
                ),
            }
        }
        prop_assert_eq!(counters.table_rejects, rejects, "reject accounting diverged");
        // Drain: closing every flow ever touched empties the table.
        for &(flow, _, _) in &ops {
            table.flow_closed(flow, &mut counters);
        }
        prop_assert_eq!(table.occupancy(), (0, capacity), "table did not drain to zero");
        for &(flow, _, _) in &ops {
            prop_assert!(table.target(flow).is_none(), "stale filter survived drain");
        }
    }

    /// RSS placement is a pure function of the flow id and queue count:
    /// the worker-pool width (`REPRO_THREADS`) cannot leak into it.
    #[test]
    fn rss_placement_is_independent_of_worker_threads(flows in 1usize..65, queues in 1usize..33) {
        let reference: Vec<usize> = (0..flows)
            .map(|f| FlowPlacement::RssHash.place(f, queues))
            .collect();
        let workers: Vec<std::thread::JoinHandle<Vec<usize>>> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    // Each worker walks the flows starting at a different
                    // offset, like the deterministic pool's work-stealing
                    // does; the map it reconstructs must not care.
                    let mut got = vec![0usize; flows];
                    for k in 0..flows {
                        let f = (k + i) % flows;
                        got[f] = FlowPlacement::RssHash.place(f, queues);
                    }
                    got
                })
            })
            .collect();
        for handle in workers {
            prop_assert_eq!(&handle.join().unwrap(), &reference);
        }
    }
}

/// A full RSS run gives bit-identical placements and metrics no matter
/// what `REPRO_THREADS` is set to (the env knob only widens the bench
/// harness's pool; the simulation itself must not observe it).
#[test]
fn rss_runs_are_identical_under_any_repro_threads() {
    let run_at = |threads: &str| {
        std::env::set_var("REPRO_THREADS", threads);
        let config =
            ExperimentConfig::steer_sweep(Direction::Rx, 4, 12, SteerSpec::flow_director());
        let machine = Machine::new(&config).unwrap();
        let placements = machine.flow_queues().to_vec();
        let metrics = run_experiment(&config).unwrap().metrics;
        (placements, metrics)
    };
    let (p1, m1) = run_at("1");
    let (p8, m8) = run_at("8");
    std::env::remove_var("REPRO_THREADS");
    assert_eq!(p1, p8, "flow placement saw REPRO_THREADS");
    assert_eq!(m1, m8, "run results saw REPRO_THREADS");
}

/// The `AffinityMode` presets reproduce the exact flow→queue→CPU maps
/// the pre-refactor `match mode` dispatch wired on the paper SUT: one
/// single-queue NIC per connection (8 queues over 2 CPUs), round-robin
/// flows, vectors all on CPU0 (None/Process) or split 0–3/4–7
/// (Irq/Full), and hash placement with split vectors under Rss.
#[test]
fn affinity_mode_presets_reproduce_pre_refactor_maps() {
    let cpus = 2;
    let queues = 8;
    for mode in AffinityMode::ALL {
        let spec = mode.steer_preset();
        for flow in 0..queues {
            let expect_queue = match mode {
                AffinityMode::Rss => {
                    ((flow as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % queues
                }
                _ => flow % queues,
            };
            assert_eq!(
                spec.place(flow, queues),
                expect_queue,
                "{mode:?}: flow {flow} placement moved"
            );
            let q = expect_queue;
            let expect_cpu = match mode {
                AffinityMode::None | AffinityMode::Process => CpuId::new(0),
                _ => CpuId::new((q * cpus / queues) as u32),
            };
            assert_eq!(
                spec.vector_home(q, queues, cpus),
                expect_cpu,
                "{mode:?}: queue {q} vector home moved"
            );
        }
        assert!(
            spec.filter_table().is_none(),
            "presets never re-target dynamically"
        );
        assert_eq!(spec.pin_processes, mode.processes_pinned());
    }

    // And the built machine wires exactly those placements.
    for mode in AffinityMode::ALL {
        let config = ExperimentConfig::paper_sut(Direction::Rx, 4096, mode);
        let machine = Machine::new(&config).unwrap();
        let spec = mode.steer_preset();
        let expected: Vec<usize> = (0..config.connections)
            .map(|f| spec.place(f, queues))
            .collect();
        assert_eq!(machine.flow_queues(), &expected[..], "{mode:?}");
    }
}
