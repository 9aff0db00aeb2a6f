//! The four workloads: their cell recipes (the `repro` sweeps, cell for
//! cell), the sub-sweep digests their outputs fold into, the pinned
//! digests, and the per-cell invariants.
//!
//! The workload seed perturbs every recipe seed by XOR, so seed 0 is
//! exactly the `repro` recipe and reproduces the pinned digests; any
//! other seed gives a different but equally deterministic input.

use affinity_sim::{
    AffinityMode, CoalesceConfig, DataplaneMode, Direction, DynamicSteer, ExperimentConfig,
    FlowPlacement, ServerWorkload, SteerSpec, VectorLayout, PAPER_SIZES,
};
use bench::{cell, fnv_fold, FIGURE_SEEDS};

use crate::run::CellResult;

/// Every workload, in the order the default command runs them.
pub const WORKLOADS: [&str; 4] = ["matrix", "fanout", "churn", "churn-100k"];

/// One cell: the sub-sweep its output digests into, and its machine.
#[derive(Debug)]
pub struct Job {
    pub group: &'static str,
    pub config: ExperimentConfig,
}

/// Pinned digests of the full recipes at seed 0. All but the 224-cell
/// matrix are the `repro` sweep digests; `matrix.5eed+42` is the 112-cell
/// subset `repro perf` times.
const PINS: [(&str, u64); 8] = [
    ("matrix", 0xe4b9_bf3f_f2ad_5fb3),
    ("matrix.5eed+42", 0x6677_87c2_50c2_3ff6),
    ("scale", 0xb682_f05e_7366_061f),
    ("steer", 0xf1b9_af2d_966b_ce1d),
    ("poll", 0x5b4b_100c_bd3a_3908),
    ("scale-large", 0x8bae_0b48_e353_fa69),
    ("churn", 0x0cc5_91e2_8703_3d82),
    ("churn-100k", 0x8af0_779b_bfb7_5f30),
];

/// Pinned digests of the quick variants at seed 0 (the warm-up every run
/// checks before it times anything).
const QUICK_PINS: [(&str, u64); 7] = [
    ("matrix", 0x51c9_c29a_8afc_3458),
    ("scale", 0xbafe_9847_717c_5d68),
    ("steer", 0xb3a3_ba42_094b_122a),
    ("poll", 0x5c8f_ae01_599c_7054),
    ("scale-large", 0xd7d5_844e_7dbb_0d04),
    ("churn", 0x555c_d083_6a94_bbc1),
    ("churn-100k", 0x378b_9b7b_e5e6_2dee),
];

/// The pinned digest of sub-sweep `group`, if it has one.
pub fn pin(group: &str, quick: bool) -> Option<u64> {
    let table: &[(&str, u64)] = if quick { &QUICK_PINS } else { &PINS };
    table
        .iter()
        .find(|(name, _)| *name == group)
        .map(|&(_, d)| d)
}

/// The cells of `workload` at workload seed `seed`; `quick` selects the
/// `repro --quick` variant. Returns `None` for an unknown workload.
pub fn jobs(workload: &str, seed: u64, quick: bool) -> Option<Vec<Job>> {
    let mut jobs = match workload {
        "matrix" => matrix(quick),
        "fanout" => {
            let mut jobs = scale(quick);
            jobs.extend(steer(quick));
            jobs.extend(poll(quick));
            jobs.push(scale_large(quick));
            jobs
        }
        "churn" => churn(quick),
        "churn-100k" => vec![churn_100k(quick)],
        _ => return None,
    };
    for job in &mut jobs {
        job.config.seed ^= seed;
    }
    Some(jobs)
}

/// Figure 3/4 regeneration: 2 directions x 7 sizes x 4 modes x the four
/// figure seeds, seed-minor like `repro perf`.
fn matrix(quick: bool) -> Vec<Job> {
    let (sizes, seeds): (&[u64], &[u64]) = if quick {
        (&[128, 65536], &FIGURE_SEEDS[..1])
    } else {
        (&PAPER_SIZES, &FIGURE_SEEDS)
    };
    let mut jobs = Vec::new();
    for dir in [Direction::Tx, Direction::Rx] {
        for &size in sizes {
            for mode in AffinityMode::ALL {
                for &seed in seeds {
                    let mut config = cell(dir, size, mode, seed);
                    if quick {
                        config.workload = config.workload.quick();
                    }
                    jobs.push(Job {
                        group: "matrix",
                        config,
                    });
                }
            }
        }
    }
    jobs
}

/// `repro scale`'s grid: CPUs x flows x modes, Rx 4 KB.
fn scale(quick: bool) -> Vec<Job> {
    let (cpu_grid, flow_grid): (&[usize], &[usize]) = if quick {
        (&[2, 4], &[8, 16])
    } else {
        (&[2, 4, 8, 16], &[8, 64, 256])
    };
    let mut jobs = Vec::new();
    for &cpus in cpu_grid {
        for &flows in flow_grid {
            for mode in [
                AffinityMode::None,
                AffinityMode::Irq,
                AffinityMode::Full,
                AffinityMode::Rss,
            ] {
                let mut config = ExperimentConfig::scale(Direction::Rx, cpus, flows, mode);
                if quick {
                    config.workload.warmup_messages = 2;
                    config.workload.measure_messages = 3;
                }
                jobs.push(Job {
                    group: "scale",
                    config,
                });
            }
        }
    }
    jobs
}

fn static_spec(placement: FlowPlacement, vectors: VectorLayout, pin: bool) -> SteerSpec {
    SteerSpec {
        placement,
        vectors,
        dynamic: DynamicSteer::Off,
        pin_processes: pin,
    }
}

/// `repro steer`: RSS vs Flow Director under fixed and adaptive
/// interrupt moderation.
fn steer(quick: bool) -> Vec<Job> {
    let rss = static_spec(FlowPlacement::RssHash, VectorLayout::SplitEven, false);
    let adaptive = CoalesceConfig::AdaptiveTimeout {
        min_events: 1,
        max_events: 8,
        idle_gap_cycles: 8_000,
        timeout_cycles: 12_000,
    };
    let variants = [
        (rss, None),
        (rss, Some(adaptive)),
        (SteerSpec::flow_director(), None),
        (SteerSpec::flow_director(), Some(adaptive)),
    ];
    let cpu_grid: &[usize] = if quick { &[4] } else { &[4, 8, 16] };
    let mut jobs = Vec::new();
    for &cpus in cpu_grid {
        for (spec, coalesce) in variants {
            let mut config = ExperimentConfig::steer_sweep(Direction::Rx, cpus, 4 * cpus, spec);
            if let Some(c) = coalesce {
                config.nic.coalesce = c;
            }
            if !quick {
                config.workload.warmup_messages = 8;
                config.workload.measure_messages = 24;
            }
            jobs.push(Job {
                group: "steer",
                config,
            });
        }
    }
    jobs
}

/// `repro poll`: three interrupt steering policies against the
/// busy-poll dataplane (`None`).
fn poll(quick: bool) -> Vec<Job> {
    let variants = [
        Some(static_spec(
            FlowPlacement::RoundRobin,
            VectorLayout::AllCpu0,
            false,
        )),
        Some(static_spec(
            FlowPlacement::RssHash,
            VectorLayout::SplitEven,
            false,
        )),
        Some(SteerSpec::flow_director()),
        None,
    ];
    let cpu_grid: &[usize] = if quick { &[4] } else { &[4, 8, 16] };
    let mut jobs = Vec::new();
    for &cpus in cpu_grid {
        for spec in variants {
            let mut config = match spec {
                Some(spec) => ExperimentConfig::steer_sweep(Direction::Rx, cpus, 4 * cpus, spec),
                None => ExperimentConfig::poll_sweep(Direction::Rx, cpus, 4 * cpus),
            };
            if !quick {
                config.workload.warmup_messages = 8;
                config.workload.measure_messages = 24;
            }
            jobs.push(Job {
                group: "poll",
                config,
            });
        }
    }
    jobs
}

/// `repro scale`'s large cell: 16 CPUs x 4096 flows under RSS.
fn scale_large(quick: bool) -> Job {
    let mut config = ExperimentConfig::scale(Direction::Rx, 16, 4096, AffinityMode::Rss);
    let (warmup, measure) = if quick { (1, 1) } else { (2, 4) };
    config.workload.warmup_messages = warmup;
    config.workload.measure_messages = measure;
    Job {
        group: "scale-large",
        config,
    }
}

/// Server processes are pinned in every churn cell so static RSS and
/// Flow Director actually diverge (see `repro churn`).
fn churn_specs() -> (SteerSpec, SteerSpec) {
    let rss = static_spec(FlowPlacement::RssHash, VectorLayout::SplitEven, true);
    let flowdir = SteerSpec {
        pin_processes: true,
        ..SteerSpec::flow_director()
    };
    (rss, flowdir)
}

/// `repro churn`'s grid: both dataplanes x RSS/Flow Director x CPUs x
/// concurrent-flow targets.
fn churn(quick: bool) -> Vec<Job> {
    let (rss, flowdir) = churn_specs();
    let variants = [
        (DataplaneMode::Interrupt, rss),
        (DataplaneMode::Interrupt, flowdir),
        (DataplaneMode::Poll, rss),
        (DataplaneMode::Poll, flowdir),
    ];
    let (cpu_grid, flow_grid): (&[usize], &[usize]) = if quick {
        (&[4], &[12])
    } else {
        (&[4, 8, 16], &[1_000, 10_000])
    };
    let mut jobs = Vec::new();
    for &cpus in cpu_grid {
        for &flows in flow_grid {
            for (plane, spec) in variants {
                let mut config = ExperimentConfig::churn(cpus, flows, spec, plane);
                if quick {
                    config = config.quick();
                }
                jobs.push(Job {
                    group: "churn",
                    config,
                });
            }
        }
    }
    jobs
}

/// `repro churn`'s standalone large cell: 16 CPUs x 100k flow slots,
/// mice only, Flow Director on the interrupt plane.
fn churn_100k(quick: bool) -> Job {
    let (cpus, flows) = if quick { (8, 16) } else { (16, 100_000) };
    let (_, flowdir) = churn_specs();
    let mut config = ExperimentConfig::churn(cpus, flows, flowdir, DataplaneMode::Interrupt);
    config.server = config.server.map(ServerWorkload::mice_only);
    if quick {
        config = config.quick();
    }
    Job {
        group: "churn-100k",
        config,
    }
}

/// The values a cell folds into its sub-sweep digest: wall cycles, plus
/// the lifecycle counts for churn cells (as `repro churn` folds them). A
/// cell that produced no result folds a sentinel, so its digest can only
/// mismatch.
fn digest_words(job: &Job, result: Option<&CellResult>) -> Vec<u64> {
    match result {
        None => vec![u64::MAX],
        Some(r) if job.config.server.is_some() => vec![
            r.metrics.wall_cycles,
            r.lifecycle.accepts,
            r.lifecycle.completes,
            r.lifecycle.backlog_drops,
        ],
        Some(r) => vec![r.metrics.wall_cycles],
    }
}

/// One sub-sweep's digest and the cells (job indices) it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    pub name: String,
    pub value: u64,
    pub cells: Vec<usize>,
}

/// Folds a round's results into its sub-sweep digests, in job order.
/// The matrix also gets the 112-cell subset on the first two figure
/// seeds (`repro perf`'s pin) when the round contains those seeds.
pub fn digests(jobs: &[Job], results: &[Option<&CellResult>]) -> Vec<Digest> {
    let mut out: Vec<Digest> = Vec::new();
    let mut fold = |name: &str, cells: Vec<usize>| {
        let value = fnv_fold(
            cells
                .iter()
                .flat_map(|&i| digest_words(&jobs[i], results[i])),
        );
        out.push(Digest {
            name: name.to_string(),
            value,
            cells,
        });
    };
    let mut groups: Vec<&'static str> = jobs.iter().map(|j| j.group).collect();
    groups.dedup();
    for group in groups {
        fold(
            group,
            (0..jobs.len())
                .filter(|&i| jobs[i].group == group)
                .collect(),
        );
    }
    let subset: Vec<usize> = (0..jobs.len())
        .filter(|&i| jobs[i].group == "matrix" && FIGURE_SEEDS[..2].contains(&jobs[i].config.seed))
        .collect();
    if subset.len() == 112 {
        fold("matrix.5eed+42", subset);
    }
    out
}

/// The per-cell output invariants: a churn cell must accept and complete
/// connections and drain to zero live flows and zero steering-table
/// entries; every other cell must measure exactly its configured
/// messages.
pub fn check(job: &Job, r: &CellResult) -> Result<(), String> {
    let c = &job.config;
    if c.server.is_some() {
        let lc = &r.lifecycle;
        if lc.accepts == 0 || lc.completes == 0 {
            return Err(format!("no accepts/completes in window ({lc:?})"));
        }
        if lc.final_live_flows != 0 || lc.final_table_entries != 0 {
            return Err(format!("did not drain ({lc:?})"));
        }
    } else {
        let want = u64::from(c.workload.measure_messages) * c.connections as u64;
        if r.metrics.messages != want || r.metrics.wall_cycles == 0 {
            return Err(format!(
                "measured {} messages in {} cycles, want {want}",
                r.metrics.messages, r.metrics.wall_cycles
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recipes_have_the_repro_shapes() {
        let count = |w, q| jobs(w, 0, q).unwrap().len();
        assert_eq!(count("matrix", false), 224);
        assert_eq!(count("fanout", false), 48 + 12 + 12 + 1);
        assert_eq!(count("churn", false), 24);
        assert_eq!(count("churn-100k", false), 1);
        assert!(jobs("nope", 0, false).is_none());
        let fanout = jobs("fanout", 0, false).unwrap();
        assert_eq!(fanout.last().unwrap().group, "scale-large");
        let big = jobs("churn-100k", 0, false).unwrap().remove(0).config;
        assert_eq!((big.cpus, big.connections), (16, 100_000));
    }

    #[test]
    fn seed_zero_is_the_recipe_and_others_perturb_it() {
        let base = jobs("matrix", 0, false).unwrap();
        assert_eq!(base[0].config.seed, FIGURE_SEEDS[0]);
        assert_eq!(base[1].config.seed, FIGURE_SEEDS[1]);
        let other = jobs("matrix", 7, false).unwrap();
        assert_eq!(other[0].config.seed, FIGURE_SEEDS[0] ^ 7);
        let churn = jobs("churn", 0, false).unwrap();
        assert!(churn.iter().all(|j| j.config.seed == 0x5EED));
    }

    #[test]
    fn every_sub_sweep_has_a_pin() {
        for w in WORKLOADS {
            for quick in [false, true] {
                for job in jobs(w, 0, quick).unwrap() {
                    assert!(pin(job.group, quick).is_some(), "{w} {}", job.group);
                }
            }
        }
        assert_eq!(pin("matrix.5eed+42", false), Some(0x6677_87c2_50c2_3ff6));
        assert_eq!(pin("matrix.5eed+42", true), None);
    }
}
