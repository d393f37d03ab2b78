//! The five workloads: which plans and seeds each one generates from
//! the benchmark seed, what one op is, and how an op's output is
//! reduced to a run count and a digest.
//!
//! Sizes are fixed counts, never durations, so a workload does exactly
//! the same simulated work in every pass and its digests repeat. The
//! program under test only ever sees generated plans and seeds.
//!
//! The benchmark seed offsets every *run* seed. Scenario (boot) seeds
//! are pinned at [`PLAN_SEED`]: a campaign holds its boot seed fixed
//! anyway, and the boot has discrete outcomes that change a workload's
//! work wholesale — under `partition_plan` one boot outcome recovers
//! every run in ~91 simulated seconds while the other (the default's)
//! ends 74 % of runs at the 320 s timeout, 2.8x the events. Varying it
//! would measure the seed, not the simulator.

use ree_apps::{BootSnapshot, Scenario};
use ree_dist::{distribute, DistOptions, DistReport};
use ree_inject::{
    execute, execute_warm, Aggregate, Campaign, ErrorModel, NetFault, RunGeometry, RunPlan,
    RunResult, Target,
};
use ree_mc::hash::Fnv64;
use ree_mc::{model_check, presets, McBounds, McReport};
use ree_sim::{SimDuration, SimTime};
use std::hash::Hasher;

/// The benchmark's default seed (the paper's report date, as `repro`).
pub const DEFAULT_SEED: u64 = 20020401;
/// Scenario seed of every plan (plus the plan's index where a workload
/// has several).
pub const PLAN_SEED: u64 = DEFAULT_SEED;

/// Untimed ops run before the first timed op, to fill the process-wide
/// caches (FFT plans, band masks, the memoised verification reference).
const WARMUP_OPS: usize = 8;
/// Warm-up seeds sit far above every timed seed range.
const WARMUP_SEED_OFFSET: u64 = 1 << 40;

/// Runs per `table_mix` cell and per `pool_register` call.
pub const CELL_RUNS: u32 = 16;
pub const POOL_RUNS: u32 = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    AppRegister,
    FtmPartition,
    TableMix,
    McFork,
    PoolRegister,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::AppRegister,
        Workload::FtmPartition,
        Workload::TableMix,
        Workload::McFork,
        Workload::PoolRegister,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AppRegister => "app_register",
            Workload::FtmPartition => "ftm_partition",
            Workload::TableMix => "table_mix",
            Workload::McFork => "mc_fork",
            Workload::PoolRegister => "pool_register",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads (or worker processes, for the pool) one op occupies.
    pub fn parallelism(self, nproc: usize) -> usize {
        match self {
            Workload::TableMix | Workload::PoolRegister => nproc,
            _ => 1,
        }
    }

    /// Name of the public call one op makes — the span name in a traced
    /// pass.
    pub fn op_call(self) -> &'static str {
        match self {
            Workload::AppRegister | Workload::FtmPartition => "execute_warm",
            Workload::TableMix => "Campaign::aggregate",
            Workload::McFork => "model_check",
            Workload::PoolRegister => "distribute",
        }
    }
}

/// The historic headline plan: register bit-flips into the texture
/// application on the 4-node testbed.
pub fn register_plan() -> RunPlan {
    RunPlan {
        scenario: Scenario::single_texture(PLAN_SEED),
        target: Target::App,
        model: ErrorModel::Register,
        timeout: SimTime::from_secs(220),
        net_faults: vec![],
    }
}

/// SIGINT into the FTM with the SIFT side (nodes 0–1) split from the
/// application side (2–3) for 2 s from the moment of detection.
pub fn partition_plan() -> RunPlan {
    RunPlan {
        scenario: Scenario::single_texture(PLAN_SEED),
        target: Target::Ftm,
        model: ErrorModel::Sigint,
        timeout: SimTime::from_secs(320),
        net_faults: vec![NetFault::partition_on_recovery(
            vec![vec![0, 1], vec![2, 3]],
            SimDuration::from_secs(2),
        )],
    }
}

/// The 21 plans `repro`'s tables are built from: every SIFT target ×
/// error model on the 4-node testbed, the two-application 6-node setup,
/// and the routed image pipeline with and without a trunk partition.
///
/// Heap flips go into application processes only. A heap flip into an
/// ARMOR can corrupt a field that drives its event loop, and on some
/// seeds the run then allocates without bound (`Target::Ftm`,
/// `ErrorModel::Heap` on `single_texture(0)`, run seed 196643 — what
/// `repro --seed 5 table7` hits). A workload may not hold an op that
/// cannot finish, so those three cells wait for the simulator to bound
/// such runs.
pub fn table_plans() -> Vec<RunPlan> {
    let mut plans = Vec::with_capacity(21);
    for target in [Target::App, Target::Ftm, Target::ExecArmor, Target::Heartbeat] {
        let mut models = vec![
            ErrorModel::Sigint,
            ErrorModel::Sigstop,
            ErrorModel::Register,
            ErrorModel::TextSegment,
        ];
        if target == Target::App {
            models.push(ErrorModel::Heap);
        }
        for model in models {
            plans.push(RunPlan {
                scenario: Scenario::single_texture(PLAN_SEED + plans.len() as u64),
                target: target.clone(),
                model,
                timeout: SimTime::from_secs(400),
                net_faults: vec![],
            });
        }
    }
    for (target, model) in [
        (Target::AnyArmor, ErrorModel::Register),
        (Target::NamedApp("otis".into()), ErrorModel::Heap),
    ] {
        plans.push(RunPlan {
            scenario: Scenario::two_apps(PLAN_SEED + plans.len() as u64),
            target,
            model,
            timeout: SimTime::from_secs(700),
            net_faults: vec![],
        });
    }
    for (target, net_faults) in [
        (Target::App, vec![]),
        (
            Target::Ftm,
            vec![NetFault::partition_on_recovery(
                vec![vec![0, 1, 2, 3], vec![4]],
                SimDuration::from_secs(2),
            )],
        ),
    ] {
        plans.push(RunPlan {
            scenario: Scenario::image_pipeline(PLAN_SEED + plans.len() as u64),
            target,
            model: ErrorModel::Sigint,
            timeout: SimTime::from_secs(320),
            net_faults,
        });
    }
    plans
}

/// One timed unit of work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `execute_warm(plans[plan], seed)`.
    Run { plan: usize, seed: u64 },
    /// `Campaign::new(plans[plan]).runs(16).seed(seed0).threads(nproc).aggregate()`.
    Cell { plan: usize, seed0: u64 },
    /// `model_check(plans[plan], seed, McBounds::quick())`.
    Mc { plan: usize, seed: u64 },
    /// `distribute(plans[0], 256, seed0, DistOptions::new(nproc))`.
    Pool { seed0: u64 },
}

/// What an op returned.
pub enum Output {
    Run(RunResult),
    Cell(Aggregate),
    Mc { report: McReport, must_recover: bool },
    Pool(DistReport),
}

/// An output reduced to what the harness keeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reduced {
    /// Simulated runs the op performed (explored terminal executions
    /// for a model check).
    pub runs: u64,
    /// FNV-64 of the output's `{:?}` rendering.
    pub digest: u64,
    /// Did the op itself report a fault (an escape, a lost batch)?
    pub failed: bool,
}

pub fn fnv64(text: &str) -> u64 {
    let mut h = Fnv64::default();
    h.write(text.as_bytes());
    h.finish()
}

/// Folds per-op digests, in op order, into the workload's digest.
pub fn fold_digests(digests: &[u64]) -> u64 {
    let mut h = Fnv64::default();
    for d in digests {
        h.write(&d.to_le_bytes());
    }
    h.finish()
}

impl Output {
    pub fn reduce(&self) -> Reduced {
        match self {
            Output::Run(r) => Reduced { runs: 1, digest: fnv64(&format!("{r:?}")), failed: false },
            Output::Cell(agg) => Reduced {
                runs: u64::from(CELL_RUNS),
                digest: fnv64(&format!("{agg:?}")),
                failed: false,
            },
            // A SIGINT kill is always detected and respawned, so an
            // escape there is a simulator fault. A register flip can
            // legitimately go unrecovered: those escapes are findings,
            // held fixed by the digest.
            Output::Mc { report, must_recover } => Reduced {
                runs: report.explored,
                digest: fnv64(&format!("{report:?}")),
                failed: *must_recover && !report.escapes.is_empty(),
            },
            // Only the aggregate is digested: the ledger carries wall
            // times. A batch that had to be re-queued or run in-process
            // is a pool fault even though the aggregate still converges.
            Output::Pool(report) => Reduced {
                runs: report.runs_folded,
                digest: fnv64(&format!("{:?}", report.aggregate)),
                failed: !report.completed()
                    || report.ledger.requeued + report.ledger.fallback_runs > 0,
            },
        }
    }
}

/// A workload after set-up: plans built, inputs warm, snapshots booted,
/// caches filled — ready for its first timed op.
pub struct Prepared {
    pub workload: Workload,
    pub plans: Vec<RunPlan>,
    /// Per plan, for workloads whose op is a single warm run.
    warm: Vec<(RunGeometry, BootSnapshot)>,
    pub ops: Vec<Op>,
    nproc: usize,
}

impl Prepared {
    /// Builds the workload from the benchmark seed. `smoke` keeps every
    /// 20th op (a seconds-long self-test size, not a measurement).
    pub fn setup(workload: Workload, seed: u64, smoke: bool, nproc: usize) -> Prepared {
        let (plans, ops, warmups): (Vec<RunPlan>, Vec<Op>, Vec<Op>) = match workload {
            Workload::AppRegister | Workload::FtmPartition => {
                let (plan, n) = if workload == Workload::AppRegister {
                    (register_plan(), 800)
                } else {
                    (partition_plan(), 400)
                };
                let run = |s| Op::Run { plan: 0, seed: s };
                (
                    vec![plan],
                    (0..n).map(|i| run(seed + i)).collect(),
                    (0..WARMUP_OPS as u64).map(|i| run(seed + WARMUP_SEED_OFFSET + i)).collect(),
                )
            }
            Workload::TableMix => {
                let plans = table_plans();
                let n = plans.len();
                // Seed bases outermost, so neighbouring ops are
                // different plans and each cell's 16 seeds are its own.
                let cell = |b: usize, p: usize| Op::Cell {
                    plan: p,
                    seed0: seed + ((b * n + p) as u64) * u64::from(CELL_RUNS),
                };
                let ops = (0..5).flat_map(|b| (0..n).map(move |p| cell(b, p))).collect();
                let warmups = (0..WARMUP_OPS)
                    .map(|i| Op::Cell {
                        plan: i * 5 % n,
                        seed0: seed + WARMUP_SEED_OFFSET + (i as u64) * u64::from(CELL_RUNS),
                    })
                    .collect();
                (plans, ops, warmups)
            }
            Workload::McFork => {
                let plans = vec![
                    presets::two_node_sigint_plan(PLAN_SEED),
                    presets::two_node_register_plan(PLAN_SEED),
                ];
                let mc = |i: u64| Op::Mc { plan: (i % 2) as usize, seed: seed + i / 2 };
                (
                    plans,
                    (0..140).map(mc).collect(), // 70 seeds on each plan
                    (0..WARMUP_OPS as u64).map(|i| mc(2 * WARMUP_SEED_OFFSET + i)).collect(),
                )
            }
            Workload::PoolRegister => {
                let pool = |k: u64| Op::Pool { seed0: seed + u64::from(POOL_RUNS) * k };
                // Every call spawns fresh workers, so the supervisor has
                // no cache a warm-up could fill; one call pages in the
                // executable the workers re-execute.
                (
                    vec![register_plan()],
                    (0..6).map(pool).collect(),
                    vec![Op::Pool { seed0: seed + WARMUP_SEED_OFFSET }],
                )
            }
        };
        for plan in &plans {
            plan.scenario.warm_inputs();
        }
        let warm = match workload {
            Workload::AppRegister | Workload::FtmPartition => {
                plans.iter().map(|p| (p.geometry(), p.boot_snapshot())).collect()
            }
            _ => Vec::new(),
        };
        let ops = if smoke { ops.into_iter().step_by(20).collect() } else { ops };
        let prepared = Prepared { workload, plans, warm, ops, nproc };
        for op in &warmups {
            std::hint::black_box(prepared.execute(op).map(|o| o.reduce()).ok());
        }
        prepared
    }

    /// Executes one op — the timed call, and nothing else.
    pub fn execute(&self, op: &Op) -> Result<Output, String> {
        Ok(match *op {
            Op::Run { plan, seed } => {
                let (geometry, snapshot) = &self.warm[plan];
                Output::Run(execute_warm(&self.plans[plan], geometry, snapshot, seed))
            }
            Op::Cell { plan, seed0 } => Output::Cell(
                Campaign::new(&self.plans[plan])
                    .runs(CELL_RUNS)
                    .seed(seed0)
                    .threads(self.nproc)
                    .aggregate(),
            ),
            Op::Mc { plan, seed } => Output::Mc {
                report: model_check(&self.plans[plan], seed, &McBounds::quick()),
                must_recover: self.plans[plan].model == ErrorModel::Sigint,
            },
            Op::Pool { seed0 } => Output::Pool(
                distribute(&self.plans[0], POOL_RUNS, seed0, &DistOptions::new(self.nproc))
                    .map_err(|e| e.to_string())?,
            ),
        })
    }

    /// Indices of the ops whose digest is re-derived along an
    /// independent path by [`Prepared::cross_path_digest`].
    pub fn cross_path_sample(&self) -> Vec<usize> {
        let n = self.ops.len();
        let spread = |k: usize| (0..k.min(n)).map(|i| i * n / k.min(n)).collect();
        match self.workload {
            // 32 single runs, cold.
            Workload::AppRegister | Workload::FtmPartition => spread(32),
            // 2 cells × 16 seeds, cold and sequential.
            Workload::TableMix => spread(2),
            // The checker has no second path; its gate is zero escapes
            // under SIGINT.
            Workload::McFork => Vec::new(),
            // Every call, against the in-process campaign.
            Workload::PoolRegister => (0..n).collect(),
        }
    }

    /// The digest op `i` must have, computed without the machinery the
    /// op exercises: a warm run against a cold boot, a threaded cell
    /// against a sequential cold fold, the worker pool against the
    /// in-process campaign.
    pub fn cross_path_digest(&self, i: usize) -> u64 {
        match self.ops[i] {
            Op::Run { plan, seed } => Output::Run(execute(&self.plans[plan], seed)).reduce().digest,
            Op::Cell { plan, seed0 } => {
                let mut agg = Aggregate::default();
                for s in 0..u64::from(CELL_RUNS) {
                    agg.accept(&execute(&self.plans[plan], seed0 + s));
                }
                Output::Cell(agg).reduce().digest
            }
            Op::Pool { seed0 } => fnv64(&format!(
                "{:?}",
                Campaign::new(&self.plans[0])
                    .runs(POOL_RUNS)
                    .seed(seed0)
                    .threads(self.nproc)
                    .aggregate()
            )),
            Op::Mc { .. } => unreachable!("model-check ops are not cross-checked"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_mix_is_21_valid_plans_on_three_topologies() {
        let plans = table_plans();
        assert_eq!(plans.len(), 21);
        assert_eq!(plans.iter().filter(|p| p.scenario.nodes == 4).count(), 17);
        assert_eq!(plans.iter().filter(|p| p.scenario.nodes == 6).count(), 2);
        assert_eq!(plans.iter().filter(|p| p.scenario.topology.is_some()).count(), 2);
        assert_eq!(plans.iter().filter(|p| !p.net_faults.is_empty()).count(), 1);
        // Heap flips go into application processes only.
        for plan in plans.iter().filter(|p| p.model == ErrorModel::Heap) {
            assert!(!plan.target.is_sift_process(), "{:?}", plan.target);
        }
        for plan in &plans {
            plan.validate().expect("generated plans are valid");
        }
    }

    #[test]
    fn every_run_seed_of_a_workload_is_used_once() {
        let p = Prepared::setup(Workload::TableMix, 100, true, 1);
        assert_eq!(p.ops.len(), 105_usize.div_ceil(20));
        let full: Vec<Op> = {
            let n = p.plans.len();
            (0..5 * n).map(|c| Op::Cell { plan: c % n, seed0: 100 + c as u64 * 16 }).collect()
        };
        assert_eq!(p.ops, full.into_iter().step_by(20).collect::<Vec<_>>());
        // Seed windows of neighbouring cells touch but never overlap.
        let mut starts: Vec<u64> = (0..105).map(|c| 100 + c * u64::from(CELL_RUNS)).collect();
        starts.dedup();
        assert_eq!(starts.len(), 105);
    }

    #[test]
    fn the_seed_moves_run_seeds_and_leaves_plans_alone() {
        let a = Prepared::setup(Workload::AppRegister, 1, true, 1);
        let b = Prepared::setup(Workload::AppRegister, 2, true, 1);
        assert_eq!(a.plans[0].scenario.seed, b.plans[0].scenario.seed);
        assert_eq!(a.ops[0], Op::Run { plan: 0, seed: 1 });
        assert_eq!(b.ops[1], Op::Run { plan: 0, seed: 22 });
        // The same op gives the same digest, and a warm run equals a cold one.
        let digest = |p: &Prepared, i: usize| p.execute(&p.ops[i]).unwrap().reduce().digest;
        assert_eq!(digest(&a, 1), digest(&a, 1));
        assert_eq!(digest(&a, 1), a.cross_path_digest(1));
        assert_ne!(digest(&a, 1), digest(&b, 1));
    }

    #[test]
    fn digests_are_order_sensitive_and_stable() {
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fold_digests(&[1, 2]), fold_digests(&[2, 1]));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
