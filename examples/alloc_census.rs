//! What a run asks of the allocator: executes warm injection runs of one
//! of the benchmark's two single-run plans under a counting
//! `#[global_allocator]` and reports allocations, reallocations and
//! bytes per run and per snapshot fork, and the request-size histogram.
//! An uncounted pass over the same seeds then reports the process
//! table's traffic: pids issued per run (its slots) and processes live
//! at run end. The figures in `docs/bench/PR-24.md`, "Event construction
//! and the allocator, measured", and in `docs/bench/PR-47.md` are this
//! command's output.
//!
//! Run with: `cargo run --release --example alloc_census -- --plan partition --runs 100`

use ree_apps::Scenario;
use ree_inject::{execute_warm, execute_warm_full, ErrorModel, NetFault, RunPlan, Target};
use ree_os::TraceDetail;
use ree_sim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Scenario seed of the benchmark's plans (`perfbench`'s `PLAN_SEED`).
const SCENARIO_SEED: u64 = 20020401;
const FIRST_RUN_SEED: u64 = 7;
/// Uncounted runs that fill the process-wide caches (FFT plans, band
/// masks, the memoised verification reference), on seeds far above the
/// counted ones — as `perfbench` warms a workload up.
const WARMUP_RUNS: u64 = 8;
const WARMUP_SEED: u64 = 1 << 40;

/// Histogram bucket `i` holds requests of `2^(i-1) < size <= 2^i` bytes
/// (bucket 0: sizes 0 and 1); the last bucket takes everything larger.
const BUCKETS: usize = 24;

/// Every counter is a statistic that publishes no other data: `Relaxed`.
struct Counting {
    allocs: AtomicU64,
    reallocs: AtomicU64,
    bytes: AtomicU64,
    by_size: [AtomicU64; BUCKETS],
}

impl Counting {
    fn count(&self, kind: &AtomicU64, size: usize) {
        kind.fetch_add(1, Relaxed);
        self.bytes.fetch_add(size as u64, Relaxed);
        let bucket = (size.max(1).next_power_of_two().trailing_zeros() as usize).min(BUCKETS - 1);
        self.by_size[bucket].fetch_add(1, Relaxed);
    }

    fn read(&self) -> Counts {
        Counts {
            allocs: self.allocs.load(Relaxed),
            reallocs: self.reallocs.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            by_size: std::array::from_fn(|i| self.by_size[i].load(Relaxed)),
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(&self.allocs, layout.size());
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(&self.allocs, layout.size());
        // SAFETY: the caller's `layout`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(&self.reallocs, new_size);
        // SAFETY: `ptr` came from `System` with this `layout`; the caller
        // guarantees `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting {
    allocs: AtomicU64::new(0),
    reallocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
    by_size: [const { AtomicU64::new(0) }; BUCKETS],
};

struct Counts {
    allocs: u64,
    reallocs: u64,
    bytes: u64,
    by_size: [u64; BUCKETS],
}

/// What the allocator was asked for while `work` ran.
fn measure(work: impl FnOnce()) -> Counts {
    let before = ALLOCATOR.read();
    work();
    let after = ALLOCATOR.read();
    Counts {
        allocs: after.allocs - before.allocs,
        reallocs: after.reallocs - before.reallocs,
        bytes: after.bytes - before.bytes,
        by_size: std::array::from_fn(|i| after.by_size[i] - before.by_size[i]),
    }
}

/// `perfbench`'s `register_plan` and `partition_plan`.
fn plan_named(name: &str) -> Option<RunPlan> {
    let scenario = Scenario::single_texture(SCENARIO_SEED);
    match name {
        "register" => Some(RunPlan {
            scenario,
            target: Target::App,
            model: ErrorModel::Register,
            timeout: SimTime::from_secs(220),
            net_faults: Vec::new(),
        }),
        "partition" => Some(RunPlan {
            scenario,
            target: Target::Ftm,
            model: ErrorModel::Sigint,
            timeout: SimTime::from_secs(320),
            net_faults: vec![NetFault::partition_on_recovery(
                vec![vec![0, 1], vec![2, 3]],
                SimDuration::from_secs(2),
            )],
        }),
        _ => None,
    }
}

fn args() -> Option<(String, RunPlan, u64)> {
    let (mut name, mut runs) = ("partition".to_string(), 100);
    let args: Vec<String> = std::env::args().skip(1).collect();
    for pair in args.chunks(2) {
        match pair {
            [flag, value] if flag == "--plan" => name = value.clone(),
            [flag, value] if flag == "--runs" => runs = value.parse().ok().filter(|&n| n > 0)?,
            _ => return None,
        }
    }
    let plan = plan_named(&name)?;
    Some((name, plan, runs))
}

fn main() {
    let Some((name, plan, runs)) = args() else {
        eprintln!("usage: alloc_census [--plan register|partition] [--runs N]");
        std::process::exit(2);
    };
    let (geometry, snapshot) = plan.boot();
    for seed in WARMUP_SEED..WARMUP_SEED + WARMUP_RUNS {
        std::hint::black_box(execute_warm(&plan, &geometry, &snapshot, seed));
    }

    let seeds = FIRST_RUN_SEED..FIRST_RUN_SEED + runs;
    // A warm run: fork, execute, classify, drop.
    let run = measure(|| {
        for seed in seeds.clone() {
            std::hint::black_box(execute_warm(&plan, &geometry, &snapshot, seed));
        }
    });
    // The fork alone (one is part of every warm run above).
    let fork = measure(|| {
        for seed in seeds.clone() {
            std::hint::black_box(snapshot.fork(seed));
        }
    });
    // Uncounted: pids issued since boot (one `Spawn` record each) and
    // processes live at run end.
    let table: Vec<[usize; 2]> = seeds
        .map(|seed| {
            let (_, running) = execute_warm_full(&plan, &geometry, &snapshot, seed);
            let cluster = &running.cluster;
            let spawns = cluster
                .trace()
                .records()
                .filter(|r| matches!(r.detail, TraceDetail::Spawn { .. }))
                .count();
            [spawns, cluster.all_procs().len()]
        })
        .collect();

    let per = |n: u64| n as f64 / runs as f64;
    println!(
        "{name} plan (scenario seed {SCENARIO_SEED}), {runs} warm runs from seed {FIRST_RUN_SEED}"
    );
    println!("{:<10} {:>10} {:>10} {:>12}", "per", "allocs", "reallocs", "bytes");
    for (label, c) in [("warm run", &run), ("fork", &fork)] {
        println!(
            "{label:<10} {:>10.1} {:>10.1} {:>12.0}",
            per(c.allocs),
            per(c.reallocs),
            per(c.bytes)
        );
    }
    println!("{:<16} {:>10} {:>10}", "process table", "mean", "max");
    for (i, label) in ["pids issued", "live at end"].into_iter().enumerate() {
        let total: usize = table.iter().map(|t| t[i]).sum();
        let max = table.iter().map(|t| t[i]).max().unwrap_or(0);
        println!("{label:<16} {:>10.1} {max:>10}", per(total as u64));
    }
    println!("request sizes of a warm run (allocs + reallocs):");
    println!("{:<12} {:>10} {:>8}", "bytes up to", "per run", "share");
    let requests = run.allocs + run.reallocs;
    for (i, &n) in run.by_size.iter().enumerate().filter(|&(_, &n)| n > 0) {
        let bound = if i == BUCKETS - 1 { "more".to_string() } else { (1u64 << i).to_string() };
        println!("{bound:<12} {:>10.1} {:>7.1}%", per(n), 100.0 * n as f64 / requests as f64);
    }
}
