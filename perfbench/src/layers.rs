//! Per-layer probes: every layer (crate) measured from outside, by
//! timing calls into its public functions on fixed plans. In-program
//! spans and counters are a later change; nothing here edits a layer.
//!
//! Each probe repeats a deterministic call and reports the median, so a
//! figure is a typical cost rather than a lucky one; counts marked
//! `exact` repeat bit-for-bit for a given seed and must not move under
//! any optimisation.

use crate::pass::decompose;
use crate::spans::{Recorder, Span};
use crate::stats::{median, merge_min};
use crate::workloads::{register_plan, table_plans, CELL_RUNS, DEFAULT_SEED, PLAN_SEED, POOL_RUNS};
use ree_apps::filters::{assemble_features, filter_tiles_px, FilterScratch, NUM_FILTERS};
use ree_armor::{ArmorEvent, ArmorId, CheckpointBuffer, Fields, Inbound, ReliableComm, Value};
use ree_dist::{decode_msg, distribute, encode_frame_msg, Decoder, DistOptions, Msg};
use ree_experiments::{
    fig9, figures, partition, table10, table11, table3, table4, table5, table6, table7, table8,
    Effort,
};
use ree_inject::{
    execute_warm, execute_warm_full, verify_outputs, Aggregate, Campaign, RunPlan, RunResult,
    StoppingRule,
};
use ree_mc::{hash::state_digest, model_check, presets, McBounds};
use ree_sim::{EventQueue, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// One per-layer metric: its unit, its better direction, whether it is
/// an exact count, and the end-to-end metric and workload it should
/// move (nothing else).
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub exact: bool,
    pub moves: &'static str,
}

const fn timing(name: &'static str, unit: &'static str, moves: &'static str) -> LayerMetric {
    LayerMetric { name, unit, higher_is_better: false, exact: false, moves }
}

const fn exact(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric { name, unit, higher_is_better: false, exact: true, moves: "must not move" }
}

const fn ratio(name: &'static str, unit: &'static str, moves: &'static str) -> LayerMetric {
    LayerMetric { name, unit, higher_is_better: true, exact: false, moves }
}

/// Every per-layer metric, in report order. `BENCHMARK.json`'s
/// `per_layer` section lists exactly these.
pub const LAYER_METRICS: &[LayerMetric] = &[
    timing("apps.boot_snapshot_us", "us", "setup_s all; runs_per_s table_mix"),
    timing("apps.warm_inputs_us", "us", "setup_s all"),
    timing("apps.fork_us", "us", "runs_per_s app_register (2-3 % of a run)"),
    timing(
        "apps.kernels_us_per_run",
        "us",
        "runs_per_s, op_ms_p50 app_register; at most half that on ftm_partition; none on mc_fork",
    ),
    timing("apps.filter_tiles_us", "us", "as apps.kernels_us_per_run"),
    timing("apps.fft2d_8_ns", "ns", "as apps.kernels_us_per_run"),
    timing("apps.kmeans_us", "us", "as apps.kernels_us_per_run"),
    timing("apps.verify_us", "us", "runs_per_s campaign workloads"),
    timing("sim.queue_ns_per_op", "ns", "runs_per_s ftm_partition, mc_fork"),
    timing("sim.queue_cancel_ns", "ns", "runs_per_s ftm_partition, mc_fork"),
    exact("os.events_per_run", "count"),
    timing("os.ns_per_event", "ns", "runs_per_s all; largest on ftm_partition"),
    timing("os.loop_self_us", "us", "runs_per_s ftm_partition"),
    timing("os.trace_cost_us_per_run", "us", "runs_per_s app_register"),
    exact("os.trace_records_per_run", "count"),
    timing("os.clone_midrun_us", "us", "runs_per_s mc_fork"),
    exact("net.packets_per_run", "count"),
    exact("net.bytes_per_run", "B"),
    exact("net.dropped_per_run", "count"),
    timing("armor.checkpoint_commit_ns", "ns", "runs_per_s ftm_partition"),
    timing("armor.comm_roundtrip_ns", "ns", "runs_per_s ftm_partition"),
    timing("inject.classify_us", "us", "runs_per_s campaign workloads"),
    timing("inject.fold_ns", "ns", "runs_per_s table_mix (expected negligible)"),
    timing("inject.sched_overhead_pct", "%", "runs_per_s table_mix"),
    ratio("inject.sched_speedup", "x", "runs_per_s table_mix"),
    timing("inject.cpu_ms_per_run", "ms", "runs_per_s table_mix, pool_register"),
    exact("inject.adaptive_runs_to_target", "count"),
    exact("inject.sim_s_per_run", "s"),
    exact("inject.injections_per_run", "count"),
    timing("mc.us_per_fork", "us", "runs_per_s mc_fork"),
    exact("mc.forks_per_exec", "count"),
    exact("mc.pruned_ratio", "ratio"),
    timing("mc.state_digest_us", "us", "runs_per_s mc_fork"),
    timing("dist.encode_batch_us", "us", "runs_per_s pool_register"),
    timing("dist.decode_batch_us", "us", "runs_per_s pool_register"),
    exact("dist.frame_bytes_per_run", "B"),
    timing("dist.spawn_ms", "ms", "op_ms_p50 pool_register"),
    ratio("dist.worker_busy_frac", "ratio", "runs_per_s pool_register"),
    ratio("dist.pool_speedup", "x", "explains the pool anomaly; moves nothing"),
    timing("experiments.repro_all_s", "s", "tracks runs_per_s table_mix"),
    // From the passes of the workload under test, not a probe.
    timing("host.peak_rss_mib", "MiB", "the seed's worst fault sets it; a leak shows"),
    timing("trace_overhead_pct", "%", "must stay below 5"),
    timing("span.op_us", "us", "fault-free run of the workload's plans, whole"),
    timing("span.fork_us", "us", "as apps.fork_us, on the workload's plans"),
    timing("span.event_loop_us", "us", "runs_per_s of the workload"),
    timing("span.classify_us", "us", "as inject.classify_us, on the workload's plans"),
    timing("span.fold_us", "us", "as inject.fold_ns"),
    timing("span.drop_us", "us", "runs_per_s of the workload"),
    timing("span.op_self_us", "us", "span bookkeeping; must stay negligible"),
    ratio("span.coverage_pct", "%", "the decomposition accounts for its op: 90-100"),
];

pub fn unit_of(name: &str) -> &'static str {
    LAYER_METRICS.iter().find(|m| m.name == name).map_or("?", |m| m.unit)
}

/// Wall times, ns, of `reps` calls of `f`.
fn times_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect()
}

/// Median wall time, ns, of `reps` calls of `f`.
fn median_ns<T>(reps: usize, f: impl FnMut() -> T) -> f64 {
    median(&times_ns(reps, f))
}

/// Least wall time, ns, of `reps` calls of `f`.
fn best_ns<T>(reps: usize, f: impl FnMut() -> T) -> f64 {
    times_ns(reps, f).into_iter().fold(f64::INFINITY, f64::min)
}

/// Median over `reps` batches of the per-iteration time, ns, of a call
/// too short to time alone.
fn median_ns_per_iter<T>(reps: usize, iters: usize, mut f: impl FnMut() -> T) -> f64 {
    median_ns(reps, || {
        for _ in 0..iters {
            black_box(f());
        }
    }) / iters as f64
}

/// Per-seed wall times, ns, of two variants of a run over the same
/// seeds, each the minimum of `reps` repetitions. The variants alternate
/// seed by seed, so a slow spell of the host taxes both alike and their
/// difference stays meaningful.
fn paired_per_seed_min_ns(
    seeds: &[u64],
    reps: usize,
    mut a: impl FnMut(u64),
    mut b: impl FnMut(u64),
) -> (Vec<u64>, Vec<u64>) {
    let timed = |f: &mut dyn FnMut(u64), s: u64| {
        let t = Instant::now();
        f(s);
        t.elapsed().as_nanos() as u64
    };
    let (mut best_a, mut best_b) = (vec![u64::MAX; seeds.len()], vec![u64::MAX; seeds.len()]);
    for _ in 0..reps {
        for (i, &s) in seeds.iter().enumerate() {
            best_a[i] = best_a[i].min(timed(&mut a, s));
            best_b[i] = best_b[i].min(timed(&mut b, s));
        }
    }
    (best_a, best_b)
}

fn queue_probe(out: &mut Vec<(&'static str, f64)>) {
    let standing = || {
        let mut q = EventQueue::new();
        for i in 0..256u64 {
            q.schedule(SimTime::from_micros(i * 7), i);
        }
        q
    };
    let mut q = standing();
    let mut t = 256u64 * 7;
    out.push((
        "sim.queue_ns_per_op",
        median_ns_per_iter(9, 20_000, || {
            let popped = q.pop().expect("standing population");
            t += 13;
            q.schedule(SimTime::from_micros(t), popped.2)
        }),
    ));
    let mut q = standing();
    out.push((
        "sim.queue_cancel_ns",
        median_ns_per_iter(9, 20_000, || {
            t += 13;
            let h = q.schedule(SimTime::from_micros(t), t);
            q.cancel(h)
        }),
    ));
}

fn armor_probe(out: &mut Vec<(&'static str, f64)>) {
    let mut fields = Fields::new();
    for i in 0..16 {
        fields.set(format!("field{i}"), Value::U64(i));
    }
    let mut ckpt = CheckpointBuffer::new([("element", &fields)]);
    let mut n = 0u64;
    out.push((
        "armor.checkpoint_commit_ns",
        median_ns_per_iter(9, 5_000, || {
            n += 1;
            fields.set("field3", Value::U64(n));
            ckpt.update("element", &fields);
            ckpt.encode().len()
        }),
    ));
    let mut a = ReliableComm::new(ArmorId(1), SimDuration::from_secs(2));
    let mut z = ReliableComm::new(ArmorId(2), SimDuration::from_secs(2));
    out.push((
        "armor.comm_roundtrip_ns",
        median_ns_per_iter(9, 5_000, || {
            let pkt = a.send(SimTime::ZERO, ArmorId(2), vec![ArmorEvent::new("bench")]);
            if let Inbound::Deliver(msg) = z.on_packet(pkt) {
                let ack = z.acknowledge(&msg);
                black_box(a.on_packet(ack));
            }
        }),
    ));
}

/// The science one fault-free run of `plan` computes: three filters over
/// each rank's half of the tiles, feature assembly, clustering.
fn kernels_probe(plan: &RunPlan, out: &mut Vec<(&'static str, f64)>) -> f64 {
    let p = &plan.scenario.texture;
    let image = ree_apps::synth::mars_surface_shared(
        p.image_px,
        ree_apps::texture::texture_image_seed("texture", 0, 0),
    );
    let per_side = p.image_px / p.tile_px;
    let n_tiles = per_side * per_side;
    let mut scratch = FilterScratch::new(p.tile_px);
    let filters = |scratch: &mut FilterScratch| -> Vec<Vec<(usize, f64)>> {
        (0..NUM_FILTERS)
            .map(|f| {
                let mut tiles = Vec::with_capacity(n_tiles);
                for rank in [0..n_tiles / 2, n_tiles / 2..n_tiles] {
                    tiles.extend(filter_tiles_px(p.image_px, &image.pixels, f, rank, scratch));
                }
                tiles
            })
            .collect()
    };
    let per_filter = filters(&mut scratch);
    let features = assemble_features(&per_filter, n_tiles);
    let cluster =
        |features: &[f64]| ree_apps::kmeans::kmeans(features, NUM_FILTERS, p.clusters, 50);

    let whole = median_ns(101, || {
        let per_filter = filters(&mut scratch);
        cluster(&assemble_features(&per_filter, n_tiles)).iterations
    }) / 1e3;
    out.push(("apps.kernels_us_per_run", whole));
    out.push(("apps.filter_tiles_us", median_ns(101, || filters(&mut scratch).len()) / 1e3));
    out.push(("apps.kmeans_us", median_ns(101, || cluster(&features).iterations) / 1e3));
    let fft_plan = ree_apps::fft::FftPlan::for_size(8);
    let mut tile = vec![(0.5, 0.0); 64];
    out.push((
        "apps.fft2d_8_ns",
        median_ns_per_iter(9, 5_000, || ree_apps::fft::fft2d_with(&fft_plan, &mut tile, false)),
    ));
    whole
}

/// `direct_ns[i]` is the in-process wall time of the run seeded
/// `seed + i` — the same runs the pool is then asked for.
fn dist_probe(
    plan: &RunPlan,
    results: &[RunResult],
    seed: u64,
    direct_ns: &[u64],
    nproc: usize,
    out: &mut Vec<(&'static str, f64)>,
) {
    let cell = CELL_RUNS as usize;
    let batch = Msg::BatchDone { batch: 0, results: results[..cell.min(results.len())].to_vec() };
    let frame = encode_frame_msg(&batch);
    out.push(("dist.encode_batch_us", median_ns(201, || encode_frame_msg(&batch).len()) / 1e3));
    out.push((
        "dist.decode_batch_us",
        median_ns(201, || {
            let mut decoder = Decoder::new();
            decoder.feed(&frame);
            let payload = decoder.next_frame().expect("clean frame").expect("whole frame");
            decode_msg(&payload).is_ok()
        }) / 1e3,
    ));
    out.push(("dist.frame_bytes_per_run", frame.len() as f64 / cell as f64));

    let options = DistOptions::new(nproc);
    let timed = |runs: usize| {
        let t = Instant::now();
        let report =
            distribute(plan, runs as u32, seed, &options).expect("register plan validates");
        (t.elapsed().as_secs_f64(), report)
    };
    let direct_s = |runs: usize| direct_ns[..runs].iter().sum::<u64>() as f64 / 1e9;
    // One batch, so one worker: what is left after the 16 runs
    // themselves is spawn, handshake, plan boot and shutdown.
    let small = (0..3).map(|_| timed(cell).0).fold(f64::INFINITY, f64::min);
    out.push(("dist.spawn_ms", (small - direct_s(cell)) * 1e3));
    let runs = direct_ns.len().min(POOL_RUNS as usize);
    let pool: Vec<(f64, _)> = (0..4).map(|_| timed(runs)).collect();
    let (wall, report) = pool.iter().min_by(|a, b| a.0.total_cmp(&b.0)).expect("four calls");
    let ledger = &report.ledger;
    let busy: f64 =
        ledger.shards().iter().map(|s| s.batch_wall.mean() * s.batch_wall.n() as f64).sum();
    out.push(("dist.worker_busy_frac", busy / (ledger.workers() as f64 * wall)));
    out.push(("dist.pool_speedup", direct_s(runs) / wall));
}

fn repro_all(seed: u64) -> f64 {
    let effort = Effort::Paper;
    let t = Instant::now();
    black_box(table3::run(effort, seed).render().len());
    black_box(table4::run(effort, seed).render().len());
    black_box(table4::run_adaptive(&table4::adaptive_rule(effort), seed).render().len());
    black_box(table5::run(effort, seed).render().len());
    black_box(table6::run(effort, seed).render().len());
    black_box(table7::run(effort, seed).render().len());
    black_box(table8::run(effort, seed).render_table8().len());
    black_box(table10::run(effort, seed).render().len());
    black_box(table11::run(effort, seed).0.render().len());
    black_box(figures::fig6(effort, seed).render().len());
    black_box(figures::fig6_adaptive(&table4::adaptive_rule(effort), seed).render().len());
    black_box(figures::fig7(effort, seed).render().len());
    black_box(figures::fig8(effort, seed).render().len());
    black_box(fig9::run(seed).render().len());
    black_box(figures::fig10(seed).render().len());
    black_box(partition::run(effort, seed).render().len());
    t.elapsed().as_secs_f64()
}

/// Runs every probe and returns `(metric, value)` in registry order
/// (the traced-pass metrics are added by the caller). `smoke` cuts the
/// campaign-sized probes to a self-test size.
pub fn probe(seed: u64, smoke: bool, nproc: usize) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let plan = register_plan();

    // First use in this process: nothing has touched the input cache.
    let t = Instant::now();
    plan.scenario.warm_inputs();
    let warm_inputs_us = t.elapsed().as_nanos() as f64 / 1e3;
    out.push((
        "apps.boot_snapshot_us",
        median_ns(if smoke { 5 } else { 50 }, || plan.boot_snapshot()) / 1e3,
    ));
    out.push(("apps.warm_inputs_us", warm_inputs_us));

    let geometry = plan.geometry();
    let snapshot = plan.boot_snapshot();
    let mut fork_seed = seed;
    out.push((
        "apps.fork_us",
        median_ns(if smoke { 50 } else { 1000 }, || {
            fork_seed += 1;
            snapshot.fork(fork_seed)
        }) / 1e3,
    ));
    let kernels_us = kernels_probe(&plan, &mut out);

    // A fault-free run stepped one event at a time.
    let stepped = |seed: u64| {
        let mut running = snapshot.fork(seed);
        let t = Instant::now();
        let mut steps = 0u64;
        while !running.all_done() && running.cluster.now() < plan.timeout {
            if running.cluster.step().is_none() {
                break;
            }
            steps += 1;
        }
        (steps, t.elapsed().as_nanos() as f64, running)
    };
    let (events, _, finished) = stepped(seed);
    let loops: Vec<f64> = (0..if smoke { 3 } else { 30 }).map(|_| stepped(seed).1).collect();
    out.push((
        "apps.verify_us",
        median_ns(201, || verify_outputs(&finished, &plan.scenario)) / 1e3,
    ));
    queue_probe(&mut out);
    out.push(("os.events_per_run", events as f64));
    out.push(("os.ns_per_event", median(&loops) / events as f64));

    // The fault-free decomposition on the headline plan: each span's
    // per-op minimum over three repetitions, then the median over ops.
    let ops = if smoke { 8 } else { 100 };
    let reps: Vec<Vec<Span>> = (0..3)
        .map(|_| {
            let mut rec = Recorder::default();
            decompose(&mut rec, &plan, (0..ops).map(|i| seed + i), 0);
            rec.into_spans()
        })
        .collect();
    let span_us = |name: &str| {
        let durations: Vec<Vec<u64>> = reps
            .iter()
            .map(|spans| spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect())
            .collect();
        let durations: Vec<&[u64]> = durations.iter().map(Vec::as_slice).collect();
        median(&merge_min(&durations).iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>())
    };
    out.push(("os.loop_self_us", span_us("event_loop") - kernels_us));

    // Injection runs: the same seeds with the trace on and off, and
    // through the campaign scheduler on one thread.
    let seeds: Vec<u64> = (0..if smoke { 16 } else { 256 }).map(|i| seed + i).collect();
    let mut notrace = plan.clone();
    notrace.scenario.trace = false;
    let notrace_snapshot = notrace.boot_snapshot();
    let (traced_ns, untraced_ns) = paired_per_seed_min_ns(
        &seeds,
        3,
        |s| drop(black_box(execute_warm(&plan, &geometry, &snapshot, s))),
        |s| drop(black_box(execute_warm(&notrace, &geometry, &notrace_snapshot, s))),
    );
    let sum = |v: &[u64]| v.iter().sum::<u64>() as f64;
    let n = seeds.len() as f64;
    out.push(("os.trace_cost_us_per_run", (sum(&traced_ns) - sum(&untraced_ns)) / n / 1e3));

    // Exact per-run counts, over a fixed sample of full runs.
    let sample = if smoke { 8 } else { 32 };
    let mut results = Vec::with_capacity(sample);
    let (mut records, mut packets, mut bytes, mut dropped, mut sim_s, mut injections) =
        (0usize, 0u64, 0u64, 0u64, 0.0f64, 0u64);
    for i in 0..sample as u64 {
        let (result, running) = execute_warm_full(&plan, &geometry, &snapshot, seed + i);
        records += running.cluster.trace().len();
        let net = running.cluster.network();
        packets += net.packets_sent();
        bytes += net.bytes_sent();
        dropped += net.packets_dropped();
        sim_s += running.cluster.now().since(SimTime::ZERO).as_secs_f64();
        injections += u64::from(result.injections);
        results.push(result);
    }
    let per_run = |total: f64| total / sample as f64;
    out.push(("os.trace_records_per_run", per_run(records as f64)));
    let mut midrun = snapshot.fork(seed);
    let window = geometry.window_end.since(geometry.window_start);
    midrun.run_until(geometry.window_start + SimDuration::from_micros(window.as_micros() / 2));
    out.push(("os.clone_midrun_us", median_ns(501, || midrun.clone()) / 1e3));
    out.push(("net.packets_per_run", per_run(packets as f64)));
    out.push(("net.bytes_per_run", per_run(bytes as f64)));
    out.push(("net.dropped_per_run", per_run(dropped as f64)));
    armor_probe(&mut out);
    out.push(("inject.classify_us", span_us("classify")));
    let mut agg = Aggregate::default();
    let mut k = 0;
    out.push((
        "inject.fold_ns",
        median_ns_per_iter(9, 5_000, || {
            k = (k + 1) % results.len();
            agg.accept(&results[k]);
        }),
    ));

    // Scheduler cost: Campaign on one thread against the bare loop over
    // the same seeds; fan-out gain on a sample of table_mix cells.
    let batch = seeds.len() as u32;
    let (mut campaign_ns, mut bare_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        campaign_ns = campaign_ns
            .min(best_ns(1, || Campaign::new(&plan).runs(batch).seed(seed).threads(1).aggregate()));
        bare_ns = bare_ns.min(best_ns(1, || {
            let mut agg = Aggregate::default();
            for &s in &seeds {
                agg.accept(&execute_warm(&plan, &geometry, &snapshot, s));
            }
            agg
        }));
    }
    out.push(("inject.sched_overhead_pct", (1.0 - bare_ns / campaign_ns) * 100.0));
    let cells = table_plans();
    let cells: Vec<&RunPlan> = cells.iter().step_by(if smoke { 12 } else { 3 }).collect();
    // Parallel gain on a shared host comes and goes with the
    // neighbours: the best of four sweeps each way.
    let sweep = |threads: usize| {
        best_ns(4, || {
            for cell in &cells {
                black_box(
                    Campaign::new(cell).runs(CELL_RUNS).seed(seed).threads(threads).aggregate(),
                );
            }
        })
    };
    out.push(("inject.sched_speedup", sweep(1) / sweep(nproc)));
    let rule = StoppingRule::default().half_width(0.02).max_runs(512);
    out.push((
        "inject.adaptive_runs_to_target",
        f64::from(Campaign::new(&plan).seed(seed).adaptive(&rule).runs),
    ));
    out.push(("inject.sim_s_per_run", per_run(sim_s)));
    out.push(("inject.injections_per_run", per_run(injections as f64)));

    // The model checker on its two preset plans.
    let mc_seeds = if smoke { 1 } else { 3 };
    let (mut mc_ns, mut forks, mut explored, mut pruned) = (0.0, 0u64, 0u64, 0u64);
    for plan in
        [presets::two_node_sigint_plan(PLAN_SEED), presets::two_node_register_plan(PLAN_SEED)]
    {
        for i in 0..mc_seeds {
            let t = Instant::now();
            let report = model_check(&plan, seed + i, &McBounds::paper());
            mc_ns += t.elapsed().as_nanos() as f64;
            forks += report.forks;
            explored += report.explored;
            pruned += report.pruned;
        }
    }
    out.push(("mc.us_per_fork", mc_ns / 1e3 / forks.max(1) as f64));
    out.push(("mc.forks_per_exec", forks as f64 / explored.max(1) as f64));
    out.push(("mc.pruned_ratio", pruned as f64 / (explored + pruned).max(1) as f64));
    out.push(("mc.state_digest_us", median_ns(201, || state_digest(&midrun.cluster)) / 1e3));

    dist_probe(&plan, &results, seed, &traced_ns, nproc, &mut out);
    // Always the default seed, as a user's `repro all`: table 7 flips
    // heap bits in ARMORs, and on other seeds such a run may never end
    // (see `workloads::table_plans`).
    out.push(("experiments.repro_all_s", if smoke { 0.0 } else { repro_all(DEFAULT_SEED) }));

    // Registry order, and nothing the registry does not know.
    let order = |name: &str| LAYER_METRICS.iter().position(|m| m.name == name);
    assert!(out.iter().all(|(name, _)| order(name).is_some()), "unregistered layer metric");
    out.sort_by_key(|(name, _)| order(name));
    out
}
