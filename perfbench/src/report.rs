//! From passes to figures: the per-op-minimum estimator, the
//! correctness verdict, the human-readable report, the result file and
//! the contract's result line.

use crate::host;
use crate::json::Json;
use crate::pass::PassResult;
use crate::spans;
use crate::stats::{median, merge_min, nearest_rank, sorted};
use crate::workloads::{fold_digests, Workload, DEFAULT_SEED};
use std::collections::BTreeSet;

/// End-to-end metrics, the same on every workload: name, unit, and
/// whether higher is better. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str, bool); 5] = [
    ("runs_per_s", "1/s", true),
    ("op_ms_p50", "ms", false),
    ("op_ms_p95", "ms", false),
    ("setup_s", "s", false),
    ("setup_rss_mib", "MiB", false),
];

/// Aggregate digests pinned for the default seed at full size:
/// `"a simulator speed-up must leave every simulated statistic identical"`.
const PINS: &str = include_str!("../pins.json");

/// Where a traced run leaves its Chrome trace.
const TRACE_PATH: &str = "target/bench/trace.json";

/// A judged benchmark run: the result file, the contract's result
/// line, and whether every op was correct.
pub struct Outcome {
    pub file: Json,
    pub result_line: Json,
    pub correct: bool,
}

/// Every pass of one workload in one benchmark run.
pub struct WorkloadRun {
    pub workload: Workload,
    pub untraced: Vec<PassResult>,
    pub traced: Vec<PassResult>,
}

impl WorkloadRun {
    pub fn new(workload: Workload) -> WorkloadRun {
        WorkloadRun { workload, untraced: Vec::new(), traced: Vec::new() }
    }
}

/// The five end-to-end figures from a set of passes, in [`END_TO_END`]
/// order. Timings come from the per-op minimum over the passes; set-up
/// time and the memory set-up leaves resident are medians over passes.
/// (The peak over a whole pass is the footprint of the one run whose
/// fault corrupted the largest allocation, so it follows the seed and
/// not the code: it is the per-layer `host.peak_rss_mib`.)
pub fn end_to_end(passes: &[&PassResult]) -> [f64; 5] {
    let ops: Vec<&[u64]> = passes.iter().map(|p| p.ops_ns.as_slice()).collect();
    let best = merge_min(&ops);
    let runs: u64 = passes[0].runs.iter().sum();
    let total_s = best.iter().sum::<u64>() as f64 / 1e9;
    let ms = sorted(best.iter().map(|&ns| ns as f64 / 1e6).collect());
    let setup: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let rss: Vec<f64> = passes.iter().map(|p| p.setup_rss_kib as f64 / 1024.0).collect();
    [
        runs as f64 / total_s,
        nearest_rank(&ms, 50.0),
        nearest_rank(&ms, 95.0),
        median(&setup),
        median(&rss),
    ]
}

/// How far the estimator disagrees with itself inside one run: each
/// metric from the even passes against the same metric from the odd
/// passes, as a share of the smaller. `None` with fewer than two passes.
pub fn split_half_spread(passes: &[PassResult]) -> Option<[f64; 5]> {
    if passes.len() < 2 {
        return None;
    }
    let half = |parity: usize| -> Vec<&PassResult> {
        passes.iter().enumerate().filter(|(i, _)| i % 2 == parity).map(|(_, p)| p).collect()
    };
    let (a, b) = (end_to_end(&half(0)), end_to_end(&half(1)));
    Some(std::array::from_fn(|i| (a[i] - b[i]).abs() / a[i].min(b[i])))
}

/// The correctness verdict on one workload.
pub struct Verdict {
    pub ops: usize,
    /// Ops that panicked, errored or reported a fault in any pass, whose
    /// digest differs between passes, or whose cross-path digest
    /// disagrees; every op when the pinned aggregate digest is missed.
    pub failed_ops: BTreeSet<usize>,
    pub digest: u64,
    /// `Some(matches)` when a pin applies (default seed, full size).
    pub pinned: Option<bool>,
    pub notes: Vec<String>,
}

pub fn judge(run: &WorkloadRun, seed: u64, smoke: bool) -> Verdict {
    let name = run.workload.name();
    let passes: Vec<&PassResult> = run.untraced.iter().chain(&run.traced).collect();
    let first = passes[0];
    let ops = first.digests.len();
    let mut failed_ops = BTreeSet::new();
    let mut notes = Vec::new();
    for (k, pass) in passes.iter().enumerate() {
        failed_ops.extend(pass.failed.iter().copied());
        if pass.digests.len() != ops {
            notes
                .push(format!("{name}: pass {k} ran {} ops, pass 0 ran {ops}", pass.digests.len()));
            failed_ops.extend(0..ops);
            continue;
        }
        for (i, (a, b)) in first.digests.iter().zip(&pass.digests).enumerate() {
            if a != b {
                notes.push(format!(
                    "{name}: op {i} digest {b:016x} in pass {k}, {a:016x} in pass 0"
                ));
                failed_ops.insert(i);
            }
        }
        for &(i, want, got) in &pass.mismatches {
            notes.push(format!(
                "{name}: op {i} digest {got:016x}, independent path gives {want:016x}"
            ));
            failed_ops.insert(i);
        }
    }
    let digest = fold_digests(&first.digests);
    let pinned = (seed == DEFAULT_SEED && !smoke).then(|| {
        let want = Json::parse(PINS)
            .ok()
            .and_then(|p| Some(p.get("digests")?.get(name)?.as_str()?.to_owned()));
        want.as_deref() == Some(format!("{digest:016x}").as_str())
    });
    if pinned == Some(false) {
        notes.push(format!("{name}: aggregate digest {digest:016x} is not the pinned one"));
        failed_ops.extend(0..ops);
    }
    Verdict { ops, failed_ops, digest, pinned, notes }
}

/// Median duration, µs, of the traced passes' spans called `name`.
fn span_median_us(run: &WorkloadRun, name: &str) -> f64 {
    let d: Vec<f64> = run
        .traced
        .iter()
        .flat_map(|p| &p.spans)
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    if d.is_empty() {
        0.0
    } else {
        median(&d)
    }
}

/// Per-layer figures that come from a workload's own passes rather than
/// from the fixed-plan probes.
pub fn trace_metrics(run: &WorkloadRun) -> Vec<(&'static str, f64)> {
    let sum_min = |passes: &[PassResult]| -> f64 {
        let ops: Vec<&[u64]> = passes.iter().map(|p| p.ops_ns.as_slice()).collect();
        merge_min(&ops).iter().sum::<u64>() as f64
    };
    // Self time needs parent links, which are per pass.
    let mut op_self = Vec::new();
    let (mut op_total, mut child_total) = (0u64, 0u64);
    for pass in &run.traced {
        let own = spans::self_times(&pass.spans);
        for (s, own) in pass.spans.iter().zip(own) {
            if s.name == "op" {
                op_self.push(own as f64 / 1e3);
                op_total += s.dur_ns();
            } else if s.parent.is_some() {
                child_total += s.dur_ns();
            }
        }
    }
    let runs: u64 = run.untraced[0].runs.iter().sum();
    let cpu = run.untraced.iter().map(|p| p.cpu_ms).min().unwrap_or(0);
    let peak: Vec<f64> = run.untraced.iter().map(|p| p.peak_rss_kib as f64 / 1024.0).collect();
    vec![
        ("trace_overhead_pct", (sum_min(&run.traced) / sum_min(&run.untraced) - 1.0) * 100.0),
        ("span.op_us", span_median_us(run, "op")),
        ("span.fork_us", span_median_us(run, "fork")),
        ("span.event_loop_us", span_median_us(run, "event_loop")),
        ("span.classify_us", span_median_us(run, "classify")),
        ("span.fold_us", span_median_us(run, "fold")),
        ("span.drop_us", span_median_us(run, "drop")),
        ("span.op_self_us", if op_self.is_empty() { 0.0 } else { median(&op_self) }),
        ("span.coverage_pct", child_total as f64 / (op_total as f64).max(1.0) * 100.0),
        ("inject.cpu_ms_per_run", cpu as f64 / runs.max(1) as f64),
        ("host.peak_rss_mib", median(&peak)),
    ]
}

/// An object keyed by the end-to-end metric names, in their order.
fn by_metric(value: impl Fn(usize) -> Json) -> Json {
    Json::Obj(
        END_TO_END.iter().enumerate().map(|(i, (m, _, _))| ((*m).to_owned(), value(i))).collect(),
    )
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Judges, prints and packages a finished benchmark run.
pub fn finish(
    seed: u64,
    smoke: bool,
    nproc: usize,
    runs: &[WorkloadRun],
    layer_metrics: Option<Vec<(&'static str, f64)>>,
) -> Result<Outcome, String> {
    let facts = host::facts();
    println!("host: {}", facts.render());
    println!("seed {seed}, {} sizes", if smoke { "smoke" } else { "full" });

    let single = runs.len() == 1;
    let mut file_workloads = Vec::new();
    let mut line_metrics = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut events = Vec::new();
    for (w, run) in runs.iter().enumerate() {
        let name = run.workload.name();
        let all: Vec<&PassResult> = run.untraced.iter().collect();
        let e2e = end_to_end(&all);
        let per_pass: Vec<[f64; 5]> = run.untraced.iter().map(|p| end_to_end(&[p])).collect();
        let spread = split_half_spread(&run.untraced);
        let verdict = judge(run, seed, smoke);
        for note in &verdict.notes {
            eprintln!("FAILED {note}");
        }
        attempted += verdict.ops;
        failed += verdict.failed_ops.len();

        let total_runs: u64 = run.untraced[0].runs.iter().sum();
        let wall = sorted(run.untraced.iter().map(|p| total_runs as f64 / p.wall_s).collect());
        let used = run.workload.parallelism(nproc);
        println!(
            "\n{name}: {} ops, {total_runs} runs/pass, {} passes, {used} of {nproc} hardware \
             threads ({})",
            verdict.ops,
            run.untraced.len(),
            if run.workload == Workload::PoolRegister { "worker processes" } else { "threads" },
        );
        for (i, (metric, unit, _)) in END_TO_END.iter().enumerate() {
            let half = spread.map_or("n/a".to_owned(), |s| format!("{:.2} %", s[i] * 100.0));
            println!("  {metric:<14} {:>12.4} {unit:<4} split-half spread {half}", e2e[i]);
        }
        println!(
            "  per-pass raw wall throughput: min {:.1} / median {:.1} / max {:.1} runs/s \
             (the noise floor the per-op minimum removes)",
            wall[0],
            median(&wall),
            wall[wall.len() - 1],
        );
        println!(
            "  failed_ops     {} of {}   aggregate digest {:016x}{}",
            verdict.failed_ops.len(),
            verdict.ops,
            verdict.digest,
            match verdict.pinned {
                Some(true) => " (matches the pin)",
                Some(false) => " (PIN MISSED)",
                None => " (no pin for this seed and size)",
            }
        );

        // One workload with `--trace` reports the per-layer metrics only.
        let key = |metric: &str| {
            if single {
                metric.to_owned()
            } else {
                format!("{name}.{metric}")
            }
        };
        if !(single && layer_metrics.is_some()) {
            for (i, (metric, unit, _)) in END_TO_END.iter().enumerate() {
                line_metrics.push((key(metric), metric_json(e2e[i], unit)));
            }
        }
        let mut traced = Vec::new();
        if !run.traced.is_empty() {
            println!("  traced pass (spans from the benchmark's own calls):");
            for (metric, value) in trace_metrics(run) {
                let unit = crate::layers::unit_of(metric);
                println!("    {metric:<24} {value:>12.4} {unit}");
                traced.push((metric.to_owned(), metric_json(value, unit)));
                line_metrics.push((key(metric), metric_json(value, unit)));
            }
            for (k, pass) in run.traced.iter().enumerate() {
                spans::chrome_events(&pass.spans, w as u32, k as u32, &mut events);
            }
        }
        let column = |i: usize| Json::Arr(per_pass.iter().map(|p| Json::Num(p[i])).collect());
        file_workloads.push((
            name.to_owned(),
            Json::obj([
                ("ops", Json::Num(verdict.ops as f64)),
                ("runs_per_pass", Json::Num(total_runs as f64)),
                ("passes", Json::Num(run.untraced.len() as f64)),
                ("parallelism", Json::Num(used as f64)),
                ("failed_ops", Json::Num(verdict.failed_ops.len() as f64)),
                ("digest", Json::Str(format!("{:016x}", verdict.digest))),
                ("metrics", by_metric(|i| metric_json(e2e[i], END_TO_END[i].1))),
                ("per_pass", by_metric(column)),
                (
                    "split_half_spread",
                    spread.map_or(Json::Null, |s| by_metric(|i| Json::Num(s[i]))),
                ),
                ("raw_wall_runs_per_s", Json::nums(&wall)),
                ("traced", Json::Obj(traced)),
            ]),
        ));
    }

    let mut file_layers = Vec::new();
    if let Some(layer_metrics) = &layer_metrics {
        println!("\nper-layer probes (fixed plans, {nproc} hardware threads):");
        for &(metric, value) in layer_metrics {
            let unit = crate::layers::unit_of(metric);
            println!("  {metric:<32} {value:>14.4} {unit}");
            file_layers.push((metric.to_owned(), metric_json(value, unit)));
            line_metrics.push((metric.to_owned(), metric_json(value, unit)));
        }
        std::fs::create_dir_all("target/bench")
            .and_then(|()| {
                let trace = Json::obj([("traceEvents", Json::Arr(events))]);
                std::fs::write(TRACE_PATH, trace.render())
            })
            .map_err(|e| format!("cannot write {TRACE_PATH}: {e}"))?;
        println!("\nChrome trace written to {TRACE_PATH}");
    }

    println!("\nfailed_ops {failed} of {attempted} ops attempted");
    let correct = failed == 0;
    let file = Json::obj([
        ("host", facts),
        ("seed", Json::Num(seed as f64)),
        ("sizes", Json::str(if smoke { "smoke" } else { "full" })),
        ("correct", Json::Bool(correct)),
        ("workloads", Json::Obj(file_workloads)),
        ("layers", Json::Obj(file_layers)),
    ]);
    let result_line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(line_metrics)),
    ]);
    Ok(Outcome { file, result_line, correct })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(ops_ns: &[u64], setup_s: f64, rss_kib: u64) -> PassResult {
        PassResult {
            setup_s,
            wall_s: 1.0,
            cpu_ms: 10,
            setup_rss_kib: rss_kib,
            peak_rss_kib: 2 * rss_kib,
            ops_ns: ops_ns.to_vec(),
            runs: vec![2; ops_ns.len()],
            digests: (0..ops_ns.len() as u64).collect(),
            failed: Vec::new(),
            mismatches: Vec::new(),
            spans: Vec::new(),
        }
    }

    #[test]
    fn figures_come_from_the_per_op_minimum() {
        let a = pass(&[4_000_000, 1_000_000, 9_000_000, 2_000_000], 0.30, 2048);
        let b = pass(&[3_000_000, 5_000_000, 2_000_000, 2_000_000], 0.10, 4096);
        let c = pass(&[8_000_000, 8_000_000, 8_000_000, 8_000_000], 0.20, 1024);
        let e = end_to_end(&[&a, &b, &c]);
        // Minima 3, 1, 2, 2 ms: 8 ms for 8 runs.
        assert!((e[0] - 1000.0).abs() < 1e-9, "runs_per_s {}", e[0]);
        assert_eq!(e[1], 2.0, "p50: rank 2 of [1,2,2,3]");
        assert_eq!(e[2], 3.0, "p95: rank 4");
        assert_eq!(e[3], 0.20, "setup_s is the median over passes");
        assert_eq!(e[4], 2.0, "set-up RSS is the median over passes, in MiB");
    }

    #[test]
    fn split_half_compares_even_against_odd_passes() {
        let fast = pass(&[1_000_000; 4], 0.1, 1024);
        let slow = pass(&[1_100_000; 4], 0.1, 1024);
        assert!(split_half_spread(std::slice::from_ref(&fast)).is_none());
        let s = split_half_spread(&[fast, slow]).unwrap();
        assert!((s[0] - 0.1).abs() < 1e-9 && (s[1] - 0.1).abs() < 1e-9);
        assert_eq!(s[3], 0.0);
    }

    #[test]
    fn a_digest_that_moves_between_passes_fails_its_op() {
        let mut run = WorkloadRun::new(Workload::AppRegister);
        run.untraced.push(pass(&[1, 1, 1], 0.1, 1));
        run.untraced.push(pass(&[1, 1, 1], 0.1, 1));
        assert!(judge(&run, 1, false).failed_ops.is_empty());
        run.untraced[1].digests[2] = 99;
        run.untraced[1].failed.push(0);
        run.untraced[0].mismatches.push((1, 5, 6));
        let v = judge(&run, 1, false);
        assert_eq!(v.failed_ops.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(v.pinned, None, "pins apply to the default seed only");
    }

    #[test]
    fn a_missed_pin_fails_the_whole_workload() {
        let mut run = WorkloadRun::new(Workload::AppRegister);
        run.untraced.push(pass(&[1, 1, 1], 0.1, 1));
        let v = judge(&run, DEFAULT_SEED, false);
        assert_eq!(v.pinned, Some(false));
        assert_eq!(v.failed_ops.len(), 3);
        assert_eq!(judge(&run, DEFAULT_SEED, true).pinned, None, "smoke sizes carry no pin");
    }

    #[test]
    fn pins_cover_every_workload() {
        let pins = Json::parse(PINS).expect("pins.json parses");
        assert_eq!(pins.get("seed").and_then(Json::as_f64), Some(DEFAULT_SEED as f64));
        for w in Workload::ALL {
            let d = pins.get("digests").and_then(|d| d.get(w.name())).and_then(Json::as_str);
            assert!(d.is_some_and(|d| d.len() == 16), "pin for {}", w.name());
        }
    }
}
