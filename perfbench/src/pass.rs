//! One pass of one workload, executed in a fresh child process: set up,
//! time every op, reduce every output to a digest, and report.

use crate::host;
use crate::json::Json;
use crate::spans::{self, Recorder};
use crate::workloads::{Prepared, Workload};
use ree_inject::{conclude_run, Aggregate, RunPlan};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Fault-free decomposition ops in a traced pass, spread over the
/// workload's plans.
const DECOMPOSE_OPS: usize = 192;

pub struct PassSpec {
    pub workload: Workload,
    pub seed: u64,
    pub smoke: bool,
    /// Re-derive a sample of digests along independent paths after the
    /// timed section (first pass only — digests must agree across
    /// passes anyway).
    pub cross_check: bool,
    /// Record a span around every op and run the fault-free
    /// decomposition.
    pub traced: bool,
}

/// What a pass reports to the parent.
pub struct PassResult {
    /// Child `main` entry to first timed op.
    pub setup_s: f64,
    /// Wall time of the timed section.
    pub wall_s: f64,
    /// CPU time of the timed section, this process and reaped children.
    pub cpu_ms: u64,
    /// `VmHWM` at the first timed op: what set-up left resident.
    pub setup_rss_kib: u64,
    /// `VmHWM` after the last timed op.
    pub peak_rss_kib: u64,
    pub ops_ns: Vec<u64>,
    pub runs: Vec<u64>,
    pub digests: Vec<u64>,
    /// Ops that panicked, returned an error, or reported a fault.
    pub failed: Vec<usize>,
    /// Cross-path mismatches: `(op, expected, got)`.
    pub mismatches: Vec<(usize, u64, u64)>,
    pub spans: Vec<spans::Span>,
}

fn hex(d: u64) -> Json {
    Json::Str(format!("{d:016x}"))
}

fn unhex(v: &Json) -> Option<u64> {
    u64::from_str_radix(v.as_str()?, 16).ok()
}

impl PassResult {
    pub fn to_json(&self) -> Json {
        let nums = |v: &[u64]| Json::Arr(v.iter().map(|&x| Json::Num(x as f64)).collect());
        Json::obj([
            ("setup_s", Json::Num(self.setup_s)),
            ("wall_s", Json::Num(self.wall_s)),
            ("cpu_ms", Json::Num(self.cpu_ms as f64)),
            ("setup_rss_kib", Json::Num(self.setup_rss_kib as f64)),
            ("peak_rss_kib", Json::Num(self.peak_rss_kib as f64)),
            ("ops_ns", nums(&self.ops_ns)),
            ("runs", nums(&self.runs)),
            ("digests", Json::Arr(self.digests.iter().map(|&d| hex(d)).collect())),
            ("failed", Json::Arr(self.failed.iter().map(|&i| Json::Num(i as f64)).collect())),
            (
                "mismatches",
                Json::Arr(
                    self.mismatches
                        .iter()
                        .map(|&(i, want, got)| {
                            Json::Arr(vec![Json::Num(i as f64), hex(want), hex(got)])
                        })
                        .collect(),
                ),
            ),
            ("spans", spans::to_json(&self.spans)),
        ])
    }

    pub fn from_json(v: &Json) -> Option<PassResult> {
        let nums = |key: &str| -> Option<Vec<u64>> {
            v.get(key)?.as_arr()?.iter().map(|x| x.as_f64().map(|n| n as u64)).collect()
        };
        Some(PassResult {
            setup_s: v.get("setup_s")?.as_f64()?,
            wall_s: v.get("wall_s")?.as_f64()?,
            cpu_ms: v.get("cpu_ms")?.as_f64()? as u64,
            setup_rss_kib: v.get("setup_rss_kib")?.as_f64()? as u64,
            peak_rss_kib: v.get("peak_rss_kib")?.as_f64()? as u64,
            ops_ns: nums("ops_ns")?,
            runs: nums("runs")?,
            digests: v.get("digests")?.as_arr()?.iter().map(unhex).collect::<Option<_>>()?,
            failed: nums("failed")?.into_iter().map(|i| i as usize).collect(),
            mismatches: v
                .get("mismatches")?
                .as_arr()?
                .iter()
                .map(|m| {
                    let m = m.as_arr()?;
                    Some((m.first()?.as_f64()? as usize, unhex(m.get(1)?)?, unhex(m.get(2)?)?))
                })
                .collect::<Option<_>>()?,
            spans: spans::from_json(v.get("spans")?)?,
        })
    }
}

/// Runs the pass. `entered` is the instant the child's `main` began.
pub fn run(spec: &PassSpec, entered: Instant) -> PassResult {
    let prepared = Prepared::setup(spec.workload, spec.seed, spec.smoke, host::nproc());
    let setup_s = entered.elapsed().as_secs_f64();
    let setup_rss_kib = host::peak_rss_kib();

    let n = prepared.ops.len();
    let mut rec = spec.traced.then(Recorder::default);
    let mut result = PassResult {
        setup_s,
        wall_s: 0.0,
        cpu_ms: 0,
        setup_rss_kib,
        peak_rss_kib: 0,
        ops_ns: Vec::with_capacity(n),
        runs: Vec::with_capacity(n),
        digests: Vec::with_capacity(n),
        failed: Vec::new(),
        mismatches: Vec::new(),
        spans: Vec::new(),
    };
    let call = spec.workload.op_call();
    let cpu0 = host::cpu_ms();
    let wall0 = Instant::now();
    for (i, op) in prepared.ops.iter().enumerate() {
        // A panicking op is a failed op, not a dead benchmark.
        let guarded = || catch_unwind(AssertUnwindSafe(|| prepared.execute(op)));
        let (outcome, ns) = match &mut rec {
            Some(rec) => {
                let outcome = rec.span(call, i as u32, |_| guarded());
                (outcome, rec.last_closed_ns())
            }
            None => {
                let t = Instant::now();
                let outcome = guarded();
                (outcome, t.elapsed().as_nanos() as u64)
            }
        };
        // Reduction (formatting, hashing) stays outside the timed call.
        let reduced = match outcome {
            Ok(Ok(output)) => Some(output.reduce()),
            Ok(Err(e)) => {
                eprintln!("{}: op {i} returned an error: {e}", spec.workload.name());
                None
            }
            Err(_) => {
                eprintln!("{}: op {i} panicked", spec.workload.name());
                None
            }
        };
        if reduced.is_none_or(|r| r.failed) {
            result.failed.push(i);
        }
        result.ops_ns.push(ns);
        result.runs.push(reduced.map_or(0, |r| r.runs));
        result.digests.push(reduced.map_or(0, |r| r.digest));
    }
    result.wall_s = wall0.elapsed().as_secs_f64();
    result.cpu_ms = host::cpu_ms() - cpu0;
    result.peak_rss_kib = host::peak_rss_kib();

    if spec.cross_check {
        for i in prepared.cross_path_sample() {
            let want = prepared.cross_path_digest(i);
            if want != result.digests[i] {
                result.mismatches.push((i, want, result.digests[i]));
            }
        }
    }
    if let Some(mut rec) = rec {
        let per_plan = (DECOMPOSE_OPS / prepared.plans.len()).max(1);
        let per_plan = if spec.smoke { per_plan.div_ceil(20) } else { per_plan };
        for (p, plan) in prepared.plans.iter().enumerate() {
            let seeds = (0..per_plan as u64).map(|i| spec.seed + i);
            decompose(&mut rec, plan, seeds, (n + p * per_plan) as u32);
        }
        result.spans = rec.into_spans();
    }
    result
}

/// The fault-free decomposition the public API allows: one `op` span
/// per seed with `fork`, `event_loop`, `classify`, `fold` and `drop`
/// children. No error is injected, so a network fault armed off failure
/// detection never fires and the plan's fault list is dropped (a
/// manually driven run may not carry one).
pub fn decompose(
    rec: &mut Recorder,
    plan: &RunPlan,
    seeds: impl Iterator<Item = u64>,
    first_op: u32,
) {
    let plan = RunPlan { net_faults: Vec::new(), ..plan.clone() };
    let snapshot = plan.boot_snapshot();
    let mut agg = Aggregate::default();
    for (i, seed) in seeds.enumerate() {
        let op = first_op + i as u32;
        rec.span("op", op, |rec| {
            let mut running = rec.span("fork", op, |_| snapshot.fork(seed));
            rec.span("event_loop", op, |_| running.run_until_done(plan.timeout));
            let (result, running) =
                rec.span("classify", op, |_| conclude_run(&plan, seed, running, 0, None));
            rec.span("fold", op, |_| agg.accept(&result));
            rec.span("drop", op, |_| drop((result, running)));
        });
    }
    // The folded aggregate is the point of the `fold` span: keep it live.
    std::hint::black_box(agg);
}
