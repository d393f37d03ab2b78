//! `bench --compare A.json B.json`: B against A, per workload and
//! end-to-end metric, judged by the bounds fixed in `BENCHMARK.json`.
//!
//! * `ok` — B is not worse than A by more than the bound.
//! * `regressed` — it is, and both files resolve the bound.
//! * `unresolved` — either file's split-half spread (the metric from
//!   its even passes against its odd passes) exceeds the bound, so the
//!   measurement cannot tell; unless every pass of B reads better than
//!   every pass of A, which is `ok` at any spread.
//!
//! Simulated statistics are not a matter of degree: with the same seed
//! and sizes every digest and every exact-count layer metric must be
//! identical, and failed ops may not increase.

use crate::json::Json;
use crate::layers::LAYER_METRICS;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    Regressed,
    Unresolved,
}

/// One end-to-end metric of one workload in both files.
pub struct Sides<'a> {
    pub a: f64,
    pub b: f64,
    pub a_passes: &'a [f64],
    pub b_passes: &'a [f64],
    /// Larger of the two files' split-half spreads; `None` when a file
    /// has a single pass and so no spread at all.
    pub spread: Option<f64>,
}

/// Share of A by which B is worse (negative when B is better).
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn judge(s: &Sides, bound: f64, higher_is_better: bool) -> Status {
    let resolved = s.spread.is_some_and(|spread| spread <= bound);
    if !resolved {
        let b_always_better = !s.a_passes.is_empty()
            && !s.b_passes.is_empty()
            && s.b_passes
                .iter()
                .all(|&b| s.a_passes.iter().all(|&a| if higher_is_better { b > a } else { b < a }));
        return if b_always_better { Status::Ok } else { Status::Unresolved };
    }
    if worse_by(s.a, s.b, higher_is_better) > bound {
        Status::Regressed
    } else {
        Status::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn nums(v: Option<&Json>) -> Vec<f64> {
    v.and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn value_of(metrics: Option<&Json>, name: &str) -> Option<f64> {
    metrics?.get(name)?.get("value")?.as_f64()
}

pub fn run(a_path: &str, b_path: &str, bounds_path: &str) -> Result<ExitCode, String> {
    let (a, b, contract) = (load(a_path)?, load(b_path)?, load(bounds_path)?);
    let bounds: Vec<(String, f64, bool)> = contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{bounds_path}: no end_to_end section"))?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
                m.get("better")?.as_str()? == "higher",
            ))
        })
        .collect();
    let same_inputs = a.get("seed") == b.get("seed") && a.get("sizes") == b.get("sizes");
    let facts = |f: &Json| f.get("host").map_or("unknown host".to_owned(), Json::render);
    println!("A = {a_path}: {}", facts(&a));
    println!("B = {b_path}: {}", facts(&b));
    if !same_inputs {
        println!("seeds or sizes differ: digests and exact counts are not compared");
    }

    let (mut regressed, mut unresolved, mut mismatched) = (0, 0, 0);
    let a_workloads = a.get("workloads").and_then(Json::as_obj).ok_or("A has no workloads")?;
    println!(
        "\n{:<14} {:<13} {:>12} {:>12} {:>8} {:>8} {:>8}  status",
        "workload", "metric", "A (base)", "B", "B/A", "bound", "spread"
    );
    for (name, wa) in a_workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<14} only in A");
            continue;
        };
        for (metric, bound, higher) in &bounds {
            let (Some(va), Some(vb)) =
                (value_of(wa.get("metrics"), metric), value_of(wb.get("metrics"), metric))
            else {
                continue;
            };
            let half = |w: &Json| w.get("split_half_spread")?.get(metric)?.as_f64();
            let a_passes = nums(wa.get("per_pass").and_then(|p| p.get(metric)));
            let b_passes = nums(wb.get("per_pass").and_then(|p| p.get(metric)));
            let sides = Sides {
                a: va,
                b: vb,
                a_passes: &a_passes,
                b_passes: &b_passes,
                spread: half(wa).zip(half(wb)).map(|(x, y)| x.max(y)),
            };
            let status = judge(&sides, *bound, *higher);
            match status {
                Status::Ok => {}
                Status::Regressed => regressed += 1,
                Status::Unresolved => unresolved += 1,
            }
            println!(
                "{name:<14} {metric:<13} {va:>12.4} {vb:>12.4} {:>8.4} {bound:>8.2} {:>8}  {}",
                vb / va,
                sides.spread.map_or("n/a".to_owned(), |s| format!("{s:.4}")),
                match status {
                    Status::Ok => "ok",
                    Status::Regressed => "REGRESSED",
                    Status::Unresolved => "unresolved",
                }
            );
        }
        let failed = |w: &Json| w.get("failed_ops").and_then(Json::as_f64).unwrap_or(0.0);
        if failed(wb) > failed(wa) {
            println!("{name:<14} failed_ops    {} -> {}  REGRESSED", failed(wa), failed(wb));
            regressed += 1;
        }
        if same_inputs && wa.get("digest") != wb.get("digest") {
            println!(
                "{name:<14} digest        {} != {}  MISMATCH",
                wa.get("digest").map_or("?".into(), Json::render),
                wb.get("digest").map_or("?".into(), Json::render)
            );
            mismatched += 1;
        }
    }

    let layer = |f: &Json, name: &str| value_of(f.get("layers"), name);
    let mut printed_header = false;
    for m in LAYER_METRICS {
        let (Some(va), Some(vb)) = (layer(&a, m.name), layer(&b, m.name)) else { continue };
        if !printed_header {
            println!("\n{:<32} {:>14} {:>14} {:>8}  note", "layer metric", "A (base)", "B", "B/A");
            printed_header = true;
        }
        let note = if !m.exact {
            m.moves
        } else if !same_inputs {
            "exact count (inputs differ)"
        } else if va == vb {
            "exact count, identical"
        } else {
            mismatched += 1;
            "exact count, MISMATCH"
        };
        let ratio = if va == 0.0 { "-".to_owned() } else { format!("{:.4}", vb / va) };
        println!("{:<32} {va:>14.4} {vb:>14.4} {ratio:>8}  {note}", m.name);
    }

    println!("\n{regressed} regressed, {unresolved} unresolved, {mismatched} exact mismatches");
    Ok(if regressed + mismatched == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sides<'a>(a: f64, b: f64, ap: &'a [f64], bp: &'a [f64], spread: Option<f64>) -> Sides<'a> {
        Sides { a, b, a_passes: ap, b_passes: bp, spread }
    }

    #[test]
    fn a_resolved_drop_beyond_the_bound_regresses() {
        // Throughput 1000 -> 880 is 12 % worse; the bound is 10 %.
        let s = sides(1000.0, 880.0, &[], &[], Some(0.02));
        assert_eq!(judge(&s, 0.10, true), Status::Regressed);
        let s = sides(1000.0, 920.0, &[], &[], Some(0.02));
        assert_eq!(judge(&s, 0.10, true), Status::Ok);
        // Latency: higher is worse.
        let s = sides(2.0, 2.3, &[], &[], Some(0.02));
        assert_eq!(judge(&s, 0.10, false), Status::Regressed);
        let s = sides(2.0, 1.0, &[], &[], Some(0.02));
        assert_eq!(judge(&s, 0.10, false), Status::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let s = sides(1000.0, 990.0, &[900.0, 1000.0], &[880.0, 990.0], Some(0.15));
        assert_eq!(judge(&s, 0.10, true), Status::Unresolved);
        // One pass per file: no spread, so nothing is resolved.
        let s = sides(1000.0, 500.0, &[1000.0], &[500.0], None);
        assert_eq!(judge(&s, 0.10, true), Status::Unresolved);
        // Unless every pass of B beats every pass of A.
        let s = sides(1000.0, 1400.0, &[900.0, 1000.0], &[1300.0, 1400.0], Some(0.15));
        assert_eq!(judge(&s, 0.10, true), Status::Ok);
        let s = sides(2.0, 1.0, &[2.0, 2.4], &[1.0, 1.9], Some(0.5));
        assert_eq!(judge(&s, 0.10, false), Status::Ok);
    }

    #[test]
    fn worse_by_is_a_share_of_the_base() {
        assert!((worse_by(1000.0, 900.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(2.0, 2.5, false) - 0.25).abs() < 1e-12);
        assert!(worse_by(2.0, 1.0, false) < 0.0);
    }
}
