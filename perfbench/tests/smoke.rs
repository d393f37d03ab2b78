//! Drives the real `bench` binary at the smoke size: every 20th op, one
//! pass, probes and a traced pass included — a few seconds end to end.

use ree_perfbench::json::Json;
use ree_perfbench::layers::LAYER_METRICS;
use ree_perfbench::report::END_TO_END;
use ree_perfbench::workloads::Workload;
use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn bench(dir: &PathBuf, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("bench runs");
    (out.status.success(), String::from_utf8(out.stdout).expect("UTF-8 output"))
}

fn result_line(stdout: &str) -> Json {
    Json::parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

#[test]
fn smoke_run_of_every_workload_is_correct_and_self_consistent() {
    let dir = scratch("smoke_all");
    let (ok, stdout) = bench(&dir, &["--smoke", "--trace", "--seed", "31", "--out", "a.json"]);
    assert!(ok, "bench --smoke --trace failed:\n{stdout}");
    let line = result_line(&stdout);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 5.0);

    // The result file parses and carries every workload and metric.
    let file = Json::parse(&std::fs::read_to_string(dir.join("a.json")).unwrap()).unwrap();
    assert_eq!(file.get("sizes").and_then(Json::as_str), Some("smoke"));
    assert!(file.get("host").and_then(|h| h.get("nproc")).and_then(Json::as_f64).unwrap() >= 1.0);
    for w in Workload::ALL {
        let entry = file.get("workloads").and_then(|x| x.get(w.name()));
        let entry = entry.unwrap_or_else(|| panic!("{} missing from the result file", w.name()));
        for (metric, unit, _) in END_TO_END {
            let m = entry.get("metrics").and_then(|m| m.get(metric)).expect(metric);
            assert!(m.get("value").and_then(Json::as_f64).unwrap() > 0.0, "{} {metric}", w.name());
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        }
        // The fault-free decomposition accounts for its op.
        let coverage = entry
            .get("traced")
            .and_then(|t| t.get("span.coverage_pct"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .expect("span coverage");
        assert!((90.0..=100.0).contains(&coverage), "{} coverage {coverage}", w.name());
    }
    for m in LAYER_METRICS.iter().filter(|m| !m.name.starts_with("span.")) {
        if ["trace_overhead_pct", "inject.cpu_ms_per_run", "host.peak_rss_mib"].contains(&m.name) {
            continue; // per workload, checked through `traced` above
        }
        assert!(file.get("layers").and_then(|l| l.get(m.name)).is_some(), "{} missing", m.name);
    }

    // The Chrome trace is a list of complete events with parent links.
    let trace = Json::parse(&std::fs::read_to_string(dir.join("target/bench/trace.json")).unwrap())
        .unwrap();
    let events = trace.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    assert!(events.iter().any(|e| e.get("name").and_then(Json::as_str) == Some("event_loop")));
    assert!(events.iter().all(|e| e.get("ph").and_then(Json::as_str) == Some("X")));

    // A second run of the same seed agrees on every digest and exact
    // count, whatever the timings did.
    let (ok, _) = bench(&dir, &["--smoke", "--trace", "--seed", "31", "--out", "b.json"]);
    assert!(ok);
    std::fs::write(
        dir.join("bounds.json"),
        r#"{"end_to_end": [{"name": "runs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
    )
    .unwrap();
    let (_, report) = bench(&dir, &["--compare", "a.json", "b.json", "--bounds", "bounds.json"]);
    assert!(report.contains("0 exact mismatches"), "{report}");
    assert!(report.contains("exact count, identical"), "{report}");
}

#[test]
fn driver_contract_one_workload_prints_its_metrics_last() {
    let dir = scratch("smoke_one");
    let args = ["--workload", "ftm_partition", "--seed", "9", "--seconds", "1", "--smoke"];
    let (ok, stdout) = bench(&dir, &[&args[..], &["--trace", "0"]].concat());
    assert!(ok, "{stdout}");
    let line = result_line(&stdout);
    let names: Vec<&str> = line
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(names, END_TO_END.map(|(name, _, _)| name));

    let (ok, stdout) = bench(&dir, &[&args[..], &["--trace", "1"]].concat());
    assert!(ok, "{stdout}");
    let line = result_line(&stdout);
    let mut names: Vec<&str> = line
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let mut want: Vec<&str> = LAYER_METRICS.iter().map(|m| m.name).collect();
    names.sort_unstable();
    want.sort_unstable();
    assert_eq!(names, want, "--trace 1 prints every per-layer metric and nothing else");
}

#[test]
fn bad_arguments_exit_with_a_usage_error() {
    let dir = scratch("smoke_args");
    for args in
        [&["--workload", "nope"][..], &["--seed", "x"], &["--passes", "0"], &["--compare", "a"]]
    {
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn benchmark_json_lists_exactly_the_registry() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let contract = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let section = |key: &str| -> Vec<(String, String, bool)> {
        contract
            .get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_owned(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                    m.get("better").and_then(Json::as_str).unwrap() == "higher",
                )
            })
            .collect()
    };
    let own = |name: &str, unit: &str, higher: bool| (name.to_owned(), unit.to_owned(), higher);
    assert_eq!(section("end_to_end"), END_TO_END.map(|(n, u, h)| own(n, u, h)).to_vec());
    let layers: Vec<_> =
        LAYER_METRICS.iter().map(|m| own(m.name, m.unit, m.higher_is_better)).collect();
    assert_eq!(section("per_layer"), layers);
    let names: Vec<&str> = contract
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
}
