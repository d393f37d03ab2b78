//! Host facts recorded beside every figure, and the process's own
//! memory and CPU accounting (read from `/proc`; Linux only, absent
//! values read as zero or "unknown" rather than failing the run).

use crate::json::Json;
use std::process::Command;

/// Hardware threads available to this process — the cap on every
/// thread and worker-process count the benchmark uses.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn command_line(program: &str, args: &[&str]) -> String {
    // The commit is this checkout's or none: git must not climb into a
    // repository that merely contains the working directory's parent.
    let ceiling = std::env::current_dir().ok().and_then(|d| d.parent().map(|p| p.to_path_buf()));
    Command::new(program)
        .args(args)
        .envs(ceiling.map(|c| ("GIT_CEILING_DIRECTORIES", c)))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `nproc`, CPU model, compiler and commit, for the result file.
pub fn facts() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::Str(cpu)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        ("git_commit", Json::Str(command_line("git", &["rev-parse", "HEAD"]))),
    ])
}

/// Peak resident set (`VmHWM`) of this process, KiB.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// CPU milliseconds charged to this process and its reaped children
/// (`utime + stime + cutime + cstime` of `/proc/self/stat`). The fields
/// are in `USER_HZ` ticks, which Linux fixes at 100 for user space.
pub fn cpu_ms() -> u64 {
    const MS_PER_TICK: u64 = 10;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime is the
            // 14th field overall, i.e. the 12th after the closing paren.
            let rest = &s[s.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks: u64 = (11..15).filter_map(|i| f.get(i)?.parse::<u64>().ok()).sum();
            Some(ticks * MS_PER_TICK)
        })
        .unwrap_or(0)
}
