//! Facts about the machine a run measured on, recorded beside its
//! numbers: parallelism, CPU model, cache sizes and the filesystem
//! holding the run's files.

use crate::common::{json_str, Args, Outcome};

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `{"L1d": "48K", "L2": "2048K", …}` from the first CPU's cache
/// descriptions.
fn caches() -> String {
    let mut parts = Vec::new();
    for i in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(size)) = (
            read(&format!("{base}/level")),
            read(&format!("{base}/size")),
        ) else {
            continue;
        };
        let kind = read(&format!("{base}/type")).unwrap_or_default();
        let suffix = match kind.trim() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        parts.push(format!(
            "\"L{}{suffix}\": {}",
            level.trim(),
            json_str(size.trim())
        ));
    }
    format!("{{{}}}", parts.join(", "))
}

/// Filesystem type of the mount holding `dir` (longest matching mount
/// point in the mount table).
fn filesystem(dir: &std::path::Path) -> String {
    let Ok(abs) = std::fs::canonicalize(dir) else {
        return "unknown".into();
    };
    let abs = abs.display().to_string();
    read("/proc/mounts")
        .and_then(|m| {
            m.lines()
                .filter_map(|l| {
                    let f: Vec<&str> = l.split_whitespace().collect();
                    (f.len() >= 3).then(|| (f[1].to_string(), f[2].to_string()))
                })
                .filter(|(mp, _)| {
                    abs == *mp
                        || abs.starts_with(&format!("{}/", mp.trim_end_matches('/')))
                        || mp == "/"
                })
                .max_by_key(|(mp, _)| mp.len())
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Aggregate CPU time counters of the machine: (steal, total), in
/// clock ticks, from the first line of `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = read("/proc/stat")?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time the hypervisor took from the host's CPUs between two
/// [`cpu_ticks`] readings, as a percentage.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| 100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
}

/// Record the machine facts.
pub fn record(out: &mut Outcome, args: &Args) {
    let par = std::thread::available_parallelism().map_or(0, usize::from);
    out.fact("workload", json_str(&args.workload));
    out.fact("seed", args.seed.to_string());
    out.fact("seconds", format!("{}", args.seconds));
    out.fact("traced", args.trace.to_string());
    out.fact("available_parallelism", par.to_string());
    out.fact("cpu_model", json_str(&cpu_model()));
    out.fact("caches", caches());
    out.fact("work_dir_filesystem", json_str(&filesystem(&args.work_dir)));
}
