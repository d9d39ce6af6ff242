//! The repository benchmark: one named workload, one seed, a fixed
//! measuring time, tracing off (end-to-end metrics) or on (per-layer
//! metrics).
//!
//! ```text
//! perfbench --workload <fig12-agg|firehose-durable|minmax-churn-p2>
//!           --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is
//! `details: {…}` with the run's facts and every correctness check, and
//! the same details are written under the work directory. Exits 1 when
//! any check fails. `perfbench/run.py` builds this program and adds the
//! process's peak RSS. See `perfbench/WORKLOADS.md` for why each
//! workload exists and what every metric means.

mod cdc;
mod churn;
mod common;
mod facts;
mod fig12;
mod firehose;
mod minmax;
mod spans;
mod stats;

use common::{Args, Outcome};
use spans::{self_times, Tracer};
use stats::percentile;
use std::collections::BTreeMap;

/// End-to-end metrics the program reports with tracing off
/// (`peak_rss_mb` is added by the wrapper, which sees the process).
const END_TO_END: &[&str] = &[
    "setup_s",
    "visible_ms_p50",
    "visible_ms_p90",
    "changes_per_s",
];

/// Per-layer metrics of the traced run, with units. Metrics of a layer
/// or an operation a workload does not have read 0 (see WORKLOADS.md).
const PER_LAYER: &[(&str, &str)] = &[
    ("reldb.dml_us_per_change", "us"),
    ("reldb.fold_us", "us"),
    ("reldb.accesses_per_change", "count"),
    ("core.maintain_ms", "ms"),
    ("core.populate_ms", "ms"),
    ("core.propagate_ms", "ms"),
    ("core.apply_ms", "ms"),
    ("core.ns_per_access", "ns"),
    ("core.rescans_per_round", "count"),
    ("core.dummy_ratio", "ratio"),
    ("core.id_vs_tuple_wall", "ratio"),
    ("core.id_vs_tuple_accesses", "ratio"),
    ("core.setup_ms", "ms"),
    ("exec.p2_over_p1", "ratio"),
    ("sched.tick_ms", "ms"),
    ("sched.read_pending_changes", "count"),
    ("sched.shared_hits_per_tick", "count"),
    ("sched.saved_accesses_per_tick", "count"),
    ("sched.promotions", "count"),
    ("read_ms_p50", "ms"),
    ("read_ms_p90", "ms"),
    ("ingest.offer_us", "us"),
    ("ingest.cut_ms", "ms"),
    ("ingest.admit_ms", "ms"),
    ("ingest.batch_events_p50", "count"),
    ("ingest.queue_depth_max", "count"),
    ("ingest.cuts_count", "count"),
    ("ingest.cuts_age", "count"),
    ("ingest.cuts_staleness", "count"),
    ("ingest.cuts_flush", "count"),
    ("durability.poll_ms", "ms"),
    ("durability.journal_ms", "ms"),
    ("durability.wal_bytes_per_event", "bytes"),
    ("durability.checkpoint_ms", "ms"),
    ("durability.ckpt_capture_ms", "ms"),
    ("durability.ckpt_write_ms", "ms"),
    ("durability.checkpoint_bytes", "bytes"),
    ("recover_ms", "ms"),
    ("sql.lower_ms", "ms"),
    ("bench.gen_lag_ms_p99", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("layer.reldb.self_share", "fraction"),
    ("layer.core.self_share", "fraction"),
    ("layer.sched.self_share", "fraction"),
    ("layer.ingest.self_share", "fraction"),
    ("layer.durability.self_share", "fraction"),
    ("layer.bench.self_share", "fraction"),
];

/// Layers whose self-time share of the traced rounds is reported.
const LAYERS: &[&str] = &["reldb", "core", "sched", "ingest", "durability", "bench"];

/// Report each layer's share of the self time under the root spans
/// named `root` (one per round or cut), and write every span out.
fn layers(out: &mut Outcome, tracer: &Tracer, root: &str, args: &Args) {
    let spans = tracer.spans();
    // The outermost ancestor of every span (parents precede children).
    let mut top = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        top[i] = s.parent.map_or(i, |p| top[p]);
    }
    let mut per_layer: BTreeMap<&str, u64> = BTreeMap::new();
    let mut total = 0u64;
    let mut root_self_ms = Vec::new();
    for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        if spans[top[i]].name != root {
            continue;
        }
        *per_layer.entry(s.layer).or_insert(0) += self_ns;
        if s.parent.is_none() {
            total += s.dur_ns();
            root_self_ms.push(self_ns as f64 / 1e6);
        }
    }
    // A closed loop has no send schedule; how late its caller issued
    // work is the harness's own time inside each round.
    out.default_metric(
        "bench.gen_lag_ms_p99",
        percentile(&root_self_ms, 99.0).unwrap_or(f64::NAN),
        "ms",
    );
    for layer in LAYERS {
        let ns = per_layer.get(layer).copied().unwrap_or(0);
        out.metric(
            &format!("layer.{layer}.self_share"),
            ns as f64 / total.max(1) as f64,
            "fraction",
        );
    }
    out.fact("traced_spans", spans.len().to_string());
    let path = args
        .work_dir
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => out.fact("spans_file", common::json_str(&path.display().to_string())),
        Err(e) => out.check("spans_written", false, e.to_string()),
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    let seed = get("--seed")
        .ok_or("--seed is required")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")
        .unwrap_or_else(|| "10".into())
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let work_dir = std::path::PathBuf::from(get("--work-dir").unwrap_or_else(|| ".".into()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("--work-dir: {e}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    facts::record(&mut out, &args);
    let run = match args.workload.as_str() {
        "fig12-agg" => fig12::run,
        "firehose-durable" => firehose::run,
        "minmax-churn-p2" => minmax::run,
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let ticks = facts::cpu_ticks();
    if let Err(e) = run(&args, &mut out) {
        out.check("run_completed", false, e.to_string());
    }
    // Time other tenants took from the host's CPUs during the run:
    // the main source of run-to-run spread on a shared host.
    if let Some(pct) = facts::steal_pct(ticks, facts::cpu_ticks()) {
        out.fact("host_steal_pct", format!("{pct:.2}"));
    }
    if args.trace {
        for (name, unit) in PER_LAYER {
            out.default_metric(name, 0.0, unit);
        }
        out.keep_only(&PER_LAYER.iter().map(|(n, _)| *n).collect::<Vec<_>>());
    } else {
        out.keep_only(END_TO_END);
    }
    let details = out.details_json();
    let path = args.work_dir.join(format!(
        "details-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, &details) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    println!("details: {details}");
    println!("{}", out.result_json());
    if !out.correct() {
        std::process::exit(1);
    }
}
