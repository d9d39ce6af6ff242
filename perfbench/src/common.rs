//! Pieces every workload shares: generated inputs, set-up helpers, the
//! recompute-oracle gate, and the result record each run prints.

use crate::stats::{median, percentile};
use idivm_algebra::{ensure_ids, Plan};
use idivm_core::SupervisorVerdict;
use idivm_exec::{executor::sorted, recompute_rows, DbCatalog};
use idivm_reldb::{Database, StatsSnapshot};
use idivm_sched::{MaintenanceScheduler, RoundSummary};
use idivm_sql::{lower_query, parse, Statement};
use idivm_types::{Error, Result, Row, Schema, Value};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Seed of every workload's base tables: each workload's tables are one
/// fixed instance of its configuration, and `--seed` drives only its
/// change stream. Tables drawn from different seeds differ enough in
/// shape to move `fig12-agg` round times by ~20 %, which would read as
/// run-to-run noise.
pub const TABLES_SEED: u64 = 2015;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the run may write (store directories, span files).
    pub work_dir: std::path::PathBuf,
}

/// Base tables as generated: schema plus rows, loaded into a fresh
/// database at set-up time. Generation happens once, before any timing.
#[derive(Clone)]
pub struct Tables(pub Vec<(String, Schema, Vec<Row>)>);

impl Tables {
    /// Capture every table of a generator-built database, rows sorted so
    /// the load order is a function of the seed alone.
    ///
    /// # Errors
    /// Unknown tables (a bug).
    pub fn capture(db: &Database) -> Result<Tables> {
        let mut names: Vec<String> = db.table_names().iter().map(|s| s.to_string()).collect();
        names.sort();
        let mut out = Vec::new();
        for name in names {
            let t = db.table(&name)?;
            out.push((name.clone(), t.schema().clone(), sorted(t.rows_uncounted())));
        }
        Ok(Tables(out))
    }

    /// Bulk-load into a fresh database (unlogged, like the generators).
    ///
    /// # Errors
    /// Schema or duplicate-key failures (a bug).
    pub fn load(&self) -> Result<Database> {
        let mut db = Database::new();
        db.set_logging(false);
        for (name, schema, rows) in &self.0 {
            db.create_table(name, schema.clone())?;
            let t = db.table_mut(name)?;
            for r in rows {
                t.load(r.clone())?;
            }
        }
        db.set_logging(true);
        Ok(db)
    }
}

/// Lower `SELECT …` text to a plan through the SQL front-end, the way
/// `CREATE MATERIALIZED VIEW` does.
///
/// # Errors
/// Parse or lowering failures.
pub fn lower(db: &Database, name: &str, select: &str) -> Result<Plan> {
    let src = format!("CREATE MATERIALIZED VIEW {name} AS {select}");
    let mut stmts = parse(&src)?;
    match stmts.pop() {
        Some(Statement::CreateView { query, .. }) => {
            lower_query(&src, &query, &DbCatalog(db), &HashMap::new())
        }
        _ => Err(Error::Config(format!("`{name}`: not a view definition"))),
    }
}

/// Does the materialized table `name` hold exactly what recomputing
/// `plan` over the current base tables gives?
///
/// # Errors
/// Unknown tables or plan failures.
pub fn matches_oracle(db: &Database, name: &str, plan: &Plan) -> Result<bool> {
    let oracle = sorted(recompute_rows(db, &ensure_ids(plan.clone())?)?);
    Ok(sorted(db.table(name)?.rows_uncounted()) == oracle)
}

/// Approximate in-memory payload of a table's rows, in bytes.
pub fn approx_bytes(rows: &[Row]) -> u64 {
    rows.iter()
        .map(|r| {
            r.0.iter()
                .map(|v| match v {
                    Value::Str(s) => 16 + s.len() as u64,
                    _ => 16,
                })
                .sum::<u64>()
                + 24
        })
        .sum()
}

/// Row counts and approximate bytes of the named tables, as JSON.
pub fn table_facts(db: &Database, names: &[&str]) -> String {
    let parts: Vec<String> = names
        .iter()
        .filter_map(|n| {
            let t = db.table(n).ok()?;
            let rows = t.rows_uncounted();
            Some(format!(
                "\"{n}\": {{\"rows\": {}, \"approx_bytes\": {}}}",
                rows.len(),
                approx_bytes(&rows)
            ))
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Total counted accesses of a database so far.
pub fn accesses(db: &Database) -> u64 {
    let s: StatsSnapshot = db.stats().snapshot();
    s.total()
}

/// Did every view maintained in a scheduler round converge without
/// falling back (quarantine, recompute or degradation)?
pub fn clean_round(summary: &RoundSummary) -> bool {
    summary
        .verdicts
        .iter()
        .all(|(_, v)| matches!(v, SupervisorVerdict::Idle | SupervisorVerdict::Converged))
}

/// The engine-side (`core`) work inside one scheduler call, summed over
/// the views it maintained, from the reports the engines returned.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreWork {
    pub wall: Duration,
    pub accesses: u64,
    pub populate: Duration,
    pub propagate: Duration,
    pub apply: Duration,
    pub rescans: u64,
    pub dummies: u64,
    pub view_diffs: u64,
}

impl CoreWork {
    /// Sum the last reports of the views (and intermediates) `summary`
    /// says were maintained.
    pub fn of(sched: &MaintenanceScheduler, summary: &RoundSummary) -> CoreWork {
        let mut w = CoreWork::default();
        let views = summary
            .maintained
            .iter()
            .filter_map(|(n, _)| sched.stats(n).ok());
        let backings = summary
            .intermediates
            .iter()
            .filter_map(|(n, _)| sched.intermediate_stats(n).ok());
        for rep in views.chain(backings).filter_map(|s| s.last_report.as_ref()) {
            w.wall += rep.wall;
            w.accesses += rep.total_accesses();
            w.rescans += rep.rescans;
            w.view_diffs += rep.view_diff_tuples as u64;
            if let Some(t) = &rep.trace {
                w.populate += t.timings.populate;
                w.propagate += t.timings.propagate;
                w.apply += t.timings.apply;
                w.dummies += t.dummy_diffs();
            }
        }
        w
    }
}

/// The end-to-end samples of one block of work: an episode, or a run of
/// consecutive rounds.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Change-to-visible latencies.
    pub visible_ms: Vec<f64>,
    /// Base-table changes the block applied.
    pub changes: u64,
    /// Time spent applying and maintaining them.
    pub busy: Duration,
}

/// Everything one run reports: the metrics, the operation counts, the
/// correctness checks, and the run's facts.
#[derive(Default)]
pub struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, bool, String)>,
    facts: Vec<(String, String)>,
}

impl Outcome {
    /// Record a metric (later values of the same name replace earlier).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record a metric unless one of that name exists already.
    pub fn default_metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !self.metrics.iter().any(|(n, _, _)| n == name) {
            self.metrics.push((name.to_string(), value, unit));
        }
    }

    /// Drop every metric not named in `names`.
    pub fn keep_only(&mut self, names: &[&str]) {
        self.metrics.retain(|(n, _, _)| names.contains(&n.as_str()));
    }

    /// Record the latency and throughput metrics of a run from its
    /// blocks. Each statistic is taken within every block and the median
    /// over blocks is reported, so a burst of machine noise moves one
    /// block rather than the result.
    pub fn blocks(&mut self, blocks: &[Block]) {
        type Stat = fn(&Block) -> Option<f64>;
        let stats: [(&str, &'static str, Stat); 3] = [
            ("visible_ms_p50", "ms", |b| percentile(&b.visible_ms, 50.0)),
            ("visible_ms_p90", "ms", |b| percentile(&b.visible_ms, 90.0)),
            ("changes_per_s", "1/s", |b| {
                Some(b.changes as f64 / b.busy.as_secs_f64())
            }),
        ];
        for (name, unit, stat) in stats {
            let per: Vec<f64> = blocks.iter().filter_map(stat).collect();
            self.metric(name, median(&per).unwrap_or(f64::NAN), unit);
            let shown: Vec<String> = per.iter().map(|v| format!("{v:.4}")).collect();
            self.fact(
                &format!("{name}_by_block"),
                format!("[{}]", shown.join(", ")),
            );
        }
        let n: usize = blocks.iter().map(|b| b.visible_ms.len()).sum();
        self.fact("visible_ms_samples", n.to_string());
        self.fact("blocks", blocks.len().to_string());
    }

    /// Record the median of a sample under `name`.
    pub fn median_of(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.metric(name, median(samples).unwrap_or(f64::NAN), unit);
    }

    /// Record a correctness check. Repeats of a check (one per episode)
    /// merge: it passes only if every repeat passed, and the failing or
    /// latest detail is kept.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        let detail = detail.into();
        match self.checks.iter_mut().find(|(n, _, _)| n == name) {
            Some(c) if c.1 => *c = (c.0.clone(), ok, detail),
            Some(_) => {}
            None => self.checks.push((name.to_string(), ok, detail)),
        }
    }

    /// Record a fact about the run (value is raw JSON); a later fact of
    /// the same name replaces an earlier one.
    pub fn fact(&mut self, name: &str, json: impl Into<String>) {
        let json = json.into();
        match self.facts.iter_mut().find(|(n, _)| n == name) {
            Some(f) => f.1 = json,
            None => self.facts.push((name.to_string(), json)),
        }
    }

    /// Did every check pass (and was at least one made), with no failed
    /// operation?
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok, _)| *ok) && self.failed == 0
    }

    /// The run's facts and checks, as one JSON object.
    pub fn details_json(&self) -> String {
        let facts: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(k, ok, d)| {
                format!(
                    "{{\"check\": \"{k}\", \"ok\": {ok}, \"detail\": {}}}",
                    json_str(d)
                )
            })
            .collect();
        format!(
            "{{\"facts\": {{{}}}, \"checks\": [{}]}}",
            facts.join(", "),
            checks.join(", ")
        )
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    /// A metric that is not a finite number makes the run incorrect.
    pub fn result_json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".into()
                };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct() && finite,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("latency_ms", 1.25, "ms");
        o.check("oracle", true, "");
        assert_eq!(
            o.result_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn a_failed_check_or_a_missing_value_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check("oracle", false, "diverged");
        assert!(!o.correct());
        let mut o = Outcome::default();
        o.check("oracle", true, "");
        o.blocks(&[]);
        assert!(o.result_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        o.check("oracle", true, "");
        assert!(!o.correct());
        assert!(o.result_json().starts_with("{\"correct\": false"));
        o.failed = 0;
        assert!(o.correct());
    }

    #[test]
    fn block_metrics_are_medians_over_blocks() {
        let block = |ms: f64, changes: u64| Block {
            visible_ms: vec![ms; 10],
            changes,
            busy: Duration::from_millis(20),
        };
        let mut o = Outcome::default();
        o.check("ok", true, "");
        // One block hit by noise (100 ms) does not move the median.
        o.blocks(&[block(1.0, 100), block(2.0, 100), block(100.0, 100)]);
        let r = o.result_json();
        assert!(r.contains("\"visible_ms_p50\": {\"value\": 2.0"), "{r}");
        assert!(r.contains("\"visible_ms_p90\": {\"value\": 2.0"), "{r}");
        // 100 changes in 20 ms: 5000 per second.
        assert!(r.contains("\"changes_per_s\": {\"value\": 5000.0"), "{r}");
    }

    #[test]
    fn repeated_checks_merge_and_keep_the_failure() {
        let mut o = Outcome::default();
        o.check("oracle", true, "episode 1");
        o.check("oracle", false, "episode 2");
        o.check("oracle", true, "episode 3");
        assert!(!o.correct());
        assert!(o.details_json().contains("episode 2"));
        assert_eq!(o.details_json().matches("\"oracle\"").count(), 1);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
