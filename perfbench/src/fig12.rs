//! `fig12-agg`: the paper's Figure 12 default configuration as a closed
//! loop of maintenance rounds.
//!
//! 5k parts, 5k devices, ~50k links (f = 10, s = 20 %, j = 2). A bare
//! [`IdIvm`] maintains the aggregate view V′ (total part cost per phone)
//! at P = 1; every round applies d = 200 pre-generated price updates
//! and maintains. All of its time is `reldb` DML plus `core` rules and
//! cache/view apply; `sched`, `ingest`, `durability` and the parallel
//! `exec` path are bypassed.

use crate::common::{
    accesses, lower, matches_oracle, ms, table_facts, timed, Args, Block, Outcome, Tables,
    TABLES_SEED,
};
use crate::spans::Tracer;
use crate::stats::median;
use idivm_algebra::Plan;
use idivm_core::{IdIvm, IvmOptions, TraceConfig};
use idivm_reldb::Database;
use idivm_tuple::TupleIvm;
use idivm_types::{Key, Result, Value};
use idivm_workloads::RunningExample;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Price updates per round (the paper's default d).
const D: usize = 200;
/// Distinct pre-generated rounds; the loop cycles through them (price
/// updates keep every table's size fixed, so the load is stationary).
const GENERATED_ROUNDS: usize = 1024;
/// Rounds per block (see [`Outcome::blocks`]).
const BLOCK_ROUNDS: usize = 100;
/// A timed set-up every this many blocks (set-up time is their median).
const SETUP_EVERY_BLOCKS: usize = 6;

/// The generated inputs: base tables and every round's updates.
struct Inputs {
    cfg: RunningExample,
    tables: Tables,
    rounds: Vec<Vec<(i64, i64)>>,
}

fn generate(seed: u64) -> Result<Inputs> {
    let cfg = RunningExample {
        n_parts: 5_000,
        n_devices: 5_000,
        fanout: 10,
        selectivity_pct: 20,
        joins: 2,
        seed: TABLES_SEED,
    };
    let tables = Tables::capture(&cfg.build()?)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1_612A);
    let rounds = (0..GENERATED_ROUNDS)
        .map(|_| {
            (0..D)
                .map(|_| {
                    (
                        rng.gen_range(0..cfg.n_parts) as i64,
                        rng.gen_range(1..1_000i64),
                    )
                })
                .collect()
        })
        .collect();
    Ok(Inputs {
        cfg,
        tables,
        rounds,
    })
}

/// The engine maintaining V′.
enum Engine {
    Id(IdIvm),
    Tuple(TupleIvm),
}

/// A set-up database with the view registered.
struct Stack {
    db: Database,
    engine: Engine,
    plan: Plan,
}

/// Build the database, lower the view's SQL and register it with id-IVM
/// (`Some(trace)`) or tuple-IVM (`None`). Returns the stack plus the
/// lowering and engine set-up times.
fn setup(inputs: &Inputs, id_trace: Option<TraceConfig>) -> Result<(Stack, Duration, Duration)> {
    let mut db = inputs.tables.load()?;
    let (plan, lower_t) = timed(|| lower(&db, "V", &inputs.cfg.agg_sql()));
    let plan = plan?;
    let (engine, setup_t) = timed(|| -> Result<Engine> {
        Ok(match id_trace {
            Some(trace) => {
                let options = IvmOptions {
                    trace,
                    ..IvmOptions::default()
                };
                Engine::Id(IdIvm::setup(&mut db, "V", plan.clone(), options)?)
            }
            None => Engine::Tuple(TupleIvm::setup(&mut db, "V", plan.clone())?),
        })
    });
    Ok((
        Stack {
            db,
            engine: engine?,
            plan,
        },
        lower_t,
        setup_t,
    ))
}

fn apply_updates(db: &mut Database, updates: &[(i64, i64)]) -> Result<()> {
    for &(pid, price) in updates {
        db.update(
            "parts",
            &Key(vec![Value::Int(pid)]),
            &[(1, Value::Int(price))],
        )?;
    }
    Ok(())
}

/// What one configuration observed over the run.
#[derive(Default)]
struct Pass {
    round_ms: Vec<f64>,
    dml_ms: Vec<f64>,
    fold_ms: Vec<f64>,
    maintain_ms: Vec<f64>,
    populate_ms: Vec<f64>,
    propagate_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    /// Counted accesses of each round (DML, fold and maintenance).
    round_accesses: Vec<u64>,
    /// Counted accesses of each round's maintenance call alone.
    maintain_accesses: Vec<u64>,
    rescans: u64,
    dummies: u64,
    view_diffs: u64,
    blocks: Vec<Block>,
    failed: u64,
}

/// One configuration driven round by round.
struct Runner {
    stack: Stack,
    tracer: Tracer,
    p: Pass,
    block: Block,
}

impl Runner {
    fn new(stack: Stack, traced: bool) -> Runner {
        Runner {
            stack,
            tracer: Tracer::new(traced),
            p: Pass::default(),
            block: Block::default(),
        }
    }

    /// Round `r`: apply its updates, fold, maintain. False when it
    /// failed.
    fn step(&mut self, inputs: &Inputs, r: usize) -> bool {
        let (p, tracer, stack) = (&mut self.p, &mut self.tracer, &mut self.stack);
        let updates = &inputs.rounds[r % inputs.rounds.len()];
        let round = r as u64;
        let before = accesses(&stack.db);
        let h = tracer.enter("round", "bench", round);
        let t0 = Instant::now();
        let dml = tracer.time("Database::update", "reldb", round, || {
            apply_updates(&mut stack.db, updates)
        });
        let t1 = Instant::now();
        let net = tracer.time("Database::fold_log", "reldb", round, || stack.db.fold_log());
        let t2 = Instant::now();
        let report = match &stack.engine {
            Engine::Id(ivm) => tracer.time("IdIvm::maintain_with_changes", "core", round, || {
                ivm.maintain_with_changes(&mut stack.db, &net)
            }),
            Engine::Tuple(ivm) => ivm.maintain_with_changes(&mut stack.db, &net),
        };
        let t3 = Instant::now();
        tracer.time("Database::clear_log", "reldb", round, || {
            stack.db.clear_log()
        });
        let t4 = Instant::now();
        tracer.exit(h);
        let (Ok(()), Ok(rep)) = (dml, report) else {
            p.failed += 1;
            return false;
        };
        p.round_ms.push(ms(t4 - t0));
        // The view is refreshed eagerly: a change is visible when the
        // round that applied it returns.
        self.block.visible_ms.push(ms(t4 - t0));
        self.block.busy += t4 - t0;
        self.block.changes += D as u64;
        p.dml_ms.push(ms(t1 - t0));
        p.fold_ms.push(ms(t2 - t1));
        p.maintain_ms.push(ms(t3 - t2));
        p.round_accesses.push(accesses(&stack.db) - before);
        p.maintain_accesses.push(rep.total_accesses());
        p.rescans += rep.rescans;
        p.view_diffs += rep.view_diff_tuples as u64;
        if let Some(t) = &rep.trace {
            p.dummies += t.dummy_diffs();
            p.populate_ms.push(ms(t.timings.populate));
            p.propagate_ms.push(ms(t.timings.propagate));
            p.apply_ms.push(ms(t.timings.apply));
        }
        true
    }

    fn close_block(&mut self) {
        self.p.blocks.push(std::mem::take(&mut self.block));
    }
}

/// Run rounds on every runner until `budget` is spent (at least one
/// block). Runners take turns going first in each round, so they see
/// the same machine conditions. `between` runs after every block,
/// outside the blocks' time.
fn run_loop(
    inputs: &Inputs,
    runners: &mut [Runner],
    budget: Duration,
    mut between: impl FnMut(usize) -> Result<()>,
) -> Result<()> {
    let start = Instant::now();
    let k = runners.len();
    let mut r = 0usize;
    while r < BLOCK_ROUNDS || start.elapsed() < budget {
        for j in 0..k {
            if !runners[(r + j) % k].step(inputs, r) {
                return Ok(());
            }
        }
        r += 1;
        if r.is_multiple_of(BLOCK_ROUNDS) {
            runners.iter_mut().for_each(Runner::close_block);
            between(r / BLOCK_ROUNDS)?;
        }
    }
    Ok(())
}

fn record_facts(out: &mut Outcome, stack: &Stack) {
    out.fact(
        "tables",
        table_facts(&stack.db, &["parts", "devices", "devices_parts", "V"]),
    );
    out.fact("threads", "{\"maintenance\": 1, \"total\": 1}");
    out.fact(
        "shape",
        format!(
            "{{\"d\": {D}, \"f\": 10, \"s_pct\": 20, \"j\": 2, \
             \"block_rounds\": {BLOCK_ROUNDS}, \"loop\": \"closed, one caller\"}}"
        ),
    );
}

/// Set-up samples, taken between blocks so they spread over the run.
#[derive(Default)]
struct Setups {
    setup_s: Vec<f64>,
    lower_ms: Vec<f64>,
    core_ms: Vec<f64>,
}

impl Setups {
    /// Set up a fresh id-IVM stack, timed.
    fn setup(&mut self, inputs: &Inputs, trace: TraceConfig) -> Result<Stack> {
        let (stack, t) = timed(|| setup(inputs, Some(trace)));
        let (stack, l, c) = stack?;
        self.setup_s.push(t.as_secs_f64());
        self.lower_ms.push(ms(l));
        self.core_ms.push(ms(c));
        Ok(stack)
    }
}

fn oracle_check(out: &mut Outcome, runners: &[Runner], tags: &[&str]) -> Result<()> {
    for (rn, tag) in runners.iter().zip(tags) {
        out.check(
            &format!("fig12.{tag}.view_equals_recompute_oracle"),
            matches_oracle(&rn.stack.db, "V", &rn.stack.plan)?,
            format!("V′ vs recompute_rows after {} rounds", rn.p.round_ms.len()),
        );
        out.attempted += rn.p.round_ms.len() as u64;
        out.failed += rn.p.failed;
    }
    Ok(())
}

/// Run the workload.
///
/// # Errors
/// Generation or set-up failures.
pub fn run(args: &Args, out: &mut Outcome) -> Result<()> {
    let inputs = generate(args.seed)?;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut setups = Setups::default();
    if !args.trace {
        let stack = setups.setup(&inputs, TraceConfig::disabled())?;
        record_facts(out, &stack);
        let mut runners = [Runner::new(stack, false)];
        run_loop(&inputs, &mut runners, budget, |block| {
            if block.is_multiple_of(SETUP_EVERY_BLOCKS) {
                drop(setups.setup(&inputs, TraceConfig::disabled())?);
            }
            Ok(())
        })?;
        oracle_check(out, &runners, &["untraced"])?;
        out.blocks(&runners[0].p.blocks);
        out.median_of("setup_s", &setups.setup_s, "s");
        out.attempted += setups.setup_s.len() as u64;
        return Ok(());
    }

    // Traced run: untraced id-IVM (the overhead baseline and the
    // access-count twin), traced id-IVM (spans and engine phase
    // timings) and tuple-IVM, interleaved round by round.
    let plain = setups.setup(&inputs, TraceConfig::disabled())?;
    record_facts(out, &plain);
    let traced = setups.setup(&inputs, TraceConfig::enabled())?;
    let (tuple, ..) = setup(&inputs, None)?;
    let mut runners = [
        Runner::new(plain, false),
        Runner::new(traced, true),
        Runner::new(tuple, false),
    ];
    run_loop(&inputs, &mut runners, budget, |_| Ok(()))?;
    oracle_check(out, &runners, &["untraced", "traced", "tuple"])?;
    let [plain, traced, tuple] = runners;
    out.check(
        "fig12.access_counts_repeat",
        plain.p.round_accesses == traced.p.round_accesses,
        format!(
            "{} rounds compared between two fresh set-ups",
            plain.p.round_accesses.len()
        ),
    );
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    out.metric(
        "core.id_vs_tuple_wall",
        sum(&tuple.p.maintain_ms) / sum(&plain.p.maintain_ms),
        "ratio",
    );
    out.metric(
        "core.id_vs_tuple_accesses",
        tuple.p.maintain_accesses.iter().sum::<u64>() as f64
            / plain.p.maintain_accesses.iter().sum::<u64>().max(1) as f64,
        "ratio",
    );
    out.median_of("sql.lower_ms", &setups.lower_ms, "ms");
    out.median_of("core.setup_ms", &setups.core_ms, "ms");

    let t = &traced.p;
    let rounds = t.round_ms.len() as f64;
    let changes = rounds * D as f64;
    out.metric(
        "reldb.dml_us_per_change",
        sum(&t.dml_ms) * 1e3 / changes,
        "us",
    );
    out.metric(
        "reldb.fold_us",
        median(&t.fold_ms).unwrap_or(f64::NAN) * 1e3,
        "us",
    );
    out.metric(
        "reldb.accesses_per_change",
        t.round_accesses.iter().sum::<u64>() as f64 / changes,
        "count",
    );
    out.median_of("core.maintain_ms", &t.maintain_ms, "ms");
    out.median_of("core.populate_ms", &t.populate_ms, "ms");
    out.median_of("core.propagate_ms", &t.propagate_ms, "ms");
    out.median_of("core.apply_ms", &t.apply_ms, "ms");
    out.metric(
        "core.ns_per_access",
        sum(&t.maintain_ms) * 1e6 / t.maintain_accesses.iter().sum::<u64>().max(1) as f64,
        "ns",
    );
    out.metric("core.rescans_per_round", t.rescans as f64 / rounds, "count");
    out.metric(
        "core.dummy_ratio",
        t.dummies as f64 / t.view_diffs.max(1) as f64,
        "ratio",
    );
    let plain_p50 = median(&plain.p.round_ms).unwrap_or(f64::NAN);
    out.metric(
        "bench.trace_overhead",
        median(&t.round_ms).unwrap_or(f64::NAN) / plain_p50,
        "ratio",
    );
    out.fact("untraced_round_ms_p50", format!("{plain_p50}"));
    crate::layers(out, &traced.tracer, "round", args);
    Ok(())
}
