//! `minmax-churn-p2`: TPC-H churn through a [`MaintenanceScheduler`]
//! at P = 2.
//!
//! Two views: per-customer MIN/MAX/SUM of lineitem prices over
//! `orders ⋈ lineitem`, refreshed eagerly, and `customer ⟕ orders`,
//! refreshed only through a `read_view` barrier every few rounds. The
//! pre-generated churn deletes group minimums (forcing dirty-group
//! rescans) and customers' last orders (flipping LOJ rows between
//! joined and NULL-padded). This is the only workload on the partitioned
//! parallel `exec` path; it bypasses `ingest` and `durability`.
//!
//! The closed loop runs in **episodes**: set up from the generated
//! tables, run the generated rounds, check both views against the
//! recompute oracle. Every episode does identical work, so a faster
//! program runs more episodes of the same load rather than a different
//! load; episodes repeat until the measuring time is spent.

use crate::churn::{self, Change};
use crate::common::{
    accesses, clean_round, lower, matches_oracle, ms, table_facts, timed, Args, Block, CoreWork,
    Outcome, Tables, TABLES_SEED,
};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use idivm_algebra::Plan;
use idivm_core::{IvmOptions, TraceConfig};
use idivm_exec::ParallelConfig;
use idivm_sched::{MaintenanceScheduler, RefreshPolicy, SchedulerConfig};
use idivm_types::Result;
use idivm_workloads::Tpch;
use std::time::{Duration, Instant};

/// Maintenance threads.
const THREADS: usize = 2;
/// Rounds per episode.
const EPISODE_ROUNDS: usize = 300;
/// Lineitem changes per round.
const LINEITEM_CHANGES: usize = 48;
/// Order-level changes per round (a last-order deletion also deletes
/// the order's lineitems).
const ORDER_CHANGES: usize = 16;
/// A `read_view` barrier on the outer-join view every this many rounds.
const READ_EVERY: usize = 4;
/// Rounds per block (see [`Outcome::blocks`]); a multiple of
/// [`READ_EVERY`], so every change is made visible within its block.
const BLOCK_ROUNDS: usize = 100;
/// Share of lineitem churn aimed at a group's minimum.
const EXTREMUM_PCT: u32 = 30;

const EXTREMES: &str = "extremes";
const LOJ: &str = "loj";

struct Inputs {
    cfg: Tpch,
    tables: Tables,
    rounds: Vec<Vec<Change>>,
}

fn generate(seed: u64) -> Result<Inputs> {
    let cfg = Tpch {
        n_customers: 2_000,
        orders_per_customer: 3,
        lineitems_per_order: 4,
        extremum_pct: EXTREMUM_PCT,
        seed: TABLES_SEED,
    };
    let db = cfg.build()?;
    let rounds = churn::generate(
        &db,
        seed,
        EXTREMUM_PCT,
        EPISODE_ROUNDS,
        LINEITEM_CHANGES,
        ORDER_CHANGES,
    )?;
    Ok(Inputs {
        tables: Tables::capture(&db)?,
        cfg,
        rounds,
    })
}

struct Stack {
    sched: MaintenanceScheduler,
    plans: Vec<(&'static str, Plan)>,
}

/// Load the tables, lower both views and register them. Returns the
/// stack plus the lowering and registration (engine set-up) times.
fn setup(
    inputs: &Inputs,
    threads: usize,
    trace: TraceConfig,
) -> Result<(Stack, Duration, Duration)> {
    let db = inputs.tables.load()?;
    let (plans, lower_t) = timed(|| -> Result<Vec<(&'static str, Plan)>> {
        Ok(vec![
            (EXTREMES, lower(&db, EXTREMES, &inputs.cfg.extremes_sql())?),
            (LOJ, lower(&db, LOJ, &inputs.cfg.loj_sql())?),
        ])
    });
    let plans = plans?;
    let mut sched = MaintenanceScheduler::new(db, SchedulerConfig::default());
    let options = IvmOptions {
        parallel: ParallelConfig::with_threads(threads),
        trace,
        ..IvmOptions::default()
    };
    let (reg, setup_t) = timed(|| -> Result<()> {
        sched.register(EXTREMES, plans[0].1.clone(), RefreshPolicy::Eager, options)?;
        sched.register(LOJ, plans[1].1.clone(), RefreshPolicy::OnRead, options)
    });
    reg?;
    Ok((Stack { sched, plans }, lower_t, setup_t))
}

/// Everything one configuration observed over a run of episodes.
#[derive(Default)]
struct Pass {
    setup_s: Vec<f64>,
    lower_ms: Vec<f64>,
    register_ms: Vec<f64>,
    round_ms: Vec<f64>,
    read_ms: Vec<f64>,
    blocks: Vec<Block>,
    dml_ms: Vec<f64>,
    tick_ms: Vec<f64>,
    fold_us: Vec<f64>,
    core: Vec<CoreWork>,
    round_accesses: Vec<u64>,
    read_pending: Vec<u64>,
    shared_hits: u64,
    saved_accesses: u64,
    promotions: u64,
    changes: u64,
    episodes: u64,
    failed: u64,
    oracle_ok: bool,
}

/// One configuration (thread count, tracing) driven through episodes.
struct Runner {
    threads: usize,
    tracer: Tracer,
    p: Pass,
}

/// A runner's state within one episode.
struct Live {
    stack: Stack,
    block: Block,
    /// Start times of rounds not yet made visible by a read barrier.
    unread: Vec<Instant>,
}

impl Runner {
    fn new(threads: usize, traced: bool) -> Runner {
        Runner {
            threads,
            tracer: Tracer::new(traced),
            p: Pass {
                oracle_ok: true,
                ..Pass::default()
            },
        }
    }

    /// Set up for an episode.
    fn start(&mut self, inputs: &Inputs) -> Result<Live> {
        let trace = if self.tracer.on() {
            TraceConfig::enabled()
        } else {
            TraceConfig::disabled()
        };
        let (stack, setup_t) = timed(|| setup(inputs, self.threads, trace));
        let (stack, lower_t, reg_t) = stack?;
        self.p.setup_s.push(setup_t.as_secs_f64());
        self.p.lower_ms.push(ms(lower_t));
        self.p.register_ms.push(ms(reg_t));
        Ok(Live {
            stack,
            block: Block::default(),
            unread: Vec::new(),
        })
    }

    /// Round `i`: apply its changes, tick, and every `READ_EVERY` rounds
    /// (and after the last) read the outer-join view through the
    /// barrier; close a block every `BLOCK_ROUNDS` rounds. False when the
    /// round failed.
    fn step(&mut self, live: &mut Live, i: usize, changes: &[Change], last: bool) -> bool {
        let (p, tracer) = (&mut self.p, &mut self.tracer);
        let sched = &mut live.stack.sched;
        let round = i as u64;
        let before = accesses(sched.db());
        let h = tracer.enter("round", "bench", round);
        let t0 = Instant::now();
        let dml = tracer.time("Database::insert/delete/update", "reldb", round, || {
            changes.iter().try_for_each(|c| c.apply(sched.db_mut()))
        });
        let dml_t = t0.elapsed();
        if tracer.on() {
            // The fold the tick is about to do, timed on its own: a
            // duplicate of the tick's work, so it counts as harness time
            // and stays out of the round time.
            let fh = tracer.enter("Database::fold_log (probe)", "bench", round);
            let (_, t) = timed(|| sched.db().fold_log());
            tracer.exit(fh);
            p.fold_us.push(ms(t) * 1e3);
        }
        let t1 = Instant::now();
        let th = tracer.enter("MaintenanceScheduler::tick", "sched", round);
        let summary = sched.tick();
        tracer.exit(th);
        let t2 = Instant::now();
        let summary = match (dml, summary) {
            (Ok(()), Ok(s)) => s,
            _ => {
                p.failed += 1;
                tracer.exit(h);
                return false;
            }
        };
        let core = CoreWork::of(sched, &summary);
        tracer.derived(
            th,
            "IdIvm::maintain_with_changes",
            "core",
            core.wall.as_nanos() as u64,
        );
        if !clean_round(&summary) {
            p.failed += 1;
        }
        let round_t = dml_t + (t2 - t1);
        p.round_ms.push(ms(round_t));
        live.block.busy += round_t;
        p.dml_ms.push(ms(dml_t));
        p.tick_ms.push(ms(t2 - t1));
        p.core.push(core);
        p.shared_hits += summary.shared_hits;
        p.saved_accesses += summary.shared_saved_accesses;
        p.promotions += summary.promotions.len() as u64;
        p.changes += changes.len() as u64;
        live.block.changes += changes.len() as u64;
        live.unread.push(t0);
        if (i + 1).is_multiple_of(READ_EVERY) || last {
            let pending: u64 = sched
                .pending(LOJ)
                .map(|n| n.values().map(|t| t.len() as u64).sum())
                .unwrap_or(0);
            p.read_pending.push(pending);
            let rh = tracer.enter("MaintenanceScheduler::read_view", "sched", round);
            let t3 = Instant::now();
            let rows = sched.read_view(LOJ);
            let t4 = Instant::now();
            tracer.exit(rh);
            if pending > 0 {
                if let Some(rep) = sched.stats(LOJ).ok().and_then(|s| s.last_report.as_ref()) {
                    tracer.derived(
                        rh,
                        "IdIvm::maintain_with_changes",
                        "core",
                        rep.wall.as_nanos() as u64,
                    );
                }
            }
            match rows {
                Ok(_) => {
                    p.read_ms.push(ms(t4 - t3));
                    // A change is visible in both views once the read
                    // barrier after its round returns.
                    live.block
                        .visible_ms
                        .extend(live.unread.drain(..).map(|t| ms(t4 - t)));
                }
                Err(_) => p.failed += 1,
            }
        }
        tracer.exit(h);
        p.round_accesses.push(accesses(sched.db()) - before);
        if (i + 1).is_multiple_of(BLOCK_ROUNDS) || last {
            p.blocks.push(std::mem::take(&mut live.block));
        }
        true
    }

    /// Close the episode: check both views against the oracle.
    fn finish(&mut self, live: Live) -> Result<()> {
        self.p.episodes += 1;
        let db = live.stack.sched.db();
        for (name, plan) in &live.stack.plans {
            self.p.oracle_ok &= matches_oracle(db, name, plan)?;
        }
        Ok(())
    }
}

/// Episodes until `budget` is spent (at least one). With several
/// runners, all run the same episode round by round, taking turns to
/// go first, so they see the same machine conditions.
fn episodes(inputs: &Inputs, runners: &mut [Runner], budget: Duration) -> Result<()> {
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed() < budget {
        let mut lives = runners
            .iter_mut()
            .map(|r| r.start(inputs))
            .collect::<Result<Vec<_>>>()?;
        let k = runners.len();
        let mut ok = true;
        for (i, changes) in inputs.rounds.iter().enumerate() {
            let last = i + 1 == inputs.rounds.len();
            for j in 0..k {
                let idx = (i + j) % k;
                ok &= runners[idx].step(&mut lives[idx], i, changes, last);
            }
            if !ok {
                break;
            }
        }
        for (r, live) in runners.iter_mut().zip(lives) {
            r.finish(live)?;
        }
        n += 1;
        if !ok {
            break;
        }
    }
    Ok(())
}

fn record(out: &mut Outcome, p: &Pass, tag: &str) {
    out.check(
        &format!("minmax.{tag}.views_equal_recompute_oracle"),
        p.oracle_ok,
        format!(
            "{} episode(s), extremes + loj vs recompute_rows",
            p.episodes
        ),
    );
    out.attempted += (p.round_ms.len() + p.read_ms.len() + p.setup_s.len()) as u64;
    out.failed += p.failed;
}

/// Run the workload.
///
/// # Errors
/// Generation or set-up failures.
pub fn run(args: &Args, out: &mut Outcome) -> Result<()> {
    let inputs = generate(args.seed)?;
    {
        let (stack, ..) = setup(&inputs, THREADS, TraceConfig::disabled())?;
        out.fact(
            "tables",
            table_facts(
                stack.sched.db(),
                &["customer", "orders", "lineitem", EXTREMES, LOJ],
            ),
        );
    }
    out.fact(
        "threads",
        format!("{{\"maintenance\": {THREADS}, \"total\": {THREADS}}}"),
    );
    out.fact(
        "shape",
        format!(
            "{{\"episode_rounds\": {EPISODE_ROUNDS}, \"lineitem_changes_per_round\": {LINEITEM_CHANGES}, \
             \"order_changes_per_round\": {ORDER_CHANGES}, \"read_every_rounds\": {READ_EVERY}, \
             \"block_rounds\": {BLOCK_ROUNDS}, \"extremum_pct\": {EXTREMUM_PCT}, \"loop\": \"closed, one caller, episodes\"}}"
        ),
    );
    let budget = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let mut runners = [Runner::new(THREADS, false)];
        episodes(&inputs, &mut runners, budget)?;
        let p = &runners[0].p;
        record(out, p, "untraced");
        out.median_of("setup_s", &p.setup_s, "s");
        out.blocks(&p.blocks);
        out.fact("episodes", p.episodes.to_string());
        return Ok(());
    }

    // Traced run: P = 2 untraced (the overhead baseline), P = 2 traced
    // and P = 1 untraced, interleaved round by round.
    let mut runners = [
        Runner::new(THREADS, false),
        Runner::new(THREADS, true),
        Runner::new(1, false),
    ];
    episodes(&inputs, &mut runners, budget)?;
    let [plain, traced, serial] = runners;
    let tracer = traced.tracer;
    let (plain, traced, serial) = (plain.p, traced.p, serial.p);
    record(out, &plain, "p2_untraced");
    record(out, &traced, "p2_traced");
    record(out, &serial, "p1_untraced");
    out.check(
        "minmax.access_counts_repeat",
        plain.round_accesses == traced.round_accesses
            && plain.round_accesses == serial.round_accesses,
        format!(
            "{} rounds: P=2, P=2 traced and P=1 agree round by round",
            plain.round_accesses.len()
        ),
    );

    let rounds = traced.round_ms.len() as f64;
    let changes = traced.changes as f64;
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    out.metric(
        "reldb.dml_us_per_change",
        sum(&traced.dml_ms) * 1e3 / changes,
        "us",
    );
    out.median_of("reldb.fold_us", &traced.fold_us, "us");
    out.metric(
        "reldb.accesses_per_change",
        traced.round_accesses.iter().sum::<u64>() as f64 / changes,
        "count",
    );
    let core_ms = |f: fn(&CoreWork) -> Duration| -> Vec<f64> {
        traced.core.iter().map(|c| ms(f(c))).collect()
    };
    out.median_of("core.maintain_ms", &core_ms(|c| c.wall), "ms");
    out.median_of("core.populate_ms", &core_ms(|c| c.populate), "ms");
    out.median_of("core.propagate_ms", &core_ms(|c| c.propagate), "ms");
    out.median_of("core.apply_ms", &core_ms(|c| c.apply), "ms");
    let core_wall: f64 = traced.core.iter().map(|c| c.wall.as_secs_f64()).sum();
    let core_acc: u64 = traced.core.iter().map(|c| c.accesses).sum();
    out.metric(
        "core.ns_per_access",
        core_wall * 1e9 / core_acc.max(1) as f64,
        "ns",
    );
    out.metric(
        "core.rescans_per_round",
        traced.core.iter().map(|c| c.rescans).sum::<u64>() as f64 / rounds,
        "count",
    );
    out.metric(
        "core.dummy_ratio",
        traced.core.iter().map(|c| c.dummies).sum::<u64>() as f64
            / traced.core.iter().map(|c| c.view_diffs).sum::<u64>().max(1) as f64,
        "ratio",
    );
    out.median_of("core.setup_ms", &traced.register_ms, "ms");
    out.median_of("sql.lower_ms", &traced.lower_ms, "ms");
    let p50 = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    out.metric(
        "exec.p2_over_p1",
        p50(&plain.tick_ms) / p50(&serial.tick_ms),
        "ratio",
    );
    out.median_of("sched.tick_ms", &traced.tick_ms, "ms");
    for p in [50.0, 90.0] {
        let v = percentile(&plain.read_ms, p).unwrap_or(f64::NAN);
        out.metric(&format!("read_ms_p{p}"), v, "ms");
    }
    out.metric(
        "sched.read_pending_changes",
        traced.read_pending.iter().sum::<u64>() as f64 / traced.read_pending.len().max(1) as f64,
        "count",
    );
    out.metric(
        "sched.shared_hits_per_tick",
        traced.shared_hits as f64 / rounds,
        "count",
    );
    out.metric(
        "sched.saved_accesses_per_tick",
        traced.saved_accesses as f64 / rounds,
        "count",
    );
    out.metric("sched.promotions", traced.promotions as f64, "count");
    out.metric(
        "bench.trace_overhead",
        p50(&traced.round_ms) / p50(&plain.round_ms),
        "ratio",
    );
    out.fact("untraced_round_ms_p50", format!("{}", p50(&plain.round_ms)));
    out.fact("p1_tick_ms_p50", format!("{}", p50(&serial.tick_ms)));
    crate::layers(out, &tracer, "round", args);
    Ok(())
}
