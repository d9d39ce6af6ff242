//! `firehose-durable`: the five multi-view views over BSMA, fed by CDC
//! events through a durable store.
//!
//! The views are registered in a [`Durable`] store with adaptive
//! promotion on, WAL policy `Always` (fsync after every round) and a
//! checkpoint every [`cdc::CHECKPOINT_EVERY`] rounds. The batcher's ticks are
//! wall-clock milliseconds. Each **episode** sets the store up, then
//!
//! * an **open-loop** phase offers [`OPEN_EVENTS`] events at a fixed
//!   [`RATE`], well below the sustained rate; an event's latency runs
//!   from its scheduled send time to the return of the durable call
//!   that committed, maintained and fsynced its cut;
//! * a **saturated** phase offers [`SATURATED_EVENTS`] more whenever the
//!   queue accepts one;
//!
//! and ends by reopening the store (recovery) and checking it. Every
//! episode does the same work; episodes repeat until the measuring time
//! is spent. Time goes to `ingest` admission, shared-prefix `sched`
//! ticks, WAL fsync and checkpoints; `core` work per event is small.
//!
//! The traced run splits the multi-layer `Durable::poll_ingest` call
//! with [`cdc::replay`] and [`cdc::report`].

use crate::cdc::{self, Cut, Stream};
use crate::common::{
    clean_round, matches_oracle, ms, table_facts, timed, Args, Block, Outcome, Tables, TABLES_SEED,
};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use idivm_durability::Durable;
use idivm_ingest::{IngestOutcome, IngestPipeline, SendOutcome};
use idivm_reldb::TableSignature;
use idivm_types::{Error, Result};
use idivm_workloads::bsma::Bsma;
use idivm_workloads::multiview::VIEW_NAMES;
use idivm_workloads::MultiView;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

/// BSMA scale (1.0 = 1 000 users).
const SCALE: f64 = 0.2;
/// Open-loop offer rate, events per second.
const RATE: f64 = 2_000.0;
/// Events offered in the open-loop phase.
const OPEN_EVENTS: usize = 1_500;
/// Events offered in the saturated phase.
const SATURATED_EVENTS: usize = 9_000;
/// Tweets per generator round (each also brings ~2 mentions, and the
/// round d/4 tweet updates and d/4 user updates).
const TWEETS_PER_ROUND: usize = 64;
/// Producer streams the CDC log is partitioned across.
const PRODUCERS: u32 = 4;
/// Set-ups timed before the episodes, on top of one per episode.
const EXTRA_SETUPS: usize = 4;

/// The base tables (from [`TABLES_SEED`]) and a CDC stream of tweets,
/// mentions and updates drawn from `seed`, captured from a shadow
/// replica the way `MultiView::tweet_stream` does.
fn generate(seed: u64) -> Result<Stream> {
    let mv = MultiView {
        bsma: Bsma {
            scale: SCALE,
            seed: TABLES_SEED,
        },
    };
    let db = mv.build()?;
    let changes = MultiView {
        bsma: Bsma { scale: SCALE, seed },
    };
    let total = OPEN_EVENTS + SATURATED_EVENTS;
    // ~3.5 events per tweet; generate a little more than needed.
    let rounds = (total / (TWEETS_PER_ROUND * 3) + 2) as u64;
    let mut shadow = mv.build()?;
    shadow.clear_log();
    let mut log = Vec::new();
    for round in 0..rounds {
        changes.tweet_batch(&mut shadow, TWEETS_PER_ROUND, round)?;
        log.extend_from_slice(shadow.log().entries());
        shadow.clear_log();
    }
    let views = VIEW_NAMES
        .iter()
        .map(|n| Ok((n.to_string(), mv.sql(n)?)))
        .collect::<Result<Vec<_>>>()?;
    Stream::from_log(Tables::capture(&db)?, views, &db, &log, PRODUCERS, total)
}

/// Everything one episode observed.
#[derive(Default)]
struct Episode {
    setup_s: f64,
    lower_ms: f64,
    register_ms: f64,
    visible_ms: Vec<f64>,
    gen_lag_ms: Vec<f64>,
    offer_us: Vec<f64>,
    cuts: Vec<Cut>,
    causes: BTreeMap<&'static str, u64>,
    depth_max: u64,
    shared_hits: u64,
    saved_accesses: u64,
    promotions: u64,
    saturated_wall: Duration,
    recover_ms: f64,
    view_sigs: BTreeMap<String, TableSignature>,
    failed: u64,
    attempted: u64,
}

/// The live stack of one episode.
struct Live<'a> {
    store: Durable,
    stream: &'a Stream,
    tracer: &'a mut Tracer,
    ep: Episode,
    /// Scheduled (or actual, when saturated) offer times of events
    /// buffered but not yet visible, oldest first.
    pending: VecDeque<Instant>,
    t0: Instant,
}

impl Live<'_> {
    fn now_tick(&self) -> u64 {
        self.t0.elapsed().as_millis() as u64
    }

    /// Offer event `i`; true when it was taken.
    fn offer(&mut self, i: usize, due: Instant) -> bool {
        let now = self.now_tick();
        let h = self.tracer.enter("Durable::offer", "ingest", i as u64);
        let (res, t) = timed(|| self.store.offer(now, &self.stream.events[i]));
        self.tracer.exit(h);
        self.ep.offer_us.push(t.as_secs_f64() * 1e6);
        match res {
            Ok(SendOutcome::Enqueued) => {
                self.ep.attempted += 1;
                self.pending.push_back(due);
                true
            }
            Ok(SendOutcome::WouldBlock) => false,
            Ok(SendOutcome::Shed) | Err(_) => {
                self.ep.attempted += 1;
                self.ep.failed += 1;
                true
            }
        }
    }

    /// Poll the batcher (or flush); account a cut if one committed.
    fn poll(&mut self, saturated: bool, flush: bool) -> Result<bool> {
        let now = self.now_tick();
        let wal_before = self.store.wal_len();
        let round = self.ep.cuts.len() as u64;
        let h = self
            .tracer
            .enter("Durable::poll_ingest", "durability", round);
        let start = Instant::now();
        let res = if flush {
            self.store.flush_ingest(now)
        } else {
            self.store.poll_ingest(now)
        };
        let done = Instant::now();
        self.tracer.exit(h);
        let Some(o) = res? else {
            return Ok(false);
        };
        self.account(&o, done);
        let wal_after = self.store.wal_len();
        self.ep.cuts.push(Cut {
            events: o.batch_events,
            poll: done - start,
            saturated,
            checkpointed: wal_after < wal_before,
            wal_growth: wal_after.saturating_sub(wal_before),
            span: h,
        });
        Ok(true)
    }

    fn account(&mut self, o: &IngestOutcome, done: Instant) {
        if !clean_round(&o.summary) || o.trace.dead_lettered > 0 || o.trace.shed > 0 {
            self.ep.failed += 1;
        }
        *self.ep.causes.entry(o.trace.cut_cause).or_insert(0) += 1;
        self.ep.depth_max = self.ep.depth_max.max(o.trace.queue_depth_at_cut);
        self.ep.shared_hits += o.summary.shared_hits;
        self.ep.saved_accesses += o.summary.shared_saved_accesses;
        self.ep.promotions += o.summary.promotions.len() as u64;
        for _ in 0..o.batch_events {
            if let Some(due) = self.pending.pop_front() {
                self.ep.visible_ms.push(ms(done - due));
            }
        }
    }

    /// The open-loop phase: event `i` is due at `t0 + i / RATE`.
    fn open_loop(&mut self) -> Result<()> {
        let period = Duration::from_secs_f64(1.0 / RATE);
        let mut next = 0usize;
        while next < OPEN_EVENTS || !self.pending.is_empty() {
            let now = Instant::now();
            while next < OPEN_EVENTS {
                let due = self.t0 + period * next as u32;
                if due > now {
                    break;
                }
                if !self.offer(next, due) {
                    break;
                }
                self.ep.gen_lag_ms.push(ms(Instant::now() - due));
                next += 1;
            }
            if !self.poll(false, false)? {
                // Idle until the next event is due or the batcher's
                // age clock moves.
                let due = self.t0 + period * next as u32;
                let wake = due.min(Instant::now() + Duration::from_micros(250));
                if let Some(d) = wake.checked_duration_since(Instant::now()) {
                    std::thread::sleep(d);
                }
            }
        }
        Ok(())
    }

    /// The saturated phase: offer whenever the queue accepts, poll
    /// after every offer, flush at the end.
    fn saturated(&mut self) -> Result<()> {
        let h = self.tracer.enter("saturated", "bench", 0);
        let start = Instant::now();
        let end = OPEN_EVENTS + SATURATED_EVENTS;
        let mut next = OPEN_EVENTS;
        while next < end {
            if self.offer(next, Instant::now()) {
                next += 1;
            }
            self.poll(true, false)?;
        }
        while !self.pending.is_empty() {
            if !self.poll(true, true)? {
                break;
            }
        }
        self.ep.saturated_wall = start.elapsed();
        self.tracer.exit(h);
        Ok(())
    }
}

/// Run one episode in `dir`. In the traced run, also time explicit
/// checkpoints before the store is closed.
fn episode(stream: &Stream, dir: &Path, tracer: &mut Tracer, out: &mut Outcome) -> Result<Episode> {
    let traced = tracer.on();
    let (setup, setup_t) = timed(|| cdc::setup_store(stream, dir, traced));
    let (store, lower_t, reg_t) = setup?;
    let mut live = Live {
        store,
        stream,
        tracer,
        ep: Episode {
            setup_s: setup_t.as_secs_f64(),
            lower_ms: ms(lower_t),
            register_ms: ms(reg_t),
            ..Episode::default()
        },
        pending: VecDeque::new(),
        t0: Instant::now(),
    };
    live.open_loop()?;
    // Start the saturated phase on a fresh checkpoint, so its WAL tail
    // (and with it the recovery work) is the same in every episode.
    live.store.checkpoint()?;
    live.saturated()?;
    let Live {
        mut store, mut ep, ..
    } = live;

    // Gates: conservation, the recompute oracle, and recovery to the
    // live signature.
    let totals = store
        .pipeline()
        .map(IngestPipeline::totals)
        .ok_or_else(|| Error::Internal("pipeline detached".into()))?;
    let offered = (OPEN_EVENTS + SATURATED_EVENTS) as u64;
    out.check(
        "firehose.events_conserved",
        totals.admitted + totals.dead_lettered + totals.shed == offered,
        format!(
            "admitted {} + dead-lettered {} + shed {} vs offered {offered}",
            totals.admitted, totals.dead_lettered, totals.shed
        ),
    );
    let mut oracle_ok = true;
    for name in VIEW_NAMES {
        let plan = store
            .scheduler()
            .catalog()
            .view(name)?
            .source_plan()
            .clone();
        oracle_ok &= matches_oracle(store.db(), name, &plan)?;
    }
    out.check(
        "firehose.views_equal_recompute_oracle",
        oracle_ok,
        "five views vs recompute_rows",
    );
    let mut names = vec!["users", "microblog", "mentions"];
    names.extend(VIEW_NAMES);
    out.fact("tables", table_facts(store.db(), &names));
    ep.view_sigs = cdc::view_signatures(stream, store.scheduler())?;
    if traced {
        cdc::checkpoint_costs(&mut store, dir, out)?;
    }
    let live_sig = store.signature();
    drop(store);
    let (reopened, t) = timed(|| {
        Durable::open(
            dir,
            cdc::sched_config(),
            cdc::options(false),
            cdc::durability_config(),
            cdc::no_faults(),
            Some(cdc::pipeline_config()),
        )
    });
    let reopened = reopened?;
    ep.recover_ms = ms(t);
    ep.attempted += 1;
    out.check(
        "firehose.reopened_signature_equals_live",
        reopened.signature() == live_sig,
        reopened.recovered_from().unwrap_or("").to_string(),
    );
    Ok(ep)
}

/// Episodes until `budget` is spent (at least one).
fn episodes(
    stream: &Stream,
    args: &Args,
    budget: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<Vec<Episode>> {
    let start = Instant::now();
    let mut eps = Vec::new();
    while eps.is_empty() || start.elapsed() < budget {
        let dir = cdc::fresh_dir(&args.work_dir, &format!("store-{}", args.seed))?;
        let ep = episode(stream, &dir, tracer, out)?;
        std::fs::remove_dir_all(&dir).map_err(|e| Error::Internal(format!("remove store: {e}")))?;
        out.attempted += ep.attempted;
        out.failed += ep.failed;
        eps.push(ep);
        if out.failed > 0 {
            break;
        }
    }
    Ok(eps)
}

/// Saturated-phase cut durations, in ms.
fn saturated_cut_ms(eps: &[Episode]) -> Vec<f64> {
    eps.iter()
        .flat_map(|e| &e.cuts)
        .filter(|c| c.saturated)
        .map(|c| ms(c.poll))
        .collect()
}

/// Run the workload.
///
/// # Errors
/// Generation, set-up or store failures.
pub fn run(args: &Args, out: &mut Outcome) -> Result<()> {
    let stream = generate(args.seed)?;
    out.fact("threads", "{\"maintenance\": 1, \"total\": 1}");
    out.fact(
        "durability",
        format!(
            "{{\"flush_policy\": \"Always\", \"checkpoint_every_rounds\": {}, \
             \"promotion\": \"PromotionConfig::default()\"}}",
            cdc::CHECKPOINT_EVERY
        ),
    );
    out.fact(
        "shape",
        format!(
            "{{\"bsma_scale\": {SCALE}, \"open_loop_rate_per_s\": {RATE}, \"open_loop_events\": {OPEN_EVENTS}, \
             \"saturated_events\": {SATURATED_EVENTS}, \"producers\": {PRODUCERS}, \"tick\": \"1 ms of wall clock\", \
             \"latency_from\": \"scheduled send time\"}}"
        ),
    );
    let budget = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let mut setups = Vec::new();
        for _ in 0..EXTRA_SETUPS {
            let dir = cdc::fresh_dir(&args.work_dir, &format!("store-{}", args.seed))?;
            let (store, t) = timed(|| cdc::setup_store(&stream, &dir, false));
            drop(store?);
            setups.push(t.as_secs_f64());
            out.attempted += 1;
        }
        let eps = episodes(&stream, args, budget, &mut Tracer::new(false), out)?;
        setups.extend(eps.iter().map(|e| e.setup_s));
        out.median_of("setup_s", &setups, "s");
        // Visibility is measured in the open-loop phase, throughput in
        // the saturated phase.
        let blocks: Vec<Block> = eps
            .iter()
            .map(|e| Block {
                visible_ms: e.visible_ms[..e.visible_ms.len().min(OPEN_EVENTS)].to_vec(),
                changes: SATURATED_EVENTS as u64,
                busy: e.saturated_wall,
            })
            .collect();
        out.blocks(&blocks);
        out.fact("episodes", eps.len().to_string());
        return Ok(());
    }

    // Traced run: untraced episodes (overhead baseline), one traced
    // episode, and the replay of its cuts through the shallow stacks.
    let plain = episodes(
        &stream,
        args,
        budget.mul_f64(0.6),
        &mut Tracer::new(false),
        out,
    )?;
    let mut tracer = Tracer::new(true);
    let mut eps = episodes(&stream, args, Duration::ZERO, &mut tracer, out)?;
    let ep = eps.remove(0);
    let r = cdc::replay(&stream, &ep.cuts, &ep.view_sigs, out)?;
    cdc::report(out, &mut tracer, &ep.cuts, &r);

    let n = ep.cuts.len() as f64;
    out.metric("core.setup_ms", ep.register_ms, "ms");
    out.metric("sql.lower_ms", ep.lower_ms, "ms");
    let reopens: Vec<f64> = plain.iter().map(|e| e.recover_ms).collect();
    out.median_of("recover_ms", &reopens, "ms");
    out.metric(
        "sched.shared_hits_per_tick",
        ep.shared_hits as f64 / n,
        "count",
    );
    out.metric(
        "sched.saved_accesses_per_tick",
        ep.saved_accesses as f64 / n,
        "count",
    );
    out.metric("sched.promotions", ep.promotions as f64, "count");
    out.median_of("ingest.offer_us", &ep.offer_us, "us");
    out.median_of(
        "ingest.batch_events_p50",
        &ep.cuts.iter().map(|c| c.events as f64).collect::<Vec<_>>(),
        "count",
    );
    out.metric("ingest.queue_depth_max", ep.depth_max as f64, "count");
    for cause in ["count", "age", "staleness", "flush"] {
        out.metric(
            &format!("ingest.cuts_{cause}"),
            ep.causes.get(cause).copied().unwrap_or(0) as f64,
            "count",
        );
    }
    out.metric(
        "bench.gen_lag_ms_p99",
        percentile(&ep.gen_lag_ms, 99.0).unwrap_or(f64::NAN),
        "ms",
    );
    let p50 = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let plain_p50 = p50(&saturated_cut_ms(&plain));
    out.metric(
        "bench.trace_overhead",
        p50(&saturated_cut_ms(std::slice::from_ref(&ep))) / plain_p50,
        "ratio",
    );
    out.fact("untraced_round_ms_p50", format!("{plain_p50}"));
    crate::layers(out, &tracer, "saturated", args);
    Ok(())
}
