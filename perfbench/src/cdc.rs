//! CDC streams through the durable stack, and the replay that splits a
//! durable ingest cut into its layers.
//!
//! A [`Stream`] is `firehose-durable`'s change stream as wire events
//! (what a durable store ingests) and as log entries (what `apply_log`
//! replays), over its base tables and views.
//!
//! [`replay`] runs a recorded cut sequence through two shallower public
//! stacks — `IngestPipeline::flush` on a bare scheduler, and `apply_log`
//! followed by `MaintenanceScheduler::tick` — and [`report`] attributes
//! each cut's differences to the layers between them.

use crate::common::{accesses, lower, ms, timed, CoreWork, Outcome, Tables};
use crate::spans::{Handle, Tracer};
use idivm_core::{FaultPlan, FaultState, IvmOptions, TraceConfig};
use idivm_cost::PromotionConfig;
use idivm_durability::{Checkpoint, DurabilityConfig, DurabilityPolicy, Durable, CHECKPOINT_FILE};
use idivm_ingest::{
    apply_log, partition_log, BatchPolicy, ChangeOp, IngestPipeline, OverflowPolicy,
    PipelineConfig, QueueConfig, RawEvent, SendOutcome,
};
use idivm_reldb::{Database, LogEntry, TableSignature};
use idivm_sched::{MaintenanceScheduler, RefreshPolicy, SchedulerConfig};
use idivm_types::{Error, Result};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Checkpoint cadence, in journaled rounds.
pub const CHECKPOINT_EVERY: u32 = 64;

/// Queue and batcher configuration: cut at 64 events or when the oldest
/// event is 10 ticks old; under overload, at the 40-tick staleness limit.
pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        queue: QueueConfig::with_capacity(256, OverflowPolicy::Block),
        batch: BatchPolicy {
            max_events: 64,
            max_age_ticks: 10,
            max_staleness_ticks: 40,
        },
    }
}

/// Shared-prefix scheduling with adaptive promotion.
pub fn sched_config() -> SchedulerConfig {
    SchedulerConfig {
        promotion: Some(PromotionConfig::default()),
        ..SchedulerConfig::default()
    }
}

/// Fsync after every round; a checkpoint every [`CHECKPOINT_EVERY`].
pub fn durability_config() -> DurabilityConfig {
    DurabilityConfig {
        policy: DurabilityPolicy::Always,
        checkpoint_every_rounds: CHECKPOINT_EVERY,
    }
}

/// Engine options, with engine phase timings when `trace` is set.
pub fn options(trace: bool) -> IvmOptions {
    IvmOptions {
        trace: if trace {
            TraceConfig::enabled()
        } else {
            TraceConfig::disabled()
        },
        ..IvmOptions::default()
    }
}

/// No injected faults.
pub fn no_faults() -> Arc<FaultState> {
    Arc::new(FaultState::new(FaultPlan::disabled()))
}

/// A fresh, empty directory under `work`.
///
/// # Errors
/// I/O failures.
pub fn fresh_dir(work: &Path, tag: &str) -> Result<PathBuf> {
    let dir = work.join(tag);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| Error::Internal(format!("clear {tag}: {e}")))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| Error::Internal(format!("create {tag}: {e}")))?;
    Ok(dir)
}

/// A change stream over base tables and views.
pub struct Stream {
    /// Base tables as generated.
    pub tables: Tables,
    /// `(name, SELECT …)` of every view, registered eagerly.
    pub views: Vec<(String, String)>,
    /// Wire events in offer order.
    pub events: Vec<RawEvent>,
    /// The same events as log entries, for the `apply_log` replay.
    pub entries: Vec<LogEntry>,
}

impl Stream {
    /// Partition logged DML across `producers` by key and merge the
    /// producer streams round-robin (per-key order is kept), keeping the
    /// first `limit` events. `db` supplies the tables' key columns.
    ///
    /// # Errors
    /// A log shorter than `limit`, or entries naming unknown tables.
    pub fn from_log(
        tables: Tables,
        views: Vec<(String, String)>,
        db: &Database,
        log: &[LogEntry],
        producers: u32,
        limit: usize,
    ) -> Result<Stream> {
        let mut cursors: Vec<_> = partition_log(db, log, producers)?
            .into_iter()
            .map(Vec::into_iter)
            .collect();
        let mut events = Vec::with_capacity(limit);
        while events.len() < limit {
            let before = events.len();
            for c in &mut cursors {
                if let Some(e) = c.next() {
                    if events.len() < limit {
                        events.push(e);
                    }
                }
            }
            if events.len() == before {
                return Err(Error::Internal("change stream too short".into()));
            }
        }
        let entries = events
            .iter()
            .map(|raw| to_entry(db, raw))
            .collect::<Result<Vec<_>>>()?;
        Ok(Stream {
            tables,
            views,
            events,
            entries,
        })
    }

    /// Lower every view against `db`.
    fn plans(&self, db: &Database) -> Result<Vec<(String, idivm_algebra::Plan)>> {
        self.views
            .iter()
            .map(|(n, sql)| Ok((n.clone(), lower(db, n, sql)?)))
            .collect()
    }
}

fn to_entry(db: &Database, raw: &RawEvent) -> Result<LogEntry> {
    let ev = raw.decode().map_err(Error::Internal)?;
    let key_cols = db.table(&ev.table)?.schema().key().to_vec();
    Ok(match ev.op {
        ChangeOp::Insert { row } => LogEntry::Insert {
            table: ev.table,
            row,
        },
        ChangeOp::Delete { pre } => LogEntry::Delete {
            key: pre.key(&key_cols),
            table: ev.table,
            pre,
        },
        ChangeOp::Update { pre, post } => LogEntry::Update {
            key: pre.key(&key_cols),
            table: ev.table,
            pre,
            post,
        },
    })
}

/// A durable store over the stream's tables with its views registered
/// and a pipeline attached. Returns the store plus the lowering and
/// registration times.
///
/// # Errors
/// Store, lowering or registration failures.
pub fn setup_store(
    stream: &Stream,
    dir: &Path,
    trace: bool,
) -> Result<(Durable, Duration, Duration)> {
    let mut store = Durable::create(
        dir,
        stream.tables.load()?,
        sched_config(),
        options(trace),
        durability_config(),
        no_faults(),
    )?;
    let (plans, lower_t) = timed(|| stream.plans(store.db()));
    let plans = plans?;
    let (reg, reg_t) = timed(|| -> Result<()> {
        for (name, plan) in plans {
            store.register(&name, plan, RefreshPolicy::Eager)?;
        }
        Ok(())
    });
    reg?;
    store.attach_pipeline(pipeline_config())?;
    Ok((store, lower_t, reg_t))
}

/// A bare scheduler (no durability, no pipeline) over the same views.
fn bare_scheduler(stream: &Stream) -> Result<MaintenanceScheduler> {
    let mut sched = MaintenanceScheduler::new(stream.tables.load()?, sched_config());
    for (name, plan) in stream.plans(sched.db())? {
        sched.register(&name, plan, RefreshPolicy::Eager, options(true))?;
    }
    Ok(sched)
}

/// Signatures of the stream's views in `sched`.
///
/// # Errors
/// Unknown views (a bug).
pub fn view_signatures(
    stream: &Stream,
    sched: &MaintenanceScheduler,
) -> Result<BTreeMap<String, TableSignature>> {
    stream
        .views
        .iter()
        .map(|(n, _)| Ok((n.clone(), sched.catalog().signature(n)?)))
        .collect()
}

/// One committed cut as the durable stack saw it.
pub struct Cut {
    /// Events drained into the cut.
    pub events: usize,
    /// The durable call that committed it.
    pub poll: Duration,
    /// Cut during the saturated phase.
    pub saturated: bool,
    /// The round triggered an automatic checkpoint.
    pub checkpointed: bool,
    /// WAL bytes the cut appended.
    pub wal_growth: u64,
    /// The cut's span in the traced run.
    pub span: Handle,
}

/// Time whole `Durable::checkpoint` calls, and the capture and write
/// halves through the public `Checkpoint` API into a side directory.
///
/// # Errors
/// Checkpoint or I/O failures.
pub fn checkpoint_costs(store: &mut Durable, dir: &Path, out: &mut Outcome) -> Result<()> {
    let side = fresh_dir(dir, "side-checkpoint")?;
    let (mut whole, mut capture, mut write, mut bytes) = (vec![], vec![], vec![], vec![]);
    for _ in 0..3 {
        let (r, t) = timed(|| store.checkpoint());
        r?;
        whole.push(ms(t));
        let (ckpt, t) = timed(|| Checkpoint::capture(store.scheduler(), store.pipeline(), 0));
        let ckpt = ckpt?;
        capture.push(ms(t));
        let faults = no_faults();
        let (w, t) = timed(|| ckpt.write(&side, &faults));
        w?;
        write.push(ms(t));
        bytes.push(std::fs::metadata(side.join(CHECKPOINT_FILE)).map_or(0, |m| m.len()) as f64);
    }
    out.median_of("durability.checkpoint_ms", &whole, "ms");
    out.median_of("durability.ckpt_capture_ms", &capture, "ms");
    out.median_of("durability.ckpt_write_ms", &write, "ms");
    out.median_of("durability.checkpoint_bytes", &bytes, "bytes");
    std::fs::remove_dir_all(&side).map_err(|e| Error::Internal(format!("remove side dir: {e}")))
}

/// Per-cut timings of the two shallower replay stacks.
#[derive(Default)]
pub struct Replay {
    /// `IngestPipeline::flush` on a bare scheduler.
    flush: Vec<Duration>,
    flush_accesses: Vec<u64>,
    /// `apply_log` of the cut's events.
    apply: Vec<Duration>,
    /// `MaintenanceScheduler::tick` after it.
    tick: Vec<Duration>,
    fold_us: Vec<f64>,
    core: Vec<CoreWork>,
    tick_accesses: Vec<u64>,
}

/// Replay the recorded cut sequence through both shallow stacks, and
/// check that both reach the live views and count the same accesses.
///
/// # Errors
/// Store or replay failures.
pub fn replay(
    stream: &Stream,
    cuts: &[Cut],
    live_views: &BTreeMap<String, TableSignature>,
    out: &mut Outcome,
) -> Result<Replay> {
    let mut r = Replay::default();
    let mut flush_sched = bare_scheduler(stream)?;
    let mut pipe = IngestPipeline::new(pipeline_config(), no_faults())?;
    let mut tick_sched = bare_scheduler(stream)?;
    let mut i = 0;
    for cut in cuts {
        let span = i..i + cut.events;
        for ev in &stream.events[span.clone()] {
            if pipe.offer(0, ev)? != SendOutcome::Enqueued {
                return Err(Error::Internal("replay queue refused an event".into()));
            }
        }
        let before = accesses(flush_sched.db());
        let (o, t) = timed(|| pipe.flush(0, &mut flush_sched));
        if o?.is_none() {
            return Err(Error::Internal("replay flush cut nothing".into()));
        }
        r.flush.push(t);
        r.flush_accesses.push(accesses(flush_sched.db()) - before);

        let before = accesses(tick_sched.db());
        let (a, t) = timed(|| apply_log(tick_sched.db_mut(), &stream.entries[span]));
        a?;
        r.apply.push(t);
        let (_, t) = timed(|| tick_sched.db().fold_log());
        r.fold_us.push(ms(t) * 1e3);
        let (summary, t) = timed(|| tick_sched.tick());
        let summary = summary?;
        r.tick.push(t);
        r.core.push(CoreWork::of(&tick_sched, &summary));
        r.tick_accesses.push(accesses(tick_sched.db()) - before);
        i += cut.events;
    }
    out.check(
        "cdc.replay_stacks_reach_live_views",
        view_signatures(stream, &flush_sched)? == *live_views
            && view_signatures(stream, &tick_sched)? == *live_views,
        format!(
            "{} cuts replayed through flush and apply_log+tick",
            cuts.len()
        ),
    );
    out.check(
        "cdc.access_counts_repeat",
        r.flush_accesses == r.tick_accesses,
        "per-cut accesses: pipeline flush vs apply_log + tick",
    );
    Ok(r)
}

/// Attribute every cut's time to layers — `apply_log` → `reldb`,
/// flush − (apply + tick) → `ingest`, tick − engine time → `sched`,
/// engine time → `core`, the rest of the durable call → `durability` —
/// as derived spans under the cut's span, and report the per-layer
/// metrics the replay measures.
pub fn report(out: &mut Outcome, tracer: &mut Tracer, cuts: &[Cut], r: &Replay) {
    let n = cuts.len() as f64;
    let events: usize = cuts.iter().map(|c| c.events).sum();
    let mut journal = Vec::new();
    let mut admit = Vec::new();
    let (mut wal_bytes, mut wal_events) = (0u64, 0usize);
    for (k, cut) in cuts.iter().enumerate() {
        let (dml, tick, core) = (r.apply[k], r.tick[k], r.core[k].wall);
        let flush = r.flush[k];
        let nanos = |d: Duration| d.as_nanos() as u64;
        tracer.derived(cut.span, "apply_log (replay)", "reldb", nanos(dml));
        let admission = flush.saturating_sub(dml + tick);
        tracer.derived(
            cut.span,
            "IngestPipeline admission (replay)",
            "ingest",
            nanos(admission),
        );
        let sched_self = tick.saturating_sub(core);
        tracer.derived(
            cut.span,
            "MaintenanceScheduler::tick (replay)",
            "sched",
            nanos(sched_self),
        );
        tracer.derived(cut.span, "IdIvm maintenance (replay)", "core", nanos(core));
        admit.push(ms(flush.saturating_sub(tick)));
        if !cut.checkpointed {
            journal.push(ms(cut.poll.saturating_sub(flush)));
            wal_bytes += cut.wal_growth;
            wal_events += cut.events;
        }
    }
    let ms_of = |v: &[Duration]| v.iter().map(|d| ms(*d)).collect::<Vec<f64>>();
    let sum = |v: &[Duration]| v.iter().map(|d| ms(*d)).sum::<f64>();
    out.metric(
        "reldb.dml_us_per_change",
        sum(&r.apply) * 1e3 / events as f64,
        "us",
    );
    out.median_of("reldb.fold_us", &r.fold_us, "us");
    out.metric(
        "reldb.accesses_per_change",
        r.tick_accesses.iter().sum::<u64>() as f64 / events as f64,
        "count",
    );
    let core_ms =
        |f: fn(&CoreWork) -> Duration| -> Vec<f64> { r.core.iter().map(|c| ms(f(c))).collect() };
    out.median_of("core.maintain_ms", &core_ms(|c| c.wall), "ms");
    out.median_of("core.populate_ms", &core_ms(|c| c.populate), "ms");
    out.median_of("core.propagate_ms", &core_ms(|c| c.propagate), "ms");
    out.median_of("core.apply_ms", &core_ms(|c| c.apply), "ms");
    let core_wall: f64 = r.core.iter().map(|c| c.wall.as_secs_f64()).sum();
    let core_acc: u64 = r.core.iter().map(|c| c.accesses).sum();
    out.metric(
        "core.ns_per_access",
        core_wall * 1e9 / core_acc.max(1) as f64,
        "ns",
    );
    out.metric(
        "core.rescans_per_round",
        r.core.iter().map(|c| c.rescans).sum::<u64>() as f64 / n,
        "count",
    );
    out.metric(
        "core.dummy_ratio",
        r.core.iter().map(|c| c.dummies).sum::<u64>() as f64
            / r.core.iter().map(|c| c.view_diffs).sum::<u64>().max(1) as f64,
        "ratio",
    );
    out.median_of("sched.tick_ms", &ms_of(&r.tick), "ms");
    out.median_of("ingest.cut_ms", &ms_of(&r.flush), "ms");
    out.median_of("ingest.admit_ms", &admit, "ms");
    out.median_of(
        "durability.poll_ms",
        &cuts.iter().map(|c| ms(c.poll)).collect::<Vec<_>>(),
        "ms",
    );
    out.median_of("durability.journal_ms", &journal, "ms");
    out.metric(
        "durability.wal_bytes_per_event",
        wal_bytes as f64 / wal_events.max(1) as f64,
        "bytes",
    );
}
