//! Fail-stop after a journaling error: once a WAL append, WAL fsync or
//! checkpoint fails, the [`Durable`] handle refuses every later
//! round-driving, DDL, ingest and checkpoint call with a typed
//! [`Error::Stopped`] naming the cause, and writes nothing more. The
//! store re-opens to exactly the last acknowledged state.
//!
//! Without the fail-stop, a handle kept ticking after a torn append:
//! later rounds were fsynced *behind* the torn frame, and re-opening
//! refused the whole store as mid-log corruption.
//!
//! Each transient fault is armed at every occurrence index `k` of its
//! site under [`DurabilityPolicy::Always`], until a run finishes
//! without the fault firing.

#![allow(clippy::unwrap_used)]

// The durability suites' scaffolding: temp dirs, fault states and the
// tiny two-table store.
#[path = "../crates/durability/tests/common/mod.rs"]
mod common;

use common::{armed, fresh_dir, no_faults, tiny_db, tiny_plan, Sig};
use idivm_core::{FaultPlan, IvmOptions};
use idivm_durability::{DurabilityConfig, DurabilityPolicy, Durable};
use idivm_ingest::{
    BatchPolicy, ChangeEvent, ChangeOp, OverflowPolicy, PipelineConfig, QueueConfig, RawEvent,
};
use idivm_sched::{RefreshPolicy, SchedulerConfig};
use idivm_types::{row, Error, Key, Result, Value};
use std::path::Path;

/// Explicit checkpoints only: an automatic checkpoint fails *after*
/// its round is durable, so that round is recovered although its call
/// returned an error (see the module's error contract).
const CONFIG: DurabilityConfig = DurabilityConfig {
    policy: DurabilityPolicy::Always,
    checkpoint_every_rounds: 0,
};

fn pipe_cfg() -> PipelineConfig {
    PipelineConfig {
        queue: QueueConfig::with_capacity(16, OverflowPolicy::Block),
        batch: BatchPolicy {
            max_events: 4,
            max_age_ticks: 4,
            max_staleness_ticks: 16,
        },
    }
}

/// An insert into `items` from producer 1 at `seq`.
fn ev(seq: u64) -> RawEvent {
    RawEvent::encode(&ChangeEvent {
        producer: 1,
        seq,
        table: "items".into(),
        op: ChangeOp::Insert {
            row: row![100 + seq as i64, format!("ev-{seq}"), seq as i64],
        },
    })
}

fn bump(store: &mut Durable, round: i64) {
    let key = Key(vec![Value::Int(round % 4)]);
    store
        .db_mut()
        .update("items", &key, &[(2, Value::Int(100 + round))])
        .unwrap();
}

/// How one lifecycle run ended.
struct Run {
    /// Signature after the last call that returned `Ok`.
    last_ack: Sig,
    /// The error of the first failed call, if the fault fired.
    failure: Option<Error>,
}

/// Register a view, then interleave ticks, an ingest cut, a read
/// barrier, explicit checkpoints and a drain. After the first failure,
/// keep issuing the remaining calls: each must be refused with
/// `Error::Stopped` and leave the WAL as the failure left it.
fn run_lifecycle(dir: &Path, plan: FaultPlan) -> Run {
    let db = tiny_db();
    let view = tiny_plan(&db);
    let mut store = Durable::create(
        dir,
        db,
        SchedulerConfig::default(),
        IvmOptions::default(),
        CONFIG,
        armed(plan),
    )
    .unwrap();
    store.attach_pipeline(pipe_cfg()).unwrap();
    let mut run = Run {
        last_ack: store.signature(),
        failure: None,
    };
    let mut wal_at_failure = 0;
    let mut step = |store: &mut Durable, out: Result<()>| match (out, &run.failure) {
        (Ok(()), None) => run.last_ack = store.signature(),
        (Err(e), None) => {
            run.failure = Some(e);
            wal_at_failure = store.wal_len();
        }
        (out, Some(first)) => {
            match out {
                Err(Error::Stopped(msg)) => assert!(
                    msg.contains(&first.to_string()),
                    "refusal must name the cause `{first}`: {msg}"
                ),
                other => panic!("call after `{first}` must be refused, got {other:?}"),
            }
            assert_eq!(
                store.wal_len(),
                wal_at_failure,
                "a stopped handle must not write"
            );
        }
    };

    let out = store.register("joined", view, RefreshPolicy::Eager);
    step(&mut store, out);
    for round in 1..=6i64 {
        if round == 3 {
            for seq in 1..=4 {
                let out = store.offer(1, &ev(seq)).map(drop);
                step(&mut store, out);
            }
            let out = store.poll_ingest(1).map(drop);
            step(&mut store, out);
        } else {
            bump(&mut store, round);
            let out = store.tick().map(drop);
            step(&mut store, out);
        }
        if round % 2 == 0 {
            let out = store.checkpoint();
            step(&mut store, out);
        }
    }
    let out = store.read_view("joined").map(drop);
    step(&mut store, out);
    bump(&mut store, 7);
    let out = store.drain().map(drop);
    step(&mut store, out);

    if run.failure.is_some() {
        // Every other guarded entry point refuses too.
        let refusals = [
            store.unregister("joined"),
            store.force_demote("__ivm0"),
            store.force_promote("any").map(drop),
            store.attach_pipeline(pipe_cfg()),
            store.offer(9, &ev(5)).map(drop),
            store.poll_ingest(9).map(drop),
            store.flush_ingest(9).map(drop),
        ];
        for out in refusals {
            assert!(matches!(out, Err(Error::Stopped(_))), "got {out:?}");
        }
    }
    run
}

fn sweep(site: &str, plan_for: fn(u64, u64) -> FaultPlan) {
    for k in 0.. {
        assert!(k < 64, "{site}: sweep ran away");
        let dir = fresh_dir(site);
        let run = run_lifecycle(&dir, plan_for(k, 2015));
        let Some(failure) = run.failure else {
            assert!(k > 0, "{site}: the armed fault never fired");
            std::fs::remove_dir_all(&dir).unwrap();
            return;
        };
        assert!(
            matches!(failure, Error::Injected(_)),
            "{site} k={k}: the failing call must return the fault itself, got {failure:?}"
        );
        let mut reopened = Durable::open(
            &dir,
            SchedulerConfig::default(),
            IvmOptions::default(),
            CONFIG,
            no_faults(),
            None,
        )
        .unwrap_or_else(|e| panic!("{site} k={k}: re-open failed: {e}"));
        assert!(
            reopened.signature() == run.last_ack,
            "{site} k={k}: re-open must land on the last acknowledged state"
        );
        // The re-opened store is live again.
        bump(&mut reopened, 99);
        reopened.tick().unwrap();
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn wal_append_failure_stops_the_handle() {
    sweep("wal_append", FaultPlan::at_wal_append);
}

#[test]
fn wal_fsync_failure_stops_the_handle() {
    sweep("wal_fsync", FaultPlan::at_wal_fsync);
}

/// k = 0 is the checkpoint `Durable::create` writes; the sweep starts
/// past it so every run has a store to operate on.
#[test]
fn checkpoint_failure_stops_the_handle() {
    sweep("checkpoint", |k, seed| {
        FaultPlan::at_checkpoint(k + 1, seed)
    });
}
