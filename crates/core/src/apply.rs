//! Applying i-diffs to a materialized relation — the `APPLY` statements
//! of paper Section 2.
//!
//! * **Update**: `UPDATE V SET Ā″ = Ā″_post FROM ∆u WHERE V.Ī′ = ∆u.Ī′`
//! * **Insert**: `INSERT INTO V SELECT … FROM ∆+ WHERE ROW(…) NOT IN V`
//! * **Delete**: `DELETE FROM V WHERE ROW(Ī′) IN (SELECT Ī′ FROM ∆−)`
//!
//! Cost accounting follows the paper's view-modification model: one view
//! *index lookup* per diff tuple (locating the targets through the view
//! index on `Ī′`) plus one view *tuple access* per actually-modified
//! view tuple. Diff tuples that match nothing (“dummy” tuples produced
//! by overestimating rules) cost only their index lookup — the effect
//! the paper's compression factor `p` measures.
//!
//! **Atomicity.** Each public entry point ([`apply`], [`apply_all`])
//! is all-or-nothing: mutations journal their inverses into the
//! table's shared [`UndoLog`](idivm_reldb::UndoLog) and an `Err`
//! mid-batch rolls back both the table (rows and indexes) and the
//! caller's `changes` overlay map before returning — no half-applied
//! APPLY escapes. The session composes with an enclosing maintenance
//! round (`Database::begin_round`): on success the journaled suffix is
//! handed to the round's owner, on failure only this APPLY's suffix is
//! replayed, and the round's own abort restores the rest.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::diff::{DiffInstance, DiffKind, State};
use idivm_reldb::{NetChange, Table, TableChanges, UndoLog};
use idivm_types::{Error, Key, Result, Row, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Outcome counters of one APPLY.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// View tuples inserted.
    pub inserted: u64,
    /// View tuples deleted.
    pub deleted: u64,
    /// View tuples updated in place.
    pub updated: u64,
    /// Diff tuples that matched no view tuple (overestimation).
    pub dummies: u64,
}

impl ApplyOutcome {
    fn absorb(&mut self, other: ApplyOutcome) {
        self.inserted += other.inserted;
        self.deleted += other.deleted;
        self.updated += other.updated;
        self.dummies += other.dummies;
    }
}

/// First-touch pre-images of the caller's `changes` overlay map, so a
/// failed APPLY can restore it alongside the table. Keys the APPLY
/// never touched are never cloned. When the overlay was empty on entry
/// — the case at every engine call site — nothing is saved at all:
/// restoring is clearing.
#[derive(Debug)]
struct ChangesJournal {
    /// `None` iff the overlay was empty when the APPLY began.
    saved: Option<HashMap<Key, Option<NetChange>>>,
}

impl ChangesJournal {
    fn new(changes: &TableChanges) -> Self {
        ChangesJournal {
            saved: (!changes.is_empty()).then(HashMap::new),
        }
    }

    /// Remember `key`'s current overlay entry the first time the APPLY
    /// touches it.
    fn save(&mut self, changes: &TableChanges, key: &Key) {
        if let Some(saved) = self.saved.as_mut() {
            if !saved.contains_key(key) {
                saved.insert(key.clone(), changes.get(key).cloned());
            }
        }
    }

    /// Put every touched key back to its saved pre-image.
    fn restore(self, changes: &mut TableChanges) {
        let Some(saved) = self.saved else {
            changes.clear();
            return;
        };
        for (k, pre) in saved {
            match pre {
                Some(net) => {
                    changes.insert(k, net);
                }
                None => {
                    changes.remove(&k);
                }
            }
        }
    }
}

/// One all-or-nothing APPLY scope over a table's shared undo journal.
struct ApplySession {
    undo: UndoLog,
    mark: usize,
    journal: ChangesJournal,
}

impl ApplySession {
    fn begin(table: &Table, changes: &TableChanges) -> Self {
        let undo = table.undo_log().clone();
        let mark = undo.arm();
        ApplySession {
            undo,
            mark,
            journal: ChangesJournal::new(changes),
        }
    }

    /// Keep the mutations. Inside a maintenance round the journaled
    /// suffix stays for the round's owner; standalone (no other
    /// interest), the journal is drained so it cannot grow unboundedly.
    fn commit(self) {
        self.undo.disarm();
        if !self.undo.is_armed() {
            self.undo.clear();
        }
    }

    /// Replay this session's suffix in reverse (rows and indexes,
    /// uncounted) and restore the touched `changes` entries.
    fn rollback(self, table: &mut Table, changes: &mut TableChanges) {
        self.undo.disarm();
        for op in self.undo.split_off(self.mark).into_iter().rev() {
            table.apply_undo(op);
        }
        self.journal.restore(changes);
    }
}

/// Apply `diff` to `table` (a materialized view or cache), recording the
/// induced net changes into `changes` so later rules can read the
/// relation's pre-state through an overlay. All-or-nothing: on `Err`,
/// `table` and `changes` are exactly as before the call.
///
/// # Errors
/// Conflicting inserts (an ineffective diff — upstream bug) or arity
/// mismatches.
pub fn apply(
    table: &mut Table,
    diff: &DiffInstance,
    changes: &mut TableChanges,
) -> Result<ApplyOutcome> {
    let mut session = ApplySession::begin(table, changes);
    match apply_one(table, diff, changes, &mut session.journal) {
        Ok(out) => {
            session.commit();
            Ok(out)
        }
        Err(e) => {
            session.rollback(table, changes);
            Err(e)
        }
    }
}

fn apply_one(
    table: &mut Table,
    diff: &DiffInstance,
    changes: &mut TableChanges,
    journal: &mut ChangesJournal,
) -> Result<ApplyOutcome> {
    let mut out = ApplyOutcome::default();
    match diff.schema.kind {
        DiffKind::Update => out.absorb(apply_update(table, diff, changes, journal)?),
        DiffKind::Insert => out.absorb(apply_insert(table, diff, changes, journal)?),
        DiffKind::Delete => out.absorb(apply_delete(table, diff, changes, journal)?),
    }
    Ok(out)
}

/// Apply a whole batch of diffs in any order (they are effective, so
/// order is immaterial — paper Section 2); inserts are deferred last so
/// an insert+update pair targeting the same fresh tuple cannot trip the
/// duplicate-insert guard. All-or-nothing across the whole batch: on
/// `Err`, `table` and `changes` are exactly as before the call.
///
/// # Errors
/// Same conditions as [`apply`].
pub fn apply_all(
    table: &mut Table,
    diffs: &[DiffInstance],
    changes: &mut TableChanges,
) -> Result<ApplyOutcome> {
    let mut session = ApplySession::begin(table, changes);
    match apply_all_inner(table, diffs, changes, &mut session.journal) {
        Ok(out) => {
            session.commit();
            Ok(out)
        }
        Err(e) => {
            session.rollback(table, changes);
            Err(e)
        }
    }
}

fn apply_all_inner(
    table: &mut Table,
    diffs: &[DiffInstance],
    changes: &mut TableChanges,
    journal: &mut ChangesJournal,
) -> Result<ApplyOutcome> {
    let mut out = ApplyOutcome::default();
    for d in diffs.iter().filter(|d| d.schema.kind == DiffKind::Delete) {
        out.absorb(apply_one(table, d, changes, journal)?);
    }
    for d in diffs.iter().filter(|d| d.schema.kind == DiffKind::Update) {
        out.absorb(apply_one(table, d, changes, journal)?);
    }
    for d in diffs.iter().filter(|d| d.schema.kind == DiffKind::Insert) {
        out.absorb(apply_one(table, d, changes, journal)?);
    }
    Ok(out)
}

fn apply_update(
    table: &mut Table,
    diff: &DiffInstance,
    changes: &mut TableChanges,
    journal: &mut ChangesJournal,
) -> Result<ApplyOutcome> {
    let mut out = ApplyOutcome::default();
    // The paper assumes a view index on the view IDs; ensure one exists
    // for this diff's Ī′ (creation is a setup cost, not counted).
    table.create_index_positions(diff.schema.id_cols.clone());
    for d in &diff.rows {
        let probe = diff.schema.id_key(d);
        let pks = table.pks_by(&diff.schema.id_cols, &probe);
        if pks.is_empty() {
            out.dummies += 1;
            continue;
        }
        let mut assignments: Vec<(usize, Value)> = Vec::with_capacity(diff.schema.post_cols.len());
        for &c in &diff.schema.post_cols {
            let v = diff.schema.post_value(d, c).ok_or_else(|| {
                Error::Internal(format!(
                    "update i-diff carries no post value for column #{c} \
                     (schema {:?})",
                    diff.schema
                ))
            })?;
            assignments.push((c, v));
        }
        for pk in pks {
            // `None`: the indexed pk points at a row that is no longer
            // there (e.g. a delete applied earlier in the batch). Like
            // an update that changes nothing, the diff tuple is a dummy
            // rather than a reason to abort a half-applied round.
            match table.patch(&pk, &assignments) {
                Some((pre, post)) if pre != post => {
                    journal.save(changes, &pk);
                    record_update(changes, pk, pre, post);
                    out.updated += 1;
                }
                _ => out.dummies += 1,
            }
        }
    }
    Ok(out)
}

fn apply_insert(
    table: &mut Table,
    diff: &DiffInstance,
    changes: &mut TableChanges,
    journal: &mut ChangesJournal,
) -> Result<ApplyOutcome> {
    let mut out = ApplyOutcome::default();
    let arity = table.schema().arity();
    let pk_cols = table.schema().key().to_vec();
    for d in &diff.rows {
        let row = diff
            .schema
            .full_row(d, arity, State::Post)
            .ok_or_else(|| {
                Error::Internal(format!(
                    "insert i-diff does not cover the full target row \
                     (schema {:?})",
                    diff.schema
                ))
            })?;
        let key = row.key(&pk_cols);
        if table.insert_if_absent(row.clone())? {
            journal.save(changes, &key);
            record_insert(changes, key, row);
            out.inserted += 1;
        } else {
            out.dummies += 1;
        }
    }
    Ok(out)
}

fn apply_delete(
    table: &mut Table,
    diff: &DiffInstance,
    changes: &mut TableChanges,
    journal: &mut ChangesJournal,
) -> Result<ApplyOutcome> {
    let mut out = ApplyOutcome::default();
    table.create_index_positions(diff.schema.id_cols.clone());
    for d in &diff.rows {
        let probe = diff.schema.id_key(d);
        let pks = table.pks_by(&diff.schema.id_cols, &probe);
        if pks.is_empty() {
            out.dummies += 1;
            continue;
        }
        for pk in pks {
            if let Some(pre) = table.delete_located(&pk) {
                journal.save(changes, &pk);
                record_delete(changes, pk, pre);
                out.deleted += 1;
            }
        }
    }
    Ok(out)
}

// The three recorders fold one more effective change into `key`'s net
// entry with a single hash probe (entry API), editing it in place.

fn record_update(changes: &mut TableChanges, key: Key, pre: Row, post: Row) {
    match changes.entry(key) {
        Entry::Vacant(e) => {
            e.insert(NetChange::Updated { pre, post });
        }
        Entry::Occupied(mut e) => match e.get_mut() {
            NetChange::Inserted { post: last } => *last = post,
            NetChange::Updated { pre: first, .. } if *first == post => {
                // Round-tripped back: no net change.
                e.remove();
            }
            NetChange::Updated { post: last, .. } => *last = post,
            // Deleted then re-updated cannot happen with effective
            // diffs; keep the delete (defensive).
            NetChange::Deleted { .. } => {}
        },
    }
}

fn record_insert(changes: &mut TableChanges, key: Key, post: Row) {
    match changes.entry(key) {
        Entry::Vacant(e) => {
            e.insert(NetChange::Inserted { post });
        }
        Entry::Occupied(mut e) => match e.get_mut() {
            // delete + re-insert (an expanded condition-affected
            // update): net nothing if the row came back identical,
            // otherwise a net update.
            NetChange::Deleted { pre } if *pre == post => {
                e.remove();
            }
            NetChange::Deleted { pre } => {
                let pre = std::mem::take(pre);
                e.insert(NetChange::Updated { pre, post });
            }
            // Inserting over a live entry is prevented by
            // insert_if_absent; keep it (defensive).
            NetChange::Inserted { .. } | NetChange::Updated { .. } => {}
        },
    }
}

fn record_delete(changes: &mut TableChanges, key: Key, pre: Row) {
    match changes.entry(key) {
        Entry::Vacant(e) => {
            e.insert(NetChange::Deleted { pre });
        }
        Entry::Occupied(mut e) => match e.get_mut() {
            // insert + delete in one round: net nothing.
            NetChange::Inserted { .. } => {
                e.remove();
            }
            NetChange::Updated { pre: first, .. } => {
                let first = std::mem::take(first);
                e.insert(NetChange::Deleted { pre: first });
            }
            NetChange::Deleted { .. } => {}
        },
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::diff::DiffSchema;
    use idivm_reldb::AccessStats;
    use idivm_types::{row, ColumnType, Schema};

    /// The running-example view V(did, pid, price) of Figure 2.
    fn view() -> Table {
        let schema = Schema::from_pairs(
            &[
                ("did", ColumnType::Str),
                ("pid", ColumnType::Str),
                ("price", ColumnType::Int),
            ],
            &["did", "pid"],
        )
        .unwrap();
        let mut t = Table::new("V", schema, AccessStats::new());
        t.load(row!["D1", "P1", 10]).unwrap();
        t.load(row!["D2", "P1", 10]).unwrap();
        t.load(row!["D1", "P2", 20]).unwrap();
        t
    }

    /// Example 2.2: one update i-diff tuple updates *both* P1 rows.
    #[test]
    fn update_by_id_subset_hits_all_matches() {
        let mut v = view();
        let mut ch = HashMap::new();
        let d = DiffInstance::new(
            DiffSchema::update(&[1], &[2], &[2]),
            vec![row!["P1", 10, 11]],
        );
        v.stats().reset();
        let out = apply(&mut v, &d, &mut ch).unwrap();
        assert_eq!(out.updated, 2);
        assert_eq!(out.dummies, 0);
        assert_eq!(
            v.get_uncounted(&Key(vec![Value::str("D1"), Value::str("P1")]))
                .unwrap(),
            &row!["D1", "P1", 11]
        );
        // Cost: 1 index lookup (the single diff tuple) + 2 tuple writes.
        let snap = v.stats().snapshot();
        assert_eq!((snap.index_lookups, snap.tuple_accesses), (1, 2));
        assert_eq!(ch.len(), 2);
    }

    /// Example 2.3: insert i-diff; re-applying the same insert is a no-op
    /// (the NOT IN guard).
    #[test]
    fn insert_with_not_in_guard() {
        let mut v = view();
        let mut ch = HashMap::new();
        let d = DiffInstance::new(
            DiffSchema::insert(&[0, 1], 3),
            vec![row!["D3", "P2", 20], row!["D4", "P3", 30]],
        );
        let out = apply(&mut v, &d, &mut ch).unwrap();
        assert_eq!(out.inserted, 2);
        assert_eq!(v.len(), 5);
        // Same insert again: both are dummies.
        let out2 = apply(&mut v, &d, &mut HashMap::new()).unwrap();
        assert_eq!(out2.inserted, 0);
        assert_eq!(out2.dummies, 2);
    }

    /// Example 2.4: delete i-diff by pid removes both P1 tuples.
    #[test]
    fn delete_by_id_subset() {
        let mut v = view();
        let mut ch = HashMap::new();
        let d = DiffInstance::new(
            DiffSchema::delete(&[1], &[2]),
            vec![row!["P1", 10]],
        );
        let out = apply(&mut v, &d, &mut ch).unwrap();
        assert_eq!(out.deleted, 2);
        assert_eq!(v.len(), 1);
    }

    /// Overestimation: a dummy P3 update matches nothing and costs only
    /// its index lookup (Section 1's overestimation discussion).
    #[test]
    fn dummy_update_costs_one_lookup() {
        let mut v = view();
        let mut ch = HashMap::new();
        let d = DiffInstance::new(
            DiffSchema::update(&[1], &[2], &[2]),
            vec![row!["P3", 20, 21]],
        );
        v.stats().reset();
        let out = apply(&mut v, &d, &mut ch).unwrap();
        assert_eq!(out.dummies, 1);
        assert_eq!(out.updated, 0);
        let snap = v.stats().snapshot();
        assert_eq!((snap.index_lookups, snap.tuple_accesses), (1, 0));
        assert!(ch.is_empty());
    }

    #[test]
    fn conflicting_insert_is_an_error() {
        let mut v = view();
        let d = DiffInstance::new(
            DiffSchema::insert(&[0, 1], 3),
            vec![row!["D1", "P1", 999]], // same key, different price
        );
        assert!(apply(&mut v, &d, &mut HashMap::new()).is_err());
    }

    /// Regression (partial-effect APPLY): a conflicting insert in the
    /// middle of a batch used to return `Err` with the earlier rows of
    /// the same diff already inserted. The APPLY session must roll the
    /// whole diff back: table, indexes, and the `changes` overlay.
    #[test]
    fn failed_insert_batch_is_all_or_nothing() {
        let mut v = view();
        v.create_index(&["pid"]).unwrap();
        let before = v.signature();
        let d = DiffInstance::new(
            DiffSchema::insert(&[0, 1], 3),
            vec![
                row!["D7", "P7", 70],   // fresh — would insert
                row!["D1", "P1", 999],  // conflicts with existing D1/P1
                row!["D8", "P8", 80],   // never reached
            ],
        );
        let mut ch = HashMap::new();
        assert!(apply(&mut v, &d, &mut ch).is_err());
        assert_eq!(v.signature(), before, "table must be untouched");
        assert!(ch.is_empty(), "changes overlay must be untouched");
        assert!(
            v.undo_log().is_empty() && !v.undo_log().is_armed(),
            "standalone session must leave the journal drained"
        );
    }

    /// Same property across a batch of several diffs: a failure in a
    /// later diff rolls back earlier diffs of the same `apply_all`. The
    /// overlay starts empty, so nothing is journaled for it and the
    /// rollback clears every entry the earlier diffs recorded.
    #[test]
    fn failed_apply_all_rolls_back_earlier_diffs() {
        let mut v = view();
        let before = v.signature();
        let diffs = vec![
            DiffInstance::new(
                DiffSchema::delete(&[1], &[]),
                vec![Row(vec![Value::str("P2")])], // applies first, succeeds
            ),
            DiffInstance::new(
                DiffSchema::update(&[1], &[2], &[2]),
                vec![row!["P1", 10, 11]], // records two updates
            ),
            DiffInstance::new(
                DiffSchema::insert(&[0, 1], 3),
                vec![row!["D5", "P5", 50], row!["D2", "P1", 999]], // then conflicts
            ),
        ];
        let mut ch = HashMap::new();
        assert!(apply_all(&mut v, &diffs, &mut ch).is_err());
        assert_eq!(v.signature(), before);
        assert!(ch.is_empty(), "overlay must be empty again: {ch:?}");
    }

    /// Pre-existing overlay entries touched by a failing APPLY must be
    /// restored to their exact prior value, not dropped.
    #[test]
    fn rollback_restores_preexisting_changes_entries() {
        let mut v = view();
        let key = Key(vec![Value::str("D1"), Value::str("P2")]);
        let mut ch = HashMap::new();
        ch.insert(
            key.clone(),
            NetChange::Updated {
                pre: row!["D1", "P2", 19],
                post: row!["D1", "P2", 20],
            },
        );
        let prior = ch.clone();
        let diffs = vec![
            DiffInstance::new(
                DiffSchema::delete(&[1], &[]),
                vec![Row(vec![Value::str("P2")])], // touches the journaled key
            ),
            DiffInstance::new(
                DiffSchema::insert(&[0, 1], 3),
                vec![row!["D2", "P1", 999]], // then fails
            ),
        ];
        assert!(apply_all(&mut v, &diffs, &mut ch).is_err());
        assert_eq!(ch, prior, "overlay entry must be restored verbatim");
    }

    /// A failed batch over a non-empty overlay restores it verbatim:
    /// entries it updated, deleted and inserted over, and entries it
    /// never touched.
    #[test]
    fn failed_apply_all_restores_nonempty_overlay_verbatim() {
        let mut v = view();
        let k = |d: &str, p: &str| Key(vec![Value::str(d), Value::str(p)]);
        let mut ch = HashMap::new();
        ch.insert(
            k("D1", "P1"),
            NetChange::Updated {
                pre: row!["D1", "P1", 9],
                post: row!["D1", "P1", 10],
            },
        );
        ch.insert(
            k("D1", "P2"),
            NetChange::Inserted {
                post: row!["D1", "P2", 20],
            },
        );
        ch.insert(
            k("D6", "P6"),
            NetChange::Deleted {
                pre: row!["D6", "P6", 60],
            },
        );
        ch.insert(
            k("D9", "P9"),
            NetChange::Deleted {
                pre: row!["D9", "P9", 90],
            },
        );
        let prior = ch.clone();
        let diffs = vec![
            DiffInstance::new(
                DiffSchema::update(&[1], &[2], &[2]),
                vec![row!["P1", 10, 11]],
            ),
            DiffInstance::new(
                DiffSchema::delete(&[1], &[]),
                vec![Row(vec![Value::str("P2")])],
            ),
            DiffInstance::new(
                DiffSchema::insert(&[0, 1], 3),
                vec![row!["D6", "P6", 61], row!["D2", "P1", 999]],
            ),
        ];
        assert!(apply_all(&mut v, &diffs, &mut ch).is_err());
        assert_eq!(ch, prior, "overlay must be restored verbatim");
    }

    /// Two updates that take a row back to its first pre-image leave no
    /// net change: the overlay entry is removed, not kept as a no-op.
    #[test]
    fn round_trip_updates_remove_the_overlay_entry() {
        let mut v = view();
        let mut ch = HashMap::new();
        let up = |from: i64, to: i64| {
            DiffInstance::new(
                DiffSchema::update(&[1], &[2], &[2]),
                vec![row!["P2", from, to]],
            )
        };
        apply(&mut v, &up(20, 25), &mut ch).unwrap();
        assert_eq!(
            ch.get(&Key(vec![Value::str("D1"), Value::str("P2")])),
            Some(&NetChange::Updated {
                pre: row!["D1", "P2", 20],
                post: row!["D1", "P2", 25],
            })
        );
        apply(&mut v, &up(25, 20), &mut ch).unwrap();
        assert!(ch.is_empty(), "round trip must cancel: {ch:?}");
    }

    /// `Table::patch` hands back the exact pre and post rows and never
    /// rewrites a key column.
    #[test]
    fn patch_returns_pre_and_post_and_ignores_key_assignments() {
        let mut v = view();
        let pk = Key(vec![Value::str("D1"), Value::str("P1")]);
        let got = v.patch(
            &pk,
            &[(0, Value::str("DX")), (2, Value::Int(12)), (1, Value::str("PX"))],
        );
        assert_eq!(got, Some((row!["D1", "P1", 10], row!["D1", "P1", 12])));
        assert_eq!(v.get_uncounted(&pk), Some(&row!["D1", "P1", 12]));
        assert_eq!(v.patch(&Key(vec![Value::str("D9"), Value::str("P9")]), &[]), None);
    }

    #[test]
    fn apply_all_orders_deletes_updates_inserts() {
        let mut v = view();
        let mut ch = HashMap::new();
        let diffs = vec![
            DiffInstance::new(
                DiffSchema::insert(&[0, 1], 3),
                vec![row!["D9", "P9", 90]],
            ),
            DiffInstance::new(
                DiffSchema::delete(&[1], &[]),
                vec![Row(vec![Value::str("P2")])],
            ),
        ];
        let out = apply_all(&mut v, &diffs, &mut ch).unwrap();
        assert_eq!(out.inserted, 1);
        assert_eq!(out.deleted, 1);
        assert_eq!(v.len(), 3);
    }

    /// Regression: a delete and an update landing on the same key in one
    /// batch (a folded delete racing a stale update diff) must not panic
    /// — the update finds nothing and is counted as a dummy.
    #[test]
    fn delete_then_update_same_key_is_dummy_not_panic() {
        let mut v = view();
        let mut ch = HashMap::new();
        let diffs = vec![
            DiffInstance::new(
                DiffSchema::update(&[1], &[2], &[2]),
                vec![row!["P2", 20, 25]],
            ),
            DiffInstance::new(
                DiffSchema::delete(&[1], &[]),
                vec![Row(vec![Value::str("P2")])],
            ),
        ];
        // apply_all orders deletes first, so the update probes a key
        // whose rows are gone.
        let out = apply_all(&mut v, &diffs, &mut ch).unwrap();
        assert_eq!(out.deleted, 1);
        assert_eq!(out.updated, 0);
        assert_eq!(out.dummies, 1);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn noop_update_counts_as_dummy() {
        let mut v = view();
        let d = DiffInstance::new(
            DiffSchema::update(&[1], &[2], &[2]),
            vec![row!["P2", 20, 20]], // sets price to its current value
        );
        let mut ch = HashMap::new();
        let out = apply(&mut v, &d, &mut ch).unwrap();
        assert_eq!(out.updated, 0);
        assert_eq!(out.dummies, 1);
        assert!(ch.is_empty());
    }
}
