//! Property test: secondary indexes stay consistent with the rows
//! under every write path. After any random sequence of `insert`,
//! `update`, `update_columns`, `patch`, `delete` and `delete_located`
//! — touching indexed and unindexed columns alike — a table's
//! signature equals that of a table rebuilt from the same rows, and
//! replaying the undo journal restores the pre-sequence signature.

use idivm_reldb::{AccessStats, Table};
use idivm_types::{ColumnType, Key, Row, Schema, Value};
use proptest::prelude::*;

/// `t(id, grp, sub, val, note)`: indexes on `grp` (single column),
/// `grp, sub` (multi column) and `val` (a value column); `note` is
/// covered by no index.
const INDEXES: [&[usize]; 3] = [&[1], &[1, 2], &[3]];

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, Vec<i64>),
    Update(i64, Vec<i64>),
    UpdateColumns(i64, Vec<(usize, i64)>),
    Patch(i64, Vec<(usize, i64)>),
    Delete(i64),
    DeleteLocated(i64),
}

fn key(k: i64) -> Key {
    Key(vec![Value::Int(k)])
}

fn make_row(k: i64, vals: &[i64]) -> Row {
    Row(std::iter::once(k)
        .chain(vals.iter().copied())
        .map(Value::Int)
        .collect())
}

fn assignments(cols: &[(usize, i64)]) -> Vec<(usize, Value)> {
    cols.iter().map(|&(c, v)| (c, Value::Int(v))).collect()
}

fn op() -> impl Strategy<Value = Op> {
    let vals = || proptest::collection::vec(0i64..3, 4);
    // Column 0 is the key: `patch` must ignore it, `update_columns`
    // must reject it.
    let sets = || proptest::collection::vec((0usize..5, 0i64..3), 1..4);
    prop_oneof![
        (0i64..10, vals()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0i64..10, vals()).prop_map(|(k, v)| Op::Update(k, v)),
        (0i64..10, sets()).prop_map(|(k, s)| Op::UpdateColumns(k, s)),
        (0i64..10, sets()).prop_map(|(k, s)| Op::Patch(k, s)),
        (0i64..10).prop_map(Op::Delete),
        (0i64..10).prop_map(Op::DeleteLocated),
    ]
}

fn table() -> Table {
    let schema = Schema::from_pairs(
        &[
            ("id", ColumnType::Int),
            ("grp", ColumnType::Int),
            ("sub", ColumnType::Int),
            ("val", ColumnType::Int),
            ("note", ColumnType::Int),
        ],
        &["id"],
    )
    .unwrap();
    let mut t = Table::new("t", schema, AccessStats::new());
    for cols in INDEXES {
        t.create_index_positions(cols.to_vec());
    }
    t
}

/// A fresh table holding `t`'s rows, its indexes built from scratch.
fn rebuilt(t: &Table) -> Table {
    let mut fresh = Table::new("t", t.schema().clone(), AccessStats::new());
    for row in t.rows_uncounted() {
        fresh.load(row).unwrap();
    }
    for cols in t.index_positions() {
        fresh.create_index_positions(cols);
    }
    fresh
}

fn apply(t: &mut Table, o: &Op) {
    // Failures (duplicate keys, missing rows, key-column assignments)
    // are part of the sequence: they must leave the indexes alone too.
    match o {
        Op::Insert(k, v) => {
            let _ = t.insert(make_row(*k, v));
        }
        Op::Update(k, v) => {
            let _ = t.update(&key(*k), make_row(*k, v));
        }
        Op::UpdateColumns(k, s) => {
            let _ = t.update_columns(&key(*k), &assignments(s));
        }
        Op::Patch(k, s) => {
            t.patch(&key(*k), &assignments(s));
        }
        Op::Delete(k) => {
            t.delete(&key(*k));
        }
        Op::DeleteLocated(k) => {
            t.delete_located(&key(*k));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every op leaves the indexes equal to a from-scratch rebuild, and
    /// the armed undo suffix replays back to the starting signature.
    #[test]
    fn indexes_match_rebuild_and_undo_restores(
        initial in proptest::collection::vec((0i64..10, proptest::collection::vec(0i64..3, 4)), 0..8),
        ops in proptest::collection::vec(op(), 1..40),
    ) {
        let mut t = table();
        for (k, v) in &initial {
            let _ = t.load(make_row(*k, v));
        }
        let before = t.signature();

        let undo = t.undo_log().clone();
        let mark = undo.arm();
        for o in &ops {
            apply(&mut t, o);
            prop_assert_eq!(t.signature(), rebuilt(&t).signature(), "after {:?}", o);
        }
        for op in undo.split_off(mark).into_iter().rev() {
            t.apply_undo(op);
        }
        undo.disarm();
        prop_assert_eq!(t.signature(), before);
    }
}
