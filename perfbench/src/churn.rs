//! Pre-generated TPC-H churn for `minmax-churn-p2`.
//!
//! The same change mix as `Tpch::lineitem_churn_batch` and
//! `Tpch::order_churn_batch` — extremum-deleting lineitem churn (delete
//! a group's minimum, or price it past the group's maximum), interior
//! price nudges and inserts, first orders for orderless customers,
//! deletions of a customer's last order, fresh customers and status
//! flips — but aimed from a shadow model that is updated per change,
//! instead of snapshotting whole tables for every change. Lineitem
//! inserts are as frequent as lineitem deletes, so the lineitem table
//! keeps its size over a run.

use idivm_reldb::Database;
use idivm_types::{row, Key, Result, Row, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One base-table change.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    Insert(&'static str, Row),
    Delete(&'static str, Key),
    Update(&'static str, Key, Vec<(usize, Value)>),
}

impl Change {
    /// Apply as logged DML.
    ///
    /// # Errors
    /// Unknown rows — the shadow model and the database disagree.
    pub fn apply(&self, db: &mut Database) -> Result<()> {
        match self {
            Change::Insert(t, r) => db.insert(t, r.clone()),
            Change::Delete(t, k) => db.delete(t, k).and_then(|pre| {
                pre.map(|_| ()).ok_or_else(|| {
                    idivm_types::Error::Internal(format!("churn deleted a missing {t} row {k:?}"))
                })
            }),
            Change::Update(t, k, a) => db.update(t, k, a).map(|_| ()),
        }
    }
}

/// A set with O(1) insert, remove and uniform random pick; iteration
/// order is a function of the operation sequence alone.
#[derive(Default)]
struct PickSet {
    items: Vec<i64>,
    pos: HashMap<i64, usize>,
}

impl PickSet {
    fn insert(&mut self, x: i64) {
        if !self.pos.contains_key(&x) {
            self.pos.insert(x, self.items.len());
            self.items.push(x);
        }
    }

    fn remove(&mut self, x: i64) {
        if let Some(i) = self.pos.remove(&x) {
            let last = self.items.pop().unwrap_or(x);
            if last != x {
                self.items[i] = last;
                self.pos.insert(last, i);
            }
        }
    }

    fn pick(&self, rng: &mut StdRng) -> Option<i64> {
        (!self.items.is_empty()).then(|| self.items[rng.gen_range(0..self.items.len())])
    }
}

/// The shadow of `customer`, `orders` and `lineitem` the generator aims
/// from.
#[derive(Default)]
struct Model {
    next_custkey: i64,
    /// orderkey → (custkey, status is "O").
    orders: BTreeMap<i64, (i64, bool)>,
    next_orderkey: i64,
    orders_of: BTreeMap<i64, BTreeSet<i64>>,
    /// (orderkey, linenumber) → price.
    lineitems: BTreeMap<(i64, i64), i64>,
    next_line: BTreeMap<i64, i64>,
    /// custkey → {(price, orderkey, linenumber)}: the extremes view's
    /// groups.
    groups: BTreeMap<i64, BTreeSet<(i64, i64, i64)>>,
    nonempty_groups: PickSet,
    orderless: PickSet,
    single_order: PickSet,
    all_orders: PickSet,
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        _ => 0,
    }
}

impl Model {
    fn from_db(db: &Database) -> Result<Model> {
        let mut m = Model::default();
        for c in db.table("customer")?.rows_uncounted() {
            m.add_customer(int(&c[0]));
        }
        for o in db.table("orders")?.rows_uncounted() {
            m.add_order(int(&o[0]), int(&o[1]), o[2] == Value::Str("O".into()));
        }
        for l in db.table("lineitem")?.rows_uncounted() {
            m.add_line(int(&l[0]), int(&l[1]), int(&l[2]));
        }
        Ok(m)
    }

    fn refresh_order_sets(&mut self, ck: i64) {
        let n = self.orders_of.get(&ck).map_or(0, BTreeSet::len);
        if n == 0 {
            self.orderless.insert(ck);
        } else {
            self.orderless.remove(ck);
        }
        if n == 1 {
            self.single_order.insert(ck);
        } else {
            self.single_order.remove(ck);
        }
    }

    fn add_customer(&mut self, ck: i64) {
        self.next_custkey = self.next_custkey.max(ck + 1);
        self.refresh_order_sets(ck);
    }

    fn add_order(&mut self, ok: i64, ck: i64, open: bool) {
        self.orders.insert(ok, (ck, open));
        self.next_orderkey = self.next_orderkey.max(ok + 1);
        self.orders_of.entry(ck).or_default().insert(ok);
        self.all_orders.insert(ok);
        self.refresh_order_sets(ck);
    }

    fn remove_order(&mut self, ok: i64) {
        if let Some((ck, _)) = self.orders.remove(&ok) {
            if let Some(s) = self.orders_of.get_mut(&ck) {
                s.remove(&ok);
            }
            self.all_orders.remove(ok);
            self.refresh_order_sets(ck);
        }
    }

    fn add_line(&mut self, ok: i64, ln: i64, price: i64) {
        self.lineitems.insert((ok, ln), price);
        let next = self.next_line.entry(ok).or_insert(0);
        *next = (*next).max(ln + 1);
        if let Some(&(ck, _)) = self.orders.get(&ok) {
            self.groups.entry(ck).or_default().insert((price, ok, ln));
            self.nonempty_groups.insert(ck);
        }
    }

    fn remove_line(&mut self, ok: i64, ln: i64) {
        if let Some(price) = self.lineitems.remove(&(ok, ln)) {
            if let Some(&(ck, _)) = self.orders.get(&ok) {
                if let Some(g) = self.groups.get_mut(&ck) {
                    g.remove(&(price, ok, ln));
                    if g.is_empty() {
                        self.nonempty_groups.remove(ck);
                    }
                }
            }
        }
    }
}

/// Key of a lineitem row.
fn line_key(ok: i64, ln: i64) -> Key {
    Key(vec![Value::Int(ok), Value::Int(ln)])
}

/// Price column of `lineitem`.
const PRICE: usize = 2;

struct Gen {
    m: Model,
    rng: StdRng,
    extremum_pct: u32,
}

impl Gen {
    fn set_price(&mut self, ok: i64, ln: i64, price: i64, out: &mut Vec<Change>) {
        self.m.remove_line(ok, ln);
        self.m.add_line(ok, ln, price);
        out.push(Change::Update(
            "lineitem",
            line_key(ok, ln),
            vec![(PRICE, Value::Int(price))],
        ));
    }

    /// One lineitem change aimed at a random non-empty group.
    fn lineitem_change(&mut self, out: &mut Vec<Change>) {
        let Some(ck) = self.m.nonempty_groups.pick(&mut self.rng) else {
            return;
        };
        let g = &self.m.groups[&ck];
        let (lo, min_ok, min_ln) = *g.iter().next().unwrap_or(&(0, 0, 0));
        let hi = g.iter().next_back().map_or(lo, |x| x.0);
        let size = g.len();
        if self.rng.gen_range(0..100) < self.extremum_pct {
            // Extremum-deleting: the stored MIN vanishes.
            if self.rng.gen_range(0..2) == 0 && size > 1 {
                self.m.remove_line(min_ok, min_ln);
                out.push(Change::Delete("lineitem", line_key(min_ok, min_ln)));
            } else {
                let price = hi + self.rng.gen_range(1..100);
                self.set_price(min_ok, min_ln, price, out);
            }
            return;
        }
        // Inserts match the deletes above in expectation:
        // extremum_pct/2 of all changes.
        let insert_pct = self.extremum_pct / 2 * 100 / (100 - self.extremum_pct).max(1);
        let inside = |rng: &mut StdRng| {
            if hi > lo + 1 {
                rng.gen_range(lo + 1..hi)
            } else {
                hi
            }
        };
        if self.rng.gen_range(0..100) < insert_pct {
            // A new lineitem strictly inside the group's range.
            let ln = self.m.next_line.get(&min_ok).copied().unwrap_or(0);
            let price = inside(&mut self.rng);
            let qty = self.rng.gen_range(1..50i64);
            self.m.add_line(min_ok, ln, price);
            out.push(Change::Insert("lineitem", row![min_ok, ln, price, qty]));
        } else {
            // Benign interior nudge of a random member.
            let i = self.rng.gen_range(0..size);
            let (_, ok, ln) = *g.iter().nth(i).unwrap_or(&(0, min_ok, min_ln));
            let price = inside(&mut self.rng);
            self.set_price(ok, ln, price, out);
        }
    }

    /// One order-level change for the outer-join view.
    fn order_change(&mut self, out: &mut Vec<Change>) {
        match self.rng.gen_range(0..4) {
            0 => {
                // First order for an orderless customer: padded → joined.
                let ck = match self.m.orderless.pick(&mut self.rng) {
                    Some(ck) => ck,
                    None => self.rng.gen_range(0..self.m.next_custkey.max(1)),
                };
                let ok = self.m.next_orderkey;
                self.m.add_order(ok, ck, true);
                out.push(Change::Insert("orders", row![ok, ck, "O"]));
            }
            1 => {
                // Delete a last order where possible: joined → padded.
                let victim = match self.m.single_order.pick(&mut self.rng) {
                    Some(ck) => self.m.orders_of[&ck].iter().next().copied(),
                    None => self.m.all_orders.pick(&mut self.rng),
                };
                let Some(ok) = victim else { return };
                // Its lineitems go first so the extremes view's input
                // never dangles.
                let lines: Vec<i64> = self
                    .m
                    .lineitems
                    .range((ok, i64::MIN)..=(ok, i64::MAX))
                    .map(|((_, ln), _)| *ln)
                    .collect();
                for ln in lines {
                    self.m.remove_line(ok, ln);
                    out.push(Change::Delete("lineitem", line_key(ok, ln)));
                }
                self.m.remove_order(ok);
                out.push(Change::Delete("orders", Key(vec![Value::Int(ok)])));
            }
            2 => {
                // Fresh customer: a brand-new padded row.
                let ck = self.m.next_custkey;
                self.m.add_customer(ck);
                let nation = self.rng.gen_range(0..25i64);
                out.push(Change::Insert("customer", row![ck, nation, "FURNITURE"]));
            }
            _ => {
                // Status flip on a surviving order.
                let Some(ok) = self.m.all_orders.pick(&mut self.rng) else {
                    return;
                };
                let (ck, open) = self.m.orders[&ok];
                self.m.orders.insert(ok, (ck, !open));
                let status = if open { "F" } else { "O" };
                out.push(Change::Update(
                    "orders",
                    Key(vec![Value::Int(ok)]),
                    vec![(2, Value::Str(status.into()))],
                ));
            }
        }
    }
}

/// `rounds` rounds of churn against the generated database `db`: each
/// round makes `lineitem_changes` lineitem changes and
/// `order_changes` order-level changes (an order deletion also deletes
/// the order's lineitems).
///
/// # Errors
/// Unknown tables (a bug).
pub fn generate(
    db: &Database,
    seed: u64,
    extremum_pct: u32,
    rounds: usize,
    lineitem_changes: usize,
    order_changes: usize,
) -> Result<Vec<Vec<Change>>> {
    let mut g = Gen {
        m: Model::from_db(db)?,
        rng: StdRng::seed_from_u64(seed ^ 0xC4_0A2E),
        extremum_pct,
    };
    let total = lineitem_changes + order_changes;
    Ok((0..rounds)
        .map(|_| {
            let mut out = Vec::new();
            for i in 0..total {
                // Spread the order changes evenly through the round.
                if (i + 1) * order_changes / total > i * order_changes / total {
                    g.order_change(&mut out);
                } else {
                    g.lineitem_change(&mut out);
                }
            }
            out
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use idivm_workloads::Tpch;

    fn tiny() -> Tpch {
        Tpch {
            n_customers: 60,
            orders_per_customer: 2,
            lineitems_per_order: 3,
            extremum_pct: 30,
            seed: 5,
        }
    }

    #[test]
    fn every_generated_change_applies() {
        let cfg = tiny();
        let mut db = cfg.build().unwrap();
        let rounds = generate(&db, 1, 30, 40, 12, 4).unwrap();
        for round in &rounds {
            for c in round {
                c.apply(&mut db).unwrap();
            }
        }
        assert!(rounds.iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn same_seed_same_changes() {
        let db = tiny().build().unwrap();
        assert_eq!(
            generate(&db, 9, 30, 10, 12, 4).unwrap(),
            generate(&db, 9, 30, 10, 12, 4).unwrap()
        );
        assert_ne!(
            generate(&db, 9, 30, 10, 12, 4).unwrap(),
            generate(&db, 10, 30, 10, 12, 4).unwrap()
        );
    }

    #[test]
    fn the_mix_deletes_extremums_and_last_orders() {
        let cfg = tiny();
        let db = cfg.build().unwrap();
        let rounds = generate(&db, 3, 30, 60, 12, 4).unwrap();
        let all: Vec<&Change> = rounds.iter().flatten().collect();
        let count = |f: &dyn Fn(&Change) -> bool| all.iter().filter(|c| f(c)).count();
        assert!(count(&|c| matches!(c, Change::Delete("lineitem", _))) > 0);
        assert!(count(&|c| matches!(c, Change::Insert("lineitem", _))) > 0);
        assert!(count(&|c| matches!(c, Change::Delete("orders", _))) > 0);
        assert!(count(&|c| matches!(c, Change::Insert("orders", _))) > 0);
        assert!(count(&|c| matches!(c, Change::Insert("customer", _))) > 0);
    }
}
