//! In-memory span recording for the traced run.
//!
//! A span covers one public call into a layer of the stack: its name
//! (the call), the layer it belongs to, start and end on a monotonic
//! clock, the span that caused it, and the round (or cut) it served.
//! Spans stay in memory while the benchmark runs and are written out
//! once at the end, so recording costs two clock reads and a `Vec`
//! push per call.
//!
//! Some calls cross several layers (a durable ingest poll admits,
//! maintains and journals in one call). The benchmark splits those by
//! replaying the same input through shallower public stacks and adds
//! the differences as **derived** child spans: they carry a measured
//! duration but no measured position, and are laid end to end from
//! the parent's start. Self time treats them like any other child.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The public call, e.g. `"IdIvm::maintain_with_changes"`.
    pub name: &'static str,
    /// The layer the call belongs to (`reldb`, `core`, `sched`, …).
    pub layer: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Round (or cut) the call served.
    pub round: u64,
    /// True when the duration was derived from a replay difference or
    /// an engine-reported time rather than timed around the call.
    pub derived: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (`None` when recording is off).
pub type Handle = Option<usize>;

/// The span recorder. When disabled every call is a no-op.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// End of the last derived child of each parent that has one.
    derived_end: HashMap<usize, u64>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            derived_end: HashMap::new(),
        }
    }

    /// Is recording on?
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, layer: &'static str, round: u64) -> Handle {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round,
            derived: false,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close a span opened by [`Tracer::enter`] (and any span opened
    /// inside it that was left open).
    pub fn exit(&mut self, h: Handle) {
        let Some(idx) = h else { return };
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == idx {
                break;
            }
        }
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        round: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let h = self.enter(name, layer, round);
        let out = f();
        self.exit(h);
        out
    }

    /// Add a derived child of `parent` lasting `dur_ns`, placed after
    /// the parent's earlier derived children (clipped to the parent).
    pub fn derived(
        &mut self,
        parent: Handle,
        name: &'static str,
        layer: &'static str,
        dur_ns: u64,
    ) {
        let Some(p) = parent else { return };
        let (p_start, p_end, round) = {
            let s = &self.spans[p];
            (s.start_ns, s.end_ns, s.round)
        };
        let start_ns = self.derived_end.get(&p).copied().unwrap_or(p_start);
        let end_ns = (start_ns + dur_ns).min(p_end.max(start_ns));
        self.derived_end.insert(p, end_ns);
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent: Some(p),
            round,
            derived: true,
        });
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines.
    ///
    /// # Errors
    /// I/O failures.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"round\": {}, \"derived\": {}}}",
                s.name, s.layer, s.start_ns, s.end_ns, s.round, s.derived
            )?;
        }
        f.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let lo = s.start_ns.max(ps.start_ns);
            let hi = s.end_ns.min(ps.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (lo, hi) in kids {
                match cur {
                    Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
                    Some((clo, chi)) => {
                        covered += chi - clo;
                        cur = Some((lo, hi));
                    }
                    None => cur = Some((lo, hi)),
                }
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "call",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            round: 0,
            derived: false,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span("core", 10, 35, None)];
        assert_eq!(self_times(&spans), vec![25]);
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let spans = vec![
            span("bench", 0, 100, None),
            span("reldb", 10, 30, Some(0)),
            span("core", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 50]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two threads' worth of children covering [10, 60) together.
        let spans = vec![
            span("sched", 0, 100, None),
            span("core", 10, 50, Some(0)),
            span("core", 30, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("sched", 10, 20, None), span("core", 0, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = vec![
            span("bench", 0, 100, None),
            span("sched", 0, 80, Some(0)),
            span("core", 0, 60, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 60]);
    }

    #[test]
    fn recorder_nests_and_derives() {
        let mut t = Tracer::new(true);
        let outer = t.enter("Durable::poll_ingest", "durability", 3);
        let inner = t.enter("inner", "ingest", 3);
        t.exit(inner);
        t.exit(outer);
        let total = t.spans()[0].dur_ns();
        t.derived(outer, "replay", "core", total / 2);
        t.derived(outer, "replay", "reldb", u64::MAX / 4);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[2].derived && s[3].derived);
        // The second derived child starts where the first ended and is
        // clipped to the parent's end.
        assert_eq!(s[3].start_ns, s[2].end_ns);
        assert_eq!(s[3].end_ns, s[0].end_ns);
        assert!(s.iter().all(|x| x.round == 3));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        let h = t.enter("x", "core", 0);
        assert_eq!(h, None);
        t.exit(h);
        t.derived(h, "y", "core", 5);
        assert_eq!(t.time("z", "core", 0, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
