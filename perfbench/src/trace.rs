//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code: around the calls it
//! makes into each layer's public API ([`Recorder::scope`]) and inside the
//! probes that wrap the layers' public traits ([`Recorder::leaf`]). Nothing is
//! written until the run ends ([`write_jsonl`]).
//!
//! Parenthood: a scope makes itself the recorder's *current* span for its
//! duration, and every span opened meanwhile — on any thread — takes it as
//! parent and inherits its op id (the question or document being served).
//! The benchmark opens scopes only from its main thread, one at a time or
//! nested, so a leaf recorded by an executor worker thread is attributed to
//! the stage scope the main thread is blocked in.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// Question or document id the span served (inherited by leaves).
    pub op: Arc<str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    /// Innermost open scope and its op id.
    current: Mutex<(u64, Arc<str>)>,
    spans: Mutex<Vec<Span>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("recorder lock poisoned by a panicking thread")
}

impl Recorder {
    /// A disabled recorder: scopes and leaves cost one atomic load until
    /// [`Recorder::set_enabled`] turns recording on.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            current: Mutex::new((0, Arc::from(""))),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` serving `op`. Spans recorded
    /// while `f` runs become its children.
    pub fn scope<T>(&self, name: &'static str, op: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let op: Arc<str> = Arc::from(op);
        let saved = std::mem::replace(&mut *lock(&self.current), (id, Arc::clone(&op)));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let parent = saved.0;
        *lock(&self.current) = saved;
        lock(&self.spans).push(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a finished leaf span under the current scope.
    pub fn leaf(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, op) = {
            let cur = lock(&self.current);
            (cur.0, Arc::clone(&cur.1))
        };
        lock(&self.spans).push(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns,
        });
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *lock(&self.spans))
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children — parallel workers — count
/// once). Aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        run = match run {
            Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
            Some((ra, rb)) => {
                total += rb - ra;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + run.map_or(0, |(a, b)| b - a)
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    pub fn dur_ms(&self) -> f64 {
        self.dur_ns as f64 / 1e6
    }

    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// Sums count, duration and self time by span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.dur_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Writes spans as JSON lines (`id, parent, name, op, start_us, end_us,
/// self_us`).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 128);
    for (s, self_ns) in spans.iter().zip(selfs) {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
            s.id,
            s.parent,
            s.name,
            json_string(&s.op),
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            self_ns as f64 / 1e3,
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// A JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            op: Arc::from("op"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Two overlapping children (parallel workers) cover 10..50.
            span(2, 1, 10, 40),
            span(3, 1, 20, 50),
            // A disjoint child covers 60..70.
            span(4, 1, 60, 70),
            // A grandchild does not count against the root.
            span(5, 4, 62, 64),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 30, 8, 2]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span(1, 0, 100, 200),
            span(2, 1, 50, 150),
            span(3, 1, 190, 400),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn leaf_and_root_self_time_is_its_duration() {
        let spans = vec![span(1, 0, 5, 9)];
        assert_eq!(self_times(&spans), vec![4]);
    }

    #[test]
    fn scopes_nest_and_leaves_inherit_parent_and_op() {
        let rec = Recorder::new();
        assert_eq!(rec.scope("off", "q0", || 7), 7);
        assert!(rec.take().is_empty(), "a disabled scope records nothing");
        rec.set_enabled(true);
        rec.scope("outer", "q1", || {
            rec.scope("inner", "q1", || {
                let t = rec.now_ns();
                rec.leaf("leaf", t, t);
            })
        });
        let spans = rec.take();
        let by = |n: &str| spans.iter().find(|s| s.name == n).cloned().expect("span");
        assert_eq!(by("leaf").parent, by("inner").id);
        assert_eq!(by("inner").parent, by("outer").id);
        assert_eq!(by("outer").parent, 0);
        assert_eq!(&*by("leaf").op, "q1");
        assert!(by("outer").start_ns <= by("inner").start_ns);
        assert!(by("inner").end_ns <= by("outer").end_ns);
        let t = totals(&spans);
        assert_eq!(t["outer"].count, 1);
        assert!(t["outer"].self_ns <= t["outer"].dur_ns);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
