//! Host-time spans recorded from the benchmark's own files, around the
//! calls it makes into each layer.
//!
//! Every thread keeps its spans in a thread-local buffer, so recording
//! takes no shared lock. A rank thread drains its buffer with [`take`]
//! before it returns; the main thread drains its own at the end. When
//! tracing is off, [`span`] is one relaxed atomic load and a call.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// One closed span on one thread ("lane": a rank, or [`MAIN`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub lane: u32,
    pub id: u32,
    pub parent: Option<u32>,
    /// Host nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Lane of the benchmark's main thread.
pub const MAIN: u32 = u32::MAX;

#[derive(Default)]
struct Buffer {
    spans: Vec<Span>,
    open: Vec<u32>,
    next: u32,
}

thread_local! {
    static BUF: RefCell<Buffer> = RefCell::new(Buffer::default());
}

/// Switch recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Run `f` inside a span named `name`, nested under whatever span this
/// thread has open.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let (id, parent) = BUF.with(|b| {
        let mut b = b.borrow_mut();
        let id = b.next;
        b.next += 1;
        let parent = b.open.last().copied();
        b.open.push(id);
        (id, parent)
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.open.pop();
        b.spans.push(Span {
            name,
            lane: MAIN,
            id,
            parent,
            start_ns,
            end_ns,
        });
    });
    out
}

/// Drain this thread's closed spans, stamping them with `lane`. Span
/// ids keep counting, so spans drained at different times stay distinct.
pub fn take(lane: u32) -> Vec<Span> {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let mut spans = std::mem::take(&mut b.spans);
        for s in &mut spans {
            s.lane = lane;
        }
        spans
    })
}

/// Time per span path (`parent/child` names from the lane's root).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PathTime {
    pub count: u64,
    pub total_s: f64,
    /// Total minus the time covered by child spans.
    pub self_s: f64,
}

/// Aggregate spans by their name path. Child spans on one lane nest
/// strictly inside their parent, so a parent's self time is its
/// duration minus the sum of its children's.
pub fn by_path(spans: &[Span]) -> BTreeMap<String, PathTime> {
    let index: HashMap<(u32, u32), &Span> = spans.iter().map(|s| ((s.lane, s.id), s)).collect();
    let mut child_s: HashMap<(u32, u32), f64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_s.entry((s.lane, p)).or_default() += s.secs();
        }
    }
    let path = |s: &Span| {
        let mut names = vec![s.name];
        let mut cur = s.parent;
        while let Some(p) = cur {
            let ps = index[&(s.lane, p)];
            names.push(ps.name);
            cur = ps.parent;
        }
        names.reverse();
        names.join("/")
    };
    let mut out: BTreeMap<String, PathTime> = BTreeMap::new();
    for s in spans {
        let e = out.entry(path(s)).or_default();
        e.count += 1;
        e.total_s += s.secs();
        e.self_s += s.secs() - child_s.get(&(s.lane, s.id)).copied().unwrap_or(0.0);
    }
    out
}

/// Write spans as tab-separated `lane id parent name start_ns end_ns`.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "lane\tid\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        let lane = if s.lane == MAIN {
            "main".to_string()
        } else {
            format!("rank{}", s.lane)
        };
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{lane}\t{}\t{parent}\t{}\t{}\t{}",
            s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "step",
                lane: 0,
                id: 0,
                parent: None,
                start_ns: 0,
                end_ns: 10_000,
            },
            Span {
                name: "walk",
                lane: 0,
                id: 1,
                parent: Some(0),
                start_ns: 1_000,
                end_ns: 7_000,
            },
        ];
        let p = by_path(&spans);
        assert_eq!(p["step"].count, 1);
        assert!((p["step"].self_s - 4e-6).abs() < 1e-12);
        assert!((p["step/walk"].self_s - 6e-6).abs() < 1e-12);
    }
}
