//! Two-clock workload benchmark for the Space Simulator reproduction.
//!
//! Four workloads drive the repository's layers through their public
//! functions only. An untraced run ([`end_to_end`]) measures what a user
//! of one workload pays; a traced run ([`ledger`]) records host-time
//! spans around every layer call on all four workloads and reports the
//! per-layer ledger. Every run checks its outputs against a reference;
//! a failed check is counted, never hidden. See `README.md` for the
//! layer → metric → workload map.

pub mod cosmo_sphere;
pub mod probes;
pub mod query_service16;
pub mod sph_collapse;
pub mod trace;
pub mod treecode_world16;

use std::time::Instant;

/// Workload names, in the order the ledger runs them.
pub const WORKLOADS: [&str; 4] = [
    "cosmo_sphere",
    "treecode_world16",
    "query_service16",
    "sph_collapse",
];

/// End-to-end metrics `(name, unit)`: every untraced run prints all of
/// them. How each is defined per workload is tabled in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("body_steps_per_s", "1/s"),
    ("mflops_per_proc", "Mflop/s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("sustained_qps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`: every traced run prints all of them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hot.tree_build.bodies_per_s", "1/s"),
    ("hot.walk.interactions_per_s", "1/s"),
    ("hot.walk.interactions", "count"),
    ("hot.walk.share", "ratio"),
    ("hot.parallel.step_s", "s"),
    ("hot.parallel.host_overhead", "ratio"),
    ("hot.parallel.interactions", "count"),
    ("hot.parallel.requests", "count"),
    ("hot.parallel.requests_spread", "ratio"),
    ("hot.decompose.vs", "s"),
    ("hot.walk.vs", "s"),
    ("gravity.p2p.interactions_per_s", "1/s"),
    ("gravity.m2p.interactions_per_s", "1/s"),
    ("gravity.flops_per_byte", "flop/B"),
    ("cosmo.ics_s", "s"),
    ("msg.sends", "count"),
    ("msg.bytes", "B"),
    ("msg.wait_vs", "s"),
    ("msg.compute_vs", "s"),
    ("msg.pingpong_us", "us"),
    ("msg.stream_mb_s", "MB/s"),
    ("netsim.transfers_per_s", "1/s"),
    ("net.bytes", "B"),
    ("obs.trace_overhead.cosmo_sphere", "ratio"),
    ("obs.trace_overhead.treecode_world16", "ratio"),
    ("obs.trace_overhead.query_service16", "ratio"),
    ("obs.trace_overhead.sph_collapse", "ratio"),
    ("obs.cp_work_share", "ratio"),
    ("obs.cp_wire_share", "ratio"),
    ("store.commit_mb_s", "MB/s"),
    ("store.commit_share", "ratio"),
    ("store.materialize_mb_s", "MB/s"),
    ("store.materialize_records_mb_s", "MB/s"),
    ("store.incremental_ratio", "ratio"),
    ("query.index_build_s", "s"),
    ("query.index.point_per_s", "1/s"),
    ("query.index.region_per_s", "1/s"),
    ("query.index.knn_per_s", "1/s"),
    ("query.forwarded", "count"),
    ("query.time_travel", "count"),
    ("query.history_decoded_peak", "count"),
    ("query.store_commit_bytes", "B"),
    ("sph.neighbors_s", "s"),
    ("sph.density_s", "s"),
    ("sph.hydro_s", "s"),
    ("sph.gravity_s", "s"),
    ("sph.neutrino_s", "s"),
];

/// Problem sizes: the benchmark's own, or a tiny one for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Paper,
    Tiny,
}

/// A deliberately wrong result, fed to the checks by the tests to prove
/// that they count failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Corrupt one checked answer before it is compared.
    WrongAnswer,
    /// Lose one query reply before the replies are checked.
    DropQuery,
}

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub size: Size,
    pub inject: Option<Inject>,
}

/// How long a workload's measured phase runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// At least this many wall seconds (and each workload's minimum).
    Time(f64),
    /// Exactly this many steps (service runs for `query_service16`).
    Steps(usize),
}

impl Limit {
    /// Whether a phase that has done `done` steps in `elapsed` seconds
    /// should go on, given it must do at least `min` steps.
    pub fn more(&self, done: usize, elapsed: f64, min: usize) -> bool {
        match *self {
            Limit::Time(s) => done < min || elapsed < s,
            Limit::Steps(n) => done < n,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// Correctness accounting: operations attempted and how many failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one pass of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// End-to-end metrics except `peak_rss_mb` (added per process).
    pub metrics: Vec<Metric>,
    /// Per-layer metrics; filled by traced passes only.
    pub layers: Vec<Metric>,
    pub tally: Tally,
    /// Digest of the physics (or the answers) the pass computed,
    /// independent of wall and virtual clocks.
    pub digest: u64,
    /// Steps done in the measured phase ([`Limit::Steps`] replays it).
    pub steps: usize,
    /// Wall seconds of the measured phase.
    pub wall_s: f64,
    /// Set-ups done (the `setup_s` median is over these).
    pub setups: usize,
    /// Peak resident set in MB, read when the pass's first `min_setups`
    /// repetitions had ended: the same work on every run. Read at the
    /// end instead, it would creep up with the number of repetitions
    /// the host's speed lets a run fit in (the allocator's footprint
    /// grows in steps of a few MB now and then).
    pub peak_rss_mb: f64,
    /// Spans of a traced pass, from every thread it ran on.
    pub spans: Vec<trace::Span>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

/// The result of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Spans of each traced workload.
    pub spans: Vec<(&'static str, Vec<trace::Span>)>,
}

/// Run one workload untraced and report its end-to-end metrics.
pub fn end_to_end(workload: &str, p: &Params, seconds: f64) -> Outcome {
    trace::set_enabled(false);
    let pass = run_pass(workload, p, Limit::Time(seconds), false, MIN_SETUPS);
    let mut metrics = pass.metrics.clone();
    metrics.push(metric("peak_rss_mb", "MB", pass.peak_rss_mb));
    Outcome {
        notes: vec![format!(
            "{workload}: {} steps in {:.3} s measured, {} set-ups, failed_frac {} ({} of {})",
            pass.steps,
            pass.wall_s,
            pass.setups,
            pass.tally.failed_frac(),
            pass.tally.failed,
            pass.tally.attempted
        )],
        metrics,
        tally: pass.tally,
        spans: Vec::new(),
    }
}

/// Set-ups per untraced run, at least; `setup_s` is their median.
pub const MIN_SETUPS: usize = 3;

/// Run the per-layer ledger: each workload once untraced and once
/// traced over the same steps. Their physics digests must agree, and
/// the wall ratio of the two is the workload's tracing overhead.
pub fn ledger(p: &Params, seconds: f64) -> Outcome {
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    let mut spans = Vec::new();
    let share = seconds / (2.0 * WORKLOADS.len() as f64);
    for w in WORKLOADS {
        trace::set_enabled(false);
        let base = run_pass(w, p, Limit::Time(share), false, 1);
        trace::set_enabled(true);
        let traced = run_pass(w, p, Limit::Steps(base.steps), true, 1);
        trace::set_enabled(false);
        tally.add(base.tally);
        tally.add(traced.tally);
        tally.check(traced.digest == base.digest);
        let per_step = |x: &Pass| x.wall_s / x.steps.max(1) as f64;
        metrics.push(metric(
            &format!("obs.trace_overhead.{w}"),
            "ratio",
            per_step(&traced) / per_step(&base) - 1.0,
        ));
        metrics.extend(traced.layers);
        notes.extend(traced.notes);
        spans.push((w, traced.spans));
        notes.push(format!(
            "{w}: digest untraced {:016x} traced {:016x} over {} steps",
            base.digest, traced.digest, base.steps
        ));
    }
    notes.push(format!(
        "failed_frac {} ({} of {})",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    ));
    Outcome {
        metrics,
        tally,
        notes,
        spans,
    }
}

fn run_pass(workload: &str, p: &Params, limit: Limit, traced: bool, setups: usize) -> Pass {
    match workload {
        "cosmo_sphere" => cosmo_sphere::run(p, limit, traced, setups),
        "treecode_world16" => treecode_world16::run(p, limit, traced, setups),
        "query_service16" => query_service16::run(p, limit, traced, setups),
        "sph_collapse" => sph_collapse::run(p, limit, traced, setups),
        other => panic!("unknown workload {other:?}"),
    }
}

/// Every `(name, unit)` in `want` must appear in `got` exactly once and
/// nothing else may; returns the first discrepancy.
pub fn check_names(got: &[Metric], want: &[(&str, &str)]) -> Result<(), String> {
    for (name, unit) in want {
        let n = got.iter().filter(|m| m.name == *name).count();
        if n != 1 {
            return Err(format!("metric {name} reported {n} times"));
        }
        let m = got.iter().find(|m| m.name == *name).expect("counted above");
        if m.unit != *unit {
            return Err(format!("metric {name} has unit {} not {unit}", m.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {name} is {}", m.value));
        }
    }
    if let Some(m) = got.iter().find(|m| !want.iter().any(|(n, _)| *n == m.name)) {
        return Err(format!("unexpected metric {}", m.name));
    }
    Ok(())
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.tally.failed == 0,
        o.tally.attempted,
        o.tally.failed,
        metrics.join(", ")
    )
}

/// JSON has no NaN or infinity; those become `null` so the line still
/// parses (and `check_names` has already flagged them).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

/// One line recording where and how the numbers were made: git
/// revision, source digest and `rustc -V` (passed in by `run.py`, which
/// can see them), logical CPUs, build profile, set-ups per pass and a
/// host fingerprint.
pub fn provenance(workload: &str, seed: u64, seconds: f64, traced: bool) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let field = |file: &str, key: &str| {
        std::fs::read_to_string(file)
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with(key))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|v| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string())
    };
    let host = format!(
        "{}; {} memory",
        field("/proc/cpuinfo", "model name"),
        field("/proc/meminfo", "MemTotal")
    );
    let setups = if traced { 1 } else { MIN_SETUPS };
    format!(
        "provenance {{\"git_rev\": {:?}, \"source_sha256\": {:?}, \"rustc\": {:?}, \
         \"nproc\": {nproc}, \
         \"profile\": \"{profile}\", \"workload\": {workload:?}, \"trace\": {}, \
         \"seed\": {seed}, \"seconds\": {seconds}, \"min_setups\": {setups}, \
         \"host\": {host:?}}}",
        env("PERFBENCH_GIT_REV"),
        env("PERFBENCH_SOURCE"),
        env("PERFBENCH_RUSTC"),
        u8::from(traced),
    )
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` at `q` in `[0, 1]`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let x = q * (s.len() - 1) as f64;
    let lo = x.floor() as usize;
    let hi = x.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a, for clock-free digests of physics state and answers.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// Digest of a body set, independent of body order.
pub fn bodies_digest(bodies: &[hot::Body]) -> u64 {
    let mut sorted: Vec<&hot::Body> = bodies.iter().collect();
    sorted.sort_by_key(|b| b.id);
    let mut h = Fnv::default();
    for b in sorted {
        h.u64(b.id);
        for d in 0..3 {
            h.f64(b.pos[d]);
            h.f64(b.vel[d]);
        }
        h.f64(b.mass);
    }
    h.0
}

/// Per step index, the fastest time any episode took for that step.
/// Every episode repeats the same steps of the same problem, and other
/// tenants of a shared host can only slow a step down (the host swings
/// between fast and slow phases a few seconds long), so the fastest
/// repetition of each step is the steadiest measure of its cost.
pub fn per_step_min(episodes: &[Vec<f64>]) -> Vec<f64> {
    let steps = episodes.iter().map(Vec::len).min().unwrap_or(0);
    (0..steps)
        .map(|k| episodes.iter().map(|e| e[k]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Per step index, the median time of that step over the episodes.
pub fn per_step_median(episodes: &[Vec<f64>]) -> Vec<f64> {
    let steps = episodes.iter().map(Vec::len).min().unwrap_or(0);
    (0..steps)
        .map(|k| median(&episodes.iter().map(|e| e[k]).collect::<Vec<f64>>()))
        .collect()
}

/// Step-as-request metrics for the stepping workloads: a user asks for
/// the next step and waits for it. `step_s` holds the wall time of each
/// step of an episode; `latency_ms` holds step times on the clock the
/// workload reports (see `README.md`).
pub fn step_request_metrics(step_s: &[f64], latency_ms: &[f64]) -> Vec<Metric> {
    let p99 = quantile(latency_ms, 0.99);
    vec![
        metric(
            "queries_per_s",
            "1/s",
            step_s.len() as f64 / step_s.iter().sum::<f64>(),
        ),
        metric("query_p50_ms", "ms", median(latency_ms)),
        metric("query_p99_ms", "ms", p99),
        metric("sustained_qps", "1/s", 1e3 / p99),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn per_step_min_takes_each_steps_fastest_repetition() {
        let eps = vec![vec![3.0, 1.0], vec![2.0, 5.0], vec![4.0, 2.0]];
        assert_eq!(per_step_min(&eps), vec![2.0, 1.0]);
    }

    #[test]
    fn per_step_median_takes_each_steps_middle_repetition() {
        let eps = vec![vec![3.0, 1.0], vec![2.0, 9.0], vec![4.0, 5.0]];
        assert_eq!(per_step_median(&eps), vec![3.0, 5.0]);
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.check(true);
        t.check(false);
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.failed_frac(), 0.5);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let o = Outcome {
            metrics: vec![metric("setup_s", "s", 0.5)],
            tally: Tally {
                attempted: 3,
                failed: 0,
            },
            notes: Vec::new(),
            spans: Vec::new(),
        };
        assert_eq!(
            result_json(&o),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 5e-1, \"unit\": \"s\"}}}"
        );
    }
}
