//! `cosmo_sphere`: the paper's Table 6 "standard simulation problem",
//! evolved on one process with KDK steps through the group walk. It
//! commits a snapshot-store generation every few steps and ends by
//! restoring the last one. `msg`, `netsim` and `query` do nothing here,
//! so it is the control for any messaging change.

use crate::{median, metric, probes, secs, trace, Limit, Metric, Params, Pass, Size, Tally};
use hot::traverse::group_accelerations;
use hot::{Accel, Body, GravityConfig, TraverseStats, Tree};
use std::time::Instant;
use store::{GenerationLog, StoreConfig};

/// `standard_problem(16000, ..)` yields 17,269 bodies.
pub fn n_target(size: Size) -> usize {
    match size {
        Size::Paper => 16_000,
        Size::Tiny => 300,
    }
}

/// ZA displacement amplitude in lattice units.
pub const DELTA_RMS: f64 = 0.3;
pub const DT: f64 = 0.01;
/// A store generation is committed after every `COMMIT_EVERY`th step.
pub const COMMIT_EVERY: usize = 4;
/// Steps after each set-up: enough for a full frame and a delta frame.
/// Each run repeats such episodes from the same initial state, so every
/// run times the same steps however fast the host is.
pub const STEPS_PER_EPISODE: usize = 2 * COMMIT_EVERY;
/// Stated bound on the rms relative force error of the θ = 0.6
/// quadrupole walk against direct summation.
pub const FORCE_RMS_BOUND: f64 = 1e-2;

/// Gravity shared by `cosmo_sphere` and `treecode_world16`, so the
/// distributed walk's host overhead compares like with like.
pub fn gravity() -> GravityConfig {
    GravityConfig {
        eps: 0.02,
        ..GravityConfig::default()
    }
}

/// Bodies of the standard problem for this run's seed.
pub fn ics(p: &Params) -> Vec<Body> {
    cosmo::sphere::standard_problem(n_target(p.size), DELTA_RMS, p.seed)
}

/// One force evaluation: tree build plus group walk.
pub fn forces(bodies: Vec<Body>, cfg: &GravityConfig) -> (Tree, Vec<Accel>, TraverseStats) {
    let tree = trace::span("hot.tree_build", || Tree::build(bodies, cfg.leaf_max));
    let (acc, stats) = trace::span("hot.walk", || group_accelerations(&tree, cfg));
    (tree, acc, stats)
}

/// Size in memory of one committed or restored body.
pub const BODY_BYTES: f64 = std::mem::size_of::<Body>() as f64;

/// One set-up followed by [`STEPS_PER_EPISODE`] KDK steps, committing
/// a generation every [`COMMIT_EVERY`] steps and restoring the last.
struct Episode {
    setup_s: f64,
    step_s: Vec<f64>,
    flops: f64,
    /// Interactions of the steps (not of the initial forces).
    interactions: u64,
    init_stats: TraverseStats,
    n: usize,
    digest: u64,
    /// Kept for the first episode only, for the ledger.
    log: Option<GenerationLog>,
}

/// The first episode also checks the initial forces against direct
/// summation and keeps its store log.
fn episode(p: &Params, cfg: &GravityConfig, first: bool, tally: &mut Tally) -> Episode {
    let t0 = Instant::now();
    let (tree, mut acc, init_stats) = trace::span("cosmo.setup", || {
        let bodies = trace::span("cosmo.ics", || ics(p));
        forces(bodies, cfg)
    });
    let setup_s = secs(t0);
    if first {
        tally.check(forces_match_direct(&tree.bodies, &acc, cfg));
    }
    let n = tree.bodies.len();
    let mut bodies = tree.bodies;
    let mut log = GenerationLog::new(StoreConfig::default(), 0);
    let mut committed = None;
    let (mut step_s, mut flops, mut interactions) = (Vec::new(), 0.0, 0);
    for step in 0..STEPS_PER_EPISODE {
        let t0 = Instant::now();
        let (b, a, stats, record) = trace::span("cosmo.step", || {
            kick_drift(&mut bodies, &acc);
            let (tree, a, stats) = forces(std::mem::take(&mut bodies), cfg);
            let mut b = tree.bodies;
            kick(&mut b, &a);
            let record = (step % COMMIT_EVERY == 0)
                .then(|| trace::span("store.commit", || log.commit(step as u64, &b, &[]).len()));
            (b, a, stats, record)
        });
        step_s.push(secs(t0));
        tally.check(a.iter().all(|x| x.acc.iter().all(|v| v.is_finite())));
        flops += stats.flops(cfg.quadrupole);
        interactions += stats.interactions();
        if record.is_some() {
            committed = Some((step as u64, b.clone()));
        }
        bodies = b;
        acc = a;
    }
    let (last_step, last_bodies) = committed.expect("step 0 commits");
    let restored = trace::span("store.materialize", || {
        log.materialize(last_step)
            .and_then(|snap| snap.decode_all())
            .map(|(b, _aux)| b)
    });
    tally.check(restored.is_ok_and(|r| same_bodies(&r, &last_bodies)));
    Episode {
        setup_s,
        step_s,
        flops,
        interactions,
        init_stats,
        n,
        digest: crate::bodies_digest(&bodies),
        log: first.then_some(log),
    }
}

pub fn run(p: &Params, limit: Limit, traced: bool, min_setups: usize) -> Pass {
    let cfg = gravity();
    let mut tally = Tally::default();
    let mut eps: Vec<Episode> = Vec::new();
    let mut rss_mb = f64::NAN;
    let t_phase = Instant::now();
    while eps.len() < min_setups || limit.more(eps.len() * STEPS_PER_EPISODE, secs(t_phase), 0) {
        eps.push(episode(p, &cfg, eps.is_empty(), &mut tally));
        if eps.len() == min_setups {
            rss_mb = crate::peak_rss_mb();
        }
    }
    // Every episode evolves the same bodies the same way.
    for e in &eps[1..] {
        tally.check(e.digest == eps[0].digest);
    }
    let setup_s: Vec<f64> = eps.iter().map(|e| e.setup_s).collect();
    let episode_s: Vec<f64> = eps.iter().map(|e| e.step_s.iter().sum()).collect();
    let step_s = crate::per_step_min(&eps.iter().map(|e| e.step_s.clone()).collect::<Vec<_>>());
    let wall_s: f64 = step_s.iter().sum();
    let latency_ms: Vec<f64> = step_s.iter().map(|s| s * 1e3).collect();
    let (n, steps) = (eps[0].n, eps.len() * STEPS_PER_EPISODE);
    let mut metrics = vec![
        metric("setup_s", "s", median(&setup_s)),
        metric(
            "body_steps_per_s",
            "1/s",
            (n * STEPS_PER_EPISODE) as f64 / wall_s,
        ),
        // Every episode does the same work.
        metric("mflops_per_proc", "Mflop/s", eps[0].flops / wall_s / 1e6),
    ];
    metrics.extend(crate::step_request_metrics(&step_s, &latency_ms));

    let mut layers = Vec::new();
    let mut spans = Vec::new();
    if traced {
        let interactions = eps.iter().map(|e| e.interactions).sum();
        spans = trace::take(trace::MAIN);
        let log = eps[0]
            .log
            .as_ref()
            .expect("the first episode keeps its log");
        layers = ledger_rows(&spans, n, interactions, &eps[0].init_stats, log);
        let (tree, _, init) = trace::span("cosmo.probe", || forces(ics(p), &cfg));
        layers.extend(probes::gravity_kernels(&tree, &init, &cfg));
        spans.extend(trace::take(trace::MAIN));
    }
    Pass {
        metrics,
        layers,
        tally,
        digest: eps[0].digest,
        steps,
        wall_s: episode_s.iter().sum(),
        setups: eps.len(),
        peak_rss_mb: rss_mb,
        spans,
        notes: Vec::new(),
    }
}

fn ledger_rows(
    spans: &[trace::Span],
    n: usize,
    interactions: u64,
    init_stats: &TraverseStats,
    log: &GenerationLog,
) -> Vec<Metric> {
    let paths = trace::by_path(spans);
    let at = |p: &str| paths.get(p).copied().unwrap_or_default();
    let build_setup = at("cosmo.setup/hot.tree_build");
    let build_step = at("cosmo.step/hot.tree_build");
    let walk_setup = at("cosmo.setup/hot.walk");
    let walk_step = at("cosmo.step/hot.walk");
    let step = at("cosmo.step");
    let commit = at("cosmo.step/store.commit");
    let builds = (build_setup.count + build_step.count) as f64;
    let restore = at("store.materialize");
    let ics = at("cosmo.setup/cosmo.ics");
    vec![
        metric(
            "hot.tree_build.bodies_per_s",
            "1/s",
            builds * n as f64 / (build_setup.self_s + build_step.self_s),
        ),
        metric(
            "hot.walk.interactions_per_s",
            "1/s",
            // Every set-up walks the same initial state.
            (interactions + walk_setup.count * init_stats.interactions()) as f64
                / (walk_setup.self_s + walk_step.self_s),
        ),
        metric(
            "hot.walk.interactions",
            "count",
            init_stats.interactions() as f64,
        ),
        metric("hot.walk.share", "ratio", walk_step.self_s / step.total_s),
        metric("cosmo.ics_s", "s", ics.total_s / ics.count as f64),
        metric(
            "store.commit_mb_s",
            "MB/s",
            commit.count as f64 * n as f64 * BODY_BYTES / 1e6 / commit.self_s,
        ),
        metric("store.commit_share", "ratio", commit.self_s / step.total_s),
        metric(
            "store.materialize_mb_s",
            "MB/s",
            restore.count as f64 * n as f64 * BODY_BYTES / 1e6 / restore.total_s,
        ),
        metric(
            "store.incremental_ratio",
            "ratio",
            log.full_bytes as f64 / log.commit_bytes as f64,
        ),
    ]
}

/// First half-kick and drift of a KDK step.
pub fn kick_drift(bodies: &mut [Body], acc: &[Accel]) {
    for (b, a) in bodies.iter_mut().zip(acc) {
        for d in 0..3 {
            b.vel[d] += 0.5 * DT * a.acc[d];
            b.pos[d] += DT * b.vel[d];
        }
    }
}

/// Closing half-kick of a KDK step.
pub fn kick(bodies: &mut [Body], acc: &[Accel]) {
    for (b, a) in bodies.iter_mut().zip(acc) {
        for d in 0..3 {
            b.vel[d] += 0.5 * DT * a.acc[d];
        }
    }
}

/// Tree forces on the initial state against `hot::direct_accelerations`.
fn forces_match_direct(bodies: &[Body], acc: &[Accel], cfg: &GravityConfig) -> bool {
    let exact = hot::direct_accelerations(bodies, cfg.eps);
    let mut num = 0.0;
    let mut den = 0.0;
    for (t, e) in acc.iter().zip(&exact) {
        for d in 0..3 {
            num += (t.acc[d] - e.acc[d]).powi(2);
        }
        den += e.norm().powi(2);
    }
    (num / den).sqrt() < FORCE_RMS_BOUND
}

/// Bit-identical body sets (compared in id order).
fn same_bodies(a: &[Body], b: &[Body]) -> bool {
    let sorted = |v: &[Body]| {
        let mut v = v.to_vec();
        v.sort_by_key(|x| x.id);
        v
    };
    let (a, b) = (sorted(a), sorted(b));
    a.len() == b.len()
        && a.iter().zip(&b).all(|(x, y)| {
            x.id == y.id
                && x.mass.to_bits() == y.mass.to_bits()
                && x.work.to_bits() == y.work.to_bits()
                && (0..3).all(|d| {
                    x.pos[d].to_bits() == y.pos[d].to_bits()
                        && x.vel[d].to_bits() == y.vel[d].to_bits()
                })
        })
}
