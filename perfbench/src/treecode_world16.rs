//! `treecode_world16`: the standard problem through the distributed HOT
//! walk (`hot::parallel`) on 16 ranks of one modeled switch module. The
//! benchmark applies the KDK update to each rank's returned shard. `msg`
//! transport, ABM batching and `netsim` reservations dominate the host
//! time, so a messaging or scheduler change shows here and not in
//! `cosmo_sphere`. The 16 rank threads belong to the simulated machine.

use crate::cosmo_sphere::{self, kick, kick_drift};
use crate::{median, metric, probes, secs, trace, Limit, Metric, Params, Pass, Size, Tally};
use hot::parallel::{parallel_accelerations, ParallelConfig};
use hot::{Accel, Body};
use msg::{Comm, Machine};
use std::collections::HashMap;
use std::time::Instant;

pub const RANKS: usize = 16;
/// KDK steps each world runs after its initial forces.
pub const STEPS_PER_WORLD: usize = 8;

/// `standard_problem(2000, ..)` yields about 2,200 bodies: ~140 per
/// rank, so a 10 s run times ~100 distributed steps. The 17,269-body
/// problem of `cosmo_sphere` takes ~1 s of host time per step here.
pub fn n_target(size: Size) -> usize {
    match size {
        Size::Paper => 2000,
        Size::Tiny => 300,
    }
}

/// Bodies of this run's problem.
pub fn ics(p: &Params) -> Vec<Body> {
    cosmo::sphere::standard_problem(n_target(p.size), cosmo_sphere::DELTA_RMS, p.seed)
}
/// Stated bound on the rms relative force difference against the
/// 1-rank walk: 16 ranks build different trees (domain-local cells and
/// rank-ordered moment merges), so the forces agree to MAC accuracy,
/// not bit for bit.
pub const ONE_RANK_RMS_BOUND: f64 = 1e-3;

fn config(latency_hiding: bool) -> ParallelConfig {
    ParallelConfig {
        gravity: cosmo_sphere::gravity(),
        latency_hiding,
        ..ParallelConfig::default()
    }
}

/// One KDK step on one rank, as the rank saw it.
#[derive(Debug, Clone, Copy, Default)]
struct StepRec {
    /// Wall seconds of the whole step, and inside
    /// `parallel_accelerations`.
    step_s: f64,
    pa_s: f64,
    /// Virtual seconds the step advanced this rank's clock.
    vt: f64,
    flops: f64,
    requests: u64,
    sends: u64,
    bytes: u64,
    wait_vs: f64,
    compute_vs: f64,
    retransmits: u64,
}

struct RankOut {
    /// Wall seconds from world launch to the end of the initial forces.
    setup_s: f64,
    /// Initial forces by body id.
    init: Vec<(u64, Accel)>,
    init_interactions: u64,
    init_requests: u64,
    steps: Vec<StepRec>,
    bodies: Vec<Body>,
    spans: Vec<trace::Span>,
}

/// This rank's strided share of the initial conditions.
fn strided(ics: &[Body], c: &Comm) -> Vec<Body> {
    ics.iter()
        .skip(c.rank())
        .step_by(c.size())
        .copied()
        .collect()
}

/// Launch a world, compute initial forces, then run `steps` KDK steps.
fn world(
    ics: &[Body],
    ranks: usize,
    steps: usize,
    cfg: &ParallelConfig,
    machine: Machine,
    observed: bool,
) -> (Vec<RankOut>, Option<obs::WorldTrace>) {
    let t0 = Instant::now();
    let body = |c: &mut Comm| {
        let r = trace::span("hot.parallel", || {
            parallel_accelerations(c, strided(ics, c), cfg)
        });
        let setup_s = secs(t0);
        let init = r
            .bodies
            .iter()
            .zip(&r.accel)
            .map(|(b, a)| (b.id, *a))
            .collect();
        let (init_interactions, init_requests) = (r.stats.interactions(), r.requests);
        let (mut bodies, mut acc) = (r.bodies, r.accel);
        let mut recs = Vec::with_capacity(steps);
        for _ in 0..steps {
            let (s0, v0, t_step) = (c.stats(), c.time(), Instant::now());
            kick_drift(&mut bodies, &acc);
            let t = Instant::now();
            let r = trace::span("hot.parallel", || parallel_accelerations(c, bodies, cfg));
            let pa_s = secs(t);
            bodies = r.bodies;
            acc = r.accel;
            kick(&mut bodies, &acc);
            let s1 = c.stats();
            recs.push(StepRec {
                step_s: secs(t_step),
                pa_s,
                vt: c.time() - v0,
                flops: r.stats.flops(cfg.gravity.quadrupole),
                requests: r.requests,
                sends: s1.sends - s0.sends,
                bytes: s1.bytes_sent - s0.bytes_sent,
                wait_vs: s1.wait_s - s0.wait_s,
                compute_vs: s1.compute_s - s0.compute_s,
                retransmits: s1.fault.retransmits - s0.fault.retransmits,
            });
        }
        RankOut {
            setup_s,
            init,
            init_interactions,
            init_requests,
            steps: recs,
            bodies,
            spans: trace::take(c.rank() as u32),
        }
    };
    if observed {
        let (outs, tr) = msg::run_observed(machine, ranks, body);
        (outs, Some(tr))
    } else {
        (msg::run_with(machine, ranks, body), None)
    }
}

fn max_of(outs: &[RankOut], f: impl Fn(&RankOut) -> f64) -> f64 {
    outs.iter().map(f).fold(f64::NEG_INFINITY, f64::max)
}

fn init_forces(outs: &[RankOut]) -> HashMap<u64, Accel> {
    outs.iter().flat_map(|o| o.init.iter().copied()).collect()
}

pub fn run(p: &Params, limit: Limit, traced: bool, min_setups: usize) -> Pass {
    let cfg = config(true);
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut step_wall_s = Vec::new();
    let mut step_vt_ms = Vec::new();
    let mut mflops = Vec::new();
    let mut digests = Vec::new();
    let mut first: Option<Vec<RankOut>> = None;
    let mut observed = None;
    let mut fabric = None;
    let mut n = 0;
    let mut rss_mb = f64::NAN;
    let t_phase = Instant::now();
    while setup_s.len() < min_setups
        || limit.more(STEPS_PER_WORLD * setup_s.len(), secs(t_phase), 0)
    {
        let t0 = Instant::now();
        let ics = trace::span("cosmo.ics", || ics(p));
        let ics_s = secs(t0);
        n = ics.len();
        let machine = Machine::space_simulator_lam();
        let world_fabric = machine.fabric.clone();
        let (outs, tr) = trace::span("treecode.world", || {
            world(&ics, RANKS, STEPS_PER_WORLD, &cfg, machine, traced)
        });
        let setup = max_of(&outs, |o| o.setup_s);
        setup_s.push(ics_s + setup);
        if setup_s.len() == min_setups {
            rss_mb = crate::peak_rss_mb();
        }
        step_wall_s.push(
            (0..STEPS_PER_WORLD)
                .map(|k| max_of(&outs, |o| o.steps[k].step_s))
                .collect::<Vec<f64>>(),
        );
        let mut vt_ms = Vec::new();
        for k in 0..STEPS_PER_WORLD {
            let vt = max_of(&outs, |o| o.steps[k].vt);
            let flops: f64 = outs.iter().map(|o| o.steps[k].flops).sum();
            vt_ms.push(vt * 1e3);
            mflops.push(flops / (RANKS as f64 * vt) / 1e6);
        }
        step_vt_ms.push(vt_ms);
        tally.check(outs.iter().all(|o| {
            o.init
                .iter()
                .all(|(_, a)| a.acc.iter().all(|v| v.is_finite()))
        }));
        // A fault-free world must never retransmit.
        tally.check(
            outs.iter()
                .all(|o| o.steps.iter().all(|s| s.retransmits == 0)),
        );
        let finals: Vec<Body> = outs.iter().flat_map(|o| o.bodies.iter().copied()).collect();
        digests.push(crate::bodies_digest(&finals));
        if first.is_none() {
            first = Some(outs);
            observed = tr;
            fabric = Some(world_fabric.stats());
        }
    }
    let first = first.expect("at least one world");
    // Every world starts from the same bodies: the forces do not depend
    // on how the message schedule interleaved.
    for d in &digests[1..] {
        tally.check(*d == digests[0]);
    }
    if !traced {
        check_references(p, &first, &mut tally);
    }

    let steps = STEPS_PER_WORLD * setup_s.len();
    // Host time per step: its median over the worlds. Now and then a
    // world's 16 threads fall into a schedule on the host's few cores
    // that runs ~1.5x faster than usual, so the fastest world would
    // depend on whether a run caught one. Virtual step times, which the
    // host's speed does not set, are pooled over every world.
    let step_s = crate::per_step_median(&step_wall_s);
    let vt_ms: Vec<f64> = step_vt_ms.concat();
    let mut metrics = vec![
        metric("setup_s", "s", median(&setup_s)),
        metric(
            "body_steps_per_s",
            "1/s",
            (n * STEPS_PER_WORLD) as f64 / step_s.iter().sum::<f64>(),
        ),
        metric("mflops_per_proc", "Mflop/s", median(&mflops)),
    ];
    metrics.extend(crate::step_request_metrics(&step_s, &vt_ms));

    let mut layers = Vec::new();
    let mut spans = Vec::new();
    let mut notes = Vec::new();
    if traced {
        let world = observed.expect("traced worlds are observed");
        let fabric = fabric.expect("at least one world");
        let note;
        (layers, note) = ledger_rows(p, &first, &world, &fabric);
        notes.push(note);
        spans = trace::take(trace::MAIN);
        spans.extend(first.iter().flat_map(|o| o.spans.iter().cloned()));
    }
    Pass {
        metrics,
        layers,
        tally,
        digest: digests[0],
        steps,
        wall_s: step_wall_s.iter().flatten().sum(),
        setups: setup_s.len(),
        peak_rss_mb: rss_mb,
        spans,
        notes,
    }
}

/// Initial forces against two references: the blocking walk on 16 ranks
/// must agree bit for bit (the deferred walk only reorders fetches), and
/// the 1-rank walk within [`ONE_RANK_RMS_BOUND`].
fn check_references(p: &Params, outs: &[RankOut], tally: &mut Tally) {
    let ics = ics(p);
    let got = init_forces(outs);
    let blocking = init_forces(
        &world(
            &ics,
            RANKS,
            0,
            &config(false),
            Machine::space_simulator_lam(),
            false,
        )
        .0,
    );
    for (id, a) in &got {
        let b = blocking.get(id);
        tally.check(b.is_some_and(|b| {
            a.pot.to_bits() == b.pot.to_bits()
                && (0..3).all(|d| a.acc[d].to_bits() == b.acc[d].to_bits())
        }));
    }
    let one = init_forces(
        &world(
            &ics,
            1,
            0,
            &config(true),
            Machine::space_simulator_lam(),
            false,
        )
        .0,
    );
    let (mut num, mut den) = (0.0, 0.0);
    for (id, a) in &got {
        let Some(b) = one.get(id) else {
            tally.check(false);
            continue;
        };
        num += (0..3).map(|d| (a.acc[d] - b.acc[d]).powi(2)).sum::<f64>();
        den += b.norm().powi(2);
    }
    tally.check((num / den).sqrt() <= ONE_RANK_RMS_BOUND);
    tally.check(got.len() == ics.len());
}

fn ledger_rows(
    p: &Params,
    outs: &[RankOut],
    world: &obs::WorldTrace,
    fabric: &netsim::fabric::FabricStats,
) -> (Vec<Metric>, String) {
    let steps = outs[0].steps.len();
    let calls = (steps + 1) as f64;
    let per_step = |f: &dyn Fn(&StepRec) -> f64| -> Vec<f64> {
        (0..steps)
            .map(|k| outs.iter().map(|o| f(&o.steps[k])).sum::<f64>())
            .collect()
    };
    let step_s: Vec<f64> = (0..steps)
        .map(|k| max_of(outs, |o| o.steps[k].pa_s))
        .collect();
    let parallel_s = median(&step_s);

    let ics = ics(p);
    let mut single_s = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        trace::span("treecode.single_process", || {
            cosmo_sphere::forces(ics.clone(), &cosmo_sphere::gravity())
        });
        single_s.push(secs(t0));
    }

    let mut requests = per_step(&|s| s.requests as f64);
    requests.push(outs.iter().map(|o| o.init_requests as f64).sum());
    let req_median = median(&requests);
    let req_spread =
        (crate::quantile(&requests, 1.0) - crate::quantile(&requests, 0.0)) / req_median;

    let span_vs = |name: &str| -> f64 {
        let total: f64 = world
            .ranks
            .iter()
            .flat_map(|r| r.spans.iter())
            .filter(|s| s.name == name)
            .map(|s| s.t1 - s.t0)
            .sum();
        total / (world.ranks.len() as f64 * calls)
    };
    let per_rank_step = |v: Vec<f64>| v.iter().sum::<f64>() / (steps * outs.len()) as f64;
    let cp = obs::critical_path(world);

    let mut rows = vec![
        metric("hot.parallel.step_s", "s", parallel_s),
        metric(
            "hot.parallel.host_overhead",
            "ratio",
            parallel_s / median(&single_s),
        ),
        metric(
            "hot.parallel.interactions",
            "count",
            outs.iter().map(|o| o.init_interactions as f64).sum(),
        ),
        metric("hot.parallel.requests", "count", req_median),
        metric("hot.parallel.requests_spread", "ratio", req_spread),
        metric("hot.decompose.vs", "s", span_vs("hot.decompose")),
        metric("hot.walk.vs", "s", span_vs("hot.walk")),
        metric("msg.sends", "count", median(&per_step(&|s| s.sends as f64))),
        metric("msg.bytes", "B", median(&per_step(&|s| s.bytes as f64))),
        metric("msg.wait_vs", "s", per_rank_step(per_step(&|s| s.wait_vs))),
        metric(
            "msg.compute_vs",
            "s",
            per_rank_step(per_step(&|s| s.compute_vs)),
        ),
        metric("net.bytes", "B", fabric.bytes as f64 / calls),
        metric("obs.cp_work_share", "ratio", cp.work_s() / cp.total()),
        metric("obs.cp_wire_share", "ratio", cp.wire_total_s() / cp.total()),
        probes::fabric_replay(world),
    ];
    rows.extend(probes::msg_transport());
    // Exactly zero in this model, so reported on a note line rather than
    // as metrics: the local tree build is not charged virtual time, 16
    // ranks on one switch module never queue, and a fault-free world
    // never retransmits (a check fails if it does).
    let note = format!(
        "treecode_world16: hot.tree_build.vs {} s, net.queued_vs {} s, msg.retransmits {}",
        span_vs("hot.tree_build"),
        fabric.queued_s / calls,
        per_step(&|s| s.retransmits as f64).iter().sum::<f64>()
    );
    (rows, note)
}
