//! `sph_collapse`: the rotating core collapse of Figure 8, stepped
//! through `SphSimulation::step`. It is the only workload that runs the
//! `sph` layer (neighbour tree, density, EOS, hydro, neutrino FLD), and
//! it uses `hot`'s per-body walk for gravity where the others use the
//! group walk, so a walk change that helps one path and hurts the other
//! shows.

use crate::{median, metric, secs, trace, Fnv, Limit, Params, Pass, Size, Tally};
use sph::collapse::{rotating_core, CollapseSetup};
use sph::density::compute_density;
use sph::forces::{add_gravity, apply_eos, hydro_forces};
use sph::neighbors::NeighborTree;
use sph::neutrino::neutrino_transport;
use sph::SphSimulation;
use std::time::Instant;

pub fn n_particles(size: Size) -> usize {
    match size {
        Size::Paper => 4000,
        Size::Tiny => 300,
    }
}

/// Steps after each set-up. Each run repeats such episodes from the
/// same initial state, so every run times the same steps.
pub const STEPS_PER_EPISODE: usize = 8;
/// Flops per particle per step in the model `sph::parallel` charges the
/// virtual clock with: ~120 neighbours at ~250 flops each.
pub const FLOPS_PER_PARTICLE_STEP: f64 = 120.0 * 250.0;
/// Stated bound on the relative drift of total angular momentum over a
/// run. Tree gravity does not conserve it exactly.
pub const ANGULAR_MOMENTUM_DRIFT_BOUND: f64 = 1e-2;

fn setup(p: &Params) -> SphSimulation {
    let (parts, cfg) = rotating_core(&CollapseSetup {
        n_particles: n_particles(p.size),
        seed: p.seed,
        ..CollapseSetup::default()
    });
    SphSimulation::new(parts, cfg)
}

/// `SphSimulation::step`, spelled out through the crate's public
/// functions so each layer call gets its own span. The digest check in
/// the ledger proves it computes the same physics.
fn traced_step(sim: &mut SphSimulation) {
    let dt = sim.cfl_dt();
    for p in &mut sim.parts {
        for d in 0..3 {
            p.vel[d] += 0.5 * dt * p.acc[d];
            p.pos[d] += dt * p.vel[d];
        }
        p.u = (p.u + 0.5 * dt * p.du_dt).max(0.0);
        p.enu = (p.enu + 0.5 * dt * p.denu_dt).max(0.0);
    }
    let cfg = sim.cfg;
    let parts = &mut sim.parts;
    let nt = trace::span("sph.neighbors", || NeighborTree::build(parts));
    trace::span("sph.density", || compute_density(parts, &nt));
    trace::span("sph.eos", || apply_eos(parts, &cfg.eos));
    trace::span("sph.hydro", || hydro_forces(parts, &nt, &cfg.viscosity));
    if let Some(theta) = cfg.gravity_theta {
        let eps = 0.5 * parts.iter().map(|p| p.h).fold(f64::INFINITY, f64::min);
        trace::span("sph.gravity", || {
            add_gravity(parts, &nt, theta, eps.max(1e-6))
        });
    }
    if let Some(nu) = &cfg.neutrino {
        trace::span("sph.neutrino", || neutrino_transport(parts, &nt, nu));
    }
    for p in &mut sim.parts {
        for d in 0..3 {
            p.vel[d] += 0.5 * dt * p.acc[d];
        }
        p.u = (p.u + 0.5 * dt * p.du_dt).max(0.0);
        p.enu = (p.enu + 0.5 * dt * p.denu_dt).max(0.0);
    }
    sim.time += dt;
    sim.steps += 1;
}

fn digest(sim: &SphSimulation) -> u64 {
    let mut h = Fnv::default();
    for p in &sim.parts {
        h.u64(p.id);
        for d in 0..3 {
            h.f64(p.pos[d]);
            h.f64(p.vel[d]);
        }
        h.f64(p.u);
        h.f64(p.enu);
        h.f64(p.rho);
    }
    h.f64(sim.time);
    h.0
}

fn norm(v: [f64; 3]) -> f64 {
    (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()
}

/// One set-up followed by [`STEPS_PER_EPISODE`] steps, checked for
/// exact mass conservation, bounded angular-momentum drift and finite
/// state. Returns the set-up time, the step times and the digest.
fn episode(p: &Params, traced: bool, tally: &mut Tally) -> (f64, Vec<f64>, usize, u64) {
    let t0 = Instant::now();
    let mut sim = trace::span("sph.setup", || setup(p));
    let setup_s = secs(t0);
    let mass0: f64 = sim.parts.iter().map(|q| q.mass).sum();
    let l0 = sim.angular_momentum();
    let mut step_s = Vec::with_capacity(STEPS_PER_EPISODE);
    for _ in 0..STEPS_PER_EPISODE {
        let t0 = Instant::now();
        if traced {
            trace::span("sph.step", || traced_step(&mut sim));
        } else {
            sim.step();
        }
        step_s.push(secs(t0));
    }
    let mass1: f64 = sim.parts.iter().map(|q| q.mass).sum();
    tally.check(mass1.to_bits() == mass0.to_bits());
    let l1 = sim.angular_momentum();
    let dl = norm([l1[0] - l0[0], l1[1] - l0[1], l1[2] - l0[2]]);
    tally.check(dl <= ANGULAR_MOMENTUM_DRIFT_BOUND * norm(l0));
    tally.check(
        sim.parts
            .iter()
            .all(|q| q.rho.is_finite() && q.u.is_finite()),
    );
    (setup_s, step_s, sim.parts.len(), digest(&sim))
}

pub fn run(p: &Params, limit: Limit, traced: bool, min_setups: usize) -> Pass {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut latency_ms: Vec<Vec<f64>> = Vec::new();
    let mut digests = Vec::new();
    let mut n = 0;
    let mut rss_mb = f64::NAN;
    let t_phase = Instant::now();
    while setup_s.len() < min_setups
        || limit.more(setup_s.len() * STEPS_PER_EPISODE, secs(t_phase), 0)
    {
        let (s, steps, parts, d) = episode(p, traced, &mut tally);
        setup_s.push(s);
        latency_ms.push(steps.iter().map(|s| s * 1e3).collect());
        digests.push(d);
        n = parts;
        if setup_s.len() == min_setups {
            rss_mb = crate::peak_rss_mb();
        }
    }
    for d in &digests[1..] {
        tally.check(*d == digests[0]);
    }
    let episode_s: Vec<f64> = latency_ms
        .iter()
        .map(|e| e.iter().sum::<f64>() / 1e3)
        .collect();
    let step_ms = crate::per_step_min(&latency_ms);
    let step_s: Vec<f64> = step_ms.iter().map(|ms| ms / 1e3).collect();
    let steps = setup_s.len() * STEPS_PER_EPISODE;
    let body_steps = (n * STEPS_PER_EPISODE) as f64 / step_s.iter().sum::<f64>();
    let mut metrics = vec![
        metric("setup_s", "s", median(&setup_s)),
        metric("body_steps_per_s", "1/s", body_steps),
        metric(
            "mflops_per_proc",
            "Mflop/s",
            body_steps * FLOPS_PER_PARTICLE_STEP / 1e6,
        ),
    ];
    metrics.extend(crate::step_request_metrics(&step_s, &step_ms));

    let mut layers = Vec::new();
    let mut spans = Vec::new();
    if traced {
        spans = trace::take(trace::MAIN);
        let paths = trace::by_path(&spans);
        let per_step = |name: &str| {
            paths
                .get(&format!("sph.step/{name}"))
                .map_or(0.0, |t| t.self_s / steps as f64)
        };
        layers = vec![
            metric("sph.neighbors_s", "s", per_step("sph.neighbors")),
            metric("sph.density_s", "s", per_step("sph.density")),
            metric("sph.hydro_s", "s", per_step("sph.hydro")),
            metric("sph.gravity_s", "s", per_step("sph.gravity")),
            metric("sph.neutrino_s", "s", per_step("sph.neutrino")),
        ];
    }
    Pass {
        metrics,
        layers,
        tally,
        digest: digests[0],
        steps,
        wall_s: episode_s.iter().sum(),
        setups: setup_s.len(),
        peak_rss_mb: rss_mb,
        spans,
        notes: Vec::new(),
    }
}
