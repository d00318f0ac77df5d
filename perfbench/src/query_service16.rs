//! `query_service16`: the query service (`query::run`) on 16 ranks over
//! a small universe. The client fleet is open loop: each query is timed
//! from its scheduled arrival, in virtual time. Time-travel queries read
//! committed store generations while ticks advance the physics and
//! commit new ones. Physics is a few percent of the host time here; the
//! index, routing and merging over `msg`, and store reads carry the rest.

use crate::cosmo_sphere::BODY_BYTES;
use crate::{median, metric, probes, quantile, secs, trace, Fnv, Inject, Limit, Params, Pass};
use crate::{Size, Tally};
use hot::Body;
use msg::{Comm, Machine};
use query::{oracle, Answer, EngineConfig, EngineOutput, FleetConfig};
use std::time::Instant;

pub const RANKS: usize = 16;

pub fn n_bodies(size: Size) -> usize {
    match size {
        Size::Paper => 256,
        Size::Tiny => 48,
    }
}

/// Virtual width of one tick's arrival window. A tick's routing, answer
/// and merge phases take about 1 ms of virtual time at light load, so a
/// narrower window backs the service up at a few 1e4 queries/s.
pub const TICK_WINDOW_S: f64 = 2.0e-3;
/// Offered load of the latency measurement, per rank: 3.2e4 queries/s
/// in total, half the highest rate the service sustains.
pub const RATE_PER_RANK: f64 = 2.0e3;
/// Total offered rates tried, in order, for `sustained_qps`. The
/// service meets the client timeout at 6.4e4/s and backs up at 1.28e5/s.
pub const LADDER: [f64; 5] = [1.6e4, 3.2e4, 6.4e4, 1.28e5, 2.56e5];
/// Service runs per measured phase, at least.
const MIN_RUNS: usize = 2;

/// Ticks per service run (and per ladder rung).
fn ticks(size: Size) -> u64 {
    match size {
        Size::Paper => 64,
        Size::Tiny => 12,
    }
}

/// Windows left free of arrivals before the last tick. The last tick
/// drains whatever is left, and its queries wait for the last arrival
/// of the slowest rank; the length of a rank's arrival stream varies by
/// a few ms (about 2 ms standard deviation at the rates used here).
const DRAIN_WINDOWS: f64 = 8.0;

/// A service run of `ticks` ticks with clients arriving at `rate` per
/// rank, the arrivals ending [`DRAIN_WINDOWS`] before the last tick.
pub fn config(p: &Params, rate: f64, ticks: u64) -> EngineConfig {
    let per_rank = ((ticks as f64 - DRAIN_WINDOWS) * TICK_WINDOW_S * rate)
        .round()
        .max(1.0) as u64;
    EngineConfig {
        steps: ticks,
        tick_window_s: TICK_WINDOW_S,
        fleet: FleetConfig {
            seed: p.seed,
            rate_hz: rate,
            per_rank,
            ..FleetConfig::default()
        },
        ..EngineConfig::default()
    }
}

struct Served {
    outs: Vec<EngineOutput>,
    wall_s: f64,
    spans: Vec<trace::Span>,
}

fn serve(ics: &[Body], cfg: &EngineConfig) -> Served {
    let t0 = Instant::now();
    let (outs, spans): (Vec<EngineOutput>, Vec<Vec<trace::Span>>) =
        msg::run_with(Machine::space_simulator_lam(), RANKS, |c: &mut Comm| {
            let out = trace::span("query.run", || query::run(c, ics.to_vec(), cfg));
            (out, trace::take(c.rank() as u32))
        })
        .into_iter()
        .unzip();
    Served {
        outs,
        wall_s: secs(t0),
        spans: spans.concat(),
    }
}

/// Check every reply against `query::oracle` on the replicated state it
/// was answered from, plus the exactly-once accounting. Returns the
/// latencies in virtual ms, in arrival order.
fn check(served: &mut Served, states: &[Vec<Body>], p: &Params, tally: &mut Tally) -> Vec<f64> {
    let first = &mut served.outs[0];
    match p.inject {
        Some(Inject::WrongAnswer) => {
            if let Some(r) = first.replies.first_mut() {
                r.answer = match r.answer {
                    Answer::Missing => Answer::Ids(vec![u64::MAX]),
                    _ => Answer::Missing,
                };
            }
        }
        Some(Inject::DropQuery) => {
            first.replies.pop();
        }
        None => {}
    }
    let mut arrivals = Vec::new();
    for o in &served.outs {
        let s = o.stats;
        tally.check(s.unanswered == 0 && s.dup_replies == 0);
        tally.check(o.replies.len() as u64 == s.issued && s.answered == s.issued);
        for r in &o.replies {
            let state = &states[r.at_step.unwrap_or(r.tick) as usize];
            tally.check(r.answer == oracle::answer(state, &r.kind));
            arrivals.push((r.at_s, (r.done_s - r.at_s) * 1e3));
        }
    }
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
    arrivals.into_iter().map(|(_, l)| l).collect()
}

/// Clock-free digest of every answer, in query-id order.
fn answers_digest(outs: &[EngineOutput]) -> u64 {
    let mut replies: Vec<_> = outs.iter().flat_map(|o| o.replies.iter()).collect();
    replies.sort_by_key(|r| r.qid);
    let mut h = Fnv::default();
    for r in replies {
        h.u64(r.qid);
        h.u64(r.tick);
        h.u64(r.at_step.map_or(u64::MAX, |s| s));
        h.bytes(format!("{:?}", r.answer).as_bytes());
    }
    h.0
}

/// Restore every rank's last committed generation from its shard
/// records; the union must be the replicated state at that step.
/// Returns decoded bytes and the seconds the restores took.
fn restore_records(outs: &[EngineOutput], states: &[Vec<Body>], tally: &mut Tally) -> (f64, f64) {
    let mut union = Vec::new();
    let mut restore_s = 0.0;
    let mut step = 0;
    for o in outs {
        let records: Vec<(u64, Vec<u8>)> = o
            .commits
            .iter()
            .filter_map(|(s, bytes)| {
                let loaded: Result<(ckpt::ShardHeader, Vec<u8>), _> = ckpt::load_shard(bytes);
                loaded.ok().map(|(_, record)| (*s, record))
            })
            .collect();
        tally.check(records.len() == o.commits.len());
        let Some(&(last, _)) = records.last() else {
            continue;
        };
        step = last;
        let t0 = Instant::now();
        let bodies = trace::span("store.materialize_records", || {
            store::log::materialize_records(&records, last).and_then(|s| s.decode_all())
        });
        restore_s += secs(t0);
        match bodies {
            Ok((b, _aux)) => union.extend(b),
            Err(_) => tally.check(false),
        }
    }
    tally.check(crate::bodies_digest(&union) == crate::bodies_digest(&states[step as usize]));
    (union.len() as f64 * BODY_BYTES, restore_s)
}

/// Highest rung of [`LADDER`] (before the first that fails) whose p99
/// latency stays under the client timeout, with no late answer and no
/// growing backlog. A service that fails the lowest rung counts as a
/// failed operation.
fn sustained(p: &Params, ics: &[Body], tally: &mut Tally) -> f64 {
    let mut best = 0.0;
    for total in LADDER {
        let cfg = config(p, total / RANKS as f64, ticks(p.size));
        let states = query::replicated_states(ics.to_vec(), &cfg);
        let mut served = serve(ics, &cfg);
        let lat = check(&mut served, &states, p, tally);
        let late: u64 = served.outs.iter().map(|o| o.stats.late).sum();
        let quarter = (lat.len() / 4).max(1);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let backlog =
            mean(&lat[lat.len() - quarter..]) > mean(&lat[..quarter]) + TICK_WINDOW_S * 1e3;
        let timeout_ms = cfg.fleet.timeout_s * 1e3;
        if late > 0 || backlog || quantile(&lat, 0.99) >= timeout_ms {
            break;
        }
        best = total;
    }
    tally.check(best > 0.0);
    best
}

/// What a user pays before the first query: the universe's initial
/// conditions and a world that launches, computes initial forces,
/// commits generation 0 and builds the index. Returns its wall seconds.
fn set_up(p: &Params, tally: &mut Tally) -> f64 {
    let n = n_bodies(p.size);
    let t0 = Instant::now();
    let ics = trace::span("query.setup", || {
        let ics = cluster::golden_ics(n, p.seed);
        let mut cfg = config(p, RATE_PER_RANK, 1);
        cfg.fleet.per_rank = 0;
        serve(&ics, &cfg);
        ics
    });
    let s = secs(t0);
    tally.check(ics.len() == n);
    s
}

pub fn run(p: &Params, limit: Limit, traced: bool, min_setups: usize) -> Pass {
    let n = n_bodies(p.size);
    let mut tally = Tally::default();
    // Set-up takes milliseconds here, so time more of them: some first,
    // then one before every service run, so that they sample the whole
    // run and not only its first second.
    let mut setup_s: Vec<f64> = (0..3 * min_setups).map(|_| set_up(p, &mut tally)).collect();
    let ics = cluster::golden_ics(n, p.seed);
    let cfg = config(p, RATE_PER_RANK, ticks(p.size));
    let states = query::replicated_states(ics.clone(), &cfg);
    let mut sim = hot::integrate::Simulation::new(ics.clone(), cfg.gravity, cfg.dt);
    sim.run(cfg.steps as usize - 1);
    let flops = sim.stats.flops(cfg.gravity.quadrupole);

    let mut latency_ms = Vec::new();
    let mut walls = Vec::new();
    let mut answered = 0;
    let mut mflops = Vec::new();
    let mut first: Option<Served> = None;
    let mut digest = 0;
    let t_phase = Instant::now();
    let mut runs = 0;
    let mut rss_mb = f64::NAN;
    while limit.more(runs, secs(t_phase), MIN_RUNS) {
        setup_s.push(set_up(p, &mut tally));
        let mut served = trace::span("query.service", || serve(&ics, &cfg));
        latency_ms.extend(check(&mut served, &states, p, &mut tally));
        tally.check(served.outs.iter().all(|o| o.stats.late == 0));
        walls.push(served.wall_s);
        answered = served.outs.iter().map(|o| o.stats.answered).sum::<u64>();
        let end_s = served.outs.iter().map(|o| o.end_s).fold(0.0, f64::max);
        mflops.push(flops / end_s / 1e6);
        let d = answers_digest(&served.outs);
        if first.is_none() {
            digest = d;
            first = Some(served);
        } else {
            tally.check(d == digest);
        }
        runs += 1;
        if runs == MIN_RUNS {
            rss_mb = crate::peak_rss_mb();
        }
    }
    let first = first.expect("at least one service run");
    let (restored_bytes, restore_s) = restore_records(&first.outs, &states, &mut tally);

    let sustained_qps = if traced {
        f64::NAN
    } else {
        sustained(p, &ics, &mut tally)
    };
    // Every run answers the same queries (checked above). Whole service
    // runs are long enough to span the host's fast and slow phases, so
    // their median is the steady measure.
    let run_s = median(&walls);
    let metrics = vec![
        metric("setup_s", "s", median(&setup_s)),
        metric(
            "body_steps_per_s",
            "1/s",
            (n as u64 * cfg.steps) as f64 / run_s,
        ),
        metric("mflops_per_proc", "Mflop/s", median(&mflops)),
        metric("queries_per_s", "1/s", answered as f64 / run_s),
        metric("query_p50_ms", "ms", median(&latency_ms)),
        metric("query_p99_ms", "ms", quantile(&latency_ms, 0.99)),
        metric("sustained_qps", "1/s", sustained_qps),
    ];

    let mut layers = Vec::new();
    let mut spans = Vec::new();
    if traced {
        let mut fleet = cfg.fleet;
        fleet.n_bodies = n as u64;
        layers = probes::query_index(&ics, &fleet, RANKS, cfg.gravity.leaf_max);
        let outs = &first.outs;
        let sum = |f: &dyn Fn(&EngineOutput) -> u64| outs.iter().map(f).sum::<u64>() as f64;
        layers.extend([
            metric("query.forwarded", "count", sum(&|o| o.stats.forwarded)),
            metric(
                "query.time_travel",
                "count",
                sum(&|o| o.replies.iter().filter(|r| r.at_step.is_some()).count() as u64),
            ),
            metric(
                "query.history_decoded_peak",
                "count",
                outs.iter()
                    .map(|o| o.history_decoded_peak)
                    .max()
                    .unwrap_or(0) as f64,
            ),
            metric(
                "query.store_commit_bytes",
                "B",
                sum(&|o| o.store_commit_bytes),
            ),
            metric(
                "store.materialize_records_mb_s",
                "MB/s",
                restored_bytes / 1e6 / restore_s,
            ),
        ]);
        spans = trace::take(trace::MAIN);
        spans.extend(first.spans);
    }
    Pass {
        metrics,
        layers,
        tally,
        digest,
        steps: runs,
        wall_s: walls.iter().sum(),
        setups: setup_s.len(),
        peak_rss_mb: rss_mb,
        spans,
        notes: Vec::new(),
    }
}
