//! Layer probes for the traced run: host rates of single layer calls,
//! measured on inputs drawn from the workloads.

use crate::{metric, secs, trace, Metric};
use hot::gravity::{m2p_span, p2p_span};
use hot::{Accel, Body, GravityConfig, TraverseStats, Tree};
use msg::{Comm, Machine};
use query::{FleetConfig, QueryIndex, QueryKind};
use std::hint::black_box;
use std::time::Instant;

/// Sources per kernel span (the interaction-list engine's spans are of
/// this order).
const SPAN: usize = 256;
/// Bytes a span kernel reads per interaction: x, y, z, m for P2P; the
/// same plus six quadrupole lanes for M2P. Computed from the layout,
/// not measured.
const P2P_BYTES: f64 = 4.0 * 8.0;
const M2P_BYTES: f64 = 10.0 * 8.0;
/// Interactions each kernel probe evaluates.
const KERNEL_INTERACTIONS: usize = 1 << 24;

/// `p2p_span` and `m2p_span` rates on spans drawn from the bodies and
/// cells of `tree`, and the walk's computed flops per byte.
pub fn gravity_kernels(tree: &Tree, walk: &TraverseStats, cfg: &GravityConfig) -> Vec<Metric> {
    let eps2 = cfg.eps * cfg.eps;
    let n = tree.bodies.len().min(SPAN);
    let col = |f: &dyn Fn(&Body) -> f64| tree.bodies[..n].iter().map(f).collect::<Vec<f64>>();
    let (xs, ys, zs, ms) = (
        col(&|b| b.pos[0]),
        col(&|b| b.pos[1]),
        col(&|b| b.pos[2]),
        col(&|b| b.mass),
    );
    let targets: Vec<[f64; 3]> = tree.bodies.iter().map(|b| b.pos).collect();
    let calls = KERNEL_INTERACTIONS / n;
    let t0 = Instant::now();
    let p2p = trace::span("gravity.p2p_span", || {
        let mut out = Accel::default();
        for i in 0..calls {
            let tp = targets[i % targets.len()];
            p2p_span(black_box(tp), &xs, &ys, &zs, &ms, eps2, &mut out);
        }
        black_box(out);
        calls * n
    }) as f64
        / secs(t0);

    let cells: Vec<&hot::Cell> = tree.cells.iter().take(SPAN).collect();
    let m = cells.len();
    let ccol = |f: &dyn Fn(&hot::Cell) -> f64| cells.iter().map(|c| f(c)).collect::<Vec<f64>>();
    let (cx, cy, cz, cm) = (
        ccol(&|c| c.mom.com[0]),
        ccol(&|c| c.mom.com[1]),
        ccol(&|c| c.mom.com[2]),
        ccol(&|c| c.mom.mass),
    );
    let q: Vec<Vec<f64>> = (0..6).map(|j| ccol(&|c| c.mom.quad[j])).collect();
    let calls = KERNEL_INTERACTIONS / m;
    let t0 = Instant::now();
    let m2p = trace::span("gravity.m2p_span", || {
        let mut out = Accel::default();
        let qs = [&q[0][..], &q[1], &q[2], &q[3], &q[4], &q[5]];
        for i in 0..calls {
            let tp = targets[i % targets.len()];
            m2p_span(black_box(tp), &cx, &cy, &cz, &cm, qs, eps2, true, &mut out);
        }
        black_box(out);
        calls * m
    }) as f64
        / secs(t0);

    let bytes = walk.p2p as f64 * P2P_BYTES + walk.m2p as f64 * M2P_BYTES;
    vec![
        metric("gravity.p2p.interactions_per_s", "1/s", p2p),
        metric("gravity.m2p.interactions_per_s", "1/s", m2p),
        metric(
            "gravity.flops_per_byte",
            "flop/B",
            walk.flops(cfg.quadrupole) / bytes,
        ),
    ]
}

/// Round trips in the ping-pong probe.
const ROUND_TRIPS: usize = 2000;
/// Payloads of 1 MiB in the stream probe.
const STREAM_PAYLOADS: usize = 64;
const STREAM_F64: usize = 1 << 17;

/// Host cost of `msg` transport between two rank threads: the mean
/// `send`/`recv` round trip of a `u64`, and the rate of 1 MiB payloads
/// through the real channels.
pub fn msg_transport() -> Vec<Metric> {
    let pingpong = trace::span("msg.pingpong", || {
        msg::run_with(Machine::space_simulator_lam(), 2, |c: &mut Comm| {
            let t0 = Instant::now();
            for i in 0..ROUND_TRIPS as u64 {
                if c.rank() == 0 {
                    c.send(1, 1, i);
                    let (_, v): (usize, u64) = c.recv(Some(1), 1);
                    assert_eq!(v, i, "ping-pong reply out of order");
                } else {
                    let (_, v): (usize, u64) = c.recv(Some(0), 1);
                    c.send(0, 1, v);
                }
            }
            secs(t0)
        })[0]
    });
    let stream = trace::span("msg.stream", || {
        msg::run_with(Machine::space_simulator_lam(), 2, |c: &mut Comm| {
            let t0 = Instant::now();
            if c.rank() == 0 {
                for _ in 0..STREAM_PAYLOADS {
                    c.send(1, 2, vec![1.0f64; STREAM_F64]);
                }
                let _: (usize, u64) = c.recv(Some(1), 3);
            } else {
                let mut sum = 0.0;
                for _ in 0..STREAM_PAYLOADS {
                    let (_, v): (usize, Vec<f64>) = c.recv(Some(0), 2);
                    sum += v[v.len() - 1];
                }
                assert_eq!(sum, STREAM_PAYLOADS as f64, "stream payload corrupted");
                c.send(0, 3, 0u64);
            }
            secs(t0)
        })[0]
    });
    let mb = (STREAM_PAYLOADS * STREAM_F64 * 8) as f64 / 1e6;
    vec![
        metric("msg.pingpong_us", "us", pingpong / ROUND_TRIPS as f64 * 1e6),
        metric("msg.stream_mb_s", "MB/s", mb / stream),
    ]
}

/// Times the traffic of `trace` is replayed through a fresh fabric.
const REPLAYS: usize = 8;

/// Host rate of `Fabric::transfer` on the traffic shape of a recorded
/// world: every send, in virtual departure order, from the sender's
/// port to the receiver's.
pub fn fabric_replay(world: &obs::WorldTrace) -> Metric {
    let mut sends: Vec<(f64, u32, u32, usize)> = world
        .ranks
        .iter()
        .flat_map(|r| {
            r.sends
                .iter()
                .map(move |s| (s.t, r.rank as u32, s.dst, s.bytes as usize))
        })
        .collect();
    sends.sort_by(|a, b| a.0.total_cmp(&b.0));
    let fabric = netsim::Fabric::space_simulator(netsim::LibraryProfile::lam_homogeneous());
    let t0 = Instant::now();
    trace::span("netsim.transfer", || {
        for _ in 0..REPLAYS {
            fabric.reset();
            for &(t, src, dst, bytes) in &sends {
                black_box(fabric.transfer(src, dst, bytes, t));
            }
        }
    });
    metric(
        "netsim.transfers_per_s",
        "1/s",
        (REPLAYS * sends.len()) as f64 / secs(t0),
    )
}

/// Index builds timed for `query.index_build_s`.
const INDEX_BUILDS: usize = 5;
/// Calls per query class in the index probe.
const INDEX_CALLS: usize = 20_000;

/// `QueryIndex` build time and per-class call rates on the live query
/// mix the fleet of `ranks` clients would issue.
pub fn query_index(
    ics: &[Body],
    fleet: &FleetConfig,
    ranks: usize,
    leaf_max: usize,
) -> Vec<Metric> {
    let mut build_s = Vec::new();
    let mut index = None;
    for _ in 0..INDEX_BUILDS {
        let t0 = Instant::now();
        index = Some(trace::span("query.index_build", || {
            QueryIndex::build(ics.to_vec(), leaf_max)
        }));
        build_s.push(secs(t0));
    }
    let index = index.expect("built above");
    let (mut points, mut regions, mut knns) = (Vec::new(), Vec::new(), Vec::new());
    for a in (0..ranks).flat_map(|r| query::fleet::schedule(fleet, r)) {
        match a.kind {
            QueryKind::Point { id } => points.push(id),
            QueryKind::Region(shape) => regions.push(shape),
            QueryKind::Knn { at, k } => knns.push((at, k as usize)),
        }
    }
    let rate = |name: &'static str, len: usize, call: &dyn Fn(usize) -> usize| {
        let t0 = Instant::now();
        trace::span(name, || {
            for i in 0..INDEX_CALLS {
                black_box(call(i % len));
            }
        });
        INDEX_CALLS as f64 / secs(t0)
    };
    let point = rate("query.index.point", points.len(), &|i| {
        usize::from(index.point(points[i]).is_some())
    });
    let region = rate("query.index.region", regions.len(), &|i| {
        index.region(&regions[i]).len()
    });
    let knn = rate("query.index.knn", knns.len(), &|i| {
        index.knn(knns[i].0, knns[i].1).len()
    });
    vec![
        metric("query.index_build_s", "s", crate::median(&build_s)),
        metric("query.index.point_per_s", "1/s", point),
        metric("query.index.region_per_s", "1/s", region),
        metric("query.index.knn_per_s", "1/s", knn),
    ]
}
