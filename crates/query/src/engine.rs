//! The distributed query engine: simulation-as-a-service over `msg`.
//!
//! Every rank runs the *same* replicated KDK simulation (tree build and
//! force walk are deterministic and thread-count independent, so the
//! per-rank universes stay bit-identical without any state exchange) and
//! owns a contiguous stripe of the Morton-sorted body array. Queries are
//! the wire traffic: each simulation tick batches the arrivals that fell
//! into its window and runs a three-phase protocol with a *fixed message
//! count* — one (possibly empty) payload per ordered rank pair per phase
//! — so the message structure is schedule-invariant and the simcheck
//! structure oracle can pin it.
//!
//! * **Route.** The origin sends each query to its responders. Point
//!   lookups go to the single rank that owned the id in the *previous*
//!   ownership epoch (the map a real client-facing frontend would have
//!   cached); region / kNN / time-travel queries go to every rank.
//! * **Forward.** Bodies drift, the Morton re-sort moves them across
//!   stripe boundaries, so a point query can land on a stale owner
//!   mid-migration. The stale owner forwards it to the current owner
//!   (counted as `query.forwarded`) instead of dropping it — the
//!   regression the tests pin.
//! * **Reply + merge.** Responders answer against the shared
//!   [`QueryIndex`] restricted to their owned span (or their committed
//!   checkpoint shard for time-travel) and send partial replies home,
//!   where they are merged under the total orders of [`crate::wire`] —
//!   the merged answer is bit-identical to a serial scan of the whole
//!   universe, which the brute-force oracle tests quantify over.
//!
//! Counters (`query.issued/answered/forwarded/late/not_found`) are pure
//! functions of the seed and config, never of the delivery schedule;
//! latency lands only in the `query.latency_s` histogram, which the
//! schedule digest deliberately excludes.

use crate::fleet::{self, FleetConfig};
use crate::index::QueryIndex;
use crate::past;
use crate::wire::{
    forward_tag, hit_order, reply_tag, route_tag, Answer, Hit, Query, QueryKind, Reply, ReplyBatch,
};
use ckpt::ShardHeader;
use hot::integrate::Simulation;
use hot::tree::Body;
use hot::GravityConfig;
use msg::comm::Comm;
use std::collections::HashMap;
use std::ops::Range;
use store::{GenerationLog, SnapshotCache, StoreConfig};

/// Engine knobs. `steps` simulation ticks are run; arrivals are batched
/// into deterministic windows of `tick_window_s` (the last tick drains
/// everything left, so every issued query is answered).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    pub gravity: GravityConfig,
    pub dt: f64,
    pub steps: u64,
    /// Commit a checkpoint generation every this many ticks (tick 0
    /// always commits, so time-travel queries always have a target).
    pub checkpoint_every: u64,
    /// Virtual-time width of one tick's arrival window.
    pub tick_window_s: f64,
    /// How many *materialized* generations may live decoded in RAM at
    /// once. Committed history itself lives in the snapshot store
    /// (full + dirty-cell delta frames); this only bounds the cache in
    /// front of it.
    pub history_cache: usize,
    pub fleet: FleetConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            gravity: GravityConfig::default(),
            dt: 0.01,
            steps: 4,
            checkpoint_every: 2,
            tick_window_s: 4.0e-5,
            history_cache: 2,
            fleet: FleetConfig::default(),
        }
    }
}

/// Per-rank protocol accounting. Every field is deterministic in
/// `(ics, config)` — schedule changes may reorder deliveries but never
/// change these totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Queries this rank's clients issued.
    pub issued: u64,
    /// Merged answers delivered back to this rank's clients.
    pub answered: u64,
    /// Point queries this rank re-routed because the cached owner map
    /// was one epoch stale.
    pub forwarded: u64,
    /// Answers delivered later than the client timeout.
    pub late: u64,
    /// Final answers that were `Missing` (unknown id).
    pub not_found: u64,
    /// Partial replies for unknown or already-resolved queries — any
    /// nonzero value is a protocol bug (at-most-once violated).
    pub dup_replies: u64,
    /// Queries that reached merge with fewer partials than expected —
    /// any nonzero value is a protocol bug (at-least-once violated).
    pub unanswered: u64,
    /// Time-travel queries answered with the typed
    /// [`Answer::NotCommitted`] miss (generation never committed).
    pub time_travel_miss: u64,
}

/// One merged answer, with everything a correctness oracle needs to
/// recompute it from scratch.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedReply {
    pub qid: u64,
    /// Tick the query was batched into (live queries were answered
    /// against the replicated state after `tick` physics steps).
    pub tick: u64,
    /// `Some(step)` for time-travel queries: the checkpoint generation
    /// answered from.
    pub at_step: Option<u64>,
    pub kind: QueryKind,
    pub answer: Answer,
    pub at_s: f64,
    pub done_s: f64,
}

/// What one rank's engine run produced.
pub struct EngineOutput {
    pub stats: QueryStats,
    /// Merged answers for this rank's own clients, in issue order.
    pub replies: Vec<RecordedReply>,
    /// `(step, shard bytes)` for every checkpoint generation this rank
    /// committed — a crc-framed [`ShardHeader`] wrapping a snapshot
    /// store record (full frame, or dirty-cell delta against the
    /// previous commit). The on-disk form time-travel queries are
    /// served from.
    pub commits: Vec<(u64, Vec<u8>)>,
    /// Most materialized generations ever decoded in RAM at once —
    /// the memory-ceiling number the long-run test pins against
    /// [`EngineConfig::history_cache`].
    pub history_decoded_peak: usize,
    /// Generations committed to the store over the run.
    pub history_generations: usize,
    /// Bytes actually committed to the store (deltas where possible).
    pub store_commit_bytes: u64,
    /// What the same commits would have cost as full snapshots.
    pub store_full_bytes: u64,
    /// Virtual time when the run finished.
    pub end_s: f64,
}

/// This rank's contiguous slice of the Morton-sorted body array —
/// ownership *is* a Morton key range, so these spans are what turn a
/// tree walk into a Morton-range cell walk.
pub fn stripe(n: usize, size: usize, r: usize) -> Range<usize> {
    let base = n / size;
    let rem = n % size;
    let start = r * base + r.min(rem);
    start..start + base + usize::from(r < rem)
}

/// `(body id, owner rank)` sorted by id, for one ownership epoch.
fn owner_map(bodies: &[Body], size: usize) -> Vec<(u64, u32)> {
    let n = bodies.len();
    let mut m = Vec::with_capacity(n);
    for r in 0..size {
        for b in &bodies[stripe(n, size, r)] {
            m.push((b.id, r as u32));
        }
    }
    m.sort_unstable();
    m
}

fn lookup(map: &[(u64, u32)], id: u64) -> Option<usize> {
    map.binary_search_by_key(&id, |e| e.0)
        .ok()
        .map(|i| map[i].1 as usize)
}

/// Where a point query for `id` goes under `map`; ids nobody owns are
/// deterministically assigned a fallback rank that answers `Missing`.
fn point_owner(map: &[(u64, u32)], id: u64, size: usize) -> usize {
    lookup(map, id).unwrap_or((id % size as u64) as usize)
}

/// Merge partial replies into the final answer under the wire total
/// orders. The partition of responders is unobservable: the result
/// equals a serial evaluation over the concatenated shards.
fn merge(kind: &QueryKind, parts: Vec<Answer>) -> Answer {
    // A typed time-travel miss from any responder is authoritative:
    // the commit schedule is global, so one miss means every shard
    // missed, and the merged answer must stay distinguishable from an
    // empty result.
    if parts.iter().any(|a| matches!(a, Answer::NotCommitted)) {
        return Answer::NotCommitted;
    }
    match kind {
        QueryKind::Point { .. } => parts
            .into_iter()
            .find(|a| !matches!(a, Answer::Missing))
            .unwrap_or(Answer::Missing),
        QueryKind::Region(_) => {
            let mut ids: Vec<u64> = Vec::new();
            for p in parts {
                if let Answer::Ids(part) = p {
                    ids.extend(part);
                }
            }
            ids.sort_unstable();
            Answer::Ids(ids)
        }
        QueryKind::Knn { k, .. } => {
            let mut hits: Vec<Hit> = Vec::new();
            for p in parts {
                if let Answer::Neighbors(part) = p {
                    hits.extend(part);
                }
            }
            hits.sort_by(hit_order);
            hits.truncate(*k as usize);
            Answer::Neighbors(hits)
        }
    }
}

struct Pending {
    query: Query,
    at_s: f64,
    expected: usize,
    parts: Vec<Answer>,
}

/// Run the query engine on this rank. `ics` must be identical on every
/// rank (the replicated-physics contract); ownership and answering are
/// partitioned internally.
pub fn run(comm: &mut Comm, ics: Vec<Body>, cfg: &EngineConfig) -> EngineOutput {
    let me = comm.rank();
    let size = comm.size();
    assert!(cfg.steps > 0 && cfg.checkpoint_every > 0);

    let mut sim = Simulation::new(ics, cfg.gravity, cfg.dt);
    let n = sim.bodies.len();

    let mut fleet_cfg = cfg.fleet;
    if fleet_cfg.n_bodies == 0 {
        fleet_cfg.n_bodies = n as u64;
    }
    let arrivals = fleet::schedule(&fleet_cfg, me);
    let mut next_arrival = 0usize;

    let mut stats = QueryStats::default();
    let mut replies = Vec::new();
    let mut commits = Vec::new();
    // Committed history lives in the store as full + dirty-cell delta
    // frames; time-travel reads materialize through a bounded LRU, so
    // decoded-generation memory stays flat however long the run gets.
    let mut log = GenerationLog::new(StoreConfig::default(), 0);
    let mut cache = SnapshotCache::new(cfg.history_cache);
    let mut last_commit: Option<u64> = None;

    let mut cur_owner = owner_map(&sim.bodies, size);
    let mut prev_owner;
    let mut prev_interactions = sim.stats.interactions();

    for t in 0..cfg.steps {
        // -- Physics: advance the replicated universe and charge the
        // force work to the virtual clock.
        if t > 0 {
            comm.span_enter("query.physics");
            sim.step();
            let inter = sim.stats.interactions();
            comm.compute_eff(
                (inter - prev_interactions) as f64 * 30.0,
                (n * 64) as f64,
                0.8,
            );
            prev_interactions = inter;
            comm.span_exit("query.physics");
            prev_owner = std::mem::replace(&mut cur_owner, owner_map(&sim.bodies, size));
        } else {
            prev_owner = cur_owner.clone();
        }
        let span = stripe(n, size, me);

        // -- Commit: write this rank's stripe into the snapshot store
        // (full frame first, dirty-cell deltas after), then frame the
        // record as this rank's crc-checked checkpoint shard.
        if t % cfg.checkpoint_every == 0 {
            let record = log.commit(t, &sim.bodies[span.clone()], &[]).to_vec();
            let hdr = ShardHeader {
                rank: me as u32,
                of_ranks: size as u32,
                step: t,
                time: sim.time,
            };
            comm.obs_count("query.commits", 1);
            comm.obs_count("store.commit_bytes", record.len() as u64);
            commits.push((t, ckpt::save_shard(&hdr, &record)));
            last_commit = Some(t);
        }

        // The physics tick's index, rebuilt from the already-Morton-
        // sorted bodies, serves every live query this tick.
        let index = QueryIndex::build(sim.bodies.clone(), cfg.gravity.leaf_max);

        // -- Issue: drain this tick's arrival window (the last tick
        // drains everything, so the run never strands a query).
        let last_tick = t + 1 == cfg.steps;
        let cutoff = if last_tick {
            f64::INFINITY
        } else {
            (t + 1) as f64 * cfg.tick_window_s
        };
        // Dispatch happens when the window closes: clients issued up to
        // `cutoff` in virtual time, so the clock must reach it before
        // any of them can be answered.
        let window_close = if last_tick {
            arrivals.last().map(|a| a.at_s).unwrap_or(0.0)
        } else {
            cutoff
        };
        if comm.time() < window_close {
            comm.elapse(window_close - comm.time());
        }

        let mut outbound: Vec<Vec<Query>> = vec![Vec::new(); size];
        let mut pending: HashMap<u64, Pending> = HashMap::new();
        let mut tick_qids: Vec<u64> = Vec::new();
        while next_arrival < arrivals.len() && arrivals[next_arrival].at_s <= cutoff {
            let a = arrivals[next_arrival];
            let qid = ((me as u64) << 32) | next_arrival as u64;
            next_arrival += 1;
            // An `uncommitted` client asks for the generation *after*
            // the newest commit — a step no rank has committed at
            // answer time, so every partial must be the typed miss.
            let at_step = if a.uncommitted {
                Some(last_commit.unwrap_or(0) + 1)
            } else if a.past {
                last_commit
            } else {
                None
            };
            let q = Query {
                qid,
                origin: me as u32,
                at_step,
                kind: a.kind,
            };
            stats.issued += 1;
            comm.obs_count("query.issued", 1);
            let expected = match (q.at_step, &q.kind) {
                // A live point lookup has exactly one responder; every
                // other class fans out to all ranks.
                (None, QueryKind::Point { .. }) => 1,
                _ => size,
            };
            pending.insert(
                qid,
                Pending {
                    query: q,
                    at_s: a.at_s,
                    expected,
                    parts: Vec::new(),
                },
            );
            tick_qids.push(qid);
            match (q.at_step, &q.kind) {
                (None, QueryKind::Point { id }) => {
                    outbound[point_owner(&prev_owner, *id, size)].push(q);
                }
                _ => {
                    for bucket in outbound.iter_mut() {
                        bucket.push(q);
                    }
                }
            }
        }

        // -- Route: one query vector per ordered rank pair.
        comm.span_enter("query.route");
        let mut inbox = std::mem::take(&mut outbound[me]);
        for (d, bucket) in outbound.iter_mut().enumerate() {
            if d != me {
                comm.send(d, route_tag(t), std::mem::take(bucket));
            }
        }
        for _ in 1..size {
            let (_, qs): (usize, Vec<Query>) = comm.recv(None, route_tag(t));
            inbox.extend(qs);
        }

        // -- Forward: a point query that raced a migration lands on the
        // previous owner, which re-routes it to the current owner.
        let mut fwd_out: Vec<Vec<Query>> = vec![Vec::new(); size];
        let mut to_answer: Vec<Query> = Vec::new();
        for q in inbox {
            match (q.at_step, &q.kind) {
                (None, QueryKind::Point { id }) => {
                    let owner = point_owner(&cur_owner, *id, size);
                    if owner == me {
                        to_answer.push(q);
                    } else {
                        stats.forwarded += 1;
                        comm.obs_count("query.forwarded", 1);
                        fwd_out[owner].push(q);
                    }
                }
                _ => to_answer.push(q),
            }
        }
        for (d, bucket) in fwd_out.iter_mut().enumerate() {
            if d != me {
                comm.send(d, forward_tag(t), std::mem::take(bucket));
            }
        }
        for _ in 1..size {
            let (_, qs): (usize, Vec<Query>) = comm.recv(None, forward_tag(t));
            to_answer.extend(qs);
        }
        comm.span_exit("query.route");

        // -- Answer: live queries against the owned span of the shared
        // index, time-travel queries against the committed shard.
        comm.span_enter("query.answer");
        let mut reply_out: Vec<ReplyBatch> = vec![ReplyBatch::default(); size];
        for q in &to_answer {
            let answer = match q.at_step {
                None => match &q.kind {
                    QueryKind::Point { id } => match index.point(*id) {
                        Some(hit) => Answer::Point(hit),
                        None => Answer::Missing,
                    },
                    QueryKind::Region(shape) => Answer::Ids(index.region_in(shape, span.clone())),
                    QueryKind::Knn { at, k } => {
                        Answer::Neighbors(index.knn_in(*at, *k as usize, span.clone()))
                    }
                },
                Some(s) if log.contains(s) => {
                    // Materialize through the bounded LRU, then read
                    // only the cells the footer index cannot rule out.
                    let snap = cache
                        .get_or_try_insert(s, || log.materialize(s))
                        .expect("own committed generation materializes");
                    let (answer, reads) = past::answer(snap, &q.kind);
                    comm.obs_count("store.cells_read", reads.cells_read);
                    comm.obs_count("store.cells_pruned", reads.cells_pruned);
                    answer
                }
                // The generation was never committed: a typed miss, so
                // the client can tell "no such generation" apart from
                // a genuinely empty region or an unknown id.
                Some(_) => Answer::NotCommitted,
            };
            reply_out[q.origin as usize]
                .replies
                .push(Reply { qid: q.qid, answer });
        }
        // Charge index-walk work for the batch.
        comm.compute_eff(
            to_answer.len() as f64 * 2.0e4 + 1.0e3,
            to_answer.len() as f64 * 256.0,
            0.6,
        );
        comm.span_exit("query.answer");

        // -- Reply + merge: exactly one batch per ordered rank pair.
        comm.span_enter("query.merge");
        let mut batches = vec![std::mem::take(&mut reply_out[me])];
        for (d, batch) in reply_out.iter_mut().enumerate() {
            if d != me {
                comm.send(d, reply_tag(t), std::mem::take(batch));
            }
        }
        for _ in 1..size {
            let (_, batch): (usize, ReplyBatch) = comm.recv(None, reply_tag(t));
            batches.push(batch);
        }
        for batch in batches {
            for r in batch.replies {
                match pending.get_mut(&r.qid) {
                    Some(p) => p.parts.push(r.answer),
                    None => stats.dup_replies += 1,
                }
            }
        }
        let done = comm.time();
        for qid in tick_qids {
            let p = pending.remove(&qid).expect("issued this tick");
            if p.parts.len() < p.expected {
                stats.unanswered += 1;
            } else if p.parts.len() > p.expected {
                stats.dup_replies += 1;
            }
            let answer = merge(&p.query.kind, p.parts);
            stats.answered += 1;
            comm.obs_count("query.answered", 1);
            if matches!(answer, Answer::Missing) {
                stats.not_found += 1;
                comm.obs_count("query.not_found", 1);
            }
            if matches!(answer, Answer::NotCommitted) {
                stats.time_travel_miss += 1;
                comm.obs_count("query.time_travel_miss", 1);
            }
            let lat = done - p.at_s;
            comm.obs_observe("query.latency_s", lat);
            if lat > fleet_cfg.timeout_s {
                stats.late += 1;
                comm.obs_count("query.late", 1);
            }
            replies.push(RecordedReply {
                qid,
                tick: t,
                at_step: p.query.at_step,
                kind: p.query.kind,
                answer,
                at_s: p.at_s,
                done_s: done,
            });
        }
        debug_assert!(pending.is_empty());
        comm.span_exit("query.merge");
    }

    EngineOutput {
        stats,
        replies,
        commits,
        history_decoded_peak: cache.peak,
        history_generations: log.generations(),
        store_commit_bytes: log.commit_bytes,
        store_full_bytes: log.full_bytes,
        end_s: comm.time(),
    }
}

/// Serial reference: the replicated body state after each tick's
/// physics, bit-identical to what every rank's engine held when it
/// answered that tick's live queries. `states[t]` pairs with
/// [`RecordedReply::tick`] `== t`.
pub fn replicated_states(ics: Vec<Body>, cfg: &EngineConfig) -> Vec<Vec<Body>> {
    let mut sim = Simulation::new(ics, cfg.gravity, cfg.dt);
    let mut out = vec![sim.bodies.clone()];
    for _ in 1..cfg.steps {
        sim.step();
        out.push(sim.bodies.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use hot::models::plummer;
    use msg::machine::Machine;

    fn small_cfg() -> EngineConfig {
        EngineConfig {
            steps: 3,
            checkpoint_every: 2,
            fleet: FleetConfig {
                per_rank: 12,
                ..FleetConfig::default()
            },
            ..EngineConfig::default()
        }
    }

    #[test]
    fn stripes_partition_the_array() {
        for (n, size) in [(10, 3), (96, 16), (7, 8), (0, 4), (5, 1)] {
            let mut covered = 0;
            for r in 0..size {
                let s = stripe(n, size, r);
                assert_eq!(s.start, covered, "contiguous");
                covered = s.end;
            }
            assert_eq!(covered, n, "exhaustive");
        }
    }

    #[test]
    fn every_issued_query_is_answered_exactly_once() {
        for ranks in [1usize, 2, 4] {
            let cfg = small_cfg();
            let ics = plummer(64, 7);
            let outs = msg::run_with(Machine::ideal(ranks as u32 + 2), ranks, {
                let ics = ics.clone();
                move |comm| run(comm, ics.clone(), &cfg)
            });
            for o in &outs {
                assert_eq!(o.stats.issued, cfg.fleet.per_rank);
                assert_eq!(o.stats.answered, cfg.fleet.per_rank);
                assert_eq!(o.stats.dup_replies, 0, "ranks={ranks}");
                assert_eq!(o.stats.unanswered, 0, "ranks={ranks}");
                assert_eq!(o.replies.len() as u64, cfg.fleet.per_rank);
            }
        }
    }

    #[test]
    fn single_rank_engine_matches_oracle_on_live_queries() {
        let cfg = small_cfg();
        let ics = plummer(48, 3);
        let states = replicated_states(ics.clone(), &cfg);
        let outs = msg::run_with(Machine::ideal(3), 1, {
            let ics = ics.clone();
            move |comm| run(comm, ics.clone(), &cfg)
        });
        let mut live = 0;
        for r in &outs[0].replies {
            if r.at_step.is_none() {
                assert_eq!(
                    r.answer,
                    oracle::answer(&states[r.tick as usize], &r.kind),
                    "qid {}",
                    r.qid
                );
                live += 1;
            }
        }
        assert!(live > 0);
    }
}
