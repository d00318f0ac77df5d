//! Regression for the mid-migration point-query gap (ISSUE satellite
//! 4): between two ownership epochs the Morton re-sort moves bodies
//! across stripe boundaries, so a point query routed with the cached
//! (one-epoch-stale) owner map lands on a rank that no longer holds the
//! body. The engine must *forward* it to the current owner — never drop
//! it, never answer `Missing` for a body that exists — and the forward
//! count is pinned in the observability structural summary so a silent
//! regression (forwards vanishing because stale queries start being
//! dropped or double-answered) shows up as a counter diff.

use hot::models::plummer;
use msg::machine::Machine;
use query::{run, EngineConfig, FleetConfig, QueryKind};

fn migration_heavy_cfg() -> EngineConfig {
    EngineConfig {
        // Big timestep → lots of Morton churn → stale routes every tick.
        dt: 0.1,
        steps: 6,
        checkpoint_every: 3,
        fleet: FleetConfig {
            per_rank: 64,
            ..FleetConfig::default()
        },
        ..EngineConfig::default()
    }
}

#[test]
fn stale_routed_point_queries_are_forwarded_not_dropped() {
    let ranks = 8usize;
    let cfg = migration_heavy_cfg();
    let ics = plummer(256, 41);
    let (outs, trace) = msg::run_observed(Machine::ideal(ranks as u32 + 2), ranks, move |comm| {
        run(comm, ics.clone(), &cfg)
    });

    let forwarded: u64 = outs.iter().map(|o| o.stats.forwarded).sum();
    assert!(
        forwarded > 0,
        "config failed to provoke any mid-migration point query — \
         the forwarding path went untested"
    );

    // The fix under regression: a forwarded query still resolves to its
    // origin exactly once. Before the forward phase existed, each stale
    // route became an unanswered (or spuriously Missing) query.
    let n = 256u64;
    for o in &outs {
        assert_eq!(o.stats.issued, o.stats.answered);
        assert_eq!(o.stats.unanswered, 0);
        assert_eq!(o.stats.dup_replies, 0);
        for r in &o.replies {
            if let QueryKind::Point { id } = r.kind {
                if r.at_step.is_none() && id < n {
                    assert!(
                        !matches!(r.answer, query::Answer::Missing),
                        "existing body {id} reported Missing — dropped mid-migration"
                    );
                }
            }
        }
    }

    // Pin the counter in the structural summary: the observability
    // surface must report exactly the forwards the engine performed.
    let summary = obs::export::structural_summary(&trace);
    let pinned = format!("counter query.forwarded {forwarded}");
    assert!(
        summary.contains(&pinned),
        "structural summary lost the forward count: wanted {pinned:?}"
    );
}

#[test]
fn forward_count_is_deterministic() {
    // Forwarding is a pure function of (ics, config) — replicated
    // ownership maps leave nothing for the schedule to perturb.
    let ranks = 8usize;
    let cfg = migration_heavy_cfg();
    let count = |seed: u64| -> Vec<u64> {
        let ics = plummer(256, seed);
        msg::run_with(Machine::ideal(ranks as u32 + 2), ranks, move |comm| {
            run(comm, ics.clone(), &cfg)
        })
        .iter()
        .map(|o| o.stats.forwarded)
        .collect()
    };
    assert_eq!(count(41), count(41), "per-rank forward counts must repeat");
}
