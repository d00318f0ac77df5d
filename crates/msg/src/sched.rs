//! Adversarial delivery-schedule exploration — the engine under
//! `cluster::simcheck`.
//!
//! Every distributed result in the paper rests on a runtime that must be
//! correct under *any* delivery order, yet our nastiest bugs so far
//! (mailbox FIFO reorder, the Safra send under-count, the blocking-mode
//! livelock) were delivery-order bugs found by luck. This module makes
//! the hunt systematic: a seeded [`SchedPlan`], set as a
//! [`crate::World`]'s `sched`, arms three per-rank perturbations inside
//! [`crate::Comm`]:
//!
//! * **match permutation** — a wildcard receive chooses uniformly among
//!   the head-of-line packet of each source currently queued, instead of
//!   always taking the first match. Per-`(src, tag)` FIFO is preserved by
//!   construction (only the head of each source's queue is a candidate);
//!   what gets explored is exactly the set of cross-source arrival races
//!   a real network could produce.
//! * **delivery jitter** — each transmitted packet's arrival time gains a
//!   seeded extra delay in `[0, jitter_s)`, perturbing which packets race
//!   in virtual time without ever violating causality (arrival can only
//!   move later).
//! * **liveness watchdogs** — a deadlock detector (every rank parked in a
//!   blocking receive with nothing in flight) and a virtual-time budget
//!   (livelocks keep the clock moving, so a run that blows past its
//!   budget is flagged). Both report [`crate::Outcome::Stalled`] instead
//!   of hanging the process.
//!
//! Everything is a pure function of `(plan, fault plan, program)`:
//! rerunning the same seed replays the same schedule decisions bit for
//! bit, because all decisions are drawn from per-rank `SplitMix64`
//! streams indexed by deterministic state — never by wall-clock time.
//! [`SchedPlan::perturb_limit`] bounds how many match decisions may
//! deviate from the deterministic first-match rule; it is the shrinking
//! knob `cluster::simcheck` uses to minimize a failing schedule.

use crate::fault::SplitMix64;
use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;

/// How and how much a scheduled world may deviate from deterministic
/// first-match delivery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedPlan {
    /// Seed for the per-rank decision streams (match choice and jitter).
    pub seed: u64,
    /// Upper bound on the injected per-packet delivery delay (virtual
    /// seconds); `0` disables jitter and consumes no RNG words for it.
    pub jitter_s: f64,
    /// Maximum number of wildcard-match decisions **per rank** that may
    /// deviate from the deterministic first-match rule. `0` is the
    /// reference schedule, `u64::MAX` unbounded exploration. Shrinking a
    /// failure means finding the smallest limit that still fails.
    pub perturb_limit: u64,
    /// Absolute virtual-time budget: a rank whose clock passes this is
    /// flagged as livelocked ([`crate::Outcome::Stalled`] with
    /// `deadlock: false`).
    pub budget_s: f64,
    /// Virtual charge per empty fault-free `try_recv` probe, so spin
    /// loops advance the clock toward the budget instead of livelocking
    /// at a frozen virtual time. (Fault-mode probes are already charged
    /// by `RetransmitConfig::probe_s`.)
    pub probe_s: f64,
}

impl SchedPlan {
    /// Unbounded exploration from `seed`: every wildcard match is
    /// permuted, no jitter, no budget.
    pub fn new(seed: u64) -> Self {
        SchedPlan {
            seed,
            jitter_s: 0.0,
            perturb_limit: u64::MAX,
            budget_s: f64::INFINITY,
            probe_s: 1.0e-6,
        }
    }

    /// The reference schedule: deterministic first-match delivery, no
    /// jitter. Running under this must be indistinguishable from running
    /// without a scheduler at all (the watchdogs stay armed).
    pub fn reference(seed: u64) -> Self {
        SchedPlan {
            perturb_limit: 0,
            ..SchedPlan::new(seed)
        }
    }

    pub fn with_jitter(mut self, jitter_s: f64) -> Self {
        assert!(jitter_s >= 0.0, "jitter {jitter_s}");
        self.jitter_s = jitter_s;
        self
    }

    pub fn with_perturb_limit(mut self, limit: u64) -> Self {
        self.perturb_limit = limit;
        self
    }

    pub fn with_budget(mut self, budget_s: f64) -> Self {
        assert!(budget_s > 0.0, "budget {budget_s}");
        self.budget_s = budget_s;
        self
    }

    pub fn with_probe(mut self, probe_s: f64) -> Self {
        assert!(probe_s >= 0.0, "probe {probe_s}");
        self.probe_s = probe_s;
        self
    }
}

/// The per-rank sequence of wildcard-receive source choices a scheduled
/// run made — every successful wildcard match records which source it
/// took, whether the pick was permuted, first-match, or forced.
///
/// This is what makes a failing schedule **replayable**: wildcard races
/// are the only wall-clock-dependent decisions in a fault-free world
/// (virtual time handles everything else), so feeding the log back
/// through a replaying world pins each decision to its recorded source —
/// the replaying rank simply waits until that source's head-of-line
/// packet is present — and the whole execution, virtual clocks included,
/// reconstructs bit for bit. (Fault-mode worlds additionally charge
/// retransmit-poll time, which races the wall clock by design; their
/// replays reproduce the decision sequence and all schedule-invariant
/// oracles, not raw timestamps.)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScheduleLog {
    pub per_rank: Vec<Vec<u32>>,
}

impl ScheduleLog {
    /// The longest per-rank decision count — an upper bound for prefix
    /// shrinking.
    pub fn max_decisions(&self) -> usize {
        self.per_rank.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// World-wide watchdog state shared by every rank's [`SchedCtx`].
#[derive(Default)]
pub(crate) struct SchedShared {
    pub size: usize,
    /// Packets pushed onto a channel and not yet pulled off. Incremented
    /// *before* the push and decremented *after* the pull, so a nonzero
    /// reading is always trustworthy: the deadlock detector can report a
    /// false negative (a packet to a dead rank leaks a count) but never a
    /// false positive.
    pub inflight: AtomicI64,
    /// Ranks currently parked in a blocking receive with no local work.
    pub parked: AtomicUsize,
    /// Ranks whose program function has returned (fault-free worlds; a
    /// faulted world's ranks park in the transport drain instead).
    pub retired: AtomicUsize,
    /// Some rank stalled (deadlock or budget); everyone else tears down.
    pub stalled: AtomicBool,
}

impl SchedShared {
    /// Unpark a rank whose channel poll timed out while it counted as
    /// parked. The deadlock check runs before the unpark, or the
    /// all-parked state would be unreachable: every rank parked or
    /// retired with nothing in flight flags the world stalled.
    pub(crate) fn unpark_after_timeout(&self, rank: usize, at: f64) {
        let everyone_blocked =
            self.parked.load(Ordering::SeqCst) + self.retired.load(Ordering::SeqCst) >= self.size;
        let deadlock = everyone_blocked && self.inflight.load(Ordering::SeqCst) <= 0;
        if deadlock {
            self.stalled.store(true, Ordering::SeqCst);
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
        if deadlock {
            panic_any(Stall {
                rank,
                at,
                deadlock: true,
            });
        }
    }
}

/// Per-rank scheduler state installed into a [`crate::Comm`].
pub(crate) struct SchedCtx {
    pub plan: SchedPlan,
    /// Wildcard-match decisions that have deviated so far (per rank).
    pub perturbed: u64,
    pub rng_match: SplitMix64,
    pub rng_jitter: SplitMix64,
    /// Scratch: head-of-line candidate indices (one per source).
    pub heads: Vec<usize>,
    /// Scratch: which sources already contributed a head candidate.
    pub seen: Vec<bool>,
    pub shared: Arc<SchedShared>,
    /// Every wildcard match taken, in order (this rank's schedule log).
    /// The runner collects it after the rank ends, panicked or not, so a
    /// stalled or crashed schedule still yields a replayable log.
    pub log: Vec<u32>,
    /// Replay: this rank's recorded decisions cut to the replay prefix;
    /// decision *k* is forced to `replay[k]`, later ones fall back to
    /// first-match. `None` when not replaying.
    pub replay: Option<Vec<u32>>,
}

impl SchedCtx {
    pub(crate) fn new(
        plan: &SchedPlan,
        rank: usize,
        size: usize,
        shared: Arc<SchedShared>,
        replay: Option<(&ScheduleLog, usize)>,
    ) -> Self {
        // Distinct per-rank, per-purpose streams so match and jitter
        // draws never alias across ranks or across each other.
        let match_seed = plan
            .seed
            .wrapping_add((rank as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let jitter_seed = (plan.seed ^ 0x5851_F42D_4C95_7F2D)
            .wrapping_add((rank as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB));
        SchedCtx {
            plan: *plan,
            perturbed: 0,
            rng_match: SplitMix64::new(match_seed),
            rng_jitter: SplitMix64::new(jitter_seed),
            heads: Vec::with_capacity(size),
            seen: vec![false; size],
            shared,
            log: Vec::new(),
            replay: replay.map(|(log, prefix)| {
                let choices = &log.per_rank[rank];
                choices[..prefix.min(choices.len())].to_vec()
            }),
        }
    }

    /// The source the replay log demands for the next wildcard match, or
    /// `None` when not replaying / past the replay prefix. Every match is
    /// logged, so the log's length is the next decision's index.
    pub(crate) fn replay_want(&self) -> Option<usize> {
        let forced = self.replay.as_ref()?.get(self.log.len())?;
        Some(*forced as usize)
    }
}

/// Panic payload of a rank flagged by a liveness watchdog.
#[derive(Debug, Clone, Copy)]
pub struct Stall {
    pub rank: usize,
    /// Virtual time at which the stall was detected.
    pub at: f64,
    /// `true`: every rank parked with nothing in flight (deadlock).
    /// `false`: the virtual-time budget was exceeded (livelock).
    pub deadlock: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abm::{Abm, Termination};
    use crate::{run, Comm, FaultPlan, Machine, Outcome, World};

    /// Run `f` on an ideal `n`-rank machine under `plan`, replaying
    /// `replay`'s decision log when given; returns the outcome and the
    /// decisions this run took.
    fn scheduled<T, F>(
        n: usize,
        plan: &SchedPlan,
        replay: Option<(&ScheduleLog, usize)>,
        f: F,
    ) -> (Outcome<T>, ScheduleLog)
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        let world = World {
            sched: Some((plan, replay)),
            ..World::new(Machine::ideal(n as u32), n)
        };
        let (out, _, log) = world.run(f);
        (out, log)
    }

    #[test]
    fn reference_schedule_matches_unscheduled_run() {
        let program = |c: &mut Comm| {
            let right = (c.rank() + 1) % c.size();
            c.send(right, 1, c.rank() as u64);
            let (src, v) = c.recv::<u64>(None, 1);
            c.compute(1.0e7, 0.0);
            (src, v, c.time())
        };
        let plain = run(4, program);
        let sched = scheduled(4, &SchedPlan::reference(9), None, program)
            .0
            .expect_completed("reference schedule");
        assert_eq!(plain, sched);
    }

    #[test]
    fn fifo_survives_full_permutation() {
        // The PR-1 regression, now under every schedule: same-(src, tag)
        // streams must stay in send order no matter how the scheduler
        // permutes wildcard matches.
        for seed in 0..24u64 {
            let plan = SchedPlan::new(seed).with_jitter(2.0e-5);
            scheduled(2, &plan, None, |c| {
                if c.rank() == 0 {
                    for v in 1..=5u64 {
                        c.send(1, 8, v);
                    }
                    c.send(1, 9, 0u64);
                } else {
                    let _ = c.recv_from::<u64>(0, 9);
                    let got: Vec<u64> = (0..5).map(|_| c.recv_from::<u64>(0, 8)).collect();
                    assert_eq!(got, vec![1, 2, 3, 4, 5]);
                }
            })
            .0
            .expect_completed("fifo under permutation");
        }
    }

    #[test]
    fn wildcard_matches_actually_permute() {
        // Three senders park a message each before the receiver looks;
        // across seeds the receiver must observe more than one source
        // order (otherwise the scheduler is a no-op).
        let mut orders = std::collections::BTreeSet::new();
        for seed in 0..16u64 {
            let out = scheduled(4, &SchedPlan::new(seed), None, |c| {
                if c.rank() == 0 {
                    // Each sender's tag-5 packet precedes its tag-7 note
                    // in the channel, so once three notes have drained,
                    // all three tag-5 packets sit in the mailbox and the
                    // wildcard receives below are genuine three-way
                    // match decisions.
                    let mut ready = 0;
                    while ready < 3 {
                        if c.try_recv::<u64>(None, 7).is_some() {
                            ready += 1;
                        }
                        std::thread::yield_now();
                    }
                    let mut order = Vec::new();
                    for _ in 0..3 {
                        order.push(c.recv::<u64>(None, 5).0);
                    }
                    order
                } else {
                    c.send(0, 5, c.rank() as u64);
                    c.send(0, 7, 1u64);
                    Vec::new()
                }
            })
            .0
            .expect_completed("permutation probe");
            orders.insert(out[0].clone());
        }
        assert!(
            orders.len() >= 2,
            "scheduler never permuted a wildcard match: {orders:?}"
        );
    }

    #[test]
    fn deadlock_is_detected_not_hung() {
        // Classic head-to-head: both ranks receive before sending. The
        // watchdog must flag it (deadlock, not budget) instead of hanging.
        let out: Outcome<()> = scheduled(2, &SchedPlan::new(3), None, |c| {
            let peer = 1 - c.rank();
            let _ = c.recv_from::<u64>(peer, 1);
            c.send(peer, 1, 0u64);
        })
        .0;
        match out {
            Outcome::Stalled { deadlock, .. } => assert!(deadlock, "must report deadlock"),
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    fn budget_flags_a_livelocked_spin() {
        // A try_recv spin on a tag nobody sends: the probe charge moves
        // the clock, the budget fires, and the outcome says livelock.
        let plan = SchedPlan::new(5).with_budget(1.0e-3);
        let out: Outcome<()> = scheduled(2, &plan, None, |c| loop {
            if c.try_recv::<u64>(None, 99).is_some() {
                return;
            }
        })
        .0;
        match out {
            Outcome::Stalled { deadlock, at, .. } => {
                assert!(!deadlock, "budget stall, not deadlock");
                assert!(at >= 1.0e-3, "stall at {at}");
            }
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    fn jitter_preserves_causality_and_content() {
        for seed in 0..8u64 {
            let plan = SchedPlan::new(seed).with_jitter(5.0e-4);
            let out = scheduled(3, &plan, None, |c| {
                if c.rank() == 0 {
                    c.compute(1.0e8, 0.0);
                    let t_send = c.time();
                    c.send(1, 2, 41u64);
                    c.send(2, 2, 42u64);
                    (0u64, t_send)
                } else {
                    let v = c.recv_from::<u64>(0, 2);
                    (v, c.time())
                }
            })
            .0
            .expect_completed("jittered world");
            assert_eq!(out[1].0, 41);
            assert_eq!(out[2].0, 42);
            // A receive can never complete before the (pre-jitter) send.
            assert!(out[1].1 >= out[0].1, "{out:?}");
            assert!(out[2].1 >= out[0].1, "{out:?}");
        }
    }

    #[test]
    fn same_seed_is_content_stable() {
        // Two random-mode runs of one seed can consume wildcard matches
        // in different orders (whether a packet had *really* arrived at
        // pick time races the wall clock — recorded replay is the exact
        // mechanism, see `recorded_schedule_replays_bit_exactly`), but
        // everything schedule-invariant must match: message counts and
        // the delivered content.
        let plan = SchedPlan::new(77).with_jitter(3.0e-5);
        let runs: Vec<Vec<(u64, u64)>> = (0..2)
            .map(|_| {
                scheduled(4, &plan, None, |c| {
                    if c.rank() == 0 {
                        let mut sum = 0u64;
                        for _ in 0..9 {
                            sum += c.recv::<u64>(None, 4).1;
                        }
                        (sum, c.stats().recvs)
                    } else {
                        for i in 0..3u64 {
                            c.send(0, 4, (c.rank() as u64) * 100 + i);
                        }
                        (0, c.stats().sends)
                    }
                })
                .0
                .expect_completed("seeded run")
            })
            .collect();
        assert_eq!(runs[0], runs[1], "same plan must deliver the same content");
    }

    #[test]
    fn recorded_schedule_replays_bit_exactly() {
        // A fan-in with real wildcard races: rank 0's consumption order —
        // and therefore its virtual clock — depends on which packets had
        // arrived when each pick was made, which races the wall clock.
        // Replaying the decision log must pin all of it: same sources in
        // the same order, and bit-identical virtual end times.
        let program = |c: &mut Comm| {
            if c.rank() == 0 {
                let mut order = Vec::new();
                for _ in 0..9 {
                    let (src, v) = c.recv::<u64>(None, 4);
                    order.push((src, v));
                    c.compute(1.0e6, 0.0);
                }
                (order, c.time().to_bits())
            } else {
                for i in 0..3u64 {
                    c.send(0, 4, (c.rank() as u64) * 100 + i);
                    c.compute(5.0e5, 0.0);
                }
                (Vec::new(), c.time().to_bits())
            }
        };
        let plan = SchedPlan::new(31).with_jitter(2.0e-5);
        let (out, log) = scheduled(4, &plan, None, program);
        let first = out.expect_completed("recorded run");
        for round in 0..2 {
            let (out, relog) = scheduled(4, &plan, Some((&log, usize::MAX)), program);
            let replayed = out.expect_completed("replay run");
            assert_eq!(first, replayed, "replay {round} diverged");
            assert_eq!(log, relog, "replay {round} rewrote the log");
        }
    }

    #[test]
    fn replay_prefix_zero_is_the_reference_schedule() {
        // Prefix 0 ignores the log entirely: every decision falls back to
        // first-match. The world must still complete (sanity for the
        // shrink scan's lower end).
        let program = |c: &mut Comm| {
            if c.rank() == 0 {
                (0..6).map(|_| c.recv::<u64>(None, 4).1).sum::<u64>()
            } else {
                for i in 0..3u64 {
                    c.send(0, 4, i);
                }
                0
            }
        };
        let plan = SchedPlan::new(13);
        let (out, log) = scheduled(3, &plan, None, program);
        let full = out.expect_completed("recorded run");
        let (out, _) = scheduled(3, &plan, Some((&log, 0)), program);
        let pref = out.expect_completed("prefix-0 replay");
        // Content is schedule-invariant either way.
        assert_eq!(full[0], pref[0]);
    }

    #[test]
    fn scheduled_crash_still_reported_under_schedule() {
        let fplan = FaultPlan::none(1).with_crash(1, 0.5);
        let splan = SchedPlan::new(2);
        let world = World {
            faults: Some(&fplan),
            sched: Some((&splan, None)),
            ..World::new(Machine::ideal(2), 2)
        };
        let (out, _, _): (Outcome<u64>, _, _) = world.run(|c| {
            let peer = 1 - c.rank();
            let mut n = 0u64;
            loop {
                if c.rank() == 0 {
                    c.send(peer, 1, n);
                    n = c.recv_from::<u64>(peer, 1);
                } else {
                    n = c.recv_from::<u64>(peer, 1);
                    c.send(peer, 1, n + 1);
                }
                c.compute(1e7, 0.0);
            }
        });
        match out {
            Outcome::Crashed { rank, at } => {
                assert_eq!(rank, 1);
                assert!(at >= 0.5);
            }
            other => panic!("expected crash, got {other:?}"),
        }
    }

    /// The storm world also used by `cluster::simcheck`: every rank
    /// scatters uniquely-numbered messages through an Abm channel, runs
    /// Safra termination, and the union of receipts must equal the union
    /// of sends exactly. `mutant` arms the PR-1 Safra under-count.
    fn storm(
        nranks: usize,
        per_rank: u64,
        fplan: &FaultPlan,
        splan: &SchedPlan,
        mutant: bool,
    ) -> Outcome<Vec<u64>> {
        let world = World {
            faults: Some(fplan),
            sched: Some((splan, None)),
            ..World::new(Machine::ideal(nranks as u32), nranks)
        };
        world
            .run(|c| {
                let mut abm: Abm<u64> = Abm::new(c.size(), 3, 3);
                abm.undercount_auto_flush = mutant;
                let mut term = Termination::new();
                for i in 0..per_rank {
                    let id = (c.rank() as u64) << 32 | i;
                    // Deterministic scatter, independent of schedule.
                    let dst = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % c.size();
                    abm.post(c, dst, id);
                }
                abm.flush_all(c);
                term.on_send(abm.sent);
                let mut sent_acc = abm.sent;
                let mut got: Vec<u64> = Vec::new();
                loop {
                    let batches = abm.poll(c);
                    let mut busy = false;
                    for (_, batch) in batches {
                        term.on_recv(1);
                        busy = true;
                        got.extend(batch);
                    }
                    abm.flush_all(c);
                    if abm.sent > sent_acc {
                        term.on_send(abm.sent - sent_acc);
                        sent_acc = abm.sent;
                    }
                    if !busy && term.poll(c) {
                        break;
                    }
                }
                got
            })
            .0
    }

    fn storm_violation(seed: u64, mutant: bool) -> Option<String> {
        let nranks = 5;
        let per_rank = 12u64;
        let fplan = FaultPlan::none(seed ^ 0xC0FF_EE00)
            .with_duplicate(0.2)
            .with_reorder(0.2);
        // Generous liveness budget: the fault path charges `poll_s` of
        // virtual time per wall-clock poll, so accrual varies with build
        // mode and host speed. A genuine Safra deadlock is still caught
        // fast by the parked-with-nothing-in-flight detector; the budget
        // only has to bound livelock.
        let splan = SchedPlan::new(seed).with_jitter(2.0e-5).with_budget(30.0);
        match storm(nranks, per_rank, &fplan, &splan, mutant) {
            Outcome::Completed(got) => {
                let mut all: Vec<u64> = got.into_iter().flatten().collect();
                all.sort_unstable();
                let expect: Vec<u64> = (0..nranks as u64)
                    .flat_map(|r| (0..per_rank).map(move |i| r << 32 | i))
                    .collect();
                (all != expect).then(|| format!("seed {seed}: payload multiset mismatch"))
            }
            Outcome::Stalled { rank, at, deadlock } => Some(format!(
                "seed {seed}: stalled (rank {rank} at t={at:.4}, deadlock={deadlock})"
            )),
            Outcome::Crashed { rank, at } => {
                Some(format!("seed {seed}: crashed (rank {rank} at t={at:.4})"))
            }
        }
    }

    #[test]
    fn storm_exactly_once_under_adversarial_schedules() {
        for seed in 0..8u64 {
            if let Some(v) = storm_violation(seed, false) {
                panic!("clean storm violated an oracle: {v}");
            }
        }
    }

    #[test]
    fn simcheck_catches_safra_undercount_mutant() {
        // Teeth: re-arm the PR-1 Safra send under-count and assert the
        // checker's oracles (exactly-once or liveness) catch it within
        // the CI seed set.
        let mut caught = None;
        for seed in 0..8u64 {
            if let Some(v) = storm_violation(seed, true) {
                caught = Some(v);
                break;
            }
        }
        let v = caught.expect("the Safra under-count mutant must be caught");
        eprintln!("mutant caught: {v}");
    }
}
