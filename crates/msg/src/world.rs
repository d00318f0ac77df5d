//! The one world runner: spawn a rank thread per process, run the
//! program, classify how every rank ended, and fold that into one
//! [`Outcome`].
//!
//! A [`World`] is a simulated MPI job. Fault injection, an adversarial
//! delivery schedule (optionally replaying a recorded one) and tracing
//! are conditions on the job — fields of the value — not separate
//! launchers. A world with none of them armed builds exactly the plain
//! [`Comm`] (`fault: None`, `sched: None`) whose blocking receive never
//! polls.

use crate::comm::Comm;
use crate::fault::{FaultCtx, FaultPlan, QuietCrash, RankCrash, WorldAborted};
use crate::machine::Machine;
use crate::sched::{SchedCtx, SchedPlan, SchedShared, ScheduleLog, Stall};
use crossbeam::channel::unbounded;
use obs::{RankTrace, WorldTrace};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::thread;

/// One simulated job: the machine it runs on, its size, and the
/// conditions it runs under. Start from [`World::new`] and set the
/// fields that differ:
///
/// ```
/// # use msg::{FaultPlan, Machine, World};
/// let plan = FaultPlan::none(7).with_drop(0.1);
/// let (out, _, _) = World { faults: Some(&plan), ..World::new(Machine::ideal(2), 2) }
///     .run(|c| c.rank());
/// assert_eq!(out.expect_completed("recoverable loss"), vec![0, 1]);
/// ```
pub struct World<'a> {
    pub machine: Machine,
    pub ranks: usize,
    /// Every rank's virtual clock starts here, so a restart attempt
    /// continues the absolute cluster timeline and crash events stay
    /// comparable across attempts (events at or before `clock0` are
    /// already spent).
    pub clock0: f64,
    /// Inject this plan's faults. Every rank then talks through the
    /// reliable transport, and the fabric's link faults are exactly the
    /// plan's; `None` leaves the fabric fault-free.
    pub faults: Option<&'a FaultPlan>,
    /// Run under this adversarial delivery schedule, optionally replaying
    /// a recorded [`ScheduleLog`]: each rank's first `prefix` wildcard
    /// decisions are forced to the logged source and later ones fall back
    /// to first-match (`usize::MAX` replays the whole log; smaller
    /// prefixes are the shrink knob). The plan should be the recorded
    /// run's — jitter draws replay from its seed.
    pub sched: Option<(&'a SchedPlan, Option<(&'a ScheduleLog, usize)>)>,
    /// Record a virtual-time trace on every rank. Only completed worlds
    /// return one: a surviving rank's timeline ends wherever it noticed
    /// the teardown, which is a wall-clock race, not a virtual-time fact.
    pub observe: bool,
}

/// How a world ended.
#[derive(Debug)]
pub enum Outcome<T> {
    /// Every rank ran to completion; per-rank results in rank order.
    Completed(Vec<T>),
    /// A rank died (scheduled crash, unreachable peer, or quorum verdict
    /// against it); the earliest death is reported. Restore a checkpoint
    /// and rerun.
    Crashed { rank: usize, at: f64 },
    /// A schedule's liveness watchdog fired: the program deadlocked
    /// (`deadlock: true`) or ran past the plan's virtual-time budget.
    Stalled {
        rank: usize,
        at: f64,
        deadlock: bool,
    },
}

impl<T> Outcome<T> {
    /// The results of a world that must have completed.
    pub fn expect_completed(self, msg: &str) -> Vec<T> {
        match self {
            Outcome::Completed(v) => v,
            Outcome::Crashed { rank, at } => {
                panic!("{msg}: world crashed (rank {rank} at t={at:.3})")
            }
            Outcome::Stalled { rank, at, deadlock } => panic!(
                "{msg}: world stalled (rank {rank} at t={at:.3}, {})",
                if deadlock {
                    "deadlock"
                } else {
                    "budget exceeded"
                }
            ),
        }
    }
}

/// What a rank's unwinding means.
enum Unwind {
    /// A detector-armed crash: the peers are not woken, the survivors
    /// must notice the silence and reach a quorum verdict on their own.
    SilentCrash(RankCrash),
    /// A scheduled crash, an unreachable peer, or a verdict against one.
    Crash(RankCrash),
    Stall(Stall),
    /// This rank noticed the world being torn down.
    Aborted,
    /// A genuine panic (a failed assertion), re-raised after teardown.
    Genuine,
}

/// The one classification of panic payloads, shared by the runner and
/// the panic hook.
fn classify(p: &(dyn Any + Send)) -> Unwind {
    if let Some(c) = p.downcast_ref::<QuietCrash>() {
        Unwind::SilentCrash(c.0)
    } else if let Some(c) = p.downcast_ref::<RankCrash>() {
        Unwind::Crash(*c)
    } else if let Some(s) = p.downcast_ref::<Stall>() {
        Unwind::Stall(*s)
    } else if p.is::<WorldAborted>() {
        Unwind::Aborted
    } else {
        Unwind::Genuine
    }
}

/// Keep the default panic hook from spamming stderr with the runtime's
/// own, caught unwinds; genuine panics still print.
fn install_quiet_hook() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if matches!(classify(info.payload()), Unwind::Genuine) {
                prev(info);
            }
        }));
    });
}

impl<'a> World<'a> {
    /// A fault-free, unscheduled, untraced world starting at virtual
    /// time zero.
    pub fn new(machine: Machine, ranks: usize) -> Self {
        World {
            machine,
            ranks,
            clock0: 0.0,
            faults: None,
            sched: None,
            observe: false,
        }
    }

    /// Run `f` on every rank, each on its own thread. Returns how the
    /// world ended, the merged trace (observed worlds that completed),
    /// and the per-rank wildcard decision log (recorded up to the failure
    /// when a scheduled world stalled or crashed; no decisions without a
    /// schedule).
    ///
    /// A genuine panic in any rank (a failed assertion, a type mismatch)
    /// tears the whole world down — blocked peers are woken, not left
    /// hanging — and is re-raised here with its original payload.
    pub fn run<T, F>(self, f: F) -> (Outcome<T>, Option<WorldTrace>, ScheduleLog)
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        let World {
            machine,
            ranks: nranks,
            clock0,
            faults,
            sched,
            observe,
        } = self;
        assert!(nranks >= 1, "need at least one rank");
        assert!(
            (machine.fabric.topology().total_ports() as usize) >= nranks,
            "machine has too few ports for {nranks} ranks"
        );
        if let Some((_, Some((log, _)))) = sched {
            assert_eq!(
                log.per_rank.len(),
                nranks,
                "replay log is for a {}-rank world",
                log.per_rank.len()
            );
        }
        install_quiet_hook();
        // The fabric is shared (Arc) and may be reused across restart
        // attempts; make the fault set exactly the plan's, not accumulated.
        machine.fabric.clear_link_faults();
        for lf in faults.iter().flat_map(|p| &p.link_faults) {
            machine.fabric.inject_link_fault(*lf);
        }
        let abort = Arc::new(AtomicBool::new(false));
        let drained = Arc::new(AtomicUsize::new(0));
        let shared = Arc::new(SchedShared {
            size: nranks,
            ..SchedShared::default()
        });
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..nranks).map(|_| unbounded()).unzip();
        let rank_main = |rank: usize, rx| {
            let mut comm = Comm::construct(rank, clock0, machine.clone(), senders.clone(), rx);
            comm.fault = faults.map(|p| {
                let (abort, drained) = (abort.clone(), drained.clone());
                Box::new(FaultCtx::new(p, rank, nranks, clock0, abort, drained))
            });
            comm.sched = sched.map(|(plan, replay)| {
                Box::new(SchedCtx::new(plan, rank, nranks, shared.clone(), replay))
            });
            let ran = catch_unwind(AssertUnwindSafe(|| {
                if observe {
                    comm.install_recorder();
                }
                let v = f(&mut comm);
                // The trace ends with the program: the transport drain's
                // virtual cost depends on how many wall-clock polls it spins.
                let trace = comm.take_trace().map(Box::new);
                // The program is over for the deadlock detector; fault-mode
                // ranks are counted by the transport drain's parking instead.
                if let (Some(s), None) = (&comm.sched, &comm.fault) {
                    s.shared.retired.fetch_add(1, Ordering::SeqCst);
                }
                // A rank may still owe its peers retransmissions of packets
                // the injector ate; stay at the NIC until the whole world's
                // unacked queues drain.
                comm.drain_transport();
                (v, trace)
            }));
            let end = ran.map_err(|p| {
                let unwind = classify(&*p);
                if !matches!(unwind, Unwind::SilentCrash(_)) {
                    // Fault-mode ranks poll `abort`, scheduled ones
                    // `stalled`; a plain rank blocked in `recv` wakes on
                    // the abort packet.
                    abort.store(true, Ordering::SeqCst);
                    shared.stalled.store(true, Ordering::SeqCst);
                    comm.abort_peers();
                }
                (unwind, p)
            });
            (end, comm.sched.map(|s| s.log).unwrap_or_default())
        };
        let ends: Vec<_> = thread::scope(|scope| {
            let handles: Vec<_> = receivers
                .into_iter()
                .enumerate()
                .map(|(rank, rx)| {
                    let rank_main = &rank_main;
                    thread::Builder::new()
                        .name(format!("rank-{rank}"))
                        .stack_size(16 << 20)
                        .spawn_scoped(scope, move || rank_main(rank, rx))
                        .expect("failed to spawn rank thread")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| resume_unwind(e)))
                .collect()
        });
        let mut results = Vec::with_capacity(nranks);
        let mut traces = Vec::with_capacity(nranks);
        let mut log = ScheduleLog::default();
        let mut crash: Option<RankCrash> = None;
        let mut stall: Option<Stall> = None;
        let mut panic = None;
        for (end, decisions) in ends {
            log.per_rank.push(decisions);
            match end {
                Ok((v, trace)) => {
                    results.push(v);
                    traces.push(trace);
                }
                Err((Unwind::Crash(c) | Unwind::SilentCrash(c), _))
                    if crash.is_none_or(|b| c.at < b.at) =>
                {
                    crash = Some(c)
                }
                Err((Unwind::Stall(s), _)) if stall.is_none_or(|b| s.at < b.at) => stall = Some(s),
                Err((Unwind::Genuine, p)) if panic.is_none() => panic = Some(p),
                _ => {}
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        let outcome = match (stall, crash) {
            (Some(s), _) => Outcome::Stalled {
                rank: s.rank,
                at: s.at,
                deadlock: s.deadlock,
            },
            (None, Some(c)) => Outcome::Crashed {
                rank: c.rank,
                at: c.at,
            },
            (None, None) => {
                assert_eq!(
                    results.len(),
                    nranks,
                    "aborted world without a stall or crash"
                );
                Outcome::Completed(results)
            }
        };
        // Every completed rank carries a trace exactly when observed.
        let traces: Option<Vec<RankTrace>> = traces.into_iter().map(|t| t.map(|t| *t)).collect();
        let trace = traces
            .filter(|_| matches!(outcome, Outcome::Completed(_)))
            .map(WorldTrace::from_ranks);
        (outcome, trace, log)
    }
}

/// Run an `nranks`-way program on `machine`. Each rank executes `f` on its
/// own thread; the per-rank return values come back in rank order.
///
/// A panic in any rank tears the whole world down: peers blocked in a
/// receive are woken and unwound, and the first panicking rank's payload
/// is re-raised here.
pub fn run_with<T, F>(machine: Machine, nranks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    World::new(machine, nranks)
        .run(f)
        .0
        .expect_completed("fault-free world")
}

/// Run on an ideal crossbar (unit tests, algorithm development).
pub fn run<T, F>(nranks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    run_with(Machine::ideal(nranks as u32), nranks, f)
}

/// Like [`run_with`], but every rank records a virtual-time trace; the
/// per-rank traces come back merged into a [`WorldTrace`] alongside the
/// program's results.
pub fn run_observed<T, F>(machine: Machine, nranks: usize, f: F) -> (Vec<T>, WorldTrace)
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    let (out, trace, _) = World {
        observe: true,
        ..World::new(machine, nranks)
    }
    .run(f);
    let values = out.expect_completed("fault-free world");
    (
        values,
        trace.expect("completed observed world yields a trace"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedPlan;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn panicking_rank_tears_down_blocked_peers() {
        // Rank 0 fails an assertion while rank 1 sits in a blocking
        // receive nobody will ever satisfy. The world must wake rank 1
        // and re-raise rank 0's panic instead of hanging: the world runs
        // on its own thread under a wall-clock watchdog, so a hang fails
        // the test rather than the suite.
        for name in ["fault-free", "faulted", "scheduled"] {
            let (tx, rx) = mpsc::channel();
            let watched = thread::spawn(move || {
                let (faults, sched) = (FaultPlan::none(3), SchedPlan::reference(3));
                let world = World {
                    faults: (name == "faulted").then_some(&faults),
                    sched: (name == "scheduled").then_some((&sched, None)),
                    ..World::new(Machine::ideal(2), 2)
                };
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    world.run(|c| {
                        if c.rank() == 0 {
                            panic!("rank 0 gave up");
                        }
                        c.recv::<u64>(Some(0), 1).1
                    })
                }));
                let _ = tx.send(ran.err().and_then(|p| p.downcast_ref::<&str>().copied()));
            });
            let payload = rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{name} world hung after a rank panicked"));
            assert_eq!(payload, Some("rank 0 gave up"), "{name} world");
            watched.join().expect("the world's panic was caught");
        }
    }
}
