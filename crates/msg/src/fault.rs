//! Fault injection and crash-capable worlds.
//!
//! §2.1 of the paper is a nine-month failure log — disks dominate, switch
//! ports develop soft errors, whole-node hardware dies — and the authors
//! ran production science *through* those failures. This module makes the
//! failures executable instead of merely tabulated:
//!
//! * a [`FaultPlan`] (seeded, explicit or derived from the
//!   `nodesim::ReliabilityModel` rates) injects packet drop / corruption /
//!   duplication / reordering at the `Comm` boundary, applies
//!   [`netsim::LinkFault`] windows to switch ports, and crashes ranks at
//!   scheduled virtual times;
//! * a [`crate::World`] with `faults: Some(&plan)` runs under the plan:
//!   every rank gets the reliable-delivery transport (sequence numbers,
//!   cumulative acks, timeout/retransmit with exponential backoff — see
//!   `comm.rs`), and a rank crash tears the world down and reports
//!   [`crate::Outcome::Crashed`] so a harness can restore a checkpoint
//!   and rerun.
//!
//! Fault-free worlds never touch any of this: injection is
//! pay-for-what-you-inject.

use crate::comm::{Packet, Tag};
use crate::payload::AnyPayload;
use netsim::LinkFault;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::Arc;

/// Seconds in the 30.44-day month used by the §2.1 monthly rates.
pub const MONTH_S: f64 = 30.44 * 86_400.0;

/// A rank dying at a scheduled point in (absolute) virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashEvent {
    pub rank: usize,
    /// Absolute cluster virtual time of the crash — comparable across
    /// restart attempts started at different `clock0`.
    pub at: f64,
}

/// Tuning for the reliable-delivery sublayer (all times virtual seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetransmitConfig {
    /// Initial ack timeout. The modeled GigE round trip is ~0.2–0.4 ms,
    /// so 2 ms is a comfortable first RTO.
    pub rto0_s: f64,
    /// Ceiling on the backed-off timeout.
    pub rto_max_s: f64,
    /// Multiplier applied to the RTO on every retransmission.
    pub backoff: f64,
    /// Consecutive retransmissions of one packet before the sender
    /// declares the peer unreachable and aborts the world.
    pub max_retries: u32,
    /// Virtual cost of emitting one ack (in-kernel, far below the MPI
    /// per-message overhead).
    pub ack_overhead_s: f64,
    /// Virtual time charged per idle poll iteration in a blocking recv.
    pub poll_s: f64,
    /// Virtual time charged per empty `try_recv` probe.
    pub probe_s: f64,
    /// Backpressure: maximum unacknowledged packets in flight toward one
    /// destination. A send past the window parks (still servicing timers
    /// and ingesting acks) until the peer acks something, so a slow or
    /// partitioned peer throttles its senders instead of accumulating an
    /// arbitrarily deep retransmit queue — every packet launched into an
    /// outage is a guaranteed future retransmission.
    pub window: usize,
    /// Relative jitter applied to each backed-off RTO (`0.0` disables it
    /// and consumes no RNG draws). With many senders timing out against
    /// one slow peer, jitter de-synchronizes their retry bursts.
    pub backoff_jitter: f64,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        RetransmitConfig {
            rto0_s: 2.0e-3,
            rto_max_s: 5.0e-2,
            backoff: 2.0,
            max_retries: 40,
            ack_overhead_s: 5.0e-6,
            poll_s: 5.0e-5,
            probe_s: 1.0e-6,
            window: 64,
            backoff_jitter: 0.0,
        }
    }
}

impl RetransmitConfig {
    /// A configuration whose virtual-time evolution is a pure function of
    /// the program and the fault plan — nothing depends on how many real
    /// polling iterations a rank happened to spin through.
    ///
    /// The idle-poll and probe charges go to zero (they are multiplied by
    /// a wall-clock-dependent iteration count) and the retransmit timer is
    /// pushed out beyond any plausible run length so timer-based resends
    /// (which race real delivery) never fire. **Only safe for plans where
    /// every data packet is eventually delivered intact and promptly**:
    /// no drops, corruption, reordering, link faults, or crashes — with
    /// the timer effectively disabled, anything needing a retransmit (or a
    /// held packet waiting out its release window) would stall forever.
    /// Duplicate injection is fine: the original copy still arrives and
    /// is acked.
    pub fn deterministic() -> Self {
        RetransmitConfig {
            rto0_s: 1.0e9,
            rto_max_s: 1.0e9,
            backoff: 1.0,
            max_retries: u32::MAX,
            ack_overhead_s: 0.0,
            poll_s: 0.0,
            probe_s: 0.0,
            window: usize::MAX,
            backoff_jitter: 0.0,
        }
    }
}

/// Failure-detector tuning: virtual-time heartbeats with a phi-accrual
/// style suspicion score at the Comm boundary (all times virtual seconds).
///
/// With a detector armed, a scheduled rank crash is *silent* — the dead
/// rank stops emitting instead of broadcasting an out-of-band abort — and
/// the survivors must reach a consistent verdict: a rank that suspects a
/// peer (its silence exceeds `suspect_after` smoothed arrival intervals)
/// broadcasts a suspicion vote, retracting it if the peer is heard again,
/// and only condemns the peer once the suspicion has *aged* unretracted
/// through the confirmation window **and** a majority quorum of votes
/// agrees. The verdict tears the world down with the *dead peer's* rank
/// in the crash report, so a recovery harness knows exactly whose state
/// to restore.
///
/// The confirmation window is what makes stragglers survivable: at every
/// synchronization point downstream of a slow rank, clocks jump forward
/// together and the whole world transiently suspects everyone it has not
/// heard from since before the jump. Those suspicions — and the quorum of
/// votes that instantly accompanies them — are retracted within a few
/// packet exchanges; only a peer that stays silent through the window is
/// really dead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeartbeatConfig {
    /// Interval between heartbeat broadcasts.
    pub every_s: f64,
    /// Suspicion threshold, in units of the smoothed inter-arrival
    /// interval estimate (floored at `every_s`): the virtual-time analog
    /// of a phi-accrual detector's phi threshold.
    pub suspect_after: f64,
    /// Confirmation window, in units of `every_s`: a suspicion must
    /// survive this long unretracted before a quorum may condemn.
    ///
    /// Size this against the *idle-warp rate*, not the beat cadence: a
    /// rank blocked on a silent peer advances its virtual clock one
    /// `every_s` step per hysteresis window of empty polls, so the wall
    /// time a live-but-stalled peer gets to retract is roughly
    /// `confirm_for * IDLE_WARP_POLLS * poll quantum`. The default (150
    /// beats ≈ a second of wall grace) rides out debug-build force
    /// phases and OS scheduling hiccups; a genuinely dead rank still
    /// condemns, just those beats later on the warped clock.
    pub confirm_for: f64,
    /// Mutation tooth (split-brain): drop the confirmation window and
    /// condemn the moment a quorum of suspicion votes lines up. A
    /// straggler's clock jump then turns the transient all-suspect-all
    /// storm at the next synchronization point into a verdict against a
    /// live rank — exactly the failure confirmation exists to prevent —
    /// and the simcheck seed set must catch it. Gated behind the
    /// `sim-mutants` feature (or this crate's own tests) so production
    /// builds cannot even express the broken detector.
    #[cfg(any(test, feature = "sim-mutants"))]
    pub condemn_unconfirmed: bool,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            every_s: 5.0e-4,
            suspect_after: 8.0,
            confirm_for: 150.0,
            #[cfg(any(test, feature = "sim-mutants"))]
            condemn_unconfirmed: false,
        }
    }
}

/// A seeded schedule of injected failures for one simulated job.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-rank injection streams.
    pub seed: u64,
    /// Per-message probability the packet silently vanishes.
    pub drop: f64,
    /// Per-message probability of delivered-but-corrupt (CRC discard).
    pub corrupt: f64,
    /// Per-message probability an extra copy is delivered.
    pub duplicate: f64,
    /// Per-message probability the packet is held back past a successor.
    pub reorder: f64,
    /// Scheduled rank deaths (absolute virtual time).
    pub crashes: Vec<CrashEvent>,
    /// Switch-port faults applied to the fabric for the whole run.
    pub link_faults: Vec<LinkFault>,
    pub retransmit: RetransmitConfig,
    /// Failure detector; `None` (the default) keeps crashes loud (the
    /// abort flag broadcasts the death) and adds zero behavior change.
    pub heartbeat: Option<HeartbeatConfig>,
}

impl FaultPlan {
    /// A plan that injects nothing (still usable as a world's `faults`,
    /// e.g. as the control arm of an experiment).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            crashes: Vec::new(),
            link_faults: Vec::new(),
            retransmit: RetransmitConfig::default(),
            heartbeat: None,
        }
    }

    pub fn with_drop(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability {p}");
        self.drop = p;
        self
    }

    pub fn with_corrupt(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "corrupt probability {p}");
        self.corrupt = p;
        self
    }

    pub fn with_duplicate(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "duplicate probability {p}");
        self.duplicate = p;
        self
    }

    pub fn with_reorder(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "reorder probability {p}");
        self.reorder = p;
        self
    }

    pub fn with_crash(mut self, rank: usize, at: f64) -> Self {
        self.crashes.push(CrashEvent { rank, at });
        self
    }

    pub fn with_link_fault(mut self, fault: LinkFault) -> Self {
        self.link_faults.push(fault);
        self
    }

    /// Replace the reliable-transport tuning (e.g. with
    /// [`RetransmitConfig::deterministic`] for replayable traces).
    pub fn with_retransmit(mut self, cfg: RetransmitConfig) -> Self {
        self.retransmit = cfg;
        self
    }

    /// Arm the heartbeat failure detector (crashes go silent; survivors
    /// must detect the death and reach a quorum verdict).
    pub fn with_heartbeat(mut self, cfg: HeartbeatConfig) -> Self {
        assert!(cfg.every_s > 0.0, "heartbeat interval {}", cfg.every_s);
        assert!(cfg.suspect_after > 1.0, "threshold {}", cfg.suspect_after);
        assert!(cfg.confirm_for >= 0.0, "confirm window {}", cfg.confirm_for);
        self.heartbeat = Some(cfg);
        self
    }

    /// True when the plan can never perturb a run.
    pub fn is_trivial(&self) -> bool {
        self.drop == 0.0
            && self.corrupt == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.crashes.is_empty()
            && self.link_faults.is_empty()
            && self.heartbeat.is_none()
    }

    /// Derive a plan from the §2.1 reliability model, compressed in time.
    ///
    /// Real rates are per component-month; a simulated job lasts virtual
    /// seconds, so `acceleration` scales nine months of hardware attrition
    /// into the run: every non-switch component failure takes its node
    /// (rank) down at a uniformly random time in `[0, horizon_s)`, and the
    /// soft switch-port error rate becomes a per-message loss/corruption
    /// probability through the two ports each message crosses.
    pub fn paper_calibrated(
        model: &nodesim::ReliabilityModel,
        nranks: usize,
        horizon_s: f64,
        acceleration: f64,
        seed: u64,
    ) -> Self {
        use nodesim::ComponentClass;
        let mut rng = SplitMix64::new(seed ^ 0xFA17_0000_0000_0001);
        // Per-node fatal failures per month (cluster rate / 294 nodes).
        let nodes = 294.0;
        let mut node_rate = 0.0;
        let mut port_rate = 0.0;
        for c in &model.components {
            let cluster_rate = c.population as f64 * c.monthly_rate;
            if c.class == ComponentClass::SwitchPort {
                port_rate = c.monthly_rate;
            } else {
                node_rate += cluster_rate / nodes;
            }
        }
        let lambda = node_rate * acceleration * horizon_s / MONTH_S;
        let mut crashes = Vec::new();
        for rank in 0..nranks {
            if rng.unit() < 1.0 - (-lambda).exp() {
                crashes.push(CrashEvent {
                    rank,
                    at: rng.unit() * horizon_s,
                });
            }
        }
        let p = (2.0 * port_rate * acceleration).min(0.25);
        FaultPlan {
            seed: rng.next_u64(),
            drop: p,
            corrupt: 0.25 * p,
            duplicate: 0.1 * p,
            reorder: 0.25 * p,
            crashes,
            link_faults: Vec::new(),
            retransmit: RetransmitConfig::default(),
            heartbeat: None,
        }
    }
}

/// Panic payload of a rank hitting its scheduled crash time (or giving up
/// on an unreachable peer).
#[derive(Debug, Clone, Copy)]
pub struct RankCrash {
    pub rank: usize,
    pub at: f64,
}

/// Panic payload of a rank noticing that the world is being torn down
/// (another rank crashed, stalled or panicked).
#[derive(Debug, Clone, Copy)]
pub struct WorldAborted;

/// Panic payload of a rank dying *silently*: a scheduled crash with the
/// failure detector armed. Unlike [`RankCrash`] it neither raises the
/// world-abort flag nor makes the runner wake the peers — real dead
/// nodes don't announce themselves, so the survivors must notice the
/// silence through the heartbeat layer and reach a quorum verdict on
/// their own.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QuietCrash(pub RankCrash);

/// splitmix64: small, seedable, and good enough for injection draws.
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }
}

/// A sent-but-unacknowledged message parked for possible retransmission.
pub(crate) struct Unacked {
    pub seq: u64,
    pub tag: Tag,
    pub bytes: usize,
    /// Happens-before edge id of the original send; retransmissions
    /// reuse it so the receiver's trace joins to one sender record.
    pub edge: u64,
    pub data: Box<dyn AnyPayload>,
}

/// Sender-side transport state toward one peer.
pub(crate) struct PeerTx {
    pub next_seq: u64,
    pub unacked: VecDeque<Unacked>,
    pub rto_s: f64,
    /// Virtual time the retransmit timer fires; ∞ when nothing is unacked.
    pub deadline: f64,
    pub retries: u32,
}

/// Receiver-side transport state from one peer.
pub(crate) struct PeerRx {
    pub next_expected: u64,
    /// Out-of-order packets parked until the sequence gap fills.
    pub reorder: BTreeMap<u64, Packet>,
}

/// A packet held back by reorder injection.
pub(crate) struct HeldPacket {
    pub pkt: Packet,
    pub release_at: f64,
}

/// Failure-detector state (armed only when the plan carries a
/// [`HeartbeatConfig`]).
///
/// All times are this rank's *own* virtual clock. Per-rank clocks drift
/// apart between synchronization points, so a peer's packet can carry an
/// arrival stamp far in this rank's past (the peer's clock lags) — which
/// is why liveness is recorded as `max(own clock, arrival)` at ingest
/// time: silence only accrues while genuinely hearing nothing, never
/// because a busy-but-alive peer's timeline runs behind ours.
pub(crate) struct HealthState {
    pub cfg: HeartbeatConfig,
    /// Virtual time of the next heartbeat broadcast.
    pub next_hb: f64,
    /// Per-peer last time we heard *anything* (data, ack, heartbeat, or
    /// vote).
    pub last_seen: Vec<f64>,
    /// Per-peer smoothed inter-arrival gap (the phi-accrual mean).
    pub ewma: Vec<f64>,
    /// Peers this rank currently suspects.
    pub suspected: Vec<bool>,
    /// When each standing suspicion was raised (∞ when not suspected);
    /// a verdict requires the suspicion to have aged through the
    /// confirmation window unretracted.
    pub suspect_since: Vec<f64>,
    /// `votes[peer][voter]`: ranks currently voting `peer` dead (this
    /// rank's own suspicion counts as its vote).
    pub votes: Vec<Vec<bool>>,
}

impl HealthState {
    fn new(cfg: HeartbeatConfig, size: usize, clock0: f64) -> Self {
        HealthState {
            cfg,
            next_hb: clock0 + cfg.every_s,
            last_seen: vec![clock0; size],
            ewma: vec![cfg.every_s; size],
            suspected: vec![false; size],
            suspect_since: vec![f64::INFINITY; size],
            votes: vec![vec![false; size]; size],
        }
    }
}

/// Per-rank fault-injection and reliable-transport state.
pub(crate) struct FaultCtx {
    pub drop_p: f64,
    pub corrupt_p: f64,
    pub duplicate_p: f64,
    pub reorder_p: f64,
    pub cfg: RetransmitConfig,
    pub rng: SplitMix64,
    /// This rank's next scheduled death (absolute virtual time; ∞ if none).
    pub crash_at: f64,
    /// World-wide flag: some rank died, everyone stop.
    pub abort: Arc<AtomicBool>,
    /// Ranks whose retransmit queues have fully emptied after their
    /// program returned; a rank may only exit once all have (otherwise
    /// its peers' lost packets would never be retransmitted).
    pub drained: Arc<AtomicUsize>,
    pub tx: Vec<PeerTx>,
    pub rx: Vec<PeerRx>,
    pub held: Vec<Option<HeldPacket>>,
    /// Heartbeat failure detector; `None` keeps every path unchanged.
    pub hb: Option<HealthState>,
}

impl FaultCtx {
    pub(crate) fn new(
        plan: &FaultPlan,
        rank: usize,
        size: usize,
        clock0: f64,
        abort: Arc<AtomicBool>,
        drained: Arc<AtomicUsize>,
    ) -> Self {
        let stream = plan
            .seed
            .wrapping_add((rank as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let crash_at = plan
            .crashes
            .iter()
            .filter(|c| c.rank == rank && c.at > clock0)
            .map(|c| c.at)
            .fold(f64::INFINITY, f64::min);
        FaultCtx {
            drop_p: plan.drop,
            corrupt_p: plan.corrupt,
            duplicate_p: plan.duplicate,
            reorder_p: plan.reorder,
            cfg: plan.retransmit,
            rng: SplitMix64::new(stream),
            crash_at,
            abort,
            drained,
            tx: (0..size)
                .map(|_| PeerTx {
                    next_seq: 0,
                    unacked: VecDeque::new(),
                    rto_s: plan.retransmit.rto0_s,
                    deadline: f64::INFINITY,
                    retries: 0,
                })
                .collect(),
            rx: (0..size)
                .map(|_| PeerRx {
                    next_expected: 0,
                    reorder: BTreeMap::new(),
                })
                .collect(),
            held: (0..size).map(|_| None).collect(),
            hb: plan
                .heartbeat
                .map(|cfg| HealthState::new(cfg, size, clock0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abm::{Abm, Termination};
    use crate::{Comm, Machine, Outcome, SchedPlan, World};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Chaos tests honor CHAOS_SEED (CI logs it) so a failure reproduces.
    fn chaos_seed() -> u64 {
        std::env::var("CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42)
    }

    /// Run `f` on an ideal `n`-rank machine under `plan`, every clock
    /// starting at `clock0`.
    fn run_faulted<T, F>(n: usize, plan: &FaultPlan, clock0: f64, f: F) -> Outcome<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        let world = World {
            clock0,
            faults: Some(plan),
            ..World::new(Machine::ideal(n as u32), n)
        };
        world.run(f).0
    }

    /// Every rank scatters `per_rank` uniquely-numbered messages through
    /// an Abm channel, runs Safra termination, and returns what it got.
    /// The union of receipts must be exactly the union of sends — once
    /// each — no matter what the transport injected.
    fn storm_exactly_once(nranks: usize, per_rank: u64, plan: &FaultPlan) {
        let out = run_faulted(nranks, plan, 0.0, |c| {
            let mut rng = SmallRng::seed_from_u64(1000 + c.rank() as u64);
            let mut abm: Abm<u64> = Abm::new(c.size(), 3, 4);
            let mut term = Termination::new();
            for i in 0..per_rank {
                let id = (c.rank() as u64) << 32 | i;
                let dst = rng.gen_range(0..c.size());
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
            (got, c.stats())
        })
        .expect_completed("no crashes scheduled");
        let mut all: Vec<u64> = out.iter().flat_map(|(g, _)| g.iter().copied()).collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..nranks as u64)
            .flat_map(|r| (0..per_rank).map(move |i| r << 32 | i))
            .collect();
        assert_eq!(
            all, expect,
            "payload multiset mismatch (lost or duplicated messages)"
        );
    }

    #[test]
    fn zero_fault_plan_delivers_and_injects_nothing() {
        let plan = FaultPlan::none(chaos_seed());
        assert!(plan.is_trivial());
        let vals = run_faulted(4, &plan, 0.0, |c| {
            let right = (c.rank() + 1) % c.size();
            c.send(right, 1, c.rank() as u64);
            let (_, v) = c.recv::<u64>(None, 1);
            assert_eq!(c.stats().fault.drops, 0);
            assert_eq!(c.stats().fault.retransmits, 0);
            v
        })
        .expect_completed("trivial plan");
        assert_eq!(vals, vec![3, 0, 1, 2]);
    }

    #[test]
    fn clock0_offsets_the_virtual_timeline() {
        let plan = FaultPlan::none(7);
        let times = run_faulted(2, &plan, 100.0, |c| {
            c.compute(1e8, 0.0);
            c.time()
        })
        .expect_completed("no faults");
        assert!(times.iter().all(|&t| t > 100.0), "{times:?}");
    }

    #[test]
    fn lossy_ring_recovers_via_retransmit() {
        let plan = FaultPlan::none(chaos_seed()).with_drop(0.4);
        let out = run_faulted(4, &plan, 0.0, |c| {
            let right = (c.rank() + 1) % c.size();
            // Enough traffic that some of it is certain to be dropped.
            for i in 0..50u64 {
                c.send(right, 2, i);
            }
            let mut sum = 0u64;
            for _ in 0..50 {
                sum += c.recv::<u64>(None, 2).1;
            }
            (sum, c.stats())
        })
        .expect_completed("drops are recoverable");
        let total_drops: u64 = out.iter().map(|(_, s)| s.fault.drops).sum();
        let total_retx: u64 = out.iter().map(|(_, s)| s.fault.retransmits).sum();
        assert!(total_drops > 0, "40% loss over 200 sends must drop some");
        assert!(total_retx > 0, "drops must trigger retransmissions");
        for (sum, _) in &out {
            assert_eq!(*sum, (0..50).sum::<u64>());
        }
    }

    #[test]
    fn idle_rank_jumps_to_retransmit_deadline() {
        // A dead port eats the first copy; the only recovery is the
        // retransmit timer at t = 200 s virtual. Creeping there one 50 µs
        // poll quantum per 100 µs wall wakeup would take ~4e6 wakeups
        // (minutes of wall time); the event-driven skip completes this
        // test in milliseconds by jumping the blocked sender's clock
        // straight to the deadline.
        let slow = RetransmitConfig {
            rto0_s: 200.0,
            rto_max_s: 200.0,
            backoff: 1.0,
            ..RetransmitConfig::default()
        };
        let plan = FaultPlan::none(3)
            .with_link_fault(LinkFault::dead(1, 0.0, 100.0))
            .with_retransmit(slow);
        let out = run_faulted(2, &plan, 0.0, |c| {
            if c.rank() == 0 {
                c.send(1, 4, 99u64);
                let (_, echo) = c.recv::<u64>(Some(1), 4);
                (echo, c.time(), c.stats().fault.retransmits)
            } else {
                let (_, v) = c.recv::<u64>(Some(0), 4);
                c.send(0, 4, v);
                (v, c.time(), c.stats().fault.retransmits)
            }
        })
        .expect_completed("port cured before the retransmit fires");
        assert_eq!(out[0].0, 99);
        assert_eq!(out[1].0, 99);
        // The echo cannot exist before the t = 200 s retransmit delivered
        // the original, so both clocks must have crossed the deadline.
        assert!(out[0].1 >= 200.0, "rank 0 finished at t={}", out[0].1);
        assert!(out[1].1 >= 200.0, "rank 1 finished at t={}", out[1].1);
        assert!(
            out[0].2 >= 1,
            "recovery must come from the retransmit timer"
        );
    }

    #[test]
    fn corruption_and_duplication_are_transparent() {
        let plan = FaultPlan::none(chaos_seed())
            .with_corrupt(0.2)
            .with_duplicate(0.3);
        let out = run_faulted(2, &plan, 0.0, |c| {
            let peer = 1 - c.rank();
            for i in 0..60u64 {
                c.send(peer, 5, i);
            }
            let got: Vec<u64> = (0..60).map(|_| c.recv_from::<u64>(peer, 5)).collect();
            (got, c.stats())
        })
        .expect_completed("recoverable faults");
        for (got, _) in &out {
            // FIFO per (src, tag) stream must survive: exactly 0..60.
            assert_eq!(*got, (0..60).collect::<Vec<u64>>());
        }
        let dups: u64 = out.iter().map(|(_, s)| s.fault.duplicates).sum();
        let corr: u64 = out.iter().map(|(_, s)| s.fault.corruptions).sum();
        assert!(dups > 0 && corr > 0, "dups {dups} corr {corr}");
    }

    #[test]
    fn scheduled_crash_is_reported_with_rank_and_time() {
        let plan = FaultPlan::none(1).with_crash(1, 0.5);
        let out: Outcome<u64> = run_faulted(2, &plan, 0.0, |c| {
            // Ping-pong forever; rank 1 dies at t=0.5 and rank 0 must
            // notice (abort flag) instead of hanging.
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
                c.compute(1e7, 0.0); // ~4 ms/iteration: crash hits fast
            }
        });
        match out {
            Outcome::Crashed { rank, at } => {
                assert_eq!(rank, 1);
                assert!(at >= 0.5, "crash at {at}");
            }
            other => panic!("world must crash, got {other:?}"),
        }
    }

    #[test]
    fn crash_before_clock0_is_already_spent() {
        // Restart semantics: an event at t=0.5 must not re-fire in an
        // attempt starting at clock0=1.0.
        let plan = FaultPlan::none(1).with_crash(1, 0.5);
        let vals = run_faulted(2, &plan, 1.0, |c| c.rank() as u64)
            .expect_completed("crash already in the past");
        assert_eq!(vals, vec![0, 1]);
    }

    #[test]
    fn dead_switch_port_is_survivable_if_it_heals() {
        // Port 1's link is dead for the first 20 ms of virtual time; the
        // transport must carry the ring through it via retransmits.
        let plan = FaultPlan::none(chaos_seed()).with_link_fault(LinkFault::dead(1, 0.0, 2.0e-2));
        let out = run_faulted(3, &plan, 0.0, |c| {
            let right = (c.rank() + 1) % c.size();
            c.send(right, 1, c.rank() as u64);
            let (_, v) = c.recv::<u64>(None, 1);
            (v, c.stats())
        })
        .expect_completed("link heals in time");
        let vals: Vec<u64> = out.iter().map(|(v, _)| *v).collect();
        assert_eq!(vals, vec![2, 0, 1]);
        let retx: u64 = out.iter().map(|(_, s)| s.fault.retransmits).sum();
        assert!(retx > 0, "dead-port windows must force retransmits");
    }

    #[test]
    fn paper_calibrated_plan_has_sane_shape() {
        let model = nodesim::ReliabilityModel::space_simulator();
        // Nine months compressed hard enough that failures are likely.
        let plan = FaultPlan::paper_calibrated(&model, 16, 10.0, 3.0e7, 99);
        assert!(plan.drop > 0.0 && plan.drop <= 0.25);
        assert!(plan.corrupt < plan.drop);
        for c in &plan.crashes {
            assert!(c.rank < 16);
            assert!((0.0..10.0).contains(&c.at));
        }
        // Same seed, same plan: the derivation is deterministic.
        let again = FaultPlan::paper_calibrated(&model, 16, 10.0, 3.0e7, 99);
        assert_eq!(plan, again);
        // With no acceleration a seconds-long window sees ~zero faults.
        let calm = FaultPlan::paper_calibrated(&model, 16, 10.0, 1.0, 99);
        assert!(calm.crashes.is_empty());
        assert!(calm.drop < 1e-2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        /// ABM + Safra termination delivers every payload exactly once
        /// under randomized drop/duplication/corruption/reorder schedules.
        #[test]
        fn abm_exactly_once_under_chaos(
            seed in 0u64..1_000_000,
            drop in 0.0f64..0.30,
            dup in 0.0f64..0.25,
            corrupt in 0.0f64..0.20,
            reorder in 0.0f64..0.25,
        ) {
            let plan = FaultPlan::none(seed ^ chaos_seed())
                .with_drop(drop)
                .with_duplicate(dup)
                .with_corrupt(corrupt)
                .with_reorder(reorder);
            storm_exactly_once(3, 25, &plan);
        }
    }

    #[test]
    fn abm_exactly_once_under_heavy_chaos() {
        // One fixed, nastier case than the proptest sweep.
        let plan = FaultPlan::none(chaos_seed())
            .with_drop(0.35)
            .with_duplicate(0.3)
            .with_corrupt(0.2)
            .with_reorder(0.3);
        storm_exactly_once(4, 40, &plan);
    }

    /// Burst `n` messages into a 50 ms dead-port outage with the given
    /// in-flight window; returns rank 0's transport counters.
    fn dead_port_burst(window: usize, n: u64) -> crate::FaultStats {
        let cfg = RetransmitConfig {
            window,
            ..RetransmitConfig::default()
        };
        let plan = FaultPlan::none(9)
            .with_link_fault(LinkFault::dead(1, 0.0, 5.0e-2))
            .with_retransmit(cfg);
        let out = run_faulted(2, &plan, 0.0, |c| {
            if c.rank() == 0 {
                for i in 0..n {
                    c.send(1, 7, i);
                }
                let (_, sum) = c.recv::<u64>(Some(1), 8);
                assert_eq!(sum, (0..n).sum::<u64>());
                c.stats().fault
            } else {
                let mut sum = 0u64;
                for _ in 0..n {
                    sum += c.recv_from::<u64>(0, 7);
                }
                c.send(0, 8, sum);
                c.stats().fault
            }
        })
        .expect_completed("the outage heals");
        out[0]
    }

    #[test]
    fn backpressure_window_caps_the_retransmit_storm() {
        // Every packet launched into the outage is a guaranteed future
        // retransmission (the dead port eats it; only the timer brings
        // it back), so the uncapped transport pays ~one retransmit per
        // burst message once the port heals. The windowed transport
        // parks the sender after `window` packets and sends the rest
        // fresh against a healthy link.
        let uncapped = dead_port_burst(usize::MAX, 120);
        let capped = dead_port_burst(8, 120);
        assert_eq!(uncapped.window_stalls, 0);
        assert!(
            capped.window_stalls > 0,
            "a 120-message burst into a window of 8 must stall"
        );
        assert!(
            uncapped.retransmits >= 5 * capped.retransmits.max(1),
            "backpressure must cut the storm >= 5x: uncapped {} vs capped {}",
            uncapped.retransmits,
            capped.retransmits
        );
        assert!(capped.rto_expiries > 0, "timer recovery still used");
    }

    #[test]
    fn quiet_crash_is_detected_by_quorum_verdict() {
        // With the detector armed the scheduled crash is silent: no
        // abort flag. The three survivors must each notice the silence,
        // exchange suspicion votes, and condemn the dead rank — naming
        // *it* (not themselves) in the crash report. A delivery schedule
        // on top must not change that: the silent death still waits for
        // the survivors' verdict and is reported as a crash.
        let plan = FaultPlan::none(5)
            .with_crash(2, 2.0e-2)
            .with_heartbeat(HeartbeatConfig::default());
        let reference = SchedPlan::reference(1);
        for sched in [None, Some((&reference, None))] {
            let world = World {
                faults: Some(&plan),
                sched,
                ..World::new(Machine::ideal(4), 4)
            };
            let (out, _, _) = world.run(|c| {
                let mut n = 0u64;
                loop {
                    for p in 0..c.size() {
                        if p != c.rank() {
                            c.send(p, 3, n);
                        }
                    }
                    for _ in 0..c.size() - 1 {
                        let _ = c.recv::<u64>(None, 3);
                    }
                    n += 1;
                    c.compute(1e6, 0.0);
                }
            });
            match out {
                Outcome::<()>::Crashed { rank, at } => {
                    assert_eq!(rank, 2, "the verdict must name the dead rank");
                    assert!(at >= 2.0e-2, "detected at t={at}");
                }
                other => panic!(
                    "world must crash (scheduled: {}), got {other:?}",
                    sched.is_some()
                ),
            }
        }
    }

    /// Three rounds of all-to-all warmup, then rank 3 disappears into a
    /// compute phase ~50x longer than the suspicion threshold, then one
    /// more exchange. The straggler's clock jump makes it (briefly,
    /// spuriously) suspect everyone — its `last_seen` stamps are stale
    /// while its own clock leapt ahead.
    fn straggler_world(seed: u64, hb: HeartbeatConfig) -> Outcome<(u64, crate::FaultStats)> {
        let plan = FaultPlan::none(seed).with_heartbeat(hb);
        run_faulted(4, &plan, 0.0, |c| {
            for round in 0..3u64 {
                for p in 0..c.size() {
                    if p != c.rank() {
                        c.send(p, 11, round);
                    }
                }
                for _ in 0..c.size() - 1 {
                    let _ = c.recv::<u64>(None, 11);
                }
            }
            if c.rank() == 3 {
                c.compute(5e8, 0.0); // ~0.2 s virtual, threshold is ~4 ms
            }
            for p in 0..c.size() {
                if p != c.rank() {
                    c.send(p, 12, c.rank() as u64);
                }
            }
            let mut sum = 0u64;
            for _ in 0..c.size() - 1 {
                sum += c.recv::<u64>(None, 12).1;
            }
            (sum, c.stats().fault)
        })
    }

    #[test]
    fn straggler_is_suspected_but_not_condemned() {
        // Healthy protocol: the straggler's spurious suspicions stay
        // below quorum and retract once its mailbox drains, so the world
        // completes — and the health counters saw the episode.
        let out = straggler_world(77, HeartbeatConfig::default())
            .expect_completed("a slow rank is not a dead rank");
        let total = |f: fn(&crate::FaultStats) -> u64| out.iter().map(|(_, s)| f(s)).sum::<u64>();
        assert!(total(|s| s.heartbeats) > 0, "detector must have beaten");
        assert!(
            total(|s| s.suspicions) > 0,
            "the clock jump must raise (retracted) suspicions"
        );
        assert_eq!(total(|s| s.verdicts), 0, "nobody may be condemned");
        for (r, (sum, _)) in out.iter().enumerate() {
            assert_eq!(*sum, 6 - r as u64, "exchange payloads intact");
        }
    }

    #[test]
    fn simcheck_catches_split_brain_verdict_mutant() {
        // Teeth: drop the suspicion-confirmation window (condemn the
        // moment a quorum of votes lines up, before retractions can
        // propagate) and the straggler's clock jump turns the transient
        // all-suspect-all storm at the final exchange into a split-brain
        // kill of a live rank. The seed sweep must catch the mutant as a
        // crashed world.
        let mutant = HeartbeatConfig {
            condemn_unconfirmed: true,
            ..HeartbeatConfig::default()
        };
        let mut caught = None;
        for seed in 0..8u64 {
            if let Outcome::Crashed { rank, at } = straggler_world(seed, mutant) {
                caught = Some((seed, rank, at));
                break;
            }
        }
        let (seed, rank, at) = caught.expect("the split-brain mutant must be caught");
        eprintln!("mutant caught: seed {seed} falsely condemned rank {rank} at t={at:.4}");
    }
}
