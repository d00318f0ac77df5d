//! MPI-like message passing over threads, with virtual-time accounting.
//!
//! The Space Simulator's applications are MPI programs. This crate is the
//! substrate they run on in this reproduction: every "processor" is a
//! thread, messages travel over in-process channels, and — because the
//! machine we are modeling no longer exists — every rank additionally
//! maintains a **virtual clock** advanced by:
//!
//! * modeled computation time ([`Comm::compute`], using the node's
//!   roofline model from `nodesim`), and
//! * modeled communication time (send/receive overheads from the MPI
//!   library profile plus transfer time through the `netsim` switch
//!   fabric, including contention on module uplinks and the trunk).
//!
//! The result is a program that really runs in parallel (so correctness is
//! tested for real) while reporting the execution time it would have had
//! on the 294-node cluster. The timestamp rule — a receive completes at
//! `max(local clock + overhead, message arrival time)` — makes virtual
//! time causally consistent for deterministic programs.
//!
//! Modules:
//! * [`world`] — the one runner: a [`World`] (machine, ranks, and the
//!   optional fault plan, delivery schedule and tracing it runs under)
//!   and its [`Outcome`], plus the fault-free shorthands [`run`],
//!   [`run_with`] and [`run_observed`];
//! * [`comm`] — ranks and point-to-point send/recv;
//! * [`fault`] — fault plans, the reliable transport's tuning and the
//!   failure detector;
//! * [`sched`] — adversarial delivery schedules, liveness watchdogs and
//!   replayable decision logs;
//! * [`collectives`] — barrier, broadcast, reduce, allreduce, gather,
//!   allgather, alltoallv, scan;
//! * [`abm`] — "asynchronous batched messages": the paper's §4.2 paradigm
//!   (batched active-message-style traffic with Dijkstra-token
//!   termination detection);
//! * [`group`] — sub-communicators (`MPI_Comm_split`) for row/column
//!   collectives;
//! * [`machine`] — the (node model, fabric) pair a world runs on;
//! * [`payload`] — the trait giving each message a wire size;
//! * [`sort`] — parallel sample sort, the backbone of the treecode's
//!   domain decomposition.

pub mod abm;
pub mod collectives;
pub mod comm;
pub mod fault;
pub mod group;
pub mod machine;
pub mod payload;
pub mod sched;
pub mod sort;
pub mod world;

pub use abm::{Abm, Termination};
pub use comm::{Comm, CommStats, FaultStats, MailboxTimeout, Tag};
pub use fault::{CrashEvent, FaultPlan, HeartbeatConfig, RetransmitConfig};
pub use group::Group;
pub use machine::Machine;
pub use payload::Payload;
pub use sched::{SchedPlan, ScheduleLog};
pub use world::{run, run_observed, run_with, Outcome, World};
