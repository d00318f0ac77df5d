//! The treecode throughput model (Table 6) and small-scale validation
//! runs on the virtual-time message-passing layer.
//!
//! The model: per-processor treecode Mflop/s = gravity-kernel rate ×
//! step efficiency, where the efficiency accounts for the non-force
//! phases (tree build, domain decomposition, moments — charged as a
//! fixed fraction calibrated once on the Space Simulator row) and the
//! communication time of the request traffic through the machine's
//! network profile.

use crate::machines::MachineSpec;
use hot::models;
use hot::parallel::{parallel_accelerations, ParallelConfig};

/// Fraction of a timestep spent outside the force inner loop (tree
/// build, decomposition, moments). Calibrated once so the Space
/// Simulator row of Table 6 reproduces; every other machine is then a
/// prediction.
pub const NON_FORCE_FRACTION: f64 = 0.15;

/// Mean interactions per particle for the production accuracy settings
/// (θ ≈ 0.6, quadrupoles), measured from our own traversal.
pub const INTERACTIONS_PER_PARTICLE: f64 = 250.0;

/// Flops per interaction (the paper's counting).
pub const FLOPS_PER_INTERACTION: f64 = 38.0;

/// Cell-fetch traffic per particle per step, bytes (requests + replies,
/// amortized; batched into ~4 kB messages).
pub const COMM_BYTES_PER_PARTICLE: f64 = 60.0;
const BATCH_BYTES: usize = 4096;

/// Predicted treecode performance of `machine` running `n_particles`
/// on `procs` processors: `(total Gflop/s, Mflops/proc)`.
pub fn treecode_model(machine: &MachineSpec, procs: u32, n_particles: f64) -> (f64, f64) {
    let n_per = n_particles / procs as f64;
    let kernel_mflops = machine.cpu.best_mflops();
    // Force phase.
    let flops_per_proc = n_per * INTERACTIONS_PER_PARTICLE * FLOPS_PER_INTERACTION;
    let t_force = flops_per_proc / (kernel_mflops * 1e6);
    // Non-force phases.
    let t_other = t_force * NON_FORCE_FRACTION / (1.0 - NON_FORCE_FRACTION);
    // Communication: batched cell traffic through the profile.
    let bytes = n_per * COMM_BYTES_PER_PARTICLE * (procs as f64).ln().max(1.0) / 8.0;
    let msgs = (bytes / BATCH_BYTES as f64).ceil();
    let t_comm = msgs * machine.profile.transfer_time(BATCH_BYTES);
    let t_step = t_force + t_other + t_comm;
    let mflops_per_proc = flops_per_proc / t_step / 1e6;
    let total_gflops = mflops_per_proc * procs as f64 / 1e3;
    (total_gflops, mflops_per_proc)
}

/// The Table 6 problem size the paper ran (a fixed per-proc load keeps
/// the comparison fair across machine sizes; the paper used the same
/// spherical problem scaled to each machine).
pub fn table6_particles(procs: u32) -> f64 {
    procs as f64 * 200_000.0
}

/// Regenerate Table 6: `(name, procs, model Gflop/s, model Mflops/proc,
/// paper Gflop/s, paper Mflops/proc)`.
pub fn table6() -> Vec<(&'static str, u32, f64, f64, f64, f64)> {
    MachineSpec::table6_machines()
        .into_iter()
        .zip(MachineSpec::table6_paper_values())
        .map(|((m, procs), (name, paper_total, paper_per))| {
            let (total, per) = treecode_model(&m, procs, table6_particles(procs));
            (name, procs, total, per, paper_total, paper_per)
        })
        .collect()
}

/// Actually run the distributed treecode on the virtual-time layer with
/// `procs` ranks on the given machine; returns measured
/// `(Mflops/proc, max virtual step time)`. Small scales only (ranks are
/// host threads).
pub fn measured_run(machine: &MachineSpec, procs: usize, n_particles: usize) -> (f64, f64) {
    let (mflops, t, _) = measured_run_impl(machine, procs, n_particles, false);
    (mflops, t)
}

/// [`measured_run`] with the observability layer switched on: every rank
/// records `hot.decompose` / `hot.tree_build` / `hot.walk` spans plus
/// message and walk counters, and the merged world trace is returned
/// alongside the measurement.
///
/// The HOT walk services cell requests in wall-clock arrival order, so
/// traces from this entry point are faithful but not run-to-run
/// byte-stable; use [`crate::chaos::run_treecode_traced`] on a
/// fault-free plan for golden-trace comparisons.
pub fn measured_run_traced(
    machine: &MachineSpec,
    procs: usize,
    n_particles: usize,
) -> (f64, f64, obs::WorldTrace) {
    let (mflops, t, trace) = measured_run_impl(machine, procs, n_particles, true);
    (mflops, t, trace.expect("traced run always yields a trace"))
}

fn measured_run_impl(
    machine: &MachineSpec,
    procs: usize,
    n_particles: usize,
    traced: bool,
) -> (f64, f64, Option<obs::WorldTrace>) {
    let msg_machine = match machine.fabric {
        crate::machines::FabricKind::SpaceSimulatorSwitch => {
            msg::Machine::space_simulator(machine.profile)
        }
        crate::machines::FabricKind::Crossbar => msg::Machine::new(
            nodesim::NodeModel::space_simulator(),
            netsim::Fabric::ideal(procs.max(2) as u32, machine.profile),
        ),
    };
    let bodies = models::plummer(n_particles, 12345);
    let cpu_eff = machine.cpu.best_mflops() * 1e6 / 5.06e9;
    let world = |comm: &mut msg::Comm| {
        let mine: Vec<hot::Body> = bodies
            .iter()
            .enumerate()
            .filter(|(i, _)| i % comm.size() == comm.rank())
            .map(|(_, b)| *b)
            .collect();
        let cfg = ParallelConfig {
            cpu_eff,
            ..Default::default()
        };
        let r = parallel_accelerations(comm, mine, &cfg);
        (r.stats.flops(true), r.vtime)
    };
    let (out, trace, _) = msg::World {
        observe: traced,
        ..msg::World::new(msg_machine, procs)
    }
    .run(world);
    let results = out.expect_completed("fault-free world");
    let total_flops: f64 = results.iter().map(|(f, _)| f).sum();
    let t = results.iter().map(|(_, t)| *t).fold(0.0, f64::max);
    (total_flops / t / 1e6 / procs as f64, t, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_simulator_row_is_calibrated() {
        let ss = MachineSpec::space_simulator();
        let (total, per) = treecode_model(&ss, 288, table6_particles(288));
        // Paper: 179.7 Gflop/s, 623.9 Mflops/proc.
        assert!((per - 623.9).abs() / 623.9 < 0.05, "per-proc {per}");
        assert!((total - 179.7).abs() / 179.7 < 0.05, "total {total}");
    }

    #[test]
    fn table6_shape_holds() {
        let rows = table6();
        for (name, _, total, per, paper_total, paper_per) in &rows {
            // Factor-of-2 agreement per row is the target for a model
            // with one calibrated constant.
            let rt = total / paper_total;
            let rp = per / paper_per;
            assert!(
                rt > 0.45 && rt < 2.2,
                "{name}: total {total} vs paper {paper_total}"
            );
            assert!(
                rp > 0.45 && rp < 2.2,
                "{name}: per-proc {per} vs paper {paper_per}"
            );
        }
        // Ordering claims the paper makes: ASCI QB fastest in total;
        // SS per-proc close behind QB and far ahead of the 1996 crowd.
        let total_of = |n: &str| rows.iter().find(|r| r.0 == n).unwrap().2;
        let per_of = |n: &str| rows.iter().find(|r| r.0 == n).unwrap().3;
        assert!(total_of("ASCI QB") > total_of("Space Simulator"));
        assert!(total_of("Space Simulator") > total_of("IBM SP-3(375/W)"));
        assert!(per_of("Space Simulator") > 4.0 * per_of("Loki"));
    }

    #[test]
    fn whole_ss_comparable_to_256_procs_of_asci_q() {
        // §4.2: "the performance of the full Space Simulator cluster is
        // similar to that of 256 processors on ASCI Q".
        let ss = treecode_model(&MachineSpec::space_simulator(), 288, table6_particles(288)).0;
        let q256 = treecode_model(&MachineSpec::asci_qb(), 256, table6_particles(256)).0;
        let ratio = ss / q256;
        assert!(ratio > 0.6 && ratio < 1.6, "SS/Q256 = {ratio}");
    }

    #[test]
    fn measured_small_run_is_in_the_model_ballpark() {
        let ss = MachineSpec::space_simulator();
        let (mflops_per_proc, t) = measured_run(&ss, 4, 2000);
        assert!(t > 0.0);
        // The small-N measured rate carries more per-step overhead than
        // the production model; just demand the right magnitude.
        assert!(
            mflops_per_proc > 50.0 && mflops_per_proc < 2000.0,
            "measured {mflops_per_proc} Mflops/proc"
        );
    }

    #[test]
    fn gigabit_beats_fast_ethernet_at_scale() {
        // Same CPU, different network: the GigE machine should hold its
        // per-proc rate better at 288 procs.
        let ss = MachineSpec::space_simulator();
        let mut slow = ss.clone();
        slow.profile = netsim::LibraryProfile::fast_ethernet();
        let (_, fast_per) = treecode_model(&ss, 288, table6_particles(288));
        let (_, slow_per) = treecode_model(&slow, 288, table6_particles(288));
        assert!(fast_per > slow_per, "{fast_per} vs {slow_per}");
    }
}

/// SPH supernova-code performance model (§4.4). The paper: "For our 1
/// million particle simulations on 128 processors, per processor
/// performance (using gcc/g77) is about 1/2 that of the ASCI Q system
/// on an equivalent number of processors. ... Performance tuning
/// remains to be done, especially investigating the use of the Intel
/// 7.0 compilers."
///
/// Model: per-proc rate = the machine's *libm* kernel rate (SPH is full
/// of sqrt/divides and was not Karp-optimized) × an untuned-compiler
/// factor on x86 (gcc's x87 codegen; Table 5 shows icc is 1.7× gcc on
/// the P4, while the Alpha compilers were already mature) × a step
/// efficiency with heavier non-force phases (neighbour finding, EOS)
/// and ghost-exchange communication.
pub fn sph_model(machine: &MachineSpec, procs: u32, n_particles: f64) -> (f64, f64) {
    let n_per = n_particles / procs as f64;
    let untuned = if machine.cpu.name.contains("P4") {
        0.65 // gcc/g77 on the P4's x87 stack
    } else {
        1.0
    };
    let kernel_mflops = machine.cpu.libm_mflops() * untuned;
    // ~120 neighbour interactions per particle, ~250 flops each
    // (kernel + gradient + viscosity + FLD).
    let flops_per_proc = n_per * 120.0 * 250.0;
    let t_force = flops_per_proc / (kernel_mflops * 1e6);
    // SPH spends more outside the pair loop than gravity does.
    let t_other = t_force * 0.3 / 0.7;
    // Two ghost exchanges per step, ~15% of particles × 152 bytes.
    let ghost_bytes = 2.0 * n_per * 0.15 * 152.0;
    let msgs = (ghost_bytes / 4096.0).ceil();
    let t_comm = msgs * machine.profile.transfer_time(4096);
    let t_step = t_force + t_other + t_comm;
    let mflops = flops_per_proc / t_step / 1e6;
    (mflops * procs as f64 / 1e3, mflops)
}

#[cfg(test)]
mod sph_model_tests {
    use super::*;

    #[test]
    fn ss_is_about_half_of_q_per_processor() {
        // The §4.4 claim, at the paper's own configuration: 1M particles
        // on 128 processors of each machine.
        let (_, ss) = sph_model(&MachineSpec::space_simulator(), 128, 1.0e6);
        let (_, q) = sph_model(&MachineSpec::asci_qb(), 128, 1.0e6);
        let ratio = ss / q;
        assert!(
            ratio > 0.4 && ratio < 0.65,
            "SS/Q per-proc SPH ratio {ratio} (paper: ~0.5)"
        );
    }

    #[test]
    fn icc_tuning_would_close_the_gap() {
        // With the icc kernel rates (Table 5's last row) the same model
        // puts the SS much closer to Q — the tuning §4.4 anticipates.
        let mut tuned = MachineSpec::space_simulator();
        tuned.cpu = nodesim::cpu_models::space_simulator_cpu_icc();
        let (_, ss_tuned) = sph_model(&tuned, 128, 1.0e6);
        let (_, q) = sph_model(&MachineSpec::asci_qb(), 128, 1.0e6);
        assert!(ss_tuned / q > 0.75, "tuned ratio {}", ss_tuned / q);
    }

    #[test]
    fn sph_runs_slower_than_gravity_per_processor() {
        let (_, sph) = sph_model(&MachineSpec::space_simulator(), 128, 1.0e6);
        let (_, grav) = treecode_model(&MachineSpec::space_simulator(), 128, 128.0 * 200_000.0);
        assert!(sph < grav, "SPH {sph} vs gravity {grav}");
    }
}
