//! Two-term node execution model and the clock experiments of Table 2.
//!
//! §3.2 of the paper exploits the XPC BIOS's independent CPU/memory clock
//! control to measure how much each benchmark depends on memory bandwidth
//! versus CPU frequency. The four configurations are:
//!
//! | config    | CPU scale | memory scale |
//! |-----------|-----------|--------------|
//! | normal    | 1.0       | 1.0          |
//! | slow mem  | 1.0       | 0.6  (DDR333 → DDR200) |
//! | slow CPU  | 0.75      | 1.0  (2.53 → 1.9 GHz)  |
//! | overclock | 1.0526    | 1.0526 (133 → 140 MHz FSB) |
//!
//! We model a workload's execution time as the sum of a CPU-bound part and
//! a memory-bound part, `T = (1-m)·T₀/s_cpu + m·T₀/s_mem`, where `m` is the
//! workload's memory fraction. The paper's own conclusion — "performance of
//! most benchmarks is sensitive to memory bandwidth, and less so to CPU
//! frequency" — corresponds to `m` near 1 for STREAM/SP/MG/CG and small for
//! cache-friendly codes like Linpack.

/// One of the four BIOS clock configurations of Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockConfig {
    pub name: &'static str,
    /// CPU frequency relative to the 2.53 GHz baseline.
    pub cpu_scale: f64,
    /// Memory frequency relative to the DDR333 baseline.
    pub mem_scale: f64,
}

impl ClockConfig {
    pub const NORMAL: ClockConfig = ClockConfig {
        name: "Normal",
        cpu_scale: 1.0,
        mem_scale: 1.0,
    };
    /// Memory clocked 2x166 → 2x100 MHz: DDR200, a factor 0.6.
    pub const SLOW_MEM: ClockConfig = ClockConfig {
        name: "Slow mem",
        cpu_scale: 1.0,
        mem_scale: 0.6,
    };
    /// CPU clocked 2.53 → 1.9 GHz, a factor 0.75.
    pub const SLOW_CPU: ClockConfig = ClockConfig {
        name: "Slow CPU",
        cpu_scale: 0.75,
        mem_scale: 1.0,
    };
    /// FSB 133 → 140 MHz: everything sped up by 140/133 = 1.0526.
    pub const OVERCLOCK: ClockConfig = ClockConfig {
        name: "Overclock",
        cpu_scale: 140.0 / 133.0,
        mem_scale: 140.0 / 133.0,
    };

    /// The four columns of Table 2, in order.
    pub const TABLE2: [ClockConfig; 4] = [
        Self::NORMAL,
        Self::SLOW_MEM,
        Self::SLOW_CPU,
        Self::OVERCLOCK,
    ];
}

/// A workload's split between CPU-bound and memory-bound time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadMix {
    /// Fraction of baseline execution time limited by memory bandwidth,
    /// in `[0, 1]`.
    pub mem_fraction: f64,
}

impl WorkloadMix {
    pub fn new(mem_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&mem_fraction),
            "mem_fraction {mem_fraction} outside [0,1]"
        );
        WorkloadMix { mem_fraction }
    }

    /// Performance under `cfg` relative to [`ClockConfig::NORMAL`].
    pub fn perf_ratio(&self, cfg: ClockConfig) -> f64 {
        let m = self.mem_fraction;
        1.0 / ((1.0 - m) / cfg.cpu_scale + m / cfg.mem_scale)
    }

    /// Infer the memory fraction from a measured slow-mem performance
    /// ratio (the calibration the paper's Table 2 enables).
    pub fn from_slow_mem_ratio(ratio: f64) -> Self {
        // ratio = 1 / (1 - m + m/0.6)  =>  m = (1/ratio - 1) / (1/0.6 - 1)
        let m = ((1.0 / ratio - 1.0) / (1.0 / 0.6 - 1.0)).clamp(0.0, 1.0);
        WorkloadMix::new(m)
    }
}

/// Performance parameters of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeModel {
    pub name: &'static str,
    /// CPU clock, Hz.
    pub clock_hz: f64,
    /// Peak double-precision flops per cycle (2 for P4 SSE2).
    pub flops_per_cycle: f64,
    /// Sustained memory bandwidth (STREAM triad), bytes/second.
    pub mem_bw: f64,
    /// L2 cache size, bytes.
    pub l2_bytes: usize,
    /// Fraction of peak flops a well-tuned dense kernel sustains
    /// (ATLAS DGEMM on the P4 reaches ~65%: 3.30 of 5.06 Gflop/s).
    pub dense_efficiency: f64,
}

impl NodeModel {
    /// The Space Simulator node: 2.53 GHz P4, DDR333 with ~10% stolen by
    /// the on-board video (STREAM triad ≈ 1238 MB/s), 512 kB L2.
    pub fn space_simulator() -> Self {
        NodeModel {
            name: "Shuttle XPC P4/2.53",
            clock_hz: 2.53e9,
            flops_per_cycle: 2.0,
            mem_bw: 1238.2e6,
            l2_bytes: 512 * 1024,
            dense_efficiency: 3.302 / 5.06,
        }
    }

    /// Theoretical peak, flop/s (5.06 Gflop/s for the SS node).
    pub fn peak_flops(&self) -> f64 {
        self.clock_hz * self.flops_per_cycle
    }

    /// Node with CPU and memory scaled per a clock configuration.
    pub fn scaled(&self, cfg: ClockConfig) -> NodeModel {
        NodeModel {
            clock_hz: self.clock_hz * cfg.cpu_scale,
            mem_bw: self.mem_bw * cfg.mem_scale,
            ..*self
        }
    }

    /// Execution time of a phase that retires `flops` floating-point
    /// operations and moves `bytes` to/from DRAM, with `cpu_eff` the
    /// fraction of peak the compute part sustains. CPU and memory time are
    /// summed (the P4's in-order-ish FSB overlaps little).
    pub fn time(&self, flops: f64, bytes: f64, cpu_eff: f64) -> f64 {
        assert!(cpu_eff > 0.0 && cpu_eff <= 1.0);
        flops / (self.peak_flops() * cpu_eff) + bytes / self.mem_bw
    }

    /// Achieved flop rate for a phase (flops, bytes, cpu_eff).
    pub fn flop_rate(&self, flops: f64, bytes: f64, cpu_eff: f64) -> f64 {
        flops / self.time(flops, bytes, cpu_eff)
    }

    /// Roofline occupancy of a phase: achieved flop rate as a fraction of
    /// theoretical peak. Memory-bound phases score low even at
    /// `cpu_eff = 1`, which is exactly what the observability layer wants
    /// to surface.
    pub fn occupancy(&self, flops: f64, bytes: f64, cpu_eff: f64) -> f64 {
        if flops <= 0.0 {
            return 0.0;
        }
        self.flop_rate(flops, bytes, cpu_eff) / self.peak_flops()
    }

    /// Does a working set fit in L2? (Drives Figure 5's super-linear LU.)
    pub fn fits_in_l2(&self, bytes: usize) -> bool {
        bytes <= self.l2_bytes
    }
}

/// One row of Table 2: a benchmark's baseline score and calibrated mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    pub name: &'static str,
    /// Score in the benchmark's native unit (MB/s, Mop/s, SPEC, Gflop/s).
    pub normal: f64,
    pub mix: WorkloadMix,
}

impl Table2Row {
    pub fn score(&self, cfg: ClockConfig) -> f64 {
        self.normal * self.mix.perf_ratio(cfg)
    }
}

/// The benchmarks of Table 2 with memory fractions calibrated from the
/// paper's measured slow-mem column (see EXPERIMENTS.md for the paper
/// values used in calibration).
pub fn table2_rows() -> Vec<Table2Row> {
    // (name, normal score, measured slow-mem ratio)
    let data: &[(&str, f64, f64)] = &[
        ("copy", 1203.5, 0.63),
        ("add", 1237.2, 0.61),
        ("scale", 1201.8, 0.63),
        ("triad", 1238.2, 0.61),
        ("BT", 321.2, 0.635),
        ("SP", 216.5, 0.608),
        ("LU", 404.3, 0.649),
        ("MG", 385.1, 0.601),
        ("CG", 313.1, 0.605),
        ("FT", 351.0, 0.708),
        ("IS", 27.2, 0.779),
        ("CINT2000", 790.0, 0.83),
        ("CFP2000", 742.0, 0.71),
        ("Linpack", 3.302, 0.868),
    ];
    data.iter()
        .map(|&(name, normal, slow_mem)| Table2Row {
            name,
            normal,
            mix: WorkloadMix::from_slow_mem_ratio(slow_mem),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_5_06_gflops() {
        let n = NodeModel::space_simulator();
        assert!((n.peak_flops() - 5.06e9).abs() < 1e7);
    }

    #[test]
    fn normal_config_is_identity() {
        let mix = WorkloadMix::new(0.5);
        assert!((mix.perf_ratio(ClockConfig::NORMAL) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pure_memory_workload_tracks_memory_clock() {
        let mix = WorkloadMix::new(1.0);
        assert!((mix.perf_ratio(ClockConfig::SLOW_MEM) - 0.6).abs() < 1e-12);
        assert!((mix.perf_ratio(ClockConfig::SLOW_CPU) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pure_cpu_workload_tracks_cpu_clock() {
        let mix = WorkloadMix::new(0.0);
        assert!((mix.perf_ratio(ClockConfig::SLOW_CPU) - 0.75).abs() < 1e-12);
        assert!((mix.perf_ratio(ClockConfig::SLOW_MEM) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_round_trips() {
        for ratio in [0.6, 0.61, 0.7, 0.868, 0.95] {
            let mix = WorkloadMix::from_slow_mem_ratio(ratio);
            let back = mix.perf_ratio(ClockConfig::SLOW_MEM);
            assert!((back - ratio).abs() < 1e-9, "{ratio} -> {back}");
        }
    }

    #[test]
    fn slow_cpu_prediction_matches_paper_for_linpack() {
        // Calibrated only on the slow-mem column, the model should land
        // near the measured slow-CPU ratio of 0.788 for Linpack.
        let mix = WorkloadMix::from_slow_mem_ratio(0.868);
        let pred = mix.perf_ratio(ClockConfig::SLOW_CPU);
        assert!((pred - 0.788).abs() < 0.02, "got {pred}");
    }

    #[test]
    fn overclock_gains_about_5_percent() {
        for m in [0.0, 0.3, 0.7, 1.0] {
            let r = WorkloadMix::new(m).perf_ratio(ClockConfig::OVERCLOCK);
            assert!((r - 1.0526).abs() < 1e-3, "m={m}: {r}");
        }
    }

    #[test]
    fn table2_rows_reproduce_slow_mem_column() {
        for row in table2_rows() {
            let ratio = row.score(ClockConfig::SLOW_MEM) / row.normal;
            // Exact by construction; guards against regressions in the
            // calibration path.
            assert!(ratio > 0.55 && ratio < 0.9, "{}: {ratio}", row.name);
        }
    }

    #[test]
    fn memory_bound_benchmarks_are_insensitive_to_cpu() {
        // The paper's headline observation: SP/MG/CG barely improve with
        // CPU clock.
        let rows = table2_rows();
        for name in ["SP", "MG", "CG"] {
            let row = rows.iter().find(|r| r.name == name).unwrap();
            let r = row.score(ClockConfig::SLOW_CPU) / row.normal;
            assert!(r > 0.9, "{name} too CPU-sensitive: {r}");
        }
    }

    #[test]
    fn roofline_time_adds_both_terms() {
        let n = NodeModel::space_simulator();
        let t = n.time(1e9, 1e9, 1.0);
        let t_cpu = 1e9 / 5.06e9;
        let t_mem = 1e9 / 1238.2e6;
        assert!((t - (t_cpu + t_mem)).abs() < 1e-9);
    }

    #[test]
    fn scaled_node_changes_both_clocks() {
        let n = NodeModel::space_simulator();
        let s = n.scaled(ClockConfig::SLOW_MEM);
        assert_eq!(s.clock_hz, n.clock_hz);
        assert!((s.mem_bw - 0.6 * n.mem_bw).abs() < 1.0);
    }

    #[test]
    fn l2_residency() {
        let n = NodeModel::space_simulator();
        assert!(n.fits_in_l2(400 * 1024));
        assert!(!n.fits_in_l2(600 * 1024));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_mem_fraction_panics() {
        WorkloadMix::new(1.5);
    }
}
