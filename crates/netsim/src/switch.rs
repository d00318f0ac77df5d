//! Topology of the Foundry FastIron switch fabric.
//!
//! The Space Simulator's network is a trunked pair: a FastIron 1500 and a
//! FastIron 800, 304 gigabit ports total. §3.1 of the paper establishes
//! three regimes, which this module encodes as a routing function from a
//! (src, dst) port pair to the set of shared resources the message crosses:
//!
//! * ports on the same 16-port module: non-blocking (no shared resource);
//! * ports on different modules of one switch: the source and destination
//!   module uplinks, each with ≈8 Gbit/s nominal (≈6 Gbit/s measured for
//!   16 simultaneous streams — we use the measured figure);
//! * ports on different switches: additionally the 8 Gbit/s fiber trunk.

/// Identifier of a shared fabric resource that messages serialize on.
/// `Ord` gives reports and metric exports a stable resource order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// Uplink from a module to the switch backplane. Indexed globally.
    ModuleUplink(u32),
    /// The inter-switch fiber trunk.
    Trunk,
}

/// Static description of one switch chassis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchSpec {
    /// Ports per line-card module (16 for the FastIron).
    pub ports_per_module: u32,
    /// Number of modules in this chassis.
    pub modules: u32,
    /// Effective module-to-backplane capacity, bytes/second.
    pub module_capacity: f64,
}

impl SwitchSpec {
    /// Total ports in the chassis.
    pub fn ports(&self) -> u32 {
        self.ports_per_module * self.modules
    }
}

/// The full fabric: an ordered list of chassis joined by a trunk.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchFabric {
    pub switches: Vec<SwitchSpec>,
    /// Capacity of the trunk joining consecutive chassis, bytes/second.
    pub trunk_capacity: f64,
}

impl SwitchFabric {
    /// The Space Simulator fabric: FastIron 1500 (14 modules populated) +
    /// FastIron 800 (5 modules), 8 Gbit trunk; measured inter-module
    /// throughput ≈6 Gbit/s.
    pub fn space_simulator() -> Self {
        let measured_module = 6.0 * crate::GBIT;
        SwitchFabric {
            switches: vec![
                SwitchSpec {
                    ports_per_module: 16,
                    modules: 14,
                    module_capacity: measured_module,
                },
                SwitchSpec {
                    ports_per_module: 16,
                    modules: 5,
                    module_capacity: measured_module,
                },
            ],
            trunk_capacity: 8.0 * crate::GBIT,
        }
    }

    /// A single ideal crossbar with `ports` ports (for small clusters and
    /// for machines whose interconnect we treat as non-blocking).
    pub fn crossbar(ports: u32) -> Self {
        SwitchFabric {
            switches: vec![SwitchSpec {
                ports_per_module: ports.max(1),
                modules: 1,
                module_capacity: f64::INFINITY,
            }],
            trunk_capacity: f64::INFINITY,
        }
    }

    /// Total port count across all chassis.
    pub fn total_ports(&self) -> u32 {
        self.switches.iter().map(|s| s.ports()).sum()
    }

    /// Which chassis a global port index lives on, plus the local port.
    fn locate(&self, port: u32) -> (usize, u32) {
        let mut p = port;
        for (i, s) in self.switches.iter().enumerate() {
            if p < s.ports() {
                return (i, p);
            }
            p -= s.ports();
        }
        panic!(
            "port {port} out of range (fabric has {} ports)",
            self.total_ports()
        );
    }

    /// Global module index of a port (modules numbered across chassis).
    pub fn module_of(&self, port: u32) -> u32 {
        let (chassis, local) = self.locate(port);
        let before: u32 = self.switches[..chassis].iter().map(|s| s.modules).sum();
        before + local / self.switches[chassis].ports_per_module
    }

    /// Capacity of a resource, bytes/second.
    pub fn capacity(&self, r: Resource) -> f64 {
        match r {
            Resource::ModuleUplink(m) => {
                let mut idx = m;
                for s in &self.switches {
                    if idx < s.modules {
                        return s.module_capacity;
                    }
                    idx -= s.modules;
                }
                panic!("module {m} out of range");
            }
            Resource::Trunk => self.trunk_capacity,
        }
    }

    /// The shared resources an src→dst message crosses. Empty when the two
    /// ports share a module (the non-blocking case).
    pub fn route(&self, src: u32, dst: u32) -> Vec<Resource> {
        assert_ne!(src, dst, "route requires distinct ports");
        let (cs, _) = self.locate(src);
        let (cd, _) = self.locate(dst);
        let ms = self.module_of(src);
        let md = self.module_of(dst);
        if ms == md {
            return Vec::new();
        }
        let mut path = vec![Resource::ModuleUplink(ms)];
        if cs != cd {
            path.push(Resource::Trunk);
        }
        path.push(Resource::ModuleUplink(md));
        path
    }

    /// Total number of modules across all chassis.
    pub fn total_modules(&self) -> u32 {
        self.switches.iter().map(|s| s.modules).sum()
    }

    /// Coarse classification of the src→dst path for trace attribution:
    /// self-sends are `Local`, same-module ports `Intra`, cross-module
    /// same-chassis `Uplink`, and cross-chassis `Trunk` (the scarcest
    /// resource — the paper's >256p bottleneck).
    pub fn link_class(&self, src: u32, dst: u32) -> obs::LinkClass {
        if src == dst {
            return obs::LinkClass::Local;
        }
        if self.module_of(src) == self.module_of(dst) {
            return obs::LinkClass::Intra;
        }
        let (cs, _) = self.locate(src);
        let (cd, _) = self.locate(dst);
        if cs != cd {
            obs::LinkClass::Trunk
        } else {
            obs::LinkClass::Uplink
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_simulator_has_304_ports() {
        let f = SwitchFabric::space_simulator();
        assert_eq!(f.total_ports(), 304);
        assert_eq!(f.total_modules(), 19);
    }

    #[test]
    fn same_module_is_nonblocking() {
        let f = SwitchFabric::space_simulator();
        assert!(f.route(0, 15).is_empty());
        assert!(f.route(17, 30).is_empty());
    }

    #[test]
    fn cross_module_uses_two_uplinks() {
        let f = SwitchFabric::space_simulator();
        let path = f.route(0, 16);
        assert_eq!(
            path,
            vec![Resource::ModuleUplink(0), Resource::ModuleUplink(1)]
        );
    }

    #[test]
    fn cross_switch_uses_trunk() {
        let f = SwitchFabric::space_simulator();
        // Port 0 is on the FastIron 1500 (ports 0..224); port 230 is on the
        // FastIron 800.
        let path = f.route(0, 230);
        assert!(path.contains(&Resource::Trunk));
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn module_numbering_is_global() {
        let f = SwitchFabric::space_simulator();
        assert_eq!(f.module_of(0), 0);
        assert_eq!(f.module_of(223), 13);
        assert_eq!(f.module_of(224), 14); // first port of the FastIron 800
        assert_eq!(f.module_of(303), 18);
    }

    #[test]
    fn crossbar_routes_are_free() {
        let f = SwitchFabric::crossbar(64);
        assert!(f.route(0, 63).is_empty());
        assert_eq!(f.total_ports(), 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_port_panics() {
        let f = SwitchFabric::space_simulator();
        f.module_of(304);
    }

    #[test]
    fn trunk_capacity_is_8_gbit() {
        let f = SwitchFabric::space_simulator();
        assert!((f.capacity(Resource::Trunk) - 1.0e9).abs() < 1.0);
    }

    #[test]
    fn link_classes_match_routes() {
        let f = SwitchFabric::space_simulator();
        assert_eq!(f.link_class(3, 3), obs::LinkClass::Local);
        assert_eq!(f.link_class(0, 15), obs::LinkClass::Intra);
        assert_eq!(f.link_class(0, 16), obs::LinkClass::Uplink);
        assert_eq!(f.link_class(0, 230), obs::LinkClass::Trunk);
        let xbar = SwitchFabric::crossbar(64);
        assert_eq!(xbar.link_class(0, 63), obs::LinkClass::Intra);
    }
}
