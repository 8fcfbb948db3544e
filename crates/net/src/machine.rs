//! Machine classes used by the paper's deployments (§5.1).
//!
//! The evaluation uses three AWS instance types. This module holds the
//! raw vCPU and memory figures of Table 3; the node simulations in
//! `diablo-chains` derive their capacities from them (`params.rs`).

use core::fmt;

/// AWS instance types used in the paper's five configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceType {
    /// c5.xlarge: 4 vCPUs, 8 GiB (testnet, devnet, community).
    C5Xlarge,
    /// c5.2xlarge: 8 vCPUs, 16 GiB (consortium).
    C52xlarge,
    /// c5.9xlarge: 36 vCPUs, 72 GiB (datacenter).
    C59xlarge,
}

impl InstanceType {
    /// Number of virtual CPUs.
    pub const fn vcpus(self) -> u32 {
        match self {
            InstanceType::C5Xlarge => 4,
            InstanceType::C52xlarge => 8,
            InstanceType::C59xlarge => 36,
        }
    }

    /// Memory in GiB.
    pub const fn memory_gib(self) -> u32 {
        match self {
            InstanceType::C5Xlarge => 8,
            InstanceType::C52xlarge => 16,
            InstanceType::C59xlarge => 72,
        }
    }

    /// The AWS product name.
    pub const fn name(self) -> &'static str {
        match self {
            InstanceType::C5Xlarge => "c5.xlarge",
            InstanceType::C52xlarge => "c5.2xlarge",
            InstanceType::C59xlarge => "c5.9xlarge",
        }
    }
}

impl fmt::Display for InstanceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A machine participating in a deployment: its instance type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineSpec {
    /// The AWS instance type.
    pub instance: InstanceType,
}

impl MachineSpec {
    /// Machine of the given instance type.
    pub const fn new(instance: InstanceType) -> Self {
        MachineSpec { instance }
    }

    /// Number of virtual CPUs.
    pub const fn vcpus(self) -> u32 {
        self.instance.vcpus()
    }

    /// Memory in GiB.
    pub const fn memory_gib(self) -> u32 {
        self.instance.memory_gib()
    }
}

impl fmt::Display for MachineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} vCPUs, {} GiB)",
            self.instance.name(),
            self.vcpus(),
            self.memory_gib()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_machine_figures() {
        assert_eq!(InstanceType::C5Xlarge.vcpus(), 4);
        assert_eq!(InstanceType::C5Xlarge.memory_gib(), 8);
        assert_eq!(InstanceType::C52xlarge.vcpus(), 8);
        assert_eq!(InstanceType::C52xlarge.memory_gib(), 16);
        assert_eq!(InstanceType::C59xlarge.vcpus(), 36);
        assert_eq!(InstanceType::C59xlarge.memory_gib(), 72);
    }

    #[test]
    fn display_mentions_name_and_cores() {
        let s = format!("{}", MachineSpec::new(InstanceType::C52xlarge));
        assert!(s.contains("c5.2xlarge") && s.contains("8 vCPUs"));
    }
}
