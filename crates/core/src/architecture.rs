//! The three classes of centralized automotive E/E architectures (Fig. 1).
//!
//! "While domain-centralized and domain-fusion order embedded ECUs
//! according to their function domain, vehicle-centralized architectures
//! order embedded ECUs according to their mounting position in the
//! vehicle." This module provides a typed taxonomy used by the examples
//! to talk about consolidation scenarios.

/// An architecture class for the E/E system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EeArchitecture {
    /// The traditional baseline: one function, one control unit.
    Decentralized,
    /// One vehicle computer per functional domain (powertrain, body, ADAS…).
    DomainCentralized,
    /// Several related domains fused onto shared vehicle computers.
    DomainFusion,
    /// Zone controllers by mounting position feeding central vehicle
    /// computers.
    VehicleCentralized,
}

impl EeArchitecture {
    /// Whether ECUs are grouped by functional domain (vs mounting
    /// position or not at all).
    pub fn groups_by_domain(&self) -> bool {
        matches!(
            self,
            EeArchitecture::DomainCentralized | EeArchitecture::DomainFusion
        )
    }

    /// Whether this class consolidates software onto shared hardware —
    /// i.e. whether the paper's predictability problem arises at all.
    pub fn is_centralized(&self) -> bool {
        !matches!(self, EeArchitecture::Decentralized)
    }
}

impl std::fmt::Display for EeArchitecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EeArchitecture::Decentralized => "decentralized",
            EeArchitecture::DomainCentralized => "domain-centralized",
            EeArchitecture::DomainFusion => "domain-fusion",
            EeArchitecture::VehicleCentralized => "vehicle-centralized",
        };
        f.write_str(s)
    }
}

/// A functional domain of the vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Engine/drive control.
    Powertrain,
    /// Chassis and motion.
    Chassis,
    /// Body and comfort.
    Body,
    /// Driver assistance / automated driving.
    Adas,
    /// Infotainment and connectivity.
    Infotainment,
}

/// A software function to be deployed (e.g. a legacy ECU's logic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VehicleFunction {
    /// Function name.
    pub name: String,
    /// Its functional domain.
    pub domain: Domain,
    /// Whether it is time/safety-critical (ASIL-rated).
    pub critical: bool,
}

impl VehicleFunction {
    /// Creates a function.
    pub fn new(name: impl Into<String>, domain: Domain, critical: bool) -> Self {
        VehicleFunction {
            name: name.into(),
            domain,
            critical,
        }
    }
}

/// A consolidation plan: functions mapped onto vehicle integration
/// platforms (VIPs) according to an architecture class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsolidationPlan {
    /// The architecture class applied.
    pub architecture: EeArchitecture,
    /// Each platform with the functions it hosts.
    pub platforms: Vec<(String, Vec<VehicleFunction>)>,
}

impl ConsolidationPlan {
    /// Consolidates `functions` under the given architecture class:
    /// decentralized keeps one unit per function, domain-centralized one
    /// platform per domain, domain-fusion one platform per
    /// critical/non-critical split, vehicle-centralized a single central
    /// platform (zonal I/O is out of scope here).
    pub fn consolidate(architecture: EeArchitecture, functions: &[VehicleFunction]) -> Self {
        let platforms = match architecture {
            EeArchitecture::Decentralized => functions
                .iter()
                .map(|f| (format!("ecu-{}", f.name), vec![f.clone()]))
                .collect(),
            EeArchitecture::DomainCentralized => {
                let mut map: Vec<(Domain, Vec<VehicleFunction>)> = Vec::new();
                for f in functions {
                    match map.iter_mut().find(|(d, _)| *d == f.domain) {
                        Some((_, v)) => v.push(f.clone()),
                        None => map.push((f.domain, vec![f.clone()])),
                    }
                }
                map.into_iter()
                    .map(|(d, v)| (format!("{d:?}-computer").to_lowercase(), v))
                    .collect()
            }
            EeArchitecture::DomainFusion => {
                let (critical, best_effort): (Vec<_>, Vec<_>) =
                    functions.iter().cloned().partition(|f| f.critical);
                let mut v = Vec::new();
                if !critical.is_empty() {
                    v.push(("critical-fusion-computer".to_string(), critical));
                }
                if !best_effort.is_empty() {
                    v.push(("qm-fusion-computer".to_string(), best_effort));
                }
                v
            }
            EeArchitecture::VehicleCentralized => {
                vec![("central-vehicle-computer".to_string(), functions.to_vec())]
            }
        };
        ConsolidationPlan {
            architecture,
            platforms,
        }
    }

    /// Number of hardware platforms the plan needs.
    pub fn platform_count(&self) -> usize {
        self.platforms.len()
    }

    /// The largest number of co-located functions on any platform — a
    /// proxy for the interference pressure the paper's mechanisms must
    /// control.
    pub fn max_colocation(&self) -> usize {
        self.platforms
            .iter()
            .map(|(_, v)| v.len())
            .max()
            .unwrap_or(0)
    }

    /// Whether any platform mixes critical and best-effort functions —
    /// the mixed-criticality integration scenario demanding freedom from
    /// interference (ISO 26262).
    pub fn has_mixed_criticality_platform(&self) -> bool {
        self.platforms
            .iter()
            .any(|(_, v)| v.iter().any(|f| f.critical) && v.iter().any(|f| !f.critical))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn functions() -> Vec<VehicleFunction> {
        vec![
            VehicleFunction::new("brake-control", Domain::Chassis, true),
            VehicleFunction::new("steering", Domain::Chassis, true),
            VehicleFunction::new("engine-mgmt", Domain::Powertrain, true),
            VehicleFunction::new("lane-keeping", Domain::Adas, true),
            VehicleFunction::new("object-detection", Domain::Adas, true),
            VehicleFunction::new("media-player", Domain::Infotainment, false),
            VehicleFunction::new("nav", Domain::Infotainment, false),
            VehicleFunction::new("seat-heater", Domain::Body, false),
        ]
    }

    #[test]
    fn class_predicates() {
        assert!(!EeArchitecture::Decentralized.is_centralized());
        assert!(EeArchitecture::VehicleCentralized.is_centralized());
        assert!(EeArchitecture::DomainCentralized.groups_by_domain());
        assert!(EeArchitecture::DomainFusion.groups_by_domain());
        assert!(!EeArchitecture::VehicleCentralized.groups_by_domain());
        assert_eq!(EeArchitecture::DomainFusion.to_string(), "domain-fusion");
    }

    #[test]
    fn decentralized_one_ecu_per_function() {
        let plan = ConsolidationPlan::consolidate(EeArchitecture::Decentralized, &functions());
        assert_eq!(plan.platform_count(), 8);
        assert_eq!(plan.max_colocation(), 1);
        assert!(!plan.has_mixed_criticality_platform());
    }

    #[test]
    fn domain_centralized_one_per_domain() {
        let plan = ConsolidationPlan::consolidate(EeArchitecture::DomainCentralized, &functions());
        assert_eq!(plan.platform_count(), 5); // five domains used
        assert_eq!(plan.max_colocation(), 2);
    }

    #[test]
    fn fusion_splits_by_criticality() {
        let plan = ConsolidationPlan::consolidate(EeArchitecture::DomainFusion, &functions());
        assert_eq!(plan.platform_count(), 2);
        assert!(!plan.has_mixed_criticality_platform());
    }

    #[test]
    fn vehicle_centralized_maximizes_colocation() {
        let plan = ConsolidationPlan::consolidate(EeArchitecture::VehicleCentralized, &functions());
        assert_eq!(plan.platform_count(), 1);
        assert_eq!(plan.max_colocation(), 8);
        assert!(
            plan.has_mixed_criticality_platform(),
            "central integration mixes criticalities — the paper's problem"
        );
    }

    #[test]
    fn consolidation_reduces_platforms_monotonically() {
        let f = functions();
        let dec = ConsolidationPlan::consolidate(EeArchitecture::Decentralized, &f);
        let dom = ConsolidationPlan::consolidate(EeArchitecture::DomainCentralized, &f);
        let fus = ConsolidationPlan::consolidate(EeArchitecture::DomainFusion, &f);
        let veh = ConsolidationPlan::consolidate(EeArchitecture::VehicleCentralized, &f);
        assert!(dec.platform_count() >= dom.platform_count());
        assert!(dom.platform_count() >= fus.platform_count());
        assert!(fus.platform_count() >= veh.platform_count());
    }
}
