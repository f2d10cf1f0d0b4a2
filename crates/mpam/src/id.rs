//! MPAM identification: PARTID, PMG, and the four PARTID spaces.

/// A partition identifier: labels the partition a memory request belongs
/// to, "for the purpose of monitoring and control".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PartId(pub u16);

impl std::fmt::Display for PartId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PARTID{}", self.0)
    }
}

/// A performance monitoring group identifier: labels agents *within* a
/// partition "for the purpose of monitoring" — e.g. individual processes
/// or threads of a workload that shares one PARTID-wide control policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Pmg(pub u8);

impl std::fmt::Display for Pmg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PMG{}", self.0)
    }
}

/// The four PARTID spaces of §III-B.2.
///
/// The secure/non-secure split is determined by the TrustZone security
/// state of the requesting agent and travels with requests as the
/// `MPAM_NS` bit; the physical/virtual split distinguishes
/// hypervisor-managed physical PARTIDs from guest-managed virtual ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartIdSpace {
    /// Physical non-secure: non-virtualised non-secure software.
    PhysicalNonSecure,
    /// Virtual non-secure: virtualised non-secure software.
    VirtualNonSecure,
    /// Physical secure: non-virtualised secure software.
    PhysicalSecure,
    /// Virtual secure: virtualised secure software.
    VirtualSecure,
}

impl PartIdSpace {
    /// The `MPAM_NS` bit: `true` for the non-secure spaces.
    pub fn mpam_ns(&self) -> bool {
        matches!(
            self,
            PartIdSpace::PhysicalNonSecure | PartIdSpace::VirtualNonSecure
        )
    }

    /// True for the virtual spaces (PARTIDs subject to hypervisor
    /// translation).
    pub fn is_virtual(&self) -> bool {
        matches!(
            self,
            PartIdSpace::VirtualNonSecure | PartIdSpace::VirtualSecure
        )
    }

    /// Whether software labelled in `self` may configure control policies
    /// that apply to traffic labelled in `other`.
    ///
    /// Restricting non-secure software from controlling secure partitions
    /// "mitigates the risk of side-channel information leaks between the
    /// secure and non-secure world".
    pub fn may_control(&self, other: PartIdSpace) -> bool {
        // Secure software may manage both worlds; non-secure only its own.
        if self.mpam_ns() {
            other.mpam_ns()
        } else {
            true
        }
    }

    /// All four spaces.
    pub fn all() -> [PartIdSpace; 4] {
        [
            PartIdSpace::PhysicalNonSecure,
            PartIdSpace::VirtualNonSecure,
            PartIdSpace::PhysicalSecure,
            PartIdSpace::VirtualSecure,
        ]
    }
}

impl std::fmt::Display for PartIdSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PartIdSpace::PhysicalNonSecure => "physical non-secure",
            PartIdSpace::VirtualNonSecure => "virtual non-secure",
            PartIdSpace::PhysicalSecure => "physical secure",
            PartIdSpace::VirtualSecure => "virtual secure",
        };
        f.write_str(s)
    }
}

/// The full MPAM label attached to a memory-system request: PARTID + PMG +
/// space (which carries the `MPAM_NS` bit).
///
/// # Examples
///
/// ```
/// use autoplat_mpam::{MpamLabel, PartId, Pmg, PartIdSpace};
///
/// let l = MpamLabel::new(PartId(5), Pmg(2), PartIdSpace::PhysicalSecure);
/// assert!(!l.space().mpam_ns());
/// assert_eq!(l.to_string(), "PARTID5/PMG2 (physical secure)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MpamLabel {
    partid: PartId,
    pmg: Pmg,
    space: PartIdSpace,
}

impl MpamLabel {
    /// Creates a label.
    pub fn new(partid: PartId, pmg: Pmg, space: PartIdSpace) -> Self {
        MpamLabel { partid, pmg, space }
    }

    /// The partition identifier.
    pub fn partid(&self) -> PartId {
        self.partid
    }

    /// The performance monitoring group.
    pub fn pmg(&self) -> Pmg {
        self.pmg
    }

    /// The PARTID space.
    pub fn space(&self) -> PartIdSpace {
        self.space
    }
}

impl std::fmt::Display for MpamLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{} ({})", self.partid, self.pmg, self.space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_bit_per_space() {
        assert!(PartIdSpace::PhysicalNonSecure.mpam_ns());
        assert!(PartIdSpace::VirtualNonSecure.mpam_ns());
        assert!(!PartIdSpace::PhysicalSecure.mpam_ns());
        assert!(!PartIdSpace::VirtualSecure.mpam_ns());
    }

    #[test]
    fn virtual_flag_per_space() {
        assert!(!PartIdSpace::PhysicalNonSecure.is_virtual());
        assert!(PartIdSpace::VirtualNonSecure.is_virtual());
        assert!(!PartIdSpace::PhysicalSecure.is_virtual());
        assert!(PartIdSpace::VirtualSecure.is_virtual());
    }

    #[test]
    fn non_secure_cannot_control_secure() {
        let ns = PartIdSpace::PhysicalNonSecure;
        let s = PartIdSpace::PhysicalSecure;
        assert!(!ns.may_control(s));
        assert!(s.may_control(ns));
        assert!(ns.may_control(PartIdSpace::VirtualNonSecure));
        assert!(s.may_control(PartIdSpace::VirtualSecure));
    }

    #[test]
    fn all_spaces_listed_once() {
        let all = PartIdSpace::all();
        assert_eq!(all.len(), 4);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn label_accessors_and_display() {
        let l = MpamLabel::new(PartId(1), Pmg(9), PartIdSpace::VirtualNonSecure);
        assert_eq!(l.partid(), PartId(1));
        assert_eq!(l.pmg(), Pmg(9));
        assert_eq!(l.space(), PartIdSpace::VirtualNonSecure);
        assert_eq!(l.to_string(), "PARTID1/PMG9 (virtual non-secure)");
    }

    #[test]
    fn ids_order_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(PartId(1));
        set.insert(PartId(1));
        assert_eq!(set.len(), 1);
        assert!(PartId(1) < PartId(2));
        assert!(Pmg(0) < Pmg(3));
    }
}
