//! DynamIQ Shared Unit (DSU) L3 cache partitioning (§III-A, Fig. 2).
//!
//! The DSU identification mechanism is a software-configurable 3-bit
//! **scheme ID** (8 groups). The L3 is 12- or 16-way set-associative and is
//! logically split into **4 partition groups** of 3 or 4 ways each; each
//! group is either *private* to one scheme ID (no other scheme allocates
//! into it) or *unassigned* (anyone may allocate). The assignment is a
//! 32-bit register, `CLUSTERPARTCR`, with one bit per (scheme ID,
//! partition group) combination.
//!
//! Hypervisors delegate scheme IDs to guests via **override registers**: a
//! 3-bit mask selects which scheme-ID bits the hypervisor pins, and an
//! override value provides the pinned bits (§III-A's worked example
//! delegates scheme IDs 2 and 3 to an RTOS VM with mask `0b110`, value
//! `0b010`, and pins a GPOS VM to scheme 0 with mask `0b111`).
//!
//! ### Register layout note
//!
//! We use the layout `bit = scheme_id * 4 + group`. Under this layout the
//! paper's worked register value `0x8000_4201` decodes to
//! `{group0 → scheme 0, group1 → scheme 2, group2 → scheme 3,
//! group3 → scheme 7}`. The paper's prose assigns groups 0/2 to schemes
//! 3/0 instead (the value and the prose are mutually inconsistent under
//! any one-bit-per-pair layout); we follow the register value.

use crate::cache::{FlowId, SetAssocCache};

/// Number of partition groups in the DSU L3.
pub const PARTITION_GROUPS: u32 = 4;
/// Number of scheme IDs (3 bits).
pub const SCHEME_IDS: u32 = 8;

/// A 3-bit DSU scheme ID.
///
/// # Examples
///
/// ```
/// use autoplat_cache::SchemeId;
///
/// let hypervisor = SchemeId::new(7)?;
/// assert_eq!(hypervisor.value(), 7);
/// assert!(SchemeId::new(8).is_err());
/// # Ok::<(), autoplat_cache::dsu::SchemeIdError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchemeId(u8);

/// Error creating a [`SchemeId`] out of range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeIdError(pub u8);

impl std::fmt::Display for SchemeIdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scheme ID {} out of range (3 bits, 0..=7)", self.0)
    }
}

impl std::error::Error for SchemeIdError {}

impl SchemeId {
    /// Creates a scheme ID.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeIdError`] if `value > 7`.
    pub fn new(value: u8) -> Result<Self, SchemeIdError> {
        if value < SCHEME_IDS as u8 {
            Ok(SchemeId(value))
        } else {
            Err(SchemeIdError(value))
        }
    }

    /// The raw 3-bit value.
    pub fn value(&self) -> u8 {
        self.0
    }

    /// The flow identity used by the cache model for this scheme ID.
    pub fn flow(&self) -> FlowId {
        FlowId(self.0 as u32)
    }
}

impl std::fmt::Display for SchemeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schemeID{}", self.0)
    }
}

/// One of the four L3 partition groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionGroup(u8);

impl PartitionGroup {
    /// Creates a partition group index.
    ///
    /// # Panics
    ///
    /// Panics if `index > 3`.
    pub fn new(index: u8) -> Self {
        assert!(
            (index as u32) < PARTITION_GROUPS,
            "partition group {index} out of range"
        );
        PartitionGroup(index)
    }

    /// The group index (0..=3).
    pub fn index(&self) -> u8 {
        self.0
    }

    /// The way mask this group covers in a cache of `ways` ways
    /// (12 → 3 ways per group, 16 → 4 ways per group).
    ///
    /// # Panics
    ///
    /// Panics if `ways` is not 12 or 16 (the architected DSU options).
    pub fn way_mask(&self, ways: u32) -> u64 {
        assert!(
            ways == 12 || ways == 16,
            "DSU L3 is 12- or 16-way, got {ways}"
        );
        let per_group = ways / PARTITION_GROUPS;
        let base = self.0 as u32 * per_group;
        ((1u64 << per_group) - 1) << base
    }
}

/// The `CLUSTERPARTCR` L3 partition control register (Fig. 2).
///
/// Bit `scheme_id * 4 + group` set ⇒ the group is *private* to that scheme
/// ID. A group with no bit set is *unassigned* (open to everyone).
///
/// # Examples
///
/// The paper's worked example configuration:
///
/// ```
/// # use std::error::Error;
/// use autoplat_cache::{ClusterPartCr, SchemeId, PartitionGroup};
///
/// # fn main() -> Result<(), Box<dyn Error>> {
/// let reg = ClusterPartCr::from_bits(0x8000_4201)?;
/// assert_eq!(reg.owner_of(PartitionGroup::new(3)), Some(SchemeId::new(7)?));
/// assert_eq!(reg.owner_of(PartitionGroup::new(1)), Some(SchemeId::new(2)?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterPartCr(u32);

/// Error decoding a `CLUSTERPARTCR` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterPartCrError {
    /// Two scheme IDs claim the same partition group.
    ConflictingOwners {
        /// The doubly-claimed group.
        group: u8,
    },
}

impl std::fmt::Display for ClusterPartCrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterPartCrError::ConflictingOwners { group } => {
                write!(f, "partition group {group} claimed by multiple scheme IDs")
            }
        }
    }
}

impl std::error::Error for ClusterPartCrError {}

impl ClusterPartCr {
    /// An all-unassigned register (every scheme may allocate anywhere).
    pub fn new() -> Self {
        ClusterPartCr(0)
    }

    /// Decodes a raw register value.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterPartCrError::ConflictingOwners`] if any group is
    /// claimed by more than one scheme ID.
    pub fn from_bits(bits: u32) -> Result<Self, ClusterPartCrError> {
        for group in 0..PARTITION_GROUPS as u8 {
            let owners = (0..SCHEME_IDS as u8)
                .filter(|s| bits & (1 << (s * 4 + group)) != 0)
                .count();
            if owners > 1 {
                return Err(ClusterPartCrError::ConflictingOwners { group });
            }
        }
        Ok(ClusterPartCr(bits))
    }

    /// The raw register value.
    pub fn bits(&self) -> u32 {
        self.0
    }

    /// Marks `group` private to `scheme` (replacing any previous owner).
    pub fn assign(&mut self, group: PartitionGroup, scheme: SchemeId) {
        for s in 0..SCHEME_IDS as u8 {
            self.0 &= !(1 << (s * 4 + group.index()));
        }
        self.0 |= 1 << (scheme.value() * 4 + group.index());
    }

    /// Makes `group` unassigned.
    pub fn unassign(&mut self, group: PartitionGroup) {
        for s in 0..SCHEME_IDS as u8 {
            self.0 &= !(1 << (s * 4 + group.index()));
        }
    }

    /// The private owner of `group`, if any.
    pub fn owner_of(&self, group: PartitionGroup) -> Option<SchemeId> {
        (0..SCHEME_IDS as u8)
            .find(|s| self.0 & (1 << (s * 4 + group.index())) != 0)
            .map(SchemeId)
    }

    /// The way allocation mask for `scheme` in a cache of `ways` ways:
    /// the union of its private groups and all unassigned groups.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is not 12 or 16.
    pub fn way_mask(&self, scheme: SchemeId, ways: u32) -> u64 {
        let mut mask = 0u64;
        for g in 0..PARTITION_GROUPS as u8 {
            let group = PartitionGroup::new(g);
            match self.owner_of(group) {
                Some(owner) if owner == scheme => mask |= group.way_mask(ways),
                Some(_) => {}
                None => mask |= group.way_mask(ways),
            }
        }
        mask
    }

    /// Applies this register to a cache model: installs the allocation
    /// mask of every scheme ID.
    ///
    /// # Panics
    ///
    /// Panics if the cache is not 12- or 16-way.
    pub fn apply_to(&self, cache: &mut SetAssocCache) {
        let ways = cache.config().geometry.ways();
        for s in 0..SCHEME_IDS as u8 {
            let scheme = SchemeId(s);
            cache.set_allocation_mask(scheme.flow(), self.way_mask(scheme, ways));
        }
    }
}

impl std::fmt::LowerHex for ClusterPartCr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A hypervisor scheme-ID override register pair (mask + value): the
/// delegation mechanism of §III-A.
///
/// Bits selected by `mask` are forced to `value`'s bits; the guest
/// controls the rest.
///
/// # Examples
///
/// ```
/// use autoplat_cache::SchemeOverride;
///
/// // Delegate scheme IDs {2, 3} to the RTOS VM: pin the top two bits to 01.
/// let rtos = SchemeOverride::new(0b110, 0b010);
/// assert_eq!(rtos.effective(0b000).value(), 0b010);
/// assert_eq!(rtos.effective(0b111).value(), 0b011);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeOverride {
    mask: u8,
    value: u8,
}

impl SchemeOverride {
    /// Creates an override with the given 3-bit mask and value.
    ///
    /// # Panics
    ///
    /// Panics if `mask` or `value` uses more than 3 bits.
    pub fn new(mask: u8, value: u8) -> Self {
        assert!(
            mask < 8 && value < 8,
            "override mask/value are 3-bit fields"
        );
        SchemeOverride { mask, value }
    }

    /// An override that lets the guest choose freely.
    pub fn transparent() -> Self {
        SchemeOverride { mask: 0, value: 0 }
    }

    /// The effective scheme ID for a guest-requested raw value.
    pub fn effective(&self, guest_value: u8) -> SchemeId {
        let v = (guest_value & !self.mask & 0b111) | (self.value & self.mask);
        SchemeId(v)
    }

    /// All scheme IDs the guest can reach under this override.
    pub fn reachable(&self) -> Vec<SchemeId> {
        let mut out: Vec<SchemeId> = (0u8..8).map(|g| self.effective(g)).collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, FlowId};

    #[test]
    fn scheme_id_range() {
        assert!(SchemeId::new(7).is_ok());
        assert_eq!(SchemeId::new(8), Err(SchemeIdError(8)));
        assert!(SchemeIdError(9).to_string().contains("out of range"));
    }

    #[test]
    fn group_way_masks_cover_cache_disjointly() {
        for ways in [12u32, 16] {
            let mut acc = 0u64;
            for g in 0..4u8 {
                let m = PartitionGroup::new(g).way_mask(ways);
                assert_eq!(acc & m, 0, "groups must be disjoint");
                acc |= m;
            }
            assert_eq!(acc, (1u64 << ways) - 1, "groups must cover all ways");
        }
    }

    #[test]
    fn paper_register_value_decodes() {
        let reg = ClusterPartCr::from_bits(0x8000_4201).expect("no conflicts");
        assert_eq!(reg.owner_of(PartitionGroup::new(0)), Some(SchemeId(0)));
        assert_eq!(reg.owner_of(PartitionGroup::new(1)), Some(SchemeId(2)));
        assert_eq!(reg.owner_of(PartitionGroup::new(2)), Some(SchemeId(3)));
        assert_eq!(reg.owner_of(PartitionGroup::new(3)), Some(SchemeId(7)));
    }

    #[test]
    fn assign_round_trips_through_bits() {
        let mut reg = ClusterPartCr::new();
        reg.assign(PartitionGroup::new(3), SchemeId(7));
        reg.assign(PartitionGroup::new(1), SchemeId(2));
        reg.assign(PartitionGroup::new(2), SchemeId(3));
        reg.assign(PartitionGroup::new(0), SchemeId(0));
        assert_eq!(reg.bits(), 0x8000_4201, "matches the paper's Fig. 2 value");
        let back = ClusterPartCr::from_bits(reg.bits()).expect("valid");
        assert_eq!(back, reg);
    }

    #[test]
    fn conflicting_owners_rejected() {
        // Group 0 claimed by schemes 0 and 1: bits 0 and 4.
        let err = ClusterPartCr::from_bits(0b1_0001).unwrap_err();
        assert_eq!(err, ClusterPartCrError::ConflictingOwners { group: 0 });
        assert!(err.to_string().contains("group 0"));
    }

    #[test]
    fn reassign_replaces_owner_and_unassign_opens() {
        let mut reg = ClusterPartCr::new();
        reg.assign(PartitionGroup::new(2), SchemeId(1));
        reg.assign(PartitionGroup::new(2), SchemeId(5));
        assert_eq!(reg.owner_of(PartitionGroup::new(2)), Some(SchemeId(5)));
        reg.unassign(PartitionGroup::new(2));
        assert_eq!(reg.owner_of(PartitionGroup::new(2)), None);
    }

    #[test]
    fn way_mask_private_plus_unassigned() {
        let mut reg = ClusterPartCr::new();
        reg.assign(PartitionGroup::new(0), SchemeId(1));
        // Scheme 1 gets group 0 plus unassigned groups 1-3.
        assert_eq!(reg.way_mask(SchemeId(1), 16), 0xFFFF);
        // Scheme 0 gets only the unassigned groups.
        assert_eq!(reg.way_mask(SchemeId(0), 16), 0xFFF0);
        // In a fully-assigned register a scheme not owning anything gets 0.
        for g in 0..4 {
            reg.assign(PartitionGroup::new(g), SchemeId(g));
        }
        assert_eq!(reg.way_mask(SchemeId(7), 16), 0);
        assert_eq!(
            reg.way_mask(SchemeId(2), 12),
            PartitionGroup::new(2).way_mask(12)
        );
    }

    #[test]
    fn fully_assigned_register_gives_pairwise_disjoint_scheme_masks() {
        // Every group privately owned ⇒ no two schemes may ever allocate
        // the same way — the property the closed-loop safe mode relies on.
        let mut reg = ClusterPartCr::new();
        for g in 0..4u8 {
            reg.assign(PartitionGroup::new(g), SchemeId(g % 2));
        }
        for ways in [12u32, 16] {
            for a in 0..8u8 {
                for b in (a + 1)..8u8 {
                    let ma = reg.way_mask(SchemeId(a), ways);
                    let mb = reg.way_mask(SchemeId(b), ways);
                    assert_eq!(
                        ma & mb,
                        0,
                        "schemes {a} and {b} overlap on ways {ways}: {ma:#x} & {mb:#x}"
                    );
                }
            }
            // The owning schemes' masks cover the whole cache between them.
            assert_eq!(
                reg.way_mask(SchemeId(0), ways) | reg.way_mask(SchemeId(1), ways),
                (1u64 << ways) - 1
            );
        }
    }

    #[test]
    fn scheme_masks_overlap_exactly_on_unassigned_groups() {
        // One private group each for schemes 0 and 1; groups 2-3 open.
        let mut reg = ClusterPartCr::new();
        reg.assign(PartitionGroup::new(0), SchemeId(0));
        reg.assign(PartitionGroup::new(1), SchemeId(1));
        let open = PartitionGroup::new(2).way_mask(16) | PartitionGroup::new(3).way_mask(16);
        let m0 = reg.way_mask(SchemeId(0), 16);
        let m1 = reg.way_mask(SchemeId(1), 16);
        assert_eq!(m0 & m1, open, "overlap is exactly the unassigned ways");
        // A scheme owning nothing competes only in the open region.
        assert_eq!(reg.way_mask(SchemeId(5), 16), open);
        // Private regions stay exclusive.
        assert_eq!(m0 & PartitionGroup::new(1).way_mask(16), 0);
        assert_eq!(m1 & PartitionGroup::new(0).way_mask(16), 0);
    }

    #[test]
    fn apply_to_installs_masks() {
        let mut cache = SetAssocCache::new(CacheConfig::new(16, 16, 64));
        let reg = ClusterPartCr::from_bits(0x8000_4201).expect("valid");
        reg.apply_to(&mut cache);
        assert_eq!(cache.allocation_mask(FlowId(7)), 0xF000);
        assert_eq!(cache.allocation_mask(FlowId(0)), 0x000F);
        assert_eq!(cache.allocation_mask(FlowId(2)), 0x00F0);
        assert_eq!(cache.allocation_mask(FlowId(3)), 0x0F00);
        // Schemes owning nothing in a fully-assigned register get nothing.
        assert_eq!(cache.allocation_mask(FlowId(5)), 0);
    }

    #[test]
    fn paper_example_isolation_end_to_end() {
        // Hypervisor(7), GPOS(0), RTOS(2,3) — thrash and verify isolation.
        let mut cache = SetAssocCache::new(CacheConfig::new(64, 16, 64));
        let reg = ClusterPartCr::from_bits(0x8000_4201).expect("valid");
        reg.apply_to(&mut cache);
        let geom = crate::geometry::CacheGeometry::new(64, 16, 64);
        for round in 0..50u64 {
            for t in 0..256u64 {
                let scheme = [0u32, 2, 3, 7][(round % 4) as usize];
                cache.access(FlowId(scheme), geom.line_address(t, (t % 64) as u32));
            }
        }
        for s in [0u32, 2, 3, 7] {
            assert_eq!(
                cache.stats(FlowId(s)).evictions_suffered,
                0,
                "scheme {s} must be isolated"
            );
        }
    }

    #[test]
    fn override_delegation_per_paper() {
        // RTOS VM: mask 0b110, value 0b010 → reaches schemes 2 and 3.
        let rtos = SchemeOverride::new(0b110, 0b010);
        assert_eq!(rtos.reachable(), vec![SchemeId(2), SchemeId(3)]);
        // GPOS VM: mask 0b111 → pinned to scheme 0.
        let gpos = SchemeOverride::new(0b111, 0b000);
        assert_eq!(gpos.reachable(), vec![SchemeId(0)]);
        // Transparent: everything reachable.
        assert_eq!(SchemeOverride::transparent().reachable().len(), 8);
    }

    #[test]
    #[should_panic(expected = "12- or 16-way")]
    fn way_mask_rejects_other_associativity() {
        let _ = PartitionGroup::new(0).way_mask(8);
    }
}
