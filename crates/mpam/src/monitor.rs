//! MPAM monitoring interfaces (§III-B.3).
//!
//! Two standard monitor types, both optional in the architecture:
//!
//! * **cache-storage usage monitors** report the cache utilisation for a
//!   given PARTID (and optionally PMG);
//! * **memory-bandwidth usage monitors** report the number of bytes
//!   transferred for a given PARTID (and optionally PMG).
//!
//! Monitors can filter requests **by type** (read or write) and match **by
//! PARTID and PMG or PARTID only**. They optionally support **capture
//! registers** holding the monitor value after a capture event, so the
//! values of many monitors at one instant can be frozen and read out
//! sequentially.

use crate::id::{MpamLabel, PartId, Pmg};

/// Request-type filter of a monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestType {
    /// Match only reads.
    Read,
    /// Match only writes.
    Write,
    /// Match both.
    Any,
}

impl RequestType {
    fn matches(&self, is_read: bool) -> bool {
        match self {
            RequestType::Read => is_read,
            RequestType::Write => !is_read,
            RequestType::Any => true,
        }
    }
}

/// Label filter of a monitor: PARTID always matches; PMG optionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorFilter {
    /// The PARTID to match.
    pub partid: PartId,
    /// `Some(pmg)` to additionally match the PMG, `None` for PARTID-only.
    pub pmg: Option<Pmg>,
    /// Request-type filter.
    pub request_type: RequestType,
}

impl MonitorFilter {
    /// A PARTID-only filter matching both request types.
    pub fn partid_only(partid: PartId) -> Self {
        MonitorFilter {
            partid,
            pmg: None,
            request_type: RequestType::Any,
        }
    }

    /// A PARTID+PMG filter matching both request types.
    pub fn partid_pmg(partid: PartId, pmg: Pmg) -> Self {
        MonitorFilter {
            partid,
            pmg: Some(pmg),
            request_type: RequestType::Any,
        }
    }

    /// Restricts the filter to one request type.
    pub fn with_request_type(mut self, request_type: RequestType) -> Self {
        self.request_type = request_type;
        self
    }

    /// Whether a labelled request of the given direction matches.
    pub fn matches(&self, label: &MpamLabel, is_read: bool) -> bool {
        label.partid() == self.partid
            && self.pmg.is_none_or(|p| label.pmg() == p)
            && self.request_type.matches(is_read)
    }
}

/// A cache-storage usage monitor: tracks bytes of cache the matching
/// traffic currently occupies.
///
/// # Examples
///
/// ```
/// use autoplat_mpam::{CacheStorageMonitor, MonitorFilter, MpamLabel, PartId, Pmg, PartIdSpace};
///
/// let label = MpamLabel::new(PartId(1), Pmg(0), PartIdSpace::PhysicalNonSecure);
/// let mut mon = CacheStorageMonitor::new(MonitorFilter::partid_only(PartId(1)));
/// mon.on_fill(&label, 64);
/// mon.on_fill(&label, 64);
/// mon.on_evict(&label, 64);
/// assert_eq!(mon.value(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct CacheStorageMonitor {
    filter: MonitorFilter,
    bytes: u64,
    capture: Option<u64>,
}

impl CacheStorageMonitor {
    /// Creates a monitor with the given filter.
    pub fn new(filter: MonitorFilter) -> Self {
        CacheStorageMonitor {
            filter,
            bytes: 0,
            capture: None,
        }
    }

    /// The configured filter.
    pub fn filter(&self) -> &MonitorFilter {
        &self.filter
    }

    /// Notes a cache fill of `bytes` on behalf of `label`.
    pub fn on_fill(&mut self, label: &MpamLabel, bytes: u64) {
        if self.filter.matches(label, true) || self.filter.matches(label, false) {
            self.bytes += bytes;
        }
    }

    /// Notes an eviction of `bytes` of `label`'s data.
    pub fn on_evict(&mut self, label: &MpamLabel, bytes: u64) {
        if self.filter.matches(label, true) || self.filter.matches(label, false) {
            self.bytes = self.bytes.saturating_sub(bytes);
        }
    }

    /// Current occupancy in bytes.
    pub fn value(&self) -> u64 {
        self.bytes
    }

    /// Freezes the current value into the capture register.
    pub fn capture(&mut self) {
        self.capture = Some(self.bytes);
    }

    /// The captured value, if a capture event occurred.
    pub fn captured(&self) -> Option<u64> {
        self.capture
    }
}

/// A memory-bandwidth usage monitor: counts bytes transferred by matching
/// traffic.
///
/// # Examples
///
/// ```
/// use autoplat_mpam::{MemoryBandwidthMonitor, MonitorFilter, RequestType};
/// use autoplat_mpam::{MpamLabel, PartId, Pmg, PartIdSpace};
///
/// let filter = MonitorFilter::partid_only(PartId(2)).with_request_type(RequestType::Read);
/// let mut mon = MemoryBandwidthMonitor::new(filter);
/// let label = MpamLabel::new(PartId(2), Pmg(0), PartIdSpace::PhysicalNonSecure);
/// mon.on_transfer(&label, true, 64);   // read: counted
/// mon.on_transfer(&label, false, 64);  // write: filtered out
/// assert_eq!(mon.value(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryBandwidthMonitor {
    filter: MonitorFilter,
    bytes: u64,
    capture: Option<u64>,
}

impl MemoryBandwidthMonitor {
    /// Creates a monitor with the given filter.
    pub fn new(filter: MonitorFilter) -> Self {
        MemoryBandwidthMonitor {
            filter,
            bytes: 0,
            capture: None,
        }
    }

    /// The configured filter.
    pub fn filter(&self) -> &MonitorFilter {
        &self.filter
    }

    /// Notes a transfer of `bytes` (read if `is_read`) labelled `label`.
    pub fn on_transfer(&mut self, label: &MpamLabel, is_read: bool, bytes: u64) {
        if self.filter.matches(label, is_read) {
            self.bytes += bytes;
        }
    }

    /// Total matched bytes since creation (or the last [`reset`]).
    ///
    /// [`reset`]: MemoryBandwidthMonitor::reset
    pub fn value(&self) -> u64 {
        self.bytes
    }

    /// Zeroes the running counter (capture register unaffected).
    pub fn reset(&mut self) {
        self.bytes = 0;
    }

    /// Freezes the current value into the capture register.
    pub fn capture(&mut self) {
        self.capture = Some(self.bytes);
    }

    /// The captured value, if a capture event occurred.
    pub fn captured(&self) -> Option<u64> {
        self.capture
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::PartIdSpace;

    fn label(partid: u16, pmg: u8) -> MpamLabel {
        MpamLabel::new(PartId(partid), Pmg(pmg), PartIdSpace::PhysicalNonSecure)
    }

    #[test]
    fn partid_only_filter_ignores_pmg() {
        let f = MonitorFilter::partid_only(PartId(1));
        assert!(f.matches(&label(1, 0), true));
        assert!(f.matches(&label(1, 7), false));
        assert!(!f.matches(&label(2, 0), true));
    }

    #[test]
    fn partid_pmg_filter_requires_both() {
        let f = MonitorFilter::partid_pmg(PartId(1), Pmg(3));
        assert!(f.matches(&label(1, 3), true));
        assert!(!f.matches(&label(1, 4), true));
        assert!(!f.matches(&label(2, 3), true));
    }

    #[test]
    fn request_type_filters() {
        let rd = MonitorFilter::partid_only(PartId(0)).with_request_type(RequestType::Read);
        let wr = MonitorFilter::partid_only(PartId(0)).with_request_type(RequestType::Write);
        assert!(rd.matches(&label(0, 0), true));
        assert!(!rd.matches(&label(0, 0), false));
        assert!(wr.matches(&label(0, 0), false));
        assert!(!wr.matches(&label(0, 0), true));
    }

    #[test]
    fn storage_monitor_tracks_occupancy() {
        let mut m = CacheStorageMonitor::new(MonitorFilter::partid_only(PartId(1)));
        m.on_fill(&label(1, 0), 64);
        m.on_fill(&label(1, 1), 64);
        m.on_fill(&label(9, 0), 64); // filtered
        assert_eq!(m.value(), 128);
        m.on_evict(&label(1, 0), 64);
        assert_eq!(m.value(), 64);
        m.on_evict(&label(1, 0), 1000); // saturates at zero
        assert_eq!(m.value(), 0);
    }

    #[test]
    fn bandwidth_monitor_counts_and_resets() {
        let mut m = MemoryBandwidthMonitor::new(MonitorFilter::partid_only(PartId(4)));
        m.on_transfer(&label(4, 0), true, 64);
        m.on_transfer(&label(4, 0), false, 32);
        assert_eq!(m.value(), 96);
        m.reset();
        assert_eq!(m.value(), 0);
    }

    #[test]
    fn capture_freezes_value() {
        let mut m = MemoryBandwidthMonitor::new(MonitorFilter::partid_only(PartId(4)));
        assert_eq!(m.captured(), None);
        m.on_transfer(&label(4, 0), true, 100);
        m.capture();
        m.on_transfer(&label(4, 0), true, 100);
        assert_eq!(m.captured(), Some(100));
        assert_eq!(m.value(), 200);

        let mut s = CacheStorageMonitor::new(MonitorFilter::partid_only(PartId(4)));
        s.on_fill(&label(4, 0), 64);
        s.capture();
        s.on_fill(&label(4, 0), 64);
        assert_eq!(s.captured(), Some(64));
    }

    #[test]
    fn storage_monitor_with_request_type_counts_any_direction_fill() {
        // A fill has no single direction; a type-restricted filter still
        // counts it when the label matches (the monitor probes both).
        let rd = MonitorFilter::partid_only(PartId(1)).with_request_type(RequestType::Read);
        let mut m = CacheStorageMonitor::new(rd);
        m.on_fill(&label(1, 0), 64);
        assert_eq!(m.value(), 64);
        m.on_evict(&label(1, 0), 64);
        assert_eq!(m.value(), 0);
        let wr = MonitorFilter::partid_only(PartId(1)).with_request_type(RequestType::Write);
        let mut m = CacheStorageMonitor::new(wr);
        m.on_fill(&label(1, 0), 64);
        assert_eq!(m.value(), 64);
        // PARTID mismatch still filters regardless of type.
        m.on_fill(&label(2, 0), 64);
        assert_eq!(m.value(), 64);
    }

    #[test]
    fn captured_is_none_until_first_capture_event() {
        let s = CacheStorageMonitor::new(MonitorFilter::partid_only(PartId(0)));
        assert_eq!(s.captured(), None);
        let b = MemoryBandwidthMonitor::new(MonitorFilter::partid_only(PartId(0)));
        assert_eq!(b.captured(), None);
        // An empty capture freezes zero, distinguishable from "never
        // captured".
        let mut s = s;
        s.capture();
        assert_eq!(s.captured(), Some(0));
    }

    #[test]
    fn reset_leaves_capture_register_intact() {
        let mut m = MemoryBandwidthMonitor::new(MonitorFilter::partid_only(PartId(2)));
        m.on_transfer(&label(2, 0), true, 128);
        m.capture();
        m.reset();
        assert_eq!(m.value(), 0, "running counter zeroed");
        assert_eq!(m.captured(), Some(128), "capture register survives reset");
        // Re-capture after reset publishes the fresh window.
        m.on_transfer(&label(2, 0), false, 32);
        m.capture();
        assert_eq!(m.captured(), Some(32));
    }

    #[test]
    fn recapture_overwrites_previous_capture() {
        let mut m = CacheStorageMonitor::new(MonitorFilter::partid_only(PartId(5)));
        m.on_fill(&label(5, 0), 64);
        m.capture();
        assert_eq!(m.captured(), Some(64));
        m.on_evict(&label(5, 0), 64);
        m.capture();
        assert_eq!(m.captured(), Some(0));
    }

    #[test]
    fn filter_accessors() {
        let f = MonitorFilter::partid_pmg(PartId(3), Pmg(1));
        let m = CacheStorageMonitor::new(f);
        assert_eq!(m.filter().partid, PartId(3));
        let b = MemoryBandwidthMonitor::new(f);
        assert_eq!(b.filter().pmg, Some(Pmg(1)));
    }
}
