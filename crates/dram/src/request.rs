//! Memory request model shared by the controller simulator and the
//! platform layer.

use autoplat_sim::SimTime;

/// Whether a request reads or writes.
///
/// The WCD analysis focuses on reads ("the former are on the critical path
/// for the master requesting them, whereas \[writes\] can be deferred").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// A read access (latency-critical).
    Read,
    /// A write access (deferrable, served in batches).
    Write,
}

impl std::fmt::Display for RequestKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestKind::Read => write!(f, "read"),
            RequestKind::Write => write!(f, "write"),
        }
    }
}

/// Identifier of the master (CPU core, accelerator, DMA engine) issuing a
/// request, used for per-master latency accounting and MPAM-style
/// labelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MasterId(pub u32);

impl std::fmt::Display for MasterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "master{}", self.0)
    }
}

/// One memory request presented to the DRAM controller.
///
/// # Examples
///
/// ```
/// use autoplat_dram::{Request, RequestKind};
/// use autoplat_dram::request::MasterId;
/// use autoplat_sim::SimTime;
///
/// let req = Request::new(1, MasterId(0), RequestKind::Read, 0, 42, SimTime::ZERO);
/// assert_eq!(req.kind, RequestKind::Read);
/// assert_eq!(req.row, 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Unique request id (assigned by the issuer).
    pub id: u64,
    /// Issuing master.
    pub master: MasterId,
    /// Read or write.
    pub kind: RequestKind,
    /// Target bank index.
    pub bank: u32,
    /// Target row within the bank; a request hits if this row is open.
    pub row: u64,
    /// Arrival time at the controller.
    pub arrival: SimTime,
}

impl Request {
    /// Creates a request.
    pub fn new(
        id: u64,
        master: MasterId,
        kind: RequestKind,
        bank: u32,
        row: u64,
        arrival: SimTime,
    ) -> Self {
        Request {
            id,
            master,
            kind,
            bank,
            row,
            arrival,
        }
    }

    /// True for reads.
    pub fn is_read(&self) -> bool {
        self.kind == RequestKind::Read
    }
}

/// Outcome of one served request, reported by the controller simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request that completed.
    pub request: Request,
    /// When its data transfer finished.
    pub finished: SimTime,
    /// Whether it was served as a row hit.
    pub row_hit: bool,
    /// Depth of its queue at admission: the requests queued ahead of it
    /// in the same queue, plus itself. Under DPQ this is the `d` the
    /// per-request latency bound is parameterised on.
    pub depth: u32,
}

impl Completion {
    /// Queueing + service latency of the request.
    pub fn latency(&self) -> autoplat_sim::SimDuration {
        self.finished.saturating_since(self.request.arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoplat_sim::SimDuration;

    #[test]
    fn kind_display() {
        assert_eq!(RequestKind::Read.to_string(), "read");
        assert_eq!(RequestKind::Write.to_string(), "write");
    }

    #[test]
    fn completion_latency() {
        let req = Request::new(
            0,
            MasterId(1),
            RequestKind::Read,
            0,
            7,
            SimTime::from_ns(100.0),
        );
        let c = Completion {
            request: req,
            finished: SimTime::from_ns(148.75),
            row_hit: false,
            depth: 1,
        };
        assert_eq!(c.latency(), SimDuration::from_ns(48.75));
    }

    #[test]
    fn is_read_discriminates() {
        let mut req = Request::new(0, MasterId(0), RequestKind::Read, 0, 0, SimTime::ZERO);
        assert!(req.is_read());
        req.kind = RequestKind::Write;
        assert!(!req.is_read());
    }

    #[test]
    fn master_display() {
        assert_eq!(MasterId(3).to_string(), "master3");
    }
}
