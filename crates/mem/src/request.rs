//! Memory requests and responses exchanged between the cache hierarchy and
//! the memory controller.

use bh_dram::{AccessKind, Cycle, PhysAddr, ThreadId};
use std::fmt;

/// A demand request (LLC miss or writeback) sent to the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-assigned identifier (e.g. the MSHR index); echoed in the
    /// response.
    pub id: u64,
    /// Hardware thread on whose behalf the request is made.
    pub thread: ThreadId,
    /// Physical address (cache-line aligned by the LLC).
    pub addr: PhysAddr,
    /// Read (demand miss) or write (writeback).
    pub kind: AccessKind,
    /// DRAM cycle at which the request arrived at the controller.
    pub arrival: Cycle,
}

impl MemRequest {
    /// Creates a read request.
    pub fn read(id: u64, thread: ThreadId, addr: PhysAddr, arrival: Cycle) -> Self {
        MemRequest { id, thread, addr, kind: AccessKind::Read, arrival }
    }

    /// Creates a write (writeback) request.
    pub fn write(id: u64, thread: ThreadId, addr: PhysAddr, arrival: Cycle) -> Self {
        MemRequest { id, thread, addr, kind: AccessKind::Write, arrival }
    }
}

impl fmt::Display for MemRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} #{} {} {} @{}", self.thread, self.id, self.kind, self.addr, self.arrival)
    }
}

/// Completion notification for a previously-enqueued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// The identifier the requester supplied.
    pub id: u64,
    /// The requesting hardware thread.
    pub thread: ThreadId,
    /// Whether this completes a read or a write.
    pub kind: AccessKind,
    /// DRAM cycle at which the data transfer completes.
    pub completed_at: Cycle,
    /// Memory latency (completion minus arrival) in DRAM cycles.
    pub latency: Cycle,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let r = MemRequest::read(1, ThreadId(2), PhysAddr(0x1000), 5);
        assert_eq!(r.kind, AccessKind::Read);
        assert_eq!(r.thread, ThreadId(2));
        let w = MemRequest::write(2, ThreadId(0), PhysAddr(0x2000), 9);
        assert_eq!(w.kind, AccessKind::Write);
        assert_eq!(w.arrival, 9);
    }

    #[test]
    fn display_contains_key_fields() {
        let r = MemRequest::read(7, ThreadId(1), PhysAddr(0x40), 3);
        let s = r.to_string();
        assert!(s.contains("T1"));
        assert!(s.contains("#7"));
        assert!(s.contains("0x40"));
    }
}
