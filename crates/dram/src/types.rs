//! Fundamental value types shared across the whole simulation stack.
//!
//! Everything in the simulator is expressed in terms of these small newtypes:
//! cycles of the DRAM command clock, hardware-thread identifiers, and physical
//! memory addresses. Keeping them as distinct types (rather than bare `u64`s)
//! prevents a whole class of unit-mixing bugs (e.g. adding a CPU-cycle count to
//! a DRAM-cycle deadline).

use std::fmt;

/// A point in time measured in **DRAM command-clock cycles** (nCK).
///
/// The whole memory subsystem is simulated in this clock domain; the CPU cores
/// run at a higher frequency and are ticked multiple times per memory cycle by
/// the system simulator.
pub type Cycle = u64;

/// A duration measured in DRAM command-clock cycles.
pub type CycleDelta = u64;

/// Identifier of a hardware thread (one per simulated core in the default
/// configuration).
///
/// BreakHammer maintains one RowHammer-preventive score per hardware thread,
/// so this is the granularity at which scores, activation attribution and
/// MSHR quotas are tracked.
///
/// # Examples
/// ```
/// use bh_dram::ThreadId;
/// let t = ThreadId(2);
/// assert_eq!(t.index(), 2);
/// assert_eq!(format!("{t}"), "T2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub usize);

impl ThreadId {
    /// Returns the zero-based index of this hardware thread.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl From<usize> for ThreadId {
    fn from(v: usize) -> Self {
        ThreadId(v)
    }
}

/// A physical byte address as seen by the memory controller.
///
/// The address-mapping scheme in `bh-mem` decomposes a `PhysAddr` into
/// channel / rank / bank-group / bank / row / column coordinates.
///
/// # Examples
/// ```
/// use bh_dram::PhysAddr;
/// let a = PhysAddr(0x4000);
/// assert_eq!(a.cache_line(64), 0x100);
/// assert_eq!(a.align_down(64).0, 0x4000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Returns the cache-line index of this address for the given line size.
    ///
    /// # Panics
    /// Panics if `line_size` is zero.
    pub fn cache_line(self, line_size: u64) -> u64 {
        assert!(line_size > 0, "cache line size must be non-zero");
        self.0 / line_size
    }

    /// Rounds the address down to a multiple of `align` (must be a power of two).
    ///
    /// # Panics
    /// Panics if `align` is not a power of two.
    pub fn align_down(self, align: u64) -> PhysAddr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        PhysAddr(self.0 & !(align - 1))
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> Self {
        PhysAddr(v)
    }
}

/// Direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand read (load miss, instruction fetch miss, …).
    Read,
    /// A writeback / store miss that must eventually update DRAM.
    Write,
}

impl AccessKind {
    /// True if this access reads data from DRAM.
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_display_and_index() {
        let t = ThreadId(7);
        assert_eq!(t.index(), 7);
        assert_eq!(t.to_string(), "T7");
        assert_eq!(ThreadId::from(3), ThreadId(3));
    }

    #[test]
    fn phys_addr_cache_line() {
        assert_eq!(PhysAddr(0).cache_line(64), 0);
        assert_eq!(PhysAddr(63).cache_line(64), 0);
        assert_eq!(PhysAddr(64).cache_line(64), 1);
        assert_eq!(PhysAddr(0x1_0000).cache_line(64), 1024);
    }

    #[test]
    fn phys_addr_align_down() {
        assert_eq!(PhysAddr(0x1234).align_down(64).0, 0x1200);
        assert_eq!(PhysAddr(0x1240).align_down(64).0, 0x1240);
        assert_eq!(PhysAddr(0xffff).align_down(4096).0, 0xf000);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn phys_addr_align_down_rejects_non_power_of_two() {
        let _ = PhysAddr(0x1234).align_down(100);
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Write.is_read());
        assert_eq!(AccessKind::Read.to_string(), "read");
        assert_eq!(AccessKind::Write.to_string(), "write");
    }

    #[test]
    fn phys_addr_display_is_hex() {
        assert_eq!(PhysAddr(255).to_string(), "0xff");
    }
}
