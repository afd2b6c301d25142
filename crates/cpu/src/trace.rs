//! Instruction-trace format for the trace-driven core model.
//!
//! A trace is a sequence of records, each describing a burst of non-memory
//! instructions ("bubbles") followed by one memory access — the same shape as
//! the memory traces the paper's artifact feeds to Ramulator. Traces replay
//! cyclically until the core reaches its instruction budget, so a compact
//! synthetic trace can drive an arbitrarily long simulation.

use bh_dram::PhysAddr;
use std::sync::Arc;

/// One trace record: `bubbles` non-memory instructions, then one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Number of non-memory instructions preceding the access.
    pub bubbles: u32,
    /// Physical address of the memory access.
    pub addr: PhysAddr,
    /// True if the access is a store, false for a load.
    pub is_write: bool,
    /// True if the access bypasses the cache hierarchy (a `clflush`-style
    /// uncached access, the pattern RowHammer attackers use to guarantee that
    /// every access reaches DRAM).
    pub uncached: bool,
}

impl TraceEntry {
    /// Creates a load record.
    pub fn load(bubbles: u32, addr: PhysAddr) -> Self {
        TraceEntry { bubbles, addr, is_write: false, uncached: false }
    }

    /// Creates a store record.
    pub fn store(bubbles: u32, addr: PhysAddr) -> Self {
        TraceEntry { bubbles, addr, is_write: true, uncached: false }
    }

    /// Instructions represented by this record (bubbles plus the access).
    pub fn instructions(&self) -> u64 {
        self.bubbles as u64 + 1
    }
}

/// A cyclic instruction trace for one hardware thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates a trace from its records.
    ///
    /// # Panics
    /// Panics if `entries` is empty (a core cannot run an empty trace).
    pub fn new(entries: Vec<TraceEntry>) -> Self {
        assert!(!entries.is_empty(), "a trace must contain at least one record");
        Trace { entries }
    }

    /// The trace records.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false (construction rejects empty traces); provided for API
    /// completeness.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The record at `index` modulo the trace length (cyclic replay).
    pub fn entry(&self, index: usize) -> TraceEntry {
        self.entries[index % self.entries.len()]
    }

    /// Total instructions represented by one pass over the trace.
    pub(crate) fn instructions_per_pass(&self) -> u64 {
        self.entries.iter().map(TraceEntry::instructions).sum()
    }

    /// Memory accesses per kilo-instruction of this trace (its intrinsic
    /// memory intensity, before any cache filtering).
    pub fn accesses_per_kilo_instruction(&self) -> f64 {
        self.entries.len() as f64 * 1000.0 / self.instructions_per_pass() as f64
    }

    /// Serialises the trace to a compact binary representation
    /// (13 bytes per record).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + self.entries.len() * 13);
        buf.extend_from_slice(&(self.entries.len() as u64).to_be_bytes());
        for e in &self.entries {
            buf.extend_from_slice(&e.bubbles.to_be_bytes());
            buf.extend_from_slice(&e.addr.0.to_be_bytes());
            buf.push(u8::from(e.is_write) | (u8::from(e.uncached) << 1));
        }
        buf
    }

    /// Compiles the trace into its shareable replay representation (see
    /// [`CompiledTrace`]). Compile once per generated trace; every
    /// subsequent share is a reference-count bump.
    pub fn compile(&self) -> CompiledTrace {
        CompiledTrace::from(self)
    }

    /// Parses a trace previously produced by [`Trace::to_bytes`].
    ///
    /// # Errors
    /// Returns a descriptive error if the buffer is truncated or empty.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let Some((header, body)) = bytes.split_first_chunk::<8>() else {
            return Err("trace buffer too short for header".to_string());
        };
        let count = u64::from_be_bytes(*header);
        if count == 0 {
            return Err("trace must contain at least one record".to_string());
        }
        // The header is unvalidated input: size the body with checked
        // arithmetic and allocate only for records that are really there.
        let need = usize::try_from(count).ok().and_then(|n| n.checked_mul(13));
        let Some(records) = need.and_then(|need| body.get(..need)) else {
            return Err(format!(
                "trace buffer truncated: {count} records do not fit in {} bytes",
                body.len()
            ));
        };
        let entries = records
            .chunks_exact(13)
            .map(|r| TraceEntry {
                bubbles: u32::from_be_bytes(r[..4].try_into().expect("4 of 13 bytes")),
                addr: PhysAddr(u64::from_be_bytes(r[4..12].try_into().expect("8 of 13 bytes"))),
                is_write: r[12] & 0b01 != 0,
                uncached: r[12] & 0b10 != 0,
            })
            .collect();
        Ok(Trace { entries })
    }
}

/// A compiled instruction trace: the records of a [`Trace`] in one flat,
/// immutable, atomically reference-counted slice.
///
/// Compilation is the split between workload *generation* and workload
/// *replay*: a [`Trace`] is built (or parsed) once and compiled once, and the
/// resulting `CompiledTrace` is shared by every simulated system that replays
/// it — across the mixes of a suite that run the same application with the
/// same trace seed, across the configurations of a campaign matrix, across
/// repeated runs of the same mix, and across worker threads. Cloning is a reference-count bump; no per-run deep copy of the
/// record vector ever happens. The record layout (and the 13-byte on-disk
/// format via [`Trace::to_bytes`] / [`Trace::from_bytes`]) is unchanged from
/// `Trace` — compilation freezes, it does not re-encode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTrace {
    entries: Arc<[TraceEntry]>,
}

impl From<&Trace> for CompiledTrace {
    fn from(trace: &Trace) -> Self {
        CompiledTrace { entries: trace.entries().into() }
    }
}

impl CompiledTrace {
    /// The trace records.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false (construction rejects empty traces); provided for API
    /// completeness.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The record at `index` modulo the trace length (cyclic replay, same
    /// contract as [`Trace::entry`]).
    #[inline]
    pub(crate) fn entry(&self, index: usize) -> TraceEntry {
        self.entries[index % self.entries.len()]
    }

    /// Reconstructs an owned [`Trace`] (for serialisation or mutation).
    pub fn to_trace(&self) -> Trace {
        Trace::new(self.entries.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(vec![
            TraceEntry::load(3, PhysAddr(0x1000)),
            TraceEntry::store(0, PhysAddr(0x2000)),
            TraceEntry { uncached: true, ..TraceEntry::load(10, PhysAddr(0x3000)) },
        ])
    }

    #[test]
    fn instruction_accounting() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.instructions_per_pass(), 4 + 1 + 11);
        let apki = t.accesses_per_kilo_instruction();
        assert!((apki - 3.0 * 1000.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn cyclic_indexing_wraps() {
        let t = sample();
        assert_eq!(t.entry(0), t.entry(3));
        assert_eq!(t.entry(2), t.entry(5));
    }

    #[test]
    fn byte_roundtrip_preserves_the_trace() {
        let t = sample();
        let bytes = t.to_bytes();
        let back = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(t, back);
    }

    /// The wire format, byte for byte: big-endian `u64` record count, then per
    /// record a big-endian `u32` bubble count, a big-endian `u64` address and
    /// one flag byte (bit 0 = store, bit 1 = uncached). A round-trip cannot
    /// see the format move; this can.
    #[test]
    fn wire_format_is_pinned_byte_for_byte() {
        let t = Trace::new(vec![
            TraceEntry::load(0x0102_0304, PhysAddr(0x1122_3344_5566_7788)),
            TraceEntry::store(0, PhysAddr(0x2000)),
            TraceEntry { uncached: true, ..TraceEntry::load(10, PhysAddr(0x3000)) },
        ]);
        #[rustfmt::skip]
        let wire: [u8; 47] = [
            0, 0, 0, 0, 0, 0, 0, 3,
            0x01, 0x02, 0x03, 0x04, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0b00,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x20, 0x00, 0b01,
            0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0x30, 0x00, 0b10,
        ];
        assert_eq!(t.to_bytes(), wire);
        assert_eq!(Trace::from_bytes(&wire).unwrap(), t);
    }

    #[test]
    fn from_bytes_rejects_truncated_buffers() {
        let t = sample();
        let bytes = t.to_bytes();
        let truncated = &bytes[..bytes.len() - 1];
        assert!(Trace::from_bytes(truncated).is_err());
        assert!(Trace::from_bytes(&[0, 0]).is_err());
        let empty_header = 0u64.to_be_bytes();
        assert!(Trace::from_bytes(&empty_header).is_err());
    }

    #[test]
    fn from_bytes_rejects_record_counts_whose_byte_length_overflows() {
        // ceil(2^64 / 13): the smallest count whose body length wraps `usize`.
        for count in [1_418_980_313_362_273_202u64, u64::MAX] {
            let mut hostile = count.to_be_bytes().to_vec();
            hostile.extend_from_slice(&[0; 16]);
            assert!(Trace::from_bytes(&hostile).is_err(), "count {count}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_trace_rejected() {
        let _ = Trace::new(vec![]);
    }

    #[test]
    fn compiled_trace_preserves_records_and_shares_storage() {
        let t = sample();
        let compiled = t.compile();
        assert_eq!(compiled.len(), t.len());
        assert!(!compiled.is_empty());
        assert_eq!(compiled.entries(), t.entries());
        for i in 0..7 {
            assert_eq!(compiled.entry(i), t.entry(i), "cyclic indexing must match at {i}");
        }
        let shared = compiled.clone();
        assert!(Arc::ptr_eq(&shared.entries, &compiled.entries), "clone must be a refcount bump");
        assert_eq!(shared, compiled);
        // A recompile of the same trace is equal but not shared.
        let recompiled = t.compile();
        assert_eq!(recompiled, compiled);
        assert!(!Arc::ptr_eq(&recompiled.entries, &compiled.entries));
        assert_eq!(compiled.to_trace(), t);
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_compiled_trace_rejected() {
        // A compiled trace is only ever built from a `Trace`, which rejects
        // an empty record list.
        let _ = Trace::new(vec![]).compile();
    }
}
