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

/// A compiled instruction trace: the records of a [`Trace`] packed into one
/// immutable, atomically reference-counted array of 8-byte words.
///
/// Compilation is the split between workload *generation* and workload
/// *replay*: a [`Trace`] is built (or parsed) once and compiled once, and the
/// resulting `CompiledTrace` is shared by every simulated system that replays
/// it — across the mixes of a suite that run the same application with the
/// same trace seed, across the configurations of a campaign matrix, across
/// repeated runs of the same mix, and across worker threads. Cloning is a
/// reference-count bump; no per-run deep copy of the records ever happens.
///
/// Compilation re-encodes: each record becomes one `u64` holding a 40-bit
/// address, a 22-bit bubble count and the store and uncached bits, half the
/// 16 bytes of a [`TraceEntry`]. A record that does not fit (bubbles
/// ≥ 2²² − 1 or an address ≥ 2⁴⁰; only [`Trace::from_bytes`] of outside
/// input produces one) is stored as an escape word: the all-ones bubble field
/// marks it and its address field indexes a side table of full records. So
/// compilation is lossless for every `Trace` and [`CompiledTrace::get`] stays
/// O(1). [`Trace`], [`TraceEntry`] and the 13-byte on-disk format
/// ([`Trace::to_bytes`] / [`Trace::from_bytes`]) are unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTrace {
    /// One packed record per trace record.
    words: Arc<[u64]>,
    /// The records that did not fit a packed word, in trace order.
    escapes: Arc<[TraceEntry]>,
}

/// Width of a packed record's address field.
const ADDR_BITS: u32 = 40;
/// Width of a packed record's bubble field.
const BUBBLE_BITS: u32 = 22;
const ADDR_MASK: u64 = (1 << ADDR_BITS) - 1;
/// The bubble field's all-ones value: the word is an escape, and its address
/// field indexes the side table. Real bubble counts stay below it.
const ESCAPE: u64 = (1 << BUBBLE_BITS) - 1;
const STORE_BIT: u64 = 1 << (ADDR_BITS + BUBBLE_BITS);
const UNCACHED_BIT: u64 = STORE_BIT << 1;

impl From<&Trace> for CompiledTrace {
    fn from(trace: &Trace) -> Self {
        let mut escapes = Vec::new();
        let words = trace
            .entries()
            .iter()
            .map(|e| {
                let flags = if e.is_write { STORE_BIT } else { 0 }
                    | if e.uncached { UNCACHED_BIT } else { 0 };
                let (bubbles, addr) = if u64::from(e.bubbles) < ESCAPE && e.addr.0 <= ADDR_MASK {
                    (u64::from(e.bubbles), e.addr.0)
                } else {
                    escapes.push(*e);
                    (ESCAPE, escapes.len() as u64 - 1)
                };
                flags | bubbles << ADDR_BITS | addr
            })
            .collect();
        CompiledTrace { words, escapes: escapes.into() }
    }
}

impl CompiledTrace {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Always false (construction rejects empty traces); provided for API
    /// completeness.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The record at `index`, decoded from its word.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    #[inline]
    pub fn get(&self, index: usize) -> TraceEntry {
        let word = self.words[index];
        let bubbles = (word >> ADDR_BITS) & ESCAPE;
        if bubbles == ESCAPE {
            return self.escaped(word);
        }
        TraceEntry {
            bubbles: bubbles as u32,
            addr: PhysAddr(word & ADDR_MASK),
            is_write: word & STORE_BIT != 0,
            uncached: word & UNCACHED_BIT != 0,
        }
    }

    /// The side-table record an escape word points at.
    #[cold]
    fn escaped(&self, word: u64) -> TraceEntry {
        self.escapes[(word & ADDR_MASK) as usize]
    }

    /// The record at `index` modulo the trace length (cyclic replay, same
    /// contract as [`Trace::entry`]).
    pub fn entry(&self, index: usize) -> TraceEntry {
        self.get(index % self.len())
    }

    /// Bytes of record storage this trace holds: 8 per record, plus one
    /// [`TraceEntry`] per record that escaped to the side table.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.words) + std::mem::size_of_val(&*self.escapes)
    }

    /// True if `other` is a clone of this trace (shares its storage), not
    /// merely an equal compilation.
    pub fn shares_storage(&self, other: &CompiledTrace) -> bool {
        Arc::ptr_eq(&self.words, &other.words)
    }

    /// Reconstructs an owned [`Trace`] (for serialisation or mutation).
    pub fn to_trace(&self) -> Trace {
        Trace::new((0..self.len()).map(|i| self.get(i)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        for (i, e) in t.entries().iter().enumerate() {
            assert_eq!(compiled.get(i), *e, "record {i}");
        }
        for i in 0..7 {
            assert_eq!(compiled.entry(i), t.entry(i), "cyclic indexing must match at {i}");
        }
        assert_eq!(compiled.heap_bytes(), 8 * t.len(), "every record packs into one word");
        let shared = compiled.clone();
        assert!(shared.shares_storage(&compiled), "clone must be a refcount bump");
        assert_eq!(shared, compiled);
        // A recompile of the same trace is equal but not shared.
        let recompiled = t.compile();
        assert_eq!(recompiled, compiled);
        assert!(!recompiled.shares_storage(&compiled));
        assert_eq!(compiled.to_trace(), t);
    }

    #[test]
    fn records_that_do_not_fit_a_word_escape_to_the_side_table() {
        let fits = TraceEntry {
            uncached: true,
            ..TraceEntry::store(ESCAPE as u32 - 1, PhysAddr(ADDR_MASK))
        };
        let t = Trace::new(vec![
            fits,
            TraceEntry::load(ESCAPE as u32, PhysAddr(0x40)),
            TraceEntry::store(0, PhysAddr(ADDR_MASK + 1)),
            TraceEntry { uncached: true, ..TraceEntry::load(u32::MAX, PhysAddr(u64::MAX)) },
        ]);
        let compiled = t.compile();
        assert_eq!(&*compiled.escapes, &t.entries()[1..]);
        assert_eq!(compiled.heap_bytes(), 8 * 4 + 3 * std::mem::size_of::<TraceEntry>());
        assert_eq!(compiled.to_trace(), t);
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_compiled_trace_rejected() {
        // A compiled trace is only ever built from a `Trace`, which rejects
        // an empty record list.
        let _ = Trace::new(vec![]).compile();
    }

    /// A bubble count weighted to the packed field's edges: the largest
    /// count that fits, the escape marker, one past it and `u32::MAX`.
    fn bubbles() -> impl Strategy<Value = u32> {
        prop_oneof![0..=64, 0..=u32::MAX, (1 << 22) - 2..=1 << 22, u32::MAX..=u32::MAX]
    }

    /// An address weighted to the packed field's edges: the largest address
    /// that fits, the first that does not, and `u64::MAX`.
    fn address() -> impl Strategy<Value = u64> {
        prop_oneof![0..=(1 << 40) - 1, 0..=u64::MAX, (1 << 40) - 1..=1 << 40, u64::MAX..=u64::MAX]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Compilation is lossless over the whole `TraceEntry` domain: `get`,
        /// cyclic `entry` and `to_trace` give back every record, escaped or
        /// packed.
        #[test]
        fn compilation_is_lossless_for_any_record(
            records in proptest::collection::vec(
                (bubbles(), address(), any::<bool>(), any::<bool>()),
                1..24,
            )
        ) {
            let t = Trace::new(
                records
                    .iter()
                    .map(|&(bubbles, addr, is_write, uncached)| TraceEntry {
                        bubbles,
                        addr: PhysAddr(addr),
                        is_write,
                        uncached,
                    })
                    .collect(),
            );
            let compiled = t.compile();
            prop_assert_eq!(compiled.len(), t.len());
            for (i, e) in t.entries().iter().enumerate() {
                prop_assert_eq!(compiled.get(i), *e);
            }
            for i in 0..3 * t.len() {
                prop_assert_eq!(compiled.entry(i), t.entry(i));
            }
            prop_assert_eq!(compiled.to_trace(), t);
        }
    }
}
