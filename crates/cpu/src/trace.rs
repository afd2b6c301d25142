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

/// A compiled instruction trace: the records of a [`Trace`] bit-packed at
/// field widths chosen for this trace, in one immutable, atomically
/// reference-counted array of words.
///
/// Compilation is the split between workload *generation* and workload
/// *replay*: a [`Trace`] is built (or parsed) once and compiled once, and the
/// resulting `CompiledTrace` is shared by every simulated system that replays
/// it — across the mixes of a suite that run the same application with the
/// same trace seed, across the configurations of a campaign matrix, across
/// repeated runs of the same mix, and across worker threads. Cloning is a
/// reference-count bump; no per-run deep copy of the records ever happens.
///
/// Compilation re-encodes. A scan finds the low address bits every record
/// shares as zeros (6 for a line-aligned trace), the widest remaining address
/// and the largest bubble count; each record then packs into an address
/// field, a bubble field and the store and uncached bits, just as wide as
/// this trace needs. A Table-1 benign trace takes 4.0–4.75 bytes a record
/// (32–38 bits) and the attacker 3.75, against 16 for a [`TraceEntry`] and 8
/// for a whole word. The records sit back to back, then one padding word, so
/// [`CompiledTrace::get`] reads one two-word window and stays O(1).
///
/// The bubble field's all-ones value is never a bubble count: it marks an
/// escape record, whose address field indexes a side table of full records.
/// Only a trace whose fields together need more than 64 bits escapes any
/// record (only [`Trace::from_bytes`] of outside input builds one), so
/// compilation is lossless for every `Trace`. [`Trace`], [`TraceEntry`] and
/// the 13-byte on-disk format ([`Trace::to_bytes`] / [`Trace::from_bytes`])
/// are unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledTrace {
    /// The packed records, back to back from bit 0, then one padding word.
    words: Arc<[u64]>,
    /// The records that did not fit their packed fields, in trace order.
    escapes: Arc<[TraceEntry]>,
    /// Number of records.
    len: usize,
    /// Where a record's fields sit.
    layout: Layout,
}

/// The store and uncached bits at the top of a packed record.
const FLAG_BITS: u32 = 2;
/// The bubble field's width when the fields a trace needs do not fit in one
/// word: bubble counts of 2²² − 1 and more escape, and the address field
/// takes the remaining 40 bits.
const CAPPED_BUBBLE_BITS: u32 = 22;

/// The fields of one compiled trace's records. A record holds, from its
/// lowest bit: the address shifted right by `shift` in `addr_bits`, the
/// bubble count in `bubble_bits`, then the store bit and the uncached bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    shift: u32,
    addr_bits: u32,
    bubble_bits: u32,
    // Derived from the three widths once, because `get` decodes a record
    // each time a core moves on to the next one.
    /// Bits per record.
    width: u32,
    addr_mask: u64,
    /// The bubble field's all-ones value, the escape marker.
    bubble_mask: u64,
}

/// The number of significant bits of `x` (0 for 0).
fn bits(x: u64) -> u32 {
    u64::BITS - x.leading_zeros()
}

/// The low `n` bits set (`n < 64`).
fn low_bits(n: u32) -> u64 {
    (1 << n) - 1
}

impl Layout {
    fn new(shift: u32, addr_bits: u32, bubble_bits: u32) -> Layout {
        Layout {
            shift,
            addr_bits,
            bubble_bits,
            width: addr_bits + bubble_bits + FLAG_BITS,
            addr_mask: low_bits(addr_bits),
            bubble_mask: low_bits(bubble_bits),
        }
    }

    /// The narrowest fields that hold every record of `entries`, or, if they
    /// would need more than one word, a 22-bit bubble field and a 40-bit
    /// address field that the widest records escape. The second value is
    /// false if no record can escape.
    fn of(entries: &[TraceEntry]) -> (Layout, bool) {
        // Two folds: each compiles to a vectorised loop, where one fold over
        // both fields does not and takes twice as long.
        let any = entries.iter().fold(0, |any, e| any | e.addr.0);
        let max_bubbles = entries.iter().map(|e| e.bubbles).max().unwrap_or(0);
        let shift = if any == 0 { 0 } else { any.trailing_zeros() };
        // The widest address holds the highest bit any address holds.
        let addr_bits = bits(any >> shift);
        // One count more than the largest, so no bubble count is all ones.
        let bubble_bits = bits(u64::from(max_bubbles) + 1);
        if addr_bits + bubble_bits + FLAG_BITS <= u64::BITS {
            (Layout::new(shift, addr_bits, bubble_bits), false)
        } else {
            let bubble_bits = bubble_bits.min(CAPPED_BUBBLE_BITS);
            let addr_bits = u64::BITS - FLAG_BITS - bubble_bits;
            (Layout::new(shift, addr_bits, bubble_bits), true)
        }
    }

    /// True if a field of `e` does not fit.
    #[inline]
    fn escapes(self, e: &TraceEntry) -> bool {
        e.addr.0 >> self.shift > self.addr_mask || u64::from(e.bubbles) >= self.bubble_mask
    }

    /// A record of the given field values.
    #[inline]
    fn fields(self, addr: u64, bubbles: u64, is_write: bool, uncached: bool) -> u64 {
        let flags = u64::from(is_write) | u64::from(uncached) << 1;
        flags << (self.addr_bits + self.bubble_bits) | bubbles << self.addr_bits | addr
    }
}

impl From<&Trace> for CompiledTrace {
    fn from(trace: &Trace) -> Self {
        let entries = trace.entries();
        let (layout, capped) = Layout::of(entries);
        let width = layout.width;
        let bits = entries.len() as u64 * u64::from(width);
        let mut words: Arc<[u64]> =
            std::iter::repeat_n(0, bits.div_ceil(64) as usize + 1).collect();
        let out = Arc::get_mut(&mut words).expect("a new array is not shared");
        let mut escapes = Vec::new();
        // A streaming writer: `pending` holds the `filled` bits not yet
        // stored, `out[next]` is the word they go to.
        let (mut pending, mut filled, mut next) = (0, 0, 0);
        for e in entries {
            // Only a capped layout can leave a record out; testing that
            // first keeps the check out of the common loop.
            let record = if capped && layout.escapes(e) {
                let index = escapes.len() as u64;
                assert!(index <= layout.addr_mask, "the escape index fits the address field");
                escapes.push(*e);
                layout.fields(index, layout.bubble_mask, false, false)
            } else {
                let (addr, bubbles) = (e.addr.0 >> layout.shift, u64::from(e.bubbles));
                layout.fields(addr, bubbles, e.is_write, e.uncached)
            };
            pending |= record << filled;
            filled += width;
            if filled >= u64::BITS {
                out[next] = pending;
                next += 1;
                filled -= u64::BITS;
                // The record's bits that did not fit (none if `filled` is 0).
                pending = (record >> 1) >> (width - 1 - filled);
            }
        }
        out[next] = pending;
        CompiledTrace { words, escapes: escapes.into(), len: entries.len(), layout }
    }
}

impl CompiledTrace {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false (construction rejects empty traces); provided for API
    /// completeness.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The record at `index`, decoded from its bits.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    #[inline]
    pub fn get(&self, index: usize) -> TraceEntry {
        assert!(index < self.len, "record {index} of a {}-record trace", self.len);
        let Layout { shift, addr_bits, bubble_bits, width, addr_mask, bubble_mask } = self.layout;
        let bit = index * width as usize;
        let (word, offset) = (bit / 64, bit % 64);
        // The record may straddle two words; the padding word makes the
        // second one exist for the last record too.
        let &[lo, hi] = &self.words[word..word + 2] else { unreachable!("two words") };
        let record = ((u128::from(hi) << 64 | u128::from(lo)) >> offset) as u64;
        let addr = record & addr_mask;
        let bubbles = (record >> addr_bits) & bubble_mask;
        if bubbles == bubble_mask {
            return self.escaped(addr);
        }
        let flags = record >> (addr_bits + bubble_bits);
        TraceEntry {
            bubbles: bubbles as u32,
            addr: PhysAddr(addr << shift),
            is_write: flags & 1 != 0,
            uncached: flags & 2 != 0,
        }
    }

    /// The side-table record an escape record points at.
    #[cold]
    fn escaped(&self, index: u64) -> TraceEntry {
        self.escapes[index as usize]
    }

    /// The record at `index` modulo the trace length (cyclic replay, same
    /// contract as [`Trace::entry`]).
    pub fn entry(&self, index: usize) -> TraceEntry {
        self.get(index % self.len())
    }

    /// Bytes of record storage this trace holds: its packed records rounded
    /// up to whole words, one padding word, and one [`TraceEntry`] per
    /// record that escaped to the side table.
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
        // Three 8-bit records (2 address, 4 bubble and 2 flag bits) fill
        // one word, then the padding word.
        assert_eq!(compiled.heap_bytes(), 16);
        let shared = compiled.clone();
        assert!(shared.shares_storage(&compiled), "clone must be a refcount bump");
        assert_eq!(shared, compiled);
        // A recompile of the same trace is equal but not shared.
        let recompiled = t.compile();
        assert_eq!(recompiled, compiled);
        assert!(!recompiled.shares_storage(&compiled));
        assert_eq!(compiled.to_trace(), t);
    }

    fn layout_of(records: &[(u32, u64)]) -> Layout {
        let entries: Vec<_> =
            records.iter().map(|&(b, a)| TraceEntry::load(b, PhysAddr(a))).collect();
        Layout::of(&entries).0
    }

    /// The address field holds the widest address less the zero bits every
    /// address shares, and the bubble field one count more than the largest
    /// (its all-ones value marks an escape). Fields that would need more
    /// than one word fall back to a 22-bit bubble field.
    #[test]
    fn the_fields_are_as_wide_as_the_trace_needs() {
        let layout = Layout::new;
        assert_eq!(Layout::of(sample().entries()).0, layout(12, 2, 4));
        // A Table-1 benign trace: 28 line-index bits above 6 offset bits.
        let line = (1 << 28) - 1;
        assert_eq!(layout_of(&[(1023, 0x40), (0, line << 6)]), layout(6, 28, 11));
        assert_eq!(layout_of(&[(1022, 0x40), (0, line << 6)]), layout(6, 28, 10));
        assert_eq!(layout_of(&[(0, 0), (0, 0)]), layout(0, 0, 1));
        assert_eq!(layout_of(&[(0, 1 << 63)]), layout(63, 1, 1));
        // Exactly one word: 29 address, 33 bubble and 2 flag bits.
        assert_eq!(layout_of(&[(u32::MAX, (1 << 29) - 1)]), layout(0, 29, 33));
        assert_eq!(layout_of(&[(u32::MAX, ((1 << 29) - 1) << 35)]), layout(35, 29, 33));
        // One bit past it.
        assert_eq!(layout_of(&[(u32::MAX, (1 << 30) - 1)]), layout(0, 40, 22));
        assert_eq!(layout_of(&[(5, u64::MAX)]), layout(0, 59, 3));
        for l in [layout(0, 40, 22), layout(0, 59, 3), layout(35, 29, 33)] {
            assert_eq!(l.width, 64);
        }
    }

    #[test]
    fn records_that_do_not_fit_a_word_escape_to_the_side_table() {
        let fits = TraceEntry {
            uncached: true,
            ..TraceEntry::store((1 << 22) - 2, PhysAddr((1 << 40) - 1))
        };
        let t = Trace::new(vec![
            fits,
            TraceEntry::load((1 << 22) - 1, PhysAddr(0x40)),
            TraceEntry::store(0, PhysAddr(1 << 40)),
            TraceEntry { uncached: true, ..TraceEntry::load(u32::MAX, PhysAddr(u64::MAX)) },
        ]);
        let compiled = t.compile();
        assert_eq!(compiled.layout, Layout::new(0, 40, 22));
        assert_eq!(&*compiled.escapes, &t.entries()[1..]);
        // Four 64-bit records and the padding word, then the side table.
        assert_eq!(compiled.heap_bytes(), 8 * 5 + 3 * std::mem::size_of::<TraceEntry>());
        assert_eq!(compiled.to_trace(), t);
    }

    #[test]
    #[should_panic(expected = "record 3 of a 3-record trace")]
    fn a_record_past_the_end_is_not_read_from_the_padding() {
        let _ = sample().compile().get(3);
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_compiled_trace_rejected() {
        // A compiled trace is only ever built from a `Trace`, which rejects
        // an empty record list.
        let _ = Trace::new(vec![]).compile();
    }

    /// A bubble count weighted to the edges: 0, small, anything, `u32::MAX`.
    fn bubbles() -> impl Strategy<Value = u32> {
        prop_oneof![0..=0, 0..=64, 0..=u32::MAX, u32::MAX..=u32::MAX]
    }

    /// An address weighted to the edges: 0, unaligned within a Table-1
    /// channel, anything, `u64::MAX`.
    fn address() -> impl Strategy<Value = u64> {
        prop_oneof![0..=0, 0..=(1 << 34) - 1, 0..=u64::MAX, u64::MAX..=u64::MAX]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Compilation is lossless over the whole `TraceEntry` domain: `get`,
        /// cyclic `entry` and `to_trace` give back every record, escaped or
        /// packed. `shape` 0 keeps the drawn records, 1 makes them line
        /// aligned (a generated trace), and 2 and 3 shape them so that the
        /// fields need exactly 64 bits (a `bubble_bits`-bit bubble field, the
        /// addresses shifted by `shift`) and one more.
        #[test]
        fn compilation_is_lossless_for_any_record(
            records in proptest::collection::vec(
                (bubbles(), address(), any::<bool>(), any::<bool>()),
                1..200,
            ),
            shape in 0u32..4,
            bubble_bits in 1u32..=33,
            shift in 0u32..64,
        ) {
            let mut entries: Vec<_> = records
                .iter()
                .map(|&(bubbles, addr, is_write, uncached)| TraceEntry {
                    bubbles,
                    addr: PhysAddr(addr),
                    is_write,
                    uncached,
                })
                .collect();
            let max_bubbles = ((1u64 << bubble_bits) - 2).min(u64::from(u32::MAX));
            let addr_bits = 62 + shape.saturating_sub(2) - bubble_bits;
            let shift = shift % (65 - addr_bits);
            for e in &mut entries {
                match shape {
                    0 => {}
                    1 => {
                        e.addr.0 = (e.addr.0 & low_bits(28)) << 6;
                        e.bubbles %= 2048;
                    }
                    _ => {
                        e.addr.0 = (e.addr.0 & low_bits(addr_bits)) << shift;
                        e.bubbles = (u64::from(e.bubbles) % (max_bubbles + 1)) as u32;
                    }
                }
            }
            if shape >= 2 {
                let widest = TraceEntry::load(max_bubbles as u32, PhysAddr(low_bits(addr_bits) << shift));
                entries.insert(entries.len() / 2, widest);
            }
            let t = Trace::new(entries);
            let compiled = t.compile();
            match shape {
                1 => prop_assert!(compiled.escapes.is_empty() && compiled.layout.shift >= 6),
                2 => {
                    prop_assert_eq!(compiled.layout, Layout::new(shift, addr_bits, bubble_bits));
                    prop_assert!(compiled.escapes.is_empty());
                }
                3 => {
                    prop_assert_eq!(compiled.layout.bubble_bits, bubble_bits.min(22));
                    prop_assert_eq!(compiled.layout.width, 64);
                }
                _ => {}
            }
            let width = compiled.layout.width as usize;
            prop_assert_eq!(
                compiled.heap_bytes(),
                ((t.len() * width).div_ceil(64) + 1) * 8
                    + compiled.escapes.len() * std::mem::size_of::<TraceEntry>()
            );
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
