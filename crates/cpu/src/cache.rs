//! The shared last-level cache (LLC) with miss-status holding registers
//! (MSHRs) and per-thread MSHR quotas.
//!
//! The LLC is BreakHammer's throttling actuator: before allocating a miss
//! buffer for a thread the cache checks the thread's dynamic request quota
//! (§4.3 of the paper). A thread over its quota can still *hit* in the cache
//! and still *merge* into an MSHR that is already tracking its line — exactly
//! the behaviour the paper describes ("a suspect can access the data that
//! already exists in or is being brought to caches") — but it cannot allocate
//! new miss buffers, which limits its dynamic memory request count.
//!
//! Every simulated system holds one LLC and every checkpoint fork copies
//! it, so a line takes 7 host bytes: a 32-bit tag, an 8-bit recency rank
//! within its set (exact LRU without a per-access stamp) and a 16-bit
//! owner-and-dirty word. A Table-1 LLC holds 0.92 MB of line state.

use std::collections::BTreeMap;

use bh_dram::{Cycle, FlatMap, PhysAddr, ThreadId};

/// Identifier of an outstanding miss (one per allocated MSHR).
pub type MissToken = u64;

/// Number of low token bits that encode the MSHR slot index, making
/// completion checks O(1); the remaining bits are an allocation serial that
/// distinguishes successive occupants of the same slot.
const TOKEN_SLOT_BITS: u32 = 8;

/// The most ways a set can have: a line's recency rank is one byte.
const MAX_WAYS: usize = 1 << u8::BITS;

/// The most hardware threads an LLC serves: a line names its owner in the
/// 15 bits of its `meta` word above the dirty bit.
pub const LLC_MAX_THREADS: usize = 1 << (u16::BITS - 1);

/// LLC configuration (Table 1: 8 MiB, 8-way, 64-byte lines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Cache-line size in bytes.
    pub line_bytes: usize,
    /// Access (hit) latency in core cycles.
    pub hit_latency: u64,
    /// Total number of MSHRs (cache-miss buffers).
    pub mshrs: usize,
}

impl CacheConfig {
    /// The paper's LLC configuration (Table 1) with 64 MSHRs.
    pub fn paper_table1() -> Self {
        CacheConfig {
            capacity_bytes: 8 * 1024 * 1024,
            ways: 8,
            line_bytes: 64,
            hit_latency: 30,
            mshrs: 64,
        }
    }

    /// A small configuration for unit tests (4 KiB, 2-way, 4 MSHRs).
    pub fn tiny_test() -> Self {
        CacheConfig { capacity_bytes: 4096, ways: 2, line_bytes: 64, hit_latency: 2, mshrs: 4 }
    }

    /// Number of sets implied by the configuration.
    pub(crate) fn sets(&self) -> usize {
        self.capacity_bytes / (self.ways * self.line_bytes)
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err("line size must be a non-zero power of two".to_string());
        }
        if self.ways == 0 {
            return Err("associativity must be at least 1".to_string());
        }
        if self.ways > MAX_WAYS {
            return Err(format!(
                "at most {MAX_WAYS} ways are supported (a line's recency rank is 8-bit)"
            ));
        }
        if !self.capacity_bytes.is_multiple_of(self.ways * self.line_bytes) {
            return Err("capacity must be a multiple of ways * line size".to_string());
        }
        if self.sets() == 0 || !self.sets().is_power_of_two() {
            return Err("the number of sets must be a non-zero power of two".to_string());
        }
        if self.mshrs == 0 {
            return Err("the cache needs at least one MSHR".to_string());
        }
        if self.mshrs > 1 << TOKEN_SLOT_BITS {
            return Err(format!(
                "at most {} MSHRs are supported (miss tokens encode their slot in {} bits)",
                1usize << TOKEN_SLOT_BITS,
                TOKEN_SLOT_BITS
            ));
        }
        Ok(())
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::paper_table1()
    }
}

/// Result of an LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line is present; data is available at `ready_at` (core cycles).
    Hit {
        /// Core cycle at which the hit data is available.
        ready_at: Cycle,
    },
    /// The line is being fetched: the access was merged into or allocated an
    /// MSHR identified by `token`.
    Miss {
        /// Token identifying the outstanding miss.
        token: MissToken,
        /// True if a new MSHR was allocated (false if merged into an existing
        /// one).
        allocated: bool,
    },
    /// The access could not be handled this cycle and must be retried.
    Rejected {
        /// Why the access was rejected.
        reason: RejectReason,
    },
}

/// Why an LLC access was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// All MSHRs are in use.
    MshrsFull,
    /// The requesting thread has reached its BreakHammer-imposed MSHR quota.
    QuotaExceeded,
}

/// A demand request the LLC wants to send to the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutgoingRequest {
    /// Token of the MSHR this fill belongs to (`None` for writebacks).
    pub token: Option<MissToken>,
    /// Requesting thread (the MSHR allocator for fills; the evicting thread
    /// for writebacks).
    pub thread: ThreadId,
    /// Line-aligned physical address.
    pub addr: PhysAddr,
    /// True for a writeback, false for a fill (read).
    pub is_writeback: bool,
}

/// LLC statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed and allocated an MSHR.
    pub misses: u64,
    /// Demand accesses merged into an existing MSHR.
    pub mshr_merges: u64,
    /// Accesses rejected because every MSHR was busy.
    pub mshr_full_rejections: u64,
    /// Accesses rejected by the per-thread quota (BreakHammer throttling).
    pub quota_rejections: u64,
    /// Dirty lines written back to memory.
    pub writebacks: u64,
}

/// The dirty bit of a line's `meta` word (the owner sits above it).
const DIRTY: u16 = 1;

/// The `tags` entry of a line whose `tag + 1` does not fit below it; the
/// full tag lives in [`LastLevelCache::escaped_tags`].
const ESCAPED: u32 = u32::MAX;

/// The one line address the MSHR map cannot hold (its empty-slot key),
/// reached only with 1-byte lines.
const UNMAPPED_LINE: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Mshr {
    /// Token of the miss currently occupying this slot (0 = slot free).
    token: MissToken,
    line_addr: u64,
    thread: ThreadId,
    /// Whether the fetched line is installed in the cache on completion
    /// (false for uncached / cache-bypassing accesses).
    install: bool,
}

/// The shared last-level cache.
#[derive(Debug, Clone)]
pub struct LastLevelCache {
    config: CacheConfig,
    /// The cache lines, 7 bytes each, one field per array, each set-major
    /// (`set * ways + way`). The tag walk every access makes reads `tags`
    /// alone, where an 8-way set is 32 bytes; the other fields are touched
    /// on a hit and on a fill.
    ///
    /// `tag + 1` of each line; 0 marks an invalid way and [`ESCAPED`] a
    /// line whose tag is in `escaped_tags`.
    tags: Vec<u32>,
    /// Each line's recency rank within its set, 0 the most recent. A set's
    /// ranks are always a permutation of `0..ways` (invalid ways hold ranks
    /// too), so a full set's least recently used line is the one ranked
    /// `ways - 1`: the same order the stamp of each line's latest access
    /// gives, without the stamp.
    rank: Vec<u8>,
    /// `owner << 1 | DIRTY` of each line.
    meta: Vec<u16>,
    /// The full tag of each line whose `tags` entry is [`ESCAPED`], keyed by
    /// flat line index. Cold: a tag escapes only from 2^32 - 2 up, from an
    /// address of about 2^52 bytes on Table 1, where a generated trace's
    /// tags stay below 2^20.
    escaped_tags: BTreeMap<usize, u64>,
    /// MSHR slots, one per miss buffer. A slot with `token == 0` is free.
    /// Tokens encode their slot in the low [`TOKEN_SLOT_BITS`] bits, so
    /// completion checks are a single slot comparison.
    slots: Vec<Mshr>,
    /// The live token of each slot (0 = free), kept separately from the slot
    /// payloads: stalled cores poll [`LastLevelCache::is_completed`] every
    /// cycle, and the compact array keeps that poll inside one or two hot
    /// cache lines.
    slot_tokens: Vec<MissToken>,
    /// Bitset of free slots (bit set = free); the allocator picks the lowest
    /// set bit, so slot assignment matches the linear scan it replaced.
    free_slots: [u64; (1 << TOKEN_SLOT_BITS) / 64],
    /// Active miss line addresses -> slot index, for O(1) merge lookups on
    /// the per-access miss path (the slot scan it replaces is small but runs
    /// on every LLC miss and every reject probe). It never holds
    /// [`UNMAPPED_LINE`]; see [`LastLevelCache::active_slot`].
    line_to_slot: FlatMap<u32>,
    /// Number of occupied MSHR slots.
    occupied: usize,
    /// Allocation serial for the next token's high bits.
    next_serial: MissToken,
    per_thread_mshrs: Vec<usize>,
    quotas: Vec<usize>,
    outgoing: Vec<OutgoingRequest>,
    /// Bumped on every fill completion (slot release). Invalidation stamp
    /// for memoized `MshrsFull` rejections: while the pool is full no MSHR
    /// can be allocated, so only a completion can change any stage of the
    /// access walk (hit-install, merge, pool, quota) for the stalled access.
    completes_version: u64,
    /// Bumped when an allocation fills the last MSHR. A thread stalled on
    /// its *quota* would start being rejected for the pool instead (the pool
    /// check precedes the quota check), so its memo must be revisited.
    pool_full_version: u64,
    /// Per-thread event stamp: bumped when one of the thread's misses
    /// completes (its in-flight count dropped) or its quota changes — the
    /// thread-local reasons a memoized `QuotaExceeded` rejection can stop
    /// holding. The remaining reason (the line gaining an active miss to
    /// merge into, which on completion could also turn the access into a
    /// hit) is checked directly against the active misses.
    per_thread_events: Vec<u64>,
    /// `log2(line_bytes)`, cached for the per-access address split.
    line_shift: u32,
    /// `sets() - 1`, cached for the per-access set index mask.
    set_mask: u64,
    /// `log2(sets())`, cached for the per-access tag extraction.
    set_bits: u32,
    stats: CacheStats,
}

impl LastLevelCache {
    /// Creates the LLC for `num_threads` hardware threads; every thread starts
    /// with a quota equal to the full MSHR count.
    ///
    /// # Panics
    /// Panics if the configuration is invalid or `num_threads` is zero or
    /// above [`LLC_MAX_THREADS`].
    pub fn new(config: CacheConfig, num_threads: usize) -> Self {
        config.validate().expect("invalid cache configuration");
        assert!(num_threads > 0, "need at least one hardware thread");
        assert!(num_threads <= LLC_MAX_THREADS, "line owners are stored in 15 bits");
        let ways = config.ways;
        let lines = config.sets() * ways;
        let mshrs = config.mshrs;
        let line_shift = config.line_bytes.trailing_zeros();
        let set_mask = config.sets() as u64 - 1;
        let set_bits = config.sets().trailing_zeros();
        let mut free_slots = [0u64; (1 << TOKEN_SLOT_BITS) / 64];
        for slot in 0..mshrs {
            free_slots[slot / 64] |= 1 << (slot % 64);
        }
        LastLevelCache {
            config,
            tags: vec![0; lines],
            rank: (0..ways).map(|way| way as u8).collect::<Vec<_>>().repeat(lines / ways),
            meta: vec![0; lines],
            escaped_tags: BTreeMap::new(),
            slots: vec![
                Mshr { token: 0, line_addr: 0, thread: ThreadId(0), install: false };
                mshrs
            ],
            slot_tokens: vec![0; mshrs],
            free_slots,
            line_to_slot: FlatMap::with_capacity(mshrs),
            occupied: 0,
            next_serial: 1,
            per_thread_mshrs: vec![0; num_threads],
            quotas: vec![mshrs; num_threads],
            outgoing: Vec::new(),
            completes_version: 0,
            pool_full_version: 0,
            per_thread_events: vec![0; num_threads],
            line_shift,
            set_mask,
            set_bits,
            stats: CacheStats::default(),
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Cache statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Sets the MSHR quota of `thread` (BreakHammer's throttling knob).
    pub fn set_quota(&mut self, thread: ThreadId, quota: usize) {
        let quota = quota.min(self.config.mshrs);
        if self.quotas[thread.index()] != quota {
            self.quotas[thread.index()] = quota;
            self.per_thread_events[thread.index()] += 1;
        }
    }

    /// The current MSHR quota of `thread`.
    pub fn quota(&self, thread: ThreadId) -> usize {
        self.quotas[thread.index()]
    }

    /// Stamp to store alongside a memoized rejection of reason `reason` for
    /// `thread`; see [`LastLevelCache::reject_memo_valid`].
    pub fn reject_stamp(&self, thread: ThreadId, reason: RejectReason) -> u64 {
        match reason {
            RejectReason::MshrsFull => self.completes_version,
            // Both counters are monotone, so their sum is unchanged iff both
            // are.
            RejectReason::QuotaExceeded => {
                self.per_thread_events[thread.index()].wrapping_add(self.pool_full_version)
            }
        }
    }

    /// True if an access by `thread` to `addr`, previously rejected with
    /// `reason` when [`LastLevelCache::reject_stamp`] read `stamp`, is
    /// guaranteed to be rejected with the same reason now. Replaces a global
    /// change counter: unrelated MSHR traffic (other threads' allocations
    /// and, for quota rejections, other threads' completions) no longer
    /// forces a stalled core to re-walk the cache every time.
    ///
    /// The stamp's invalidation conditions are exhaustive only across one
    /// *continuous* rejection episode: the caller must drop the memo as soon
    /// as a retry of the access succeeds (the core does so on every
    /// non-rejected dispatch), or a stale memo could re-validate after the
    /// line has been installed by another thread's fill.
    #[inline]
    pub fn reject_memo_valid(
        &self,
        thread: ThreadId,
        addr: PhysAddr,
        reason: RejectReason,
        stamp: u64,
    ) -> bool {
        self.reject_stamp(thread, reason) == stamp
            && (reason == RejectReason::MshrsFull
                || self.active_slot(self.line_addr(addr)).is_none())
    }

    /// True if the miss identified by `token` has completed (its MSHR has been
    /// released). O(1): the token's low bits name its slot.
    pub(crate) fn is_completed(&self, token: MissToken) -> bool {
        self.slot_tokens[(token & ((1 << TOKEN_SLOT_BITS) - 1)) as usize] != token
    }

    /// True if at least one fill/writeback request is waiting to be taken
    /// (the cheap per-step probe that lets the simulation loop skip the
    /// drain entirely on quiet steps).
    pub fn has_outgoing(&self) -> bool {
        !self.outgoing.is_empty()
    }

    /// Removes and returns the fill/writeback requests generated since the
    /// last call; the caller forwards them to the memory controller.
    pub fn take_outgoing(&mut self) -> Vec<OutgoingRequest> {
        std::mem::take(&mut self.outgoing)
    }

    /// Moves the pending fill/writeback requests into `buf` (cleared first),
    /// recycling `buf`'s allocation as the next outgoing buffer — the
    /// allocation-free variant of [`LastLevelCache::take_outgoing`] for
    /// callers that drain every cycle.
    pub fn take_outgoing_into(&mut self, buf: &mut Vec<OutgoingRequest>) {
        buf.clear();
        std::mem::swap(&mut self.outgoing, buf);
    }

    fn line_addr(&self, addr: PhysAddr) -> u64 {
        addr.0 >> self.line_shift
    }

    fn set_index(&self, line_addr: u64) -> usize {
        (line_addr & self.set_mask) as usize
    }

    fn tag(&self, line_addr: u64) -> u64 {
        line_addr >> self.set_bits
    }

    /// The flat index of `line_addr`'s set's first way.
    fn set_base(&self, line_addr: u64) -> usize {
        self.set_index(line_addr) * self.config.ways
    }

    /// The `tags` entry of a line holding `tag`.
    fn stored_tag(tag: u64) -> u32 {
        match u32::try_from(tag) {
            Ok(tag) if tag < ESCAPED - 1 => tag + 1,
            _ => ESCAPED,
        }
    }

    /// The tag of valid line `line`.
    fn line_tag(&self, line: usize) -> u64 {
        match self.tags[line] {
            ESCAPED => self.escaped_tag(line),
            stored => u64::from(stored - 1),
        }
    }

    // The escape paths below are out of line and cold, so that the hot
    // functions calling them stay small enough to inline.

    /// The side-table tag of escaped line `line`.
    #[cold]
    #[inline(never)]
    fn escaped_tag(&self, line: usize) -> u64 {
        self.escaped_tags[&line]
    }

    /// The line of the set starting at `base` holding escaped tag `tag`.
    #[cold]
    #[inline(never)]
    fn find_escaped(&self, base: usize, tag: u64) -> Option<usize> {
        (base..base + self.config.ways).find(|line| self.escaped_tags.get(line) == Some(&tag))
    }

    /// Keeps the side table in step with line `line` refilled with `tag`,
    /// stored as `stored`, when the old or the new tag escapes.
    #[cold]
    #[inline(never)]
    fn refill_escaped(&mut self, line: usize, stored: u32, tag: u64) {
        if stored == ESCAPED {
            self.escaped_tags.insert(line, tag);
        } else {
            self.escaped_tags.remove(&line);
        }
    }

    /// The active miss on [`UNMAPPED_LINE`], found by scanning the slots.
    #[cold]
    #[inline(never)]
    fn unmapped_slot(&self) -> Option<u32> {
        let slot = self.slots.iter().position(|m| m.token != 0 && m.line_addr == UNMAPPED_LINE)?;
        Some(slot as u32)
    }

    /// The flat index of the way of `line_addr`'s set holding it, if any.
    fn find_line(&self, line_addr: u64) -> Option<usize> {
        let base = self.set_base(line_addr);
        let tag = self.tag(line_addr);
        match Self::stored_tag(tag) {
            ESCAPED => self.find_escaped(base, tag),
            stored => {
                let way =
                    self.tags[base..base + self.config.ways].iter().position(|&t| t == stored)?;
                Some(base + way)
            }
        }
    }

    /// Makes `line` the most recent of the set starting at `base`: every
    /// line ranked more recent than it ages by one.
    fn promote(&mut self, base: usize, line: usize) {
        let old = self.rank[line];
        for rank in &mut self.rank[base..base + self.config.ways] {
            *rank += u8::from(*rank < old);
        }
        self.rank[line] = 0;
    }

    /// Performs a demand access on behalf of `thread`.
    pub(crate) fn access(
        &mut self,
        thread: ThreadId,
        addr: PhysAddr,
        is_write: bool,
        cycle: Cycle,
    ) -> AccessOutcome {
        let line_addr = self.line_addr(addr);
        if let Some(line) = self.find_line(line_addr) {
            self.promote(self.set_base(line_addr), line);
            if is_write {
                self.meta[line] |= DIRTY;
            }
            self.stats.hits += 1;
            return AccessOutcome::Hit { ready_at: cycle + self.config.hit_latency };
        }
        self.miss_path(thread, line_addr, true)
    }

    /// Performs a cache-bypassing (uncached / `clflush`-style) access: the
    /// request always goes to memory and the returned data is not installed
    /// in the cache. MSHR allocation — and therefore BreakHammer's per-thread
    /// quota — still applies, which is exactly how BreakHammer throttles an
    /// attacker built around uncached accesses.
    pub(crate) fn access_bypass(
        &mut self,
        thread: ThreadId,
        addr: PhysAddr,
        _is_write: bool,
        _cycle: Cycle,
    ) -> AccessOutcome {
        let line_addr = self.line_addr(addr);
        self.miss_path(thread, line_addr, false)
    }

    /// Read-only check of whether an [`LastLevelCache::access`] (or, with
    /// `uncached`, an [`LastLevelCache::access_bypass`]) for `thread` at
    /// `addr` would currently be rejected, mirroring the decision order of
    /// the real access path (hit, MSHR merge, pool, per-thread quota).
    ///
    /// Returns `Some(reason)` iff the access would be rejected; `None` means
    /// it would hit, merge, or allocate. The event-driven simulation kernel
    /// uses this to classify a dispatch-stalled core without perturbing the
    /// cache state.
    pub(crate) fn probe_reject(
        &self,
        thread: ThreadId,
        addr: PhysAddr,
        uncached: bool,
    ) -> Option<RejectReason> {
        let line_addr = self.line_addr(addr);
        if !uncached && self.find_line(line_addr).is_some() {
            return None;
        }
        if self.active_slot(line_addr).is_some() {
            return None;
        }
        if self.occupied >= self.config.mshrs {
            return Some(RejectReason::MshrsFull);
        }
        if self.per_thread_mshrs[thread.index()] >= self.quotas[thread.index()] {
            return Some(RejectReason::QuotaExceeded);
        }
        None
    }

    /// Replays the statistics of `n` rejected access retries without
    /// walking the access path (one retry per stalled core cycle).
    ///
    /// A dispatch-stalled core re-issues its rejected access every cycle;
    /// each attempt bumps the rejection statistic and changes nothing else.
    /// The event-driven kernel skips those dead cycles and accounts for them
    /// here so its statistics stay bit-identical to the per-cycle kernel's.
    pub fn absorb_rejected_probes(&mut self, n: u64, reason: RejectReason) {
        match reason {
            RejectReason::MshrsFull => self.stats.mshr_full_rejections += n,
            RejectReason::QuotaExceeded => self.stats.quota_rejections += n,
        }
    }

    /// The MSHR slot of the active miss on `line_addr`, if any: a map
    /// lookup, or a slot scan for [`UNMAPPED_LINE`].
    fn active_slot(&self, line_addr: u64) -> Option<u32> {
        if line_addr == UNMAPPED_LINE {
            return self.unmapped_slot();
        }
        self.line_to_slot.get(line_addr)
    }

    /// Shared miss handling: merge, pool/quota checks, MSHR allocation.
    fn miss_path(&mut self, thread: ThreadId, line_addr: u64, install: bool) -> AccessOutcome {
        // Merge into an outstanding miss for the same line, if any (lines are
        // unique across MSHRs, so at most one slot can match).
        if let Some(slot) = self.active_slot(line_addr) {
            self.stats.mshr_merges += 1;
            return AccessOutcome::Miss {
                token: self.slots[slot as usize].token,
                allocated: false,
            };
        }

        // Need a new MSHR: enforce the global pool and the per-thread quota.
        if self.occupied >= self.config.mshrs {
            self.stats.mshr_full_rejections += 1;
            return AccessOutcome::Rejected { reason: RejectReason::MshrsFull };
        }
        if self.per_thread_mshrs[thread.index()] >= self.quotas[thread.index()] {
            self.stats.quota_rejections += 1;
            return AccessOutcome::Rejected { reason: RejectReason::QuotaExceeded };
        }

        let slot = self
            .free_slots
            .iter()
            .enumerate()
            .find(|(_, word)| **word != 0)
            .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
            .expect("pool has a free slot");
        self.free_slots[slot / 64] &= !(1 << (slot % 64));
        if line_addr != UNMAPPED_LINE {
            self.line_to_slot.insert(line_addr, slot as u32);
        }
        let token = (self.next_serial << TOKEN_SLOT_BITS) | slot as MissToken;
        self.next_serial += 1;
        self.slots[slot] = Mshr { token, line_addr, thread, install };
        self.slot_tokens[slot] = token;
        self.occupied += 1;
        if self.occupied >= self.config.mshrs {
            self.pool_full_version += 1;
        }
        self.per_thread_mshrs[thread.index()] += 1;
        self.stats.misses += 1;
        self.outgoing.push(OutgoingRequest {
            token: Some(token),
            thread,
            addr: PhysAddr(line_addr * self.config.line_bytes as u64),
            is_writeback: false,
        });
        AccessOutcome::Miss { token, allocated: true }
    }

    /// Completes the outstanding miss identified by `token`: the line is
    /// installed (possibly evicting a dirty victim, which generates a
    /// writeback) and the MSHR is released.
    ///
    /// Unknown or already-completed tokens are ignored (the memory controller
    /// may deliver duplicate completions after a merge).
    pub fn complete_miss(&mut self, token: MissToken) {
        let slot = (token & ((1 << TOKEN_SLOT_BITS) - 1)) as usize;
        if slot >= self.slots.len() || self.slot_tokens[slot] != token {
            return;
        }
        let mshr = self.slots[slot].clone();
        self.slots[slot].token = 0;
        self.slot_tokens[slot] = 0;
        self.free_slots[slot / 64] |= 1 << (slot % 64);
        if mshr.line_addr != UNMAPPED_LINE {
            self.line_to_slot.remove(mshr.line_addr);
        }
        self.occupied -= 1;
        self.completes_version += 1;
        self.per_thread_events[mshr.thread.index()] += 1;
        let idx = mshr.thread.index();
        self.per_thread_mshrs[idx] = self.per_thread_mshrs[idx].saturating_sub(1);
        if !mshr.install {
            // Uncached access: nothing is installed in the cache.
            return;
        }

        // Choose a victim: the first invalid way if any, else the least
        // recently used one.
        let ways = self.config.ways;
        let base = self.set_base(mshr.line_addr);
        let set = base..base + ways;
        let victim = base
            + self.tags[set.clone()].iter().position(|&t| t == 0).unwrap_or_else(|| {
                self.rank[set]
                    .iter()
                    .position(|&rank| usize::from(rank) == ways - 1)
                    .expect("a set's ranks are a permutation of its ways")
            });
        if self.tags[victim] != 0 && self.meta[victim] & DIRTY != 0 {
            let victim_line_addr =
                (self.line_tag(victim) << self.set_bits) | (mshr.line_addr & self.set_mask);
            self.stats.writebacks += 1;
            self.outgoing.push(OutgoingRequest {
                token: None,
                thread: ThreadId(usize::from(self.meta[victim] >> 1)),
                addr: PhysAddr(victim_line_addr * self.config.line_bytes as u64),
                is_writeback: true,
            });
        }
        let tag = self.tag(mshr.line_addr);
        let stored = Self::stored_tag(tag);
        if stored == ESCAPED || self.tags[victim] == ESCAPED {
            self.refill_escaped(victim, stored, tag);
        }
        self.tags[victim] = stored;
        self.meta[victim] = (mshr.thread.index() as u16) << 1;
        self.promote(base, victim);
    }
}

/// The LLC with one `Line` record per way, a use-counter stamp of each
/// line's latest access as its LRU order and linearly scanned MSHRs, kept
/// as the executable reference model: the `reference_equivalence` proptest
/// drives it in lockstep with [`LastLevelCache`] and asserts identical
/// outcomes, statistics, outgoing requests, recency orders and completion
/// states.
#[cfg(test)]
mod reference {
    use super::*;

    #[derive(Debug, Clone, Copy)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        last_use: u64,
        owner: ThreadId,
    }

    #[derive(Debug, Clone, Copy)]
    struct Mshr {
        /// 0 = slot free.
        token: MissToken,
        line_addr: u64,
        thread: ThreadId,
        install: bool,
    }

    #[derive(Debug, Clone)]
    pub(super) struct LineArrayLlc {
        config: CacheConfig,
        /// Set-major (`set * ways + way`).
        lines: Vec<Line>,
        slots: Vec<Mshr>,
        next_serial: MissToken,
        per_thread_mshrs: Vec<usize>,
        quotas: Vec<usize>,
        pub(super) outgoing: Vec<OutgoingRequest>,
        use_counter: u64,
        pub(super) stats: CacheStats,
    }

    impl LineArrayLlc {
        pub(super) fn new(config: CacheConfig, num_threads: usize) -> Self {
            let invalid =
                Line { tag: 0, valid: false, dirty: false, last_use: 0, owner: ThreadId(0) };
            let free = Mshr { token: 0, line_addr: 0, thread: ThreadId(0), install: false };
            LineArrayLlc {
                lines: vec![invalid; config.sets() * config.ways],
                slots: vec![free; config.mshrs],
                next_serial: 1,
                per_thread_mshrs: vec![0; num_threads],
                quotas: vec![config.mshrs; num_threads],
                outgoing: Vec::new(),
                use_counter: 0,
                stats: CacheStats::default(),
                config,
            }
        }

        fn split(&self, addr: PhysAddr) -> (u64, usize, u64) {
            let line_addr = addr.0 / self.config.line_bytes as u64;
            let sets = self.config.sets() as u64;
            (line_addr, (line_addr % sets) as usize, line_addr / sets)
        }

        fn set(&self, set_idx: usize) -> std::ops::Range<usize> {
            set_idx * self.config.ways..(set_idx + 1) * self.config.ways
        }

        pub(super) fn set_quota(&mut self, thread: ThreadId, quota: usize) {
            self.quotas[thread.index()] = quota.min(self.config.mshrs);
        }

        /// The tags of set `set_idx`'s valid lines, most recent first.
        pub(super) fn recency_order(&self, set_idx: usize) -> Vec<u64> {
            let mut valid: Vec<&Line> =
                self.lines[self.set(set_idx)].iter().filter(|l| l.valid).collect();
            valid.sort_by_key(|l| std::cmp::Reverse(l.last_use));
            valid.into_iter().map(|l| l.tag).collect()
        }

        pub(super) fn is_completed(&self, token: MissToken) -> bool {
            self.slots[(token & ((1 << TOKEN_SLOT_BITS) - 1)) as usize].token != token
        }

        pub(super) fn access(
            &mut self,
            thread: ThreadId,
            addr: PhysAddr,
            is_write: bool,
            cycle: Cycle,
        ) -> AccessOutcome {
            self.use_counter += 1;
            let use_counter = self.use_counter;
            let (line_addr, set_idx, tag) = self.split(addr);
            let set = self.set(set_idx);
            if let Some(line) = self.lines[set].iter_mut().find(|l| l.valid && l.tag == tag) {
                line.last_use = use_counter;
                if is_write {
                    line.dirty = true;
                }
                self.stats.hits += 1;
                return AccessOutcome::Hit { ready_at: cycle + self.config.hit_latency };
            }
            self.miss_path(thread, line_addr, true)
        }

        pub(super) fn access_bypass(&mut self, thread: ThreadId, addr: PhysAddr) -> AccessOutcome {
            self.use_counter += 1;
            let (line_addr, _, _) = self.split(addr);
            self.miss_path(thread, line_addr, false)
        }

        fn active_slot(&self, line_addr: u64) -> Option<&Mshr> {
            self.slots.iter().find(|m| m.token != 0 && m.line_addr == line_addr)
        }

        pub(super) fn probe_reject(
            &self,
            thread: ThreadId,
            addr: PhysAddr,
            uncached: bool,
        ) -> Option<RejectReason> {
            let (line_addr, set_idx, tag) = self.split(addr);
            if !uncached && self.lines[self.set(set_idx)].iter().any(|l| l.valid && l.tag == tag) {
                return None;
            }
            if self.active_slot(line_addr).is_some() {
                return None;
            }
            if self.slots.iter().all(|m| m.token != 0) {
                return Some(RejectReason::MshrsFull);
            }
            if self.per_thread_mshrs[thread.index()] >= self.quotas[thread.index()] {
                return Some(RejectReason::QuotaExceeded);
            }
            None
        }

        pub(super) fn absorb_rejected_probes(&mut self, n: u64, reason: RejectReason) {
            self.use_counter += n;
            match reason {
                RejectReason::MshrsFull => self.stats.mshr_full_rejections += n,
                RejectReason::QuotaExceeded => self.stats.quota_rejections += n,
            }
        }

        fn miss_path(&mut self, thread: ThreadId, line_addr: u64, install: bool) -> AccessOutcome {
            if let Some(mshr) = self.active_slot(line_addr) {
                let token = mshr.token;
                self.stats.mshr_merges += 1;
                return AccessOutcome::Miss { token, allocated: false };
            }
            let Some(slot) = self.slots.iter().position(|m| m.token == 0) else {
                self.stats.mshr_full_rejections += 1;
                return AccessOutcome::Rejected { reason: RejectReason::MshrsFull };
            };
            if self.per_thread_mshrs[thread.index()] >= self.quotas[thread.index()] {
                self.stats.quota_rejections += 1;
                return AccessOutcome::Rejected { reason: RejectReason::QuotaExceeded };
            }
            let token = (self.next_serial << TOKEN_SLOT_BITS) | slot as MissToken;
            self.next_serial += 1;
            self.slots[slot] = Mshr { token, line_addr, thread, install };
            self.per_thread_mshrs[thread.index()] += 1;
            self.stats.misses += 1;
            self.outgoing.push(OutgoingRequest {
                token: Some(token),
                thread,
                addr: PhysAddr(line_addr * self.config.line_bytes as u64),
                is_writeback: false,
            });
            AccessOutcome::Miss { token, allocated: true }
        }

        pub(super) fn complete_miss(&mut self, token: MissToken) {
            let slot = (token & ((1 << TOKEN_SLOT_BITS) - 1)) as usize;
            if slot >= self.slots.len() || self.slots[slot].token != token {
                return;
            }
            let mshr = self.slots[slot];
            self.slots[slot].token = 0;
            let idx = mshr.thread.index();
            self.per_thread_mshrs[idx] = self.per_thread_mshrs[idx].saturating_sub(1);
            if !mshr.install {
                return;
            }
            let sets = self.config.sets() as u64;
            let set_idx = (mshr.line_addr % sets) as usize;
            let tag = mshr.line_addr / sets;
            self.use_counter += 1;
            let use_counter = self.use_counter;
            let line_bytes = self.config.line_bytes as u64;
            let range = self.set(set_idx);
            let set = &mut self.lines[range];
            let victim_idx = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
                set.iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.last_use)
                    .map(|(i, _)| i)
                    .expect("cache sets are never empty")
            });
            let victim = set[victim_idx];
            set[victim_idx] =
                Line { tag, valid: true, dirty: false, last_use: use_counter, owner: mshr.thread };
            if victim.valid && victim.dirty {
                self.stats.writebacks += 1;
                self.outgoing.push(OutgoingRequest {
                    token: None,
                    thread: victim.owner,
                    addr: PhysAddr((victim.tag * sets + set_idx as u64) * line_bytes),
                    is_writeback: true,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> LastLevelCache {
        LastLevelCache::new(CacheConfig::tiny_test(), 2)
    }

    #[test]
    fn config_validation() {
        assert_eq!(CacheConfig::paper_table1().validate(), Ok(()));
        assert_eq!(CacheConfig::paper_table1().sets(), 16384);
        let mut bad = CacheConfig::tiny_test();
        bad.line_bytes = 48;
        assert!(bad.validate().is_err());
        let mut bad = CacheConfig::tiny_test();
        bad.ways = 0;
        assert!(bad.validate().is_err());
        let mut bad = CacheConfig::tiny_test();
        bad.mshrs = 0;
        assert!(bad.validate().is_err());
        let mut bad = CacheConfig::tiny_test();
        bad.mshrs = 512; // beyond the slot-encoded token ceiling
        assert!(bad.validate().is_err());
    }

    /// A line's recency rank is 8-bit: 256 ways fit, 257 are a validation
    /// error rather than a wrapped rank.
    #[test]
    fn config_validation_rejects_more_ways_than_a_rank_holds() {
        let one_set =
            |ways| CacheConfig { capacity_bytes: ways * 64, ways, ..CacheConfig::tiny_test() };
        assert_eq!(one_set(256).validate(), Ok(()));
        let err = one_set(257).validate().unwrap_err();
        assert!(err.contains("256 ways"), "{err}");
    }

    /// The largest tag, `u64::MAX` (1-byte lines, one set), goes to the side
    /// table: stored as `tag + 1` it wrapped to the invalid-way marker, and
    /// a cold cache answered `Hit`.
    #[test]
    fn the_largest_tag_misses_on_a_cold_cache() {
        let config =
            CacheConfig { capacity_bytes: 2, ways: 2, line_bytes: 1, hit_latency: 1, mshrs: 2 };
        assert_eq!(config.validate(), Ok(()));
        let mut c = LastLevelCache::new(config, 1);
        let addr = PhysAddr(u64::MAX);
        let token = match c.access(ThreadId(0), addr, false, 0) {
            AccessOutcome::Miss { token, allocated: true } => token,
            other => panic!("expected an allocated miss, got {other:?}"),
        };
        c.complete_miss(token);
        assert_eq!(c.escaped_tags.len(), 1);
        assert!(matches!(c.access(ThreadId(0), addr, false, 1), AccessOutcome::Hit { .. }));
        assert!(matches!(
            c.access(ThreadId(0), PhysAddr(u64::MAX - 1), false, 2),
            AccessOutcome::Miss { .. }
        ));
    }

    /// The bytes of `llc`'s per-line arrays.
    fn line_state_bytes(llc: &LastLevelCache) -> usize {
        std::mem::size_of_val(&*llc.tags)
            + std::mem::size_of_val(&*llc.rank)
            + std::mem::size_of_val(&*llc.meta)
    }

    /// A Table-1 LLC holds 7 bytes per line, and every address below 2^51
    /// bytes keeps its tag in the line: the side table stays empty.
    #[test]
    fn a_table1_llc_holds_seven_bytes_per_line() {
        let mut c = LastLevelCache::new(CacheConfig::paper_table1(), 4);
        assert_eq!(line_state_bytes(&c), 917_504);
        assert_eq!(line_state_bytes(&c), 7 * c.tags.len());
        for addr in [0, 1 << 40, (1 << 51) - 64] {
            let token = match c.access(ThreadId(1), PhysAddr(addr), true, 0) {
                AccessOutcome::Miss { token, allocated: true } => token,
                other => panic!("expected an allocated miss, got {other:?}"),
            };
            c.complete_miss(token);
        }
        assert!(c.escaped_tags.is_empty());
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = cache();
        let addr = PhysAddr(0x1000);
        let outcome = c.access(ThreadId(0), addr, false, 0);
        let token = match outcome {
            AccessOutcome::Miss { token, allocated: true } => token,
            other => panic!("expected an allocated miss, got {other:?}"),
        };
        assert!(!c.is_completed(token));
        let outgoing = c.take_outgoing();
        assert_eq!(outgoing.len(), 1);
        assert_eq!(outgoing[0].token, Some(token));
        assert!(!outgoing[0].is_writeback);

        c.complete_miss(token);
        assert!(c.is_completed(token));
        match c.access(ThreadId(0), addr, false, 100) {
            AccessOutcome::Hit { ready_at } => assert_eq!(ready_at, 100 + 2),
            other => panic!("expected a hit, got {other:?}"),
        }
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn accesses_to_same_line_merge_into_one_mshr() {
        let mut c = cache();
        let a = c.access(ThreadId(0), PhysAddr(0x2000), false, 0);
        let b = c.access(ThreadId(1), PhysAddr(0x2008), false, 1);
        let t0 = match a {
            AccessOutcome::Miss { token, allocated: true } => token,
            other => panic!("{other:?}"),
        };
        match b {
            AccessOutcome::Miss { token, allocated: false } => assert_eq!(token, t0),
            other => panic!("expected a merge, got {other:?}"),
        }
        assert_eq!(c.stats().mshr_merges, 1);
        // Only one fill goes to memory.
        assert_eq!(c.take_outgoing().len(), 1);
    }

    #[test]
    fn mshr_pool_exhaustion_rejects() {
        let mut c = cache();
        for i in 0..4u64 {
            let r = c.access(ThreadId(0), PhysAddr(i * 0x10000), false, 0);
            assert!(matches!(r, AccessOutcome::Miss { allocated: true, .. }));
        }
        let r = c.access(ThreadId(0), PhysAddr(0x9_0000), false, 0);
        assert_eq!(r, AccessOutcome::Rejected { reason: RejectReason::MshrsFull });
        assert_eq!(c.stats().mshr_full_rejections, 1);
    }

    #[test]
    fn quota_limits_one_thread_without_affecting_the_other() {
        let mut c = cache();
        c.set_quota(ThreadId(0), 1);
        assert_eq!(c.quota(ThreadId(0)), 1);
        let first = c.access(ThreadId(0), PhysAddr(0x10000), false, 0);
        assert!(matches!(first, AccessOutcome::Miss { allocated: true, .. }));
        // Second distinct-line miss from the throttled thread is rejected.
        let second = c.access(ThreadId(0), PhysAddr(0x20000), false, 1);
        assert_eq!(second, AccessOutcome::Rejected { reason: RejectReason::QuotaExceeded });
        assert_eq!(c.stats().quota_rejections, 1);
        assert_eq!(c.per_thread_mshrs[ThreadId(0).index()], 1);
        // The other thread is unaffected.
        let other = c.access(ThreadId(1), PhysAddr(0x30000), false, 2);
        assert!(matches!(other, AccessOutcome::Miss { allocated: true, .. }));
        // Hits and merges are still allowed for the throttled thread.
        let merge = c.access(ThreadId(0), PhysAddr(0x10008), false, 3);
        assert!(matches!(merge, AccessOutcome::Miss { allocated: false, .. }));
        // After the fill completes the quota slot is released.
        let tokens: Vec<MissToken> = c.take_outgoing().iter().filter_map(|o| o.token).collect();
        for t in tokens {
            c.complete_miss(t);
        }
        assert_eq!(c.per_thread_mshrs[ThreadId(0).index()], 0);
        let retry = c.access(ThreadId(0), PhysAddr(0x20000), false, 10);
        assert!(matches!(retry, AccessOutcome::Miss { allocated: true, .. }));
    }

    #[test]
    fn dirty_eviction_generates_a_writeback() {
        let mut c = cache();
        let sets = c.config().sets() as u64; // 32 sets
        let line = c.config().line_bytes as u64;
        // Fill both ways of set 0 with dirty lines (stores), then force a
        // third fill into the same set.
        for i in 0..2u64 {
            let addr = PhysAddr(i * sets * line); // same set, different tags
            let tok = match c.access(ThreadId(0), addr, true, 0) {
                AccessOutcome::Miss { token, .. } => token,
                other => panic!("{other:?}"),
            };
            c.complete_miss(tok);
            // Touch it with a store so the line is dirty.
            match c.access(ThreadId(0), addr, true, 1) {
                AccessOutcome::Hit { .. } => {}
                other => panic!("{other:?}"),
            }
        }
        let _ = c.take_outgoing();
        let tok = match c.access(ThreadId(0), PhysAddr(2 * sets * line), false, 2) {
            AccessOutcome::Miss { token, .. } => token,
            other => panic!("{other:?}"),
        };
        c.complete_miss(tok);
        let outgoing = c.take_outgoing();
        assert!(outgoing.iter().any(|o| o.is_writeback), "no writeback generated");
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn lru_replacement_keeps_recently_used_lines() {
        let mut c = cache();
        let sets = c.config().sets() as u64;
        let line = c.config().line_bytes as u64;
        let a = PhysAddr(0);
        let b = PhysAddr(sets * line);
        let d = PhysAddr(2 * sets * line);
        for addr in [a, b] {
            let tok = match c.access(ThreadId(0), addr, false, 0) {
                AccessOutcome::Miss { token, .. } => token,
                other => panic!("{other:?}"),
            };
            c.complete_miss(tok);
        }
        // Touch `a` so `b` is the LRU victim.
        assert!(matches!(c.access(ThreadId(0), a, false, 5), AccessOutcome::Hit { .. }));
        let tok = match c.access(ThreadId(0), d, false, 6) {
            AccessOutcome::Miss { token, .. } => token,
            other => panic!("{other:?}"),
        };
        c.complete_miss(tok);
        // `a` must still hit; `b` was evicted.
        assert!(matches!(c.access(ThreadId(0), a, false, 7), AccessOutcome::Hit { .. }));
        assert!(matches!(c.access(ThreadId(0), b, false, 8), AccessOutcome::Miss { .. }));
    }

    #[test]
    fn duplicate_completions_are_ignored() {
        let mut c = cache();
        let tok = match c.access(ThreadId(0), PhysAddr(0x1000), false, 0) {
            AccessOutcome::Miss { token, .. } => token,
            other => panic!("{other:?}"),
        };
        c.complete_miss(tok);
        c.complete_miss(tok);
        assert_eq!(c.per_thread_mshrs[ThreadId(0).index()], 0);
    }

    use super::reference::LineArrayLlc;
    use proptest::prelude::*;

    /// The proptest's geometries, each with 6 MSHRs but `tiny_test`'s 4:
    /// `tiny_test` (2 ways, 32 sets), 4 and 8 ways (Table 1's associativity)
    /// of 4 sets, and 4 ways of 1-byte lines in one set, where an address is
    /// its own tag and `u64::MAX` is a tag.
    fn geometry(index: usize) -> CacheConfig {
        let small = |capacity_bytes, ways, line_bytes| CacheConfig {
            capacity_bytes,
            ways,
            line_bytes,
            hit_latency: 3,
            mshrs: 6,
        };
        match index {
            0 => CacheConfig::tiny_test(),
            1 => small(1024, 4, 64),
            2 => small(2048, 8, 64),
            _ => small(4, 4, 1),
        }
    }

    /// The tags of `set`'s valid lines, most recent first, after checking
    /// that the set's ranks are a permutation of its ways and that exactly
    /// its escaped lines are in the side table.
    fn recency_order(llc: &LastLevelCache, set: usize) -> Vec<u64> {
        let ways = llc.config.ways;
        let lines = set * ways..(set + 1) * ways;
        let mut ranks: Vec<usize> = lines.clone().map(|l| usize::from(llc.rank[l])).collect();
        ranks.sort_unstable();
        assert!(ranks.iter().copied().eq(0..ways), "set {set} ranks {ranks:?}");
        for line in lines.clone() {
            assert_eq!(
                llc.tags[line] == ESCAPED,
                llc.escaped_tags.contains_key(&line),
                "line {line}"
            );
        }
        let mut valid: Vec<usize> = lines.filter(|&l| llc.tags[l] != 0).collect();
        valid.sort_by_key(|&l| llc.rank[l]);
        valid.into_iter().map(|l| llc.line_tag(l)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The 7-byte-line cache and the `Line`-array reference agree on
        /// every outcome, probe, statistic, outgoing batch, recency order
        /// and completion state across random operation streams. Most
        /// addresses fall in 4 sets with `ways + 2` tags each (plus an offset
        /// inside the line), so sets fill, evict dirty and clean lines, and
        /// merge misses. The rest come from a pool of tags at the escape
        /// edge, `u64::MAX` and addresses drawn over all of `u64`, so lines
        /// escape to the side table, hit there and are evicted from it.
        #[test]
        fn reference_equivalence(
            geometry_index in 0usize..4,
            wide in proptest::collection::vec(any::<u64>(), 4),
            ops in proptest::collection::vec((0u8..10, 0usize..3, 0u64..56, 0u64..64), 1..400),
        ) {
            let config = geometry(geometry_index);
            let threads = 3;
            let sets = config.sets() as u64;
            let line_bytes = config.line_bytes as u64;
            let tags_per_set = config.ways as u64 + 2;
            let edge = |tag: u64| tag * sets * line_bytes;
            let escape = u64::from(ESCAPED);
            let pool = [u64::MAX, edge(escape - 2), edge(escape - 1), edge(escape), wide[0], wide[1], wide[2], wide[3]];
            let mut llc = LastLevelCache::new(config.clone(), threads);
            let mut reference = LineArrayLlc::new(config, threads);
            let mut tokens: Vec<MissToken> = Vec::new();
            for (i, &(op, thread, line, arg)) in ops.iter().enumerate() {
                let context = format!("op {i} ({op}, thread {thread}, line {line}, arg {arg})");
                let t = ThreadId(thread);
                let addr = match line.checked_sub(48) {
                    Some(wide) => PhysAddr(pool[wide as usize]),
                    None => PhysAddr((((line / 4) % tags_per_set) * sets + line % 4) * line_bytes + arg % line_bytes),
                };
                let outcomes = match op {
                    0..=2 => {
                        let is_write = arg % 2 == 1;
                        Some((llc.access(t, addr, is_write, arg), reference.access(t, addr, is_write, arg)))
                    }
                    3 => Some((llc.access_bypass(t, addr, false, arg), reference.access_bypass(t, addr))),
                    4..=6 => {
                        let token = tokens.get(arg as usize % tokens.len().max(1)).copied();
                        if let Some(token) = token {
                            llc.complete_miss(token);
                            reference.complete_miss(token);
                        }
                        None
                    }
                    7 => {
                        llc.set_quota(t, arg as usize % 8);
                        reference.set_quota(t, arg as usize % 8);
                        None
                    }
                    8 => {
                        let uncached = arg % 2 == 1;
                        prop_assert_eq!(
                            llc.probe_reject(t, addr, uncached),
                            reference.probe_reject(t, addr, uncached),
                            "probe at {}", context
                        );
                        None
                    }
                    _ => {
                        let reason = if arg % 2 == 1 { RejectReason::QuotaExceeded } else { RejectReason::MshrsFull };
                        llc.absorb_rejected_probes(arg % 5, reason);
                        reference.absorb_rejected_probes(arg % 5, reason);
                        None
                    }
                };
                if let Some((outcome, expected)) = outcomes {
                    prop_assert_eq!(outcome, expected, "outcome at {}", context);
                    if let AccessOutcome::Miss { token, allocated: true } = outcome {
                        tokens.push(token);
                    }
                }
                prop_assert_eq!(llc.stats(), &reference.stats, "stats after {}", context);
                for set in 0..sets as usize {
                    prop_assert_eq!(
                        recency_order(&llc, set),
                        reference.recency_order(set),
                        "recency order of set {} after {}", set, context
                    );
                }
                prop_assert_eq!(
                    llc.take_outgoing(),
                    std::mem::take(&mut reference.outgoing),
                    "outgoing after {}", context
                );
                for &token in &tokens {
                    prop_assert_eq!(
                        llc.is_completed(token),
                        reference.is_completed(token),
                        "completion of {} after {}", token, context
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod bypass_tests {
    use super::*;

    #[test]
    fn bypass_accesses_never_hit_and_never_install() {
        let mut c = LastLevelCache::new(CacheConfig::tiny_test(), 1);
        let addr = PhysAddr(0x4000);
        let tok = match c.access_bypass(ThreadId(0), addr, false, 0) {
            AccessOutcome::Miss { token, allocated: true } => token,
            other => panic!("{other:?}"),
        };
        c.complete_miss(tok);
        // A second bypass access to the same address misses again (nothing was
        // installed), and even a normal access still misses.
        assert!(matches!(
            c.access_bypass(ThreadId(0), addr, false, 1),
            AccessOutcome::Miss { allocated: true, .. }
        ));
        let outstanding: Vec<MissToken> =
            c.take_outgoing().iter().filter_map(|o| o.token).collect();
        for t in outstanding {
            c.complete_miss(t);
        }
        assert!(matches!(c.access(ThreadId(0), addr, false, 2), AccessOutcome::Miss { .. }));
    }

    #[test]
    fn bypass_accesses_respect_the_quota() {
        let mut c = LastLevelCache::new(CacheConfig::tiny_test(), 1);
        c.set_quota(ThreadId(0), 1);
        assert!(matches!(
            c.access_bypass(ThreadId(0), PhysAddr(0x1000), false, 0),
            AccessOutcome::Miss { allocated: true, .. }
        ));
        assert_eq!(
            c.access_bypass(ThreadId(0), PhysAddr(0x9000), false, 1),
            AccessOutcome::Rejected { reason: RejectReason::QuotaExceeded }
        );
    }
}
