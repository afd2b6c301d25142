//! The bank-indexed demand queue behind the controller's FR-FCFS scheduler.
//!
//! One queue per direction (reads, writes). Entries live in a slab of at most
//! `capacity` slots and are threaded, by intrusive links, onto one
//! arrival-ordered list per bank; a bitmask names the banks whose list is
//! non-empty. Every entry carries a monotone arrival sequence number, so
//! "older" is a `seq` compare across banks. This is the shape the scheduling
//! decision has — it depends on (bank, hits-the-open-row?) only — so a tick
//! visits the banks that have requests rather than the requests, and serving
//! a request is an O(1) unlink instead of a shift of the whole queue.
//!
//! Within a bank the scheduler wants two requests: the oldest that hits the
//! open row and the oldest that does not. Both survive from tick to tick, so
//! the queue caches them per bank as *class heads*, tagged with the row they
//! were derived for. The cache is a function of (bank list, tag row) alone and
//! is kept exact under the tag: `push` fills an empty class, `remove` advances
//! the class whose head left by walking forward from the removed slot. Only
//! [`DemandQueue::class_heads`] looks at the bank's open row; when that row is
//! not the tag (the bank opened another row since — by a demand, refresh or
//! preventive command, it does not matter which) it re-derives both heads in
//! one walk of the bank's list and re-tags them.

use crate::request::MemRequest;
use bh_dram::{Cycle, DramLocation};

/// "No slot": list terminator and empty-list head.
const NIL: u32 = u32::MAX;

/// Class-head tag no request's row equals: every request is a miss.
const NO_ROW: usize = usize::MAX;

/// A queued demand request with its decoded DRAM coordinates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueEntry {
    pub(crate) req: MemRequest,
    pub(crate) loc: DramLocation,
    /// Flat bank index of `loc.bank`, cached at enqueue time so the
    /// scheduler does not re-derive it.
    pub(crate) flat: usize,
    /// Global bank-group index (`rank * bank_groups + bank_group`) of
    /// `loc.bank`, cached alongside `flat`.
    pub(crate) group: usize,
    /// Whether the row hit/miss/conflict classification was already recorded.
    pub(crate) classified: bool,
    /// Arrival sequence number, assigned by [`DemandQueue::push`]: lower is
    /// older, unique within a queue.
    pub(crate) seq: u64,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    entry: QueueEntry,
    /// Neighbours in the bank's arrival-ordered list; on a free slot `next`
    /// links the free list instead.
    prev: u32,
    next: u32,
}

/// See the module documentation.
#[derive(Debug, Clone)]
pub(crate) struct DemandQueue {
    /// The slab. It grows only while occupancy sets a new record (freed slots
    /// are recycled through `free` first), so it stops allocating once the
    /// queue has seen its peak, and stays as small as that peak. Reserving
    /// `capacity` slots up front was measured and dropped: it raised
    /// `scaled_4ch`'s `peak_rss_mb` by 0.35 MB (4 %), where queues stay short.
    slots: Vec<Slot>,
    free: u32,
    capacity: usize,
    /// Oldest and newest slot of each bank's list, by flat bank index.
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// Per bank, the row the class heads below are derived for (`NO_ROW`
    /// until [`DemandQueue::class_heads`] first asks): `hit_heads` is the
    /// oldest request to that row, `miss_heads` the oldest to any other.
    class_row: Vec<usize>,
    hit_heads: Vec<u32>,
    miss_heads: Vec<u32>,
    /// Bit `flat % 64` of word `flat / 64` is set while that bank's list is
    /// non-empty.
    non_empty: Vec<u64>,
    len: usize,
    next_seq: u64,
    /// Arrival cycle of the last request pushed (arrival-order debug check).
    newest_arrival: Cycle,
}

impl DemandQueue {
    pub(crate) fn new(capacity: usize, banks: usize) -> Self {
        assert!(capacity < NIL as usize, "demand queue capacity exceeds the slot index range");
        DemandQueue {
            slots: Vec::new(),
            free: NIL,
            capacity,
            heads: vec![NIL; banks],
            tails: vec![NIL; banks],
            class_row: vec![NO_ROW; banks],
            hit_heads: vec![NIL; banks],
            miss_heads: vec![NIL; banks],
            non_empty: vec![0; banks.div_ceil(64)],
            len: 0,
            next_seq: 0,
            newest_arrival: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Appends `entry` as the newest request of its bank (and of the queue),
    /// stamping its `seq`.
    ///
    /// # Panics
    /// Panics if the queue is full.
    pub(crate) fn push(&mut self, mut entry: QueueEntry) {
        assert!(!self.is_full(), "push into a full demand queue");
        let flat = entry.flat;
        debug_assert!(self.is_empty() || self.newest_arrival <= entry.req.arrival);
        self.newest_arrival = entry.req.arrival;
        entry.seq = self.next_seq;
        self.next_seq += 1;
        let tail = self.tails[flat];
        let slot = Slot { entry, prev: tail, next: NIL };
        let idx = if self.free == NIL {
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        } else {
            let idx = self.free;
            self.free = self.slots[idx as usize].next;
            self.slots[idx as usize] = slot;
            idx
        };
        if tail == NIL {
            self.heads[flat] = idx;
            self.non_empty[flat / 64] |= 1 << (flat % 64);
        } else {
            self.slots[tail as usize].next = idx;
        }
        self.tails[flat] = idx;
        self.len += 1;
        // The newest request heads its class only if the class was empty.
        let hit = entry.loc.row == self.class_row[flat];
        let class = if hit { &mut self.hit_heads[flat] } else { &mut self.miss_heads[flat] };
        if *class == NIL {
            *class = idx;
        }
    }

    /// Unlinks and returns the entry in `slot` (the slot index of a queued
    /// request).
    pub(crate) fn remove(&mut self, slot: usize) -> QueueEntry {
        let Slot { entry, prev, next } = self.slots[slot];
        let flat = entry.flat;
        match prev {
            NIL => self.heads[flat] = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tails[flat] = prev,
            n => self.slots[n as usize].prev = prev,
        }
        if self.heads[flat] == NIL {
            self.non_empty[flat / 64] &= !(1 << (flat % 64));
        }
        // The successor of a departed class head is the next request of its
        // class further down the list.
        if self.hit_heads[flat] == slot as u32 {
            self.hit_heads[flat] = self.first_of_class(next, self.class_row[flat], true);
        } else if self.miss_heads[flat] == slot as u32 {
            self.miss_heads[flat] = self.first_of_class(next, self.class_row[flat], false);
        }
        self.slots[slot].next = self.free;
        self.free = slot as u32;
        self.len -= 1;
        entry
    }

    pub(crate) fn entry(&self, slot: usize) -> &QueueEntry {
        &self.slots[slot].entry
    }

    pub(crate) fn entry_mut(&mut self, slot: usize) -> &mut QueueEntry {
        &mut self.slots[slot].entry
    }

    /// The first slot at or after `slot` in its bank's list whose request
    /// targets `row` (`hit`) or any other row (`!hit`).
    fn first_of_class(&self, mut slot: u32, row: usize, hit: bool) -> u32 {
        while slot != NIL && (self.slots[slot as usize].entry.loc.row == row) != hit {
            slot = self.slots[slot as usize].next;
        }
        slot
    }

    /// Slots of the oldest request of bank `flat` that targets `row` — the
    /// bank's open row — and of the oldest that does not.
    pub(crate) fn class_heads(
        &mut self,
        flat: usize,
        row: usize,
    ) -> (Option<usize>, Option<usize>) {
        if self.class_row[flat] != row {
            self.class_row[flat] = row;
            self.hit_heads[flat] = self.first_of_class(self.heads[flat], row, true);
            self.miss_heads[flat] = self.first_of_class(self.heads[flat], row, false);
        }
        let slot = |s: u32| (s != NIL).then_some(s as usize);
        (slot(self.hit_heads[flat]), slot(self.miss_heads[flat]))
    }

    /// The banks with at least one queued request: bit `flat % 64` of word
    /// `flat / 64`.
    pub(crate) fn bank_mask(&self) -> &[u64] {
        &self.non_empty
    }

    /// The requests queued for bank `flat`, oldest first, as
    /// `(slot, entry)`.
    pub(crate) fn bank(&self, flat: usize) -> impl Iterator<Item = (usize, &QueueEntry)> + '_ {
        let first = self.heads[flat];
        std::iter::successors((first != NIL).then_some(first), |&s| {
            let next = self.slots[s as usize].next;
            (next != NIL).then_some(next)
        })
        .map(|s| (s as usize, &self.slots[s as usize].entry))
    }

    /// Every queued request as `(slot, entry)`, bank by bank.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &QueueEntry)> + '_ {
        (0..self.heads.len()).flat_map(|flat| self.bank(flat))
    }
}

/// Deterministic 64-bit stream (splitmix64) for this crate's seeded property
/// and differential tests.
#[cfg(test)]
pub(crate) struct SplitMix(pub(crate) u64);

#[cfg(test)]
impl SplitMix {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_dram::{BankAddr, PhysAddr, ThreadId};

    fn entry(id: u64, flat: usize, row: usize) -> QueueEntry {
        let bank = BankAddr { rank: 0, bank_group: 0, bank: flat };
        QueueEntry {
            req: MemRequest::read(id, ThreadId(0), PhysAddr(0), id),
            loc: DramLocation { channel: 0, bank, row, column: 0 },
            flat,
            group: 0,
            classified: false,
            seq: 0,
        }
    }

    fn ids(queue: &DemandQueue, flat: usize) -> Vec<u64> {
        queue.bank(flat).map(|(_, e)| e.req.id).collect()
    }

    /// The banks the bitmask names, read the way the scheduler reads it.
    fn banks(queue: &DemandQueue) -> Vec<usize> {
        let mut banks = Vec::new();
        for (word, &bits) in queue.bank_mask().iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                banks.push(word * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        banks
    }

    /// Banks beyond the first bitmask word are tracked like any other: the
    /// queue puts no bound on the bank count.
    #[test]
    fn banks_are_listed_in_index_order_across_bitmask_words() {
        let mut queue = DemandQueue::new(8, 300);
        for (id, flat) in [(0, 299), (1, 3), (2, 64), (3, 3), (4, 63)] {
            queue.push(entry(id, flat, 7));
        }
        assert_eq!(banks(&queue), [3, 63, 64, 299]);
        assert_eq!(ids(&queue, 3), [1, 3]);
        assert!(queue.bank(5).next().is_none());
    }

    #[test]
    fn removal_keeps_arrival_order_and_recycles_slots() {
        let mut queue = DemandQueue::new(4, 2);
        for id in 0..4 {
            queue.push(entry(id, (id % 2) as usize, 7));
        }
        assert!(queue.is_full());
        // Unlink from the middle of nothing, the head and the tail.
        let (slot, _) = queue.bank(0).find(|(_, e)| e.req.id == 0).unwrap();
        assert_eq!(queue.remove(slot).req.id, 0);
        let (slot, _) = queue.bank(1).find(|(_, e)| e.req.id == 3).unwrap();
        assert_eq!(queue.remove(slot).req.id, 3);
        assert_eq!((ids(&queue, 0), ids(&queue, 1)), (vec![2], vec![1]));
        // New arrivals are younger than every survivor and reuse freed slots.
        queue.push(entry(4, 1, 7));
        queue.push(entry(5, 0, 7));
        assert_eq!((ids(&queue, 0), ids(&queue, 1)), (vec![2, 5], vec![1, 4]));
        assert_eq!(queue.slots.len(), 4, "the slab never outgrows its capacity");
        let seq = |id| queue.iter().find(|(_, e)| e.req.id == id).unwrap().1.seq;
        assert!(seq(1) < seq(2) && seq(2) < seq(4) && seq(4) < seq(5));
        // Draining a bank clears it from the bank list.
        for id in [2, 5] {
            let (slot, _) = queue.bank(0).find(|(_, e)| e.req.id == id).unwrap();
            queue.remove(slot);
        }
        assert_eq!(banks(&queue), [1]);
        assert_eq!(queue.len(), 2);
    }

    /// Whatever the history of pushes, removals and row changes, the cached
    /// class heads are what a walk of the bank's list finds: the oldest
    /// request to the open row and the oldest to any other.
    #[test]
    fn class_heads_equal_a_naive_walk_of_the_bank_list() {
        const BANKS: usize = 3;
        let (mut rescans, mut served_heads, mut filled_classes) = (0, 0, 0);
        for seed in 0..8 {
            let mut rng = SplitMix(0xC1A5_5EED + seed);
            let mut queue = DemandQueue::new(24, BANKS);
            // `None`: the bank is closed and the scheduler does not ask.
            let mut open = [None; BANKS];
            for id in 0..20_000 {
                let flat = rng.below(BANKS as u64) as usize;
                match rng.below(8) {
                    0..=3 if !queue.is_full() => {
                        let row = rng.below(4) as usize;
                        let before = open[flat].map(|r| queue.class_heads(flat, r));
                        queue.push(entry(id, flat, row));
                        let after = open[flat].map(|r| queue.class_heads(flat, r));
                        filled_classes += u64::from(before != after);
                    }
                    4..=5 => {
                        // Serve what the scheduler would: a class head, else
                        // any request of the bank.
                        let heads = open[flat].map(|r| queue.class_heads(flat, r));
                        let pick = rng.below(3);
                        let slot = match heads {
                            Some((Some(hit), _)) if pick == 0 => Some(hit),
                            Some((_, Some(miss))) if pick == 1 => Some(miss),
                            _ => {
                                let n = queue.bank(flat).count() as u64;
                                (n > 0)
                                    .then(|| queue.bank(flat).nth(rng.below(n) as usize).unwrap().0)
                            }
                        };
                        if let Some(slot) = slot {
                            served_heads += u64::from(pick < 2 && heads.is_some());
                            queue.remove(slot);
                        }
                    }
                    6 => open[flat] = Some(rng.below(4) as usize),
                    _ => open[flat] = None,
                }
                for (flat, row) in open.iter().enumerate() {
                    let Some(row) = *row else { continue };
                    rescans += u64::from(queue.class_row[flat] != row);
                    let naive = |hit: bool| {
                        queue.bank(flat).find(|(_, e)| (e.loc.row == row) == hit).map(|(s, _)| s)
                    };
                    let expected = (naive(true), naive(false));
                    assert_eq!(queue.class_heads(flat, row), expected, "seed {seed}, op {id}");
                }
            }
        }
        for (what, count) in [
            ("lazy rescans after a row change", rescans),
            ("class heads removed", served_heads),
            ("empty classes filled by a push", filled_classes),
        ] {
            assert!(count > 100, "{what}: only {count} cases");
        }
    }

    #[test]
    #[should_panic(expected = "full demand queue")]
    fn pushing_into_a_full_queue_panics() {
        let mut queue = DemandQueue::new(1, 1);
        queue.push(entry(0, 0, 7));
        queue.push(entry(1, 0, 7));
    }
}
