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

use crate::request::MemRequest;
use bh_dram::{Cycle, DramLocation};

/// "No slot": list terminator and empty-list head.
const NIL: u32 = u32::MAX;

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
#[derive(Debug)]
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
    }

    /// Unlinks and returns the entry in `slot` (a slot index yielded by
    /// [`DemandQueue::bank`] since the last removal).
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

    /// Flat indices of the banks with at least one queued request.
    pub(crate) fn banks(&self) -> impl Iterator<Item = usize> + '_ {
        self.non_empty.iter().enumerate().flat_map(|(word, &bits)| {
            std::iter::successors((bits != 0).then_some(bits), |b| {
                let rest = b & (b - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |b| word * 64 + b.trailing_zeros() as usize)
        })
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

    /// Banks beyond the first bitmask word are tracked like any other: the
    /// queue puts no bound on the bank count.
    #[test]
    fn banks_are_listed_in_index_order_across_bitmask_words() {
        let mut queue = DemandQueue::new(8, 300);
        for (id, flat) in [(0, 299), (1, 3), (2, 64), (3, 3), (4, 63)] {
            queue.push(entry(id, flat, 7));
        }
        assert_eq!(queue.banks().collect::<Vec<_>>(), [3, 63, 64, 299]);
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
        let seq = |id| {
            queue.banks().flat_map(|b| queue.bank(b)).find(|(_, e)| e.req.id == id).unwrap().1.seq
        };
        assert!(seq(1) < seq(2) && seq(2) < seq(4) && seq(4) < seq(5));
        // Draining a bank clears it from the bank list.
        for id in [2, 5] {
            let (slot, _) = queue.bank(0).find(|(_, e)| e.req.id == id).unwrap();
            queue.remove(slot);
        }
        assert_eq!(queue.banks().collect::<Vec<_>>(), [1]);
        assert_eq!(queue.len(), 2);
    }

    #[test]
    #[should_panic(expected = "full demand queue")]
    fn pushing_into_a_full_queue_panics() {
        let mut queue = DemandQueue::new(1, 1);
        queue.push(entry(0, 0, 7));
        queue.push(entry(1, 0, 7));
    }
}
