//! [`FlatMap`]: a flat, open-addressing hash table for the simulator's hot
//! paths.
//!
//! The per-activation trackers (mitigation counter tables, the RowHammer
//! disturbance model's aggressor store) were originally `HashMap`-backed.
//! `std::collections::HashMap` pays for DoS resistance (SipHash) and pointer
//! chasing that a simulator keyed by small dense-ish integers does not need;
//! `FlatMap` replaces it with Fibonacci hashing over a power-of-two slot
//! array, linear probing, and backward-shift deletion (no tombstones), so a
//! lookup is a multiply, a shift and a short linear scan over contiguous
//! memory.
//!
//! Growth only happens when an insert pushes the load factor above 3/4 —
//! i.e. during warm-up. A table sized for its steady-state population never
//! reallocates, which is what the allocation-free activation hot path relies
//! on (see the repository README's "Allocation-free hot path" section).

/// Sentinel key marking an empty slot. Keys must be strictly below this.
const EMPTY: u64 = u64::MAX;

/// Multiplier for Fibonacci hashing (2^64 / φ, odd).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// A flat open-addressing map from `u64` keys to `Copy` values.
///
/// Keys must be `< u64::MAX` (the sentinel). Iteration order is the probe
/// order of the slot array and therefore deterministic for a given sequence
/// of operations, but otherwise unspecified — callers that need a canonical
/// order must sort (as [`RowHammerTracker::service_rfm`] does).
///
/// [`RowHammerTracker::service_rfm`]: crate::RowHammerTracker::service_rfm
#[derive(Debug, Clone)]
pub struct FlatMap<V> {
    keys: Box<[u64]>,
    values: Box<[V]>,
    /// `slots - 1` (slots is a power of two).
    mask: usize,
    /// `64 - log2(slots)`, the Fibonacci hash shift.
    shift: u32,
    len: usize,
}

impl<V: Copy + Default> FlatMap<V> {
    /// Creates a map that holds at least `capacity` entries before growing.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity.max(4) * 2).next_power_of_two();
        FlatMap {
            keys: vec![EMPTY; slots].into_boxed_slice(),
            values: vec![V::default(); slots].into_boxed_slice(),
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
            len: 0,
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// Returns `Ok(slot)` if `key` is present, `Err(slot)` with its insertion
    /// point otherwise.
    #[inline]
    fn probe(&self, key: u64) -> Result<usize, usize> {
        debug_assert!(key != EMPTY, "u64::MAX is the reserved empty-slot key");
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Ok(i);
            }
            if k == EMPTY {
                return Err(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The value stored for `key`, if any.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        self.probe(key).ok().map(|i| self.values[i])
    }

    /// Mutable access to the value stored for `key`, if any.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        match self.probe(key) {
            Ok(i) => Some(&mut self.values[i]),
            Err(_) => None,
        }
    }

    /// True if `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.probe(key).is_ok()
    }

    /// Returns a mutable reference to `key`'s value, inserting `default`
    /// first if the key is absent (the `HashMap::entry(..).or_insert(..)`
    /// idiom).
    #[inline]
    pub fn or_insert(&mut self, key: u64, default: V) -> &mut V {
        match self.probe(key) {
            Ok(i) => &mut self.values[i],
            Err(mut i) => {
                if self.should_grow() {
                    self.grow();
                    i = self.probe(key).unwrap_err();
                }
                self.keys[i] = key;
                self.values[i] = default;
                self.len += 1;
                &mut self.values[i]
            }
        }
    }

    /// Inserts or overwrites the value for `key`.
    pub fn insert(&mut self, key: u64, value: V) {
        *self.or_insert(key, value) = value;
    }

    /// Removes `key`, returning its value if it was present. Uses
    /// backward-shift deletion, so the table never accumulates tombstones.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let Ok(mut hole) = self.probe(key) else {
            return None;
        };
        let removed = self.values[hole];
        let mut i = hole;
        loop {
            i = (i + 1) & self.mask;
            let k = self.keys[i];
            if k == EMPTY {
                break;
            }
            // An entry may fill the hole iff its home position lies outside
            // the (hole, i] cyclic interval — i.e. moving it backward cannot
            // move it before its home slot.
            let home = self.home(k);
            if (i.wrapping_sub(home) & self.mask) >= (i.wrapping_sub(hole) & self.mask) {
                self.keys[hole] = k;
                self.values[hole] = self.values[i];
                hole = i;
            }
        }
        self.keys[hole] = EMPTY;
        self.len -= 1;
        Some(removed)
    }

    /// Removes every entry, keeping the allocated slot array.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.len = 0;
    }

    /// Iterates over `(key, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.keys
            .iter()
            .zip(self.values.iter())
            .filter(|(k, _)| **k != EMPTY)
            .map(|(k, v)| (*k, *v))
    }

    /// Calls `f` on every `(key, &mut value)` pair in slot order.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(u64, &mut V)) {
        for i in 0..self.keys.len() {
            if self.keys[i] != EMPTY {
                f(self.keys[i], &mut self.values[i]);
            }
        }
    }

    #[inline]
    fn should_grow(&self) -> bool {
        // Grow at 3/4 load so probe sequences stay short.
        (self.len + 1) * 4 > (self.mask + 1) * 3
    }

    #[cold]
    fn grow(&mut self) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_values = std::mem::take(&mut self.values);
        let slots = (self.mask + 1) * 2;
        self.keys = vec![EMPTY; slots].into_boxed_slice();
        self.values = vec![V::default(); slots].into_boxed_slice();
        self.mask = slots - 1;
        self.shift = 64 - slots.trailing_zeros();
        self.len = 0;
        for (k, v) in old_keys.iter().zip(old_values.iter()) {
            if *k != EMPTY {
                let i = self.probe(*k).unwrap_err();
                self.keys[i] = *k;
                self.values[i] = *v;
                self.len += 1;
            }
        }
    }
}

impl<V: Copy + Default> Default for FlatMap<V> {
    fn default() -> Self {
        FlatMap::with_capacity(4)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types)] // test-only hash collections: assertion sets and reference models, never digest-bearing
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: FlatMap<u64> = FlatMap::with_capacity(4);
        assert!(m.is_empty());
        m.insert(10, 1);
        m.insert(20, 2);
        assert_eq!(m.get(10), Some(1));
        assert_eq!(m.get(20), Some(2));
        assert_eq!(m.get(30), None);
        assert_eq!(m.remove(10), Some(1));
        assert_eq!(m.remove(10), None);
        assert_eq!(m.len(), 1);
        *m.or_insert(20, 0) += 5;
        assert_eq!(m.get(20), Some(7));
        assert_eq!(*m.or_insert(30, 9), 9);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m: FlatMap<u64> = FlatMap::with_capacity(2);
        for k in 0..1000u64 {
            m.insert(k, k * 3);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(m.get(k), Some(k * 3), "key {k}");
        }
    }

    #[test]
    fn backward_shift_preserves_probe_chains() {
        // Force a dense cluster, then delete from its middle and verify the
        // remaining keys are all still reachable.
        let mut m: FlatMap<u32> = FlatMap::with_capacity(64);
        let keys: Vec<u64> = (0..96).map(|i| i * 7 + 1).collect();
        for &k in &keys {
            m.insert(k, k as u32);
        }
        for &k in keys.iter().step_by(3) {
            assert_eq!(m.remove(k), Some(k as u32));
        }
        for (i, &k) in keys.iter().enumerate() {
            let expect = if i % 3 == 0 { None } else { Some(k as u32) };
            assert_eq!(m.get(k), expect, "key {k}");
        }
    }

    #[test]
    fn clear_retains_capacity_and_empties() {
        let mut m: FlatMap<u8> = FlatMap::with_capacity(8);
        for k in 0..8u64 {
            m.insert(k, 1);
        }
        let slots_before = m.mask;
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.mask, slots_before);
        assert_eq!(m.get(3), None);
        m.insert(3, 9);
        assert_eq!(m.get(3), Some(9));
    }

    #[test]
    fn mirrors_hashmap_under_random_operations() {
        // Deterministic xorshift so the test is reproducible.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut flat: FlatMap<u64> = FlatMap::with_capacity(4);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for _ in 0..20_000 {
            let key = rng() % 256;
            match rng() % 4 {
                0 => {
                    let v = rng();
                    flat.insert(key, v);
                    reference.insert(key, v);
                }
                1 => {
                    assert_eq!(flat.remove(key), reference.remove(&key));
                }
                2 => {
                    *flat.or_insert(key, 0) += 1;
                    *reference.entry(key).or_insert(0) += 1;
                }
                _ => {
                    assert_eq!(flat.get(key), reference.get(&key).copied());
                }
            }
            assert_eq!(flat.len(), reference.len());
        }
        let mut flat_pairs: Vec<(u64, u64)> = flat.iter().collect();
        flat_pairs.sort_unstable();
        let mut ref_pairs: Vec<(u64, u64)> = reference.into_iter().collect();
        ref_pairs.sort_unstable();
        assert_eq!(flat_pairs, ref_pairs);
    }

    #[test]
    fn for_each_mut_visits_every_entry() {
        let mut m: FlatMap<u64> = FlatMap::with_capacity(16);
        for k in 0..16u64 {
            m.insert(k, 0);
        }
        m.for_each_mut(|k, v| *v = k + 1);
        for k in 0..16u64 {
            assert_eq!(m.get(k), Some(k + 1));
        }
    }
}
