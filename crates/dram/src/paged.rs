//! [`PagedRows`]: a per-row `u32` store that allocates only the pages a run
//! touches.
//!
//! A channel of the paper's Table 1 system has 2 Mi rows (2 ranks × 16 banks
//! × 64 Ki rows), so a dense `u32` per row is 8 MiB per store, allocated and
//! zeroed for every simulated system and copied by every `System` clone. A
//! run activates rows in a small part of that space: activations cluster on
//! a few rows per bank, which is the observation counter-sharing trackers
//! (ABACuS, BlockHammer's counting Bloom filters) build on in hardware.
//! `PagedRows` keeps the flat `bank_base + row` indexing of the dense array
//! behind a page table of 1 024-row pages: a page is allocated,
//! zeroed, on its first write, and a read of an absent page returns 0.
//!
//! The hot path stays one page-table load plus one indexed load or store,
//! with no hashing. Resets zero only the pages that exist and keep them
//! allocated, so a store that has been warmed up never allocates again (the
//! allocation-free activation path relies on that).

use std::fmt;
use std::ops::Range;

/// Rows per page: 4 KiB of counters.
pub(crate) const PAGE_ROWS: usize = 1 << PAGE_SHIFT;
const PAGE_SHIFT: u32 = 10;
const PAGE_MASK: usize = PAGE_ROWS - 1;

type Page = Box<[u32; PAGE_ROWS]>;

/// A per-row `u32` store over flat row indices, paged so that only touched
/// pages hold memory. Absent rows read as 0.
#[derive(Clone)]
pub struct PagedRows {
    pages: Box<[Option<Page>]>,
}

impl PagedRows {
    /// A store for `rows` rows, all reading 0 and none allocated.
    pub fn new(rows: usize) -> Self {
        PagedRows { pages: vec![None; rows.div_ceil(PAGE_ROWS)].into_boxed_slice() }
    }

    /// The value of `row` (0 if its page was never written).
    #[inline]
    pub fn get(&self, row: usize) -> u32 {
        match &self.pages[row >> PAGE_SHIFT] {
            Some(page) => page[row & PAGE_MASK],
            None => 0,
        }
    }

    /// The value of `row` for writing; allocates its page, zeroed, on first
    /// use.
    #[inline]
    pub fn get_mut(&mut self, row: usize) -> &mut u32 {
        self.get_mut_or_init(row, |_, _| {})
    }

    /// The value of `row` for writing. The first access to its page
    /// allocates it zeroed and hands it to `init` with the flat index of the
    /// page's first row, so a caller can fill a page lazily (the
    /// probabilistic fault model samples its per-row thresholds this way).
    /// Resets never re-run `init`: they keep the page and zero it.
    #[inline]
    pub(crate) fn get_mut_or_init(
        &mut self,
        row: usize,
        init: impl FnOnce(usize, &mut [u32; PAGE_ROWS]),
    ) -> &mut u32 {
        let index = row >> PAGE_SHIFT;
        let page = self.pages[index].get_or_insert_with(|| {
            let mut page = zeroed_page();
            init(index << PAGE_SHIFT, &mut page);
            page
        });
        &mut page[row & PAGE_MASK]
    }

    /// Sets `row` to 0 without allocating (an absent row already reads 0).
    #[inline]
    pub(crate) fn zero(&mut self, row: usize) {
        if let Some(page) = &mut self.pages[row >> PAGE_SHIFT] {
            page[row & PAGE_MASK] = 0;
        }
    }

    /// Sets every row in `rows` to 0, touching only allocated pages.
    pub(crate) fn zero_range(&mut self, rows: Range<usize>) {
        let mut row = rows.start;
        while row < rows.end {
            let index = row >> PAGE_SHIFT;
            let page_end = ((index + 1) << PAGE_SHIFT).min(rows.end);
            if let Some(page) = &mut self.pages[index] {
                page[row & PAGE_MASK..page_end - (index << PAGE_SHIFT)].fill(0);
            }
            row = page_end;
        }
    }

    /// Sets every row to 0, keeping the allocated pages.
    pub fn zero_all(&mut self) {
        for page in self.pages.iter_mut().flatten() {
            page.fill(0);
        }
    }

    /// The largest value of any row (0 if none was written).
    pub(crate) fn max(&self) -> u32 {
        self.pages.iter().flatten().flat_map(|page| page.iter().copied()).max().unwrap_or(0)
    }

    /// Number of allocated pages: the store's footprint is this many 4 KiB
    /// pages plus the page table.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }
}

#[cold]
fn zeroed_page() -> Page {
    vec![0; PAGE_ROWS].into_boxed_slice().try_into().expect("a page holds PAGE_ROWS rows")
}

impl fmt::Debug for PagedRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagedRows")
            .field("pages", &self.pages.len())
            .field("resident_pages", &self.resident_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_rows_read_zero_and_writes_allocate_one_page() {
        let mut rows = PagedRows::new(4 * PAGE_ROWS);
        assert_eq!(rows.get(3 * PAGE_ROWS + 7), 0);
        assert_eq!(rows.resident_pages(), 0);
        *rows.get_mut(3 * PAGE_ROWS + 7) += 5;
        assert_eq!(rows.get(3 * PAGE_ROWS + 7), 5);
        assert_eq!(rows.get(3 * PAGE_ROWS + 8), 0);
        assert_eq!(rows.resident_pages(), 1);
        assert_eq!(rows.max(), 5);
    }

    #[test]
    fn zeroing_never_allocates_and_keeps_pages() {
        let mut rows = PagedRows::new(3 * PAGE_ROWS);
        rows.zero(10);
        rows.zero_range(0..3 * PAGE_ROWS);
        rows.zero_all();
        assert_eq!(rows.resident_pages(), 0);
        *rows.get_mut(PAGE_ROWS) = 9;
        rows.zero_all();
        assert_eq!((rows.get(PAGE_ROWS), rows.resident_pages()), (0, 1));
    }

    #[test]
    fn range_clear_straddling_a_page_edge_clears_exactly_the_range() {
        let mut rows = PagedRows::new(2 * PAGE_ROWS);
        for row in PAGE_ROWS - 3..PAGE_ROWS + 3 {
            *rows.get_mut(row) = 1;
        }
        rows.zero_range(PAGE_ROWS - 2..PAGE_ROWS + 2);
        let values: Vec<u32> = (PAGE_ROWS - 3..PAGE_ROWS + 3).map(|row| rows.get(row)).collect();
        assert_eq!(values, [1, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn init_runs_once_per_page_with_its_first_row() {
        let mut rows = PagedRows::new(2 * PAGE_ROWS + 5);
        let fill = |first: usize, page: &mut [u32; PAGE_ROWS]| {
            for (i, value) in page.iter_mut().enumerate() {
                *value = (first + i) as u32;
            }
        };
        assert_eq!(*rows.get_mut_or_init(2 * PAGE_ROWS + 1, fill), 2 * PAGE_ROWS as u32 + 1);
        *rows.get_mut(2 * PAGE_ROWS + 1) = 0;
        assert_eq!(*rows.get_mut_or_init(2 * PAGE_ROWS + 1, fill), 0, "init ran again");
        assert_eq!(rows.resident_pages(), 1);
    }
}
