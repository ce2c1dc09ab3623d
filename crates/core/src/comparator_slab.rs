//! A lock-free, lazily paged slab: the one store for lazily created objects
//! on the renaming path.
//!
//! The renaming engines store one two-process test-and-set per comparator of
//! the underlying sorting network, and the temporary-name stage one splitter
//! per node of its tree. Each object has a *dense key* — a compiled
//! comparator slot, a `local_top × depth + stage` position in an analytic
//! section of the §6.1 network, or a splitter's heap index — so the natural
//! store is an array indexed by that key: no hashing, no global lock, no
//! `Arc` clone on the traversal path. Key spaces run up to `2^60` (the
//! splitter tree) and `2^32 × 528` (the outermost §6.1 section), so the array
//! is *paged*: cells live in 64-cell pages that sit under a
//! fixed-height radix of interior nodes, and every page and node is a
//! [`OnceLock`] created by the first process to reach it. Construction is
//! `O(1)` for any length and allocates nothing; memory grows with the keys
//! processes actually touch.
//!
//! Each cell is itself a [`OnceLock`] holding a boxed object, which
//! preserves the engines' lazy-allocation semantics (an object exists only
//! once some process actually reaches it — observable through
//! [`ComparatorSlab::allocated`]): every contender resolves first touch to
//! the same object, and all later reads are one atomic acquire load per radix
//! level plus the box dereference. Boxing keeps a page at 16 bytes per cell
//! however large the object: processes touch the analytic sections of the
//! §6.1 network sparsely (about 40% of the cells of a touched 16-cell page
//! in the §8.1 counter workload), and with two-process test-and-sets stored
//! inline that sparseness doubled the bytes allocated per acquisition and
//! the counter's peak RSS.
//!
//! The only blocking the slab can introduce is per-node and one-time — a
//! contender arriving while a node or a cell's initializer is still running
//! waits for it — after which that node is immutable and lock-free forever.

use std::fmt;
use std::sync::OnceLock;

/// log2 of [`PAGE_CELLS`].
const PAGE_BITS: u32 = 6;

/// Cells per page: the unit in which cell storage is allocated (1 KiB).
const PAGE_CELLS: usize = 1 << PAGE_BITS;

/// log2 of the number of children of an interior radix node.
const FANOUT_BITS: u32 = 6;

/// One radix node: interior nodes hold children, leaves hold a page of
/// cells.
enum Node<T> {
    Branch(Box<[OnceLock<Node<T>>]>),
    Page(Box<[OnceLock<Box<T>>]>),
}

impl<T> Node<T> {
    /// An empty node `level` radix levels above the pages, with `width`
    /// children (or cells, for a page).
    fn empty(level: u32, width: usize) -> Self {
        if level == 0 {
            Node::Page((0..width).map(|_| OnceLock::new()).collect())
        } else {
            Node::Branch((0..width).map(|_| OnceLock::new()).collect())
        }
    }

    /// Number of initialized cells at or below this node.
    fn allocated(&self) -> usize {
        match self {
            Node::Branch(children) => children
                .iter()
                .filter_map(OnceLock::get)
                .map(Node::allocated)
                .sum(),
            Node::Page(cells) => cells.iter().filter(|cell| cell.get().is_some()).count(),
        }
    }
}

/// A fixed-capacity slab of lazily created `T`s, one per dense key.
///
/// Reads after initialization are one atomic acquire load per radix level
/// (4 for a `2^24`-key slab, 11 for a `2^64`-key one); the returned
/// reference borrows from the slab, so playing a comparator performs no
/// reference-count traffic at all.
///
/// # Example
///
/// ```
/// use adaptive_renaming::comparator_slab::ComparatorSlab;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// #[derive(Default)]
/// struct Cell(AtomicUsize);
///
/// let slab: ComparatorSlab<Cell> = ComparatorSlab::new(1 << 40);
/// assert_eq!(slab.allocated(), 0);
/// slab.get(1 << 39).0.fetch_add(1, Ordering::Relaxed);
/// slab.get(1 << 39).0.fetch_add(1, Ordering::Relaxed);
/// assert_eq!(slab.allocated(), 1);
/// assert_eq!(slab.get(1 << 39).0.load(Ordering::Relaxed), 2);
/// ```
pub struct ComparatorSlab<T> {
    len: usize,
    /// Interior radix levels above the pages (0: the root is a page).
    height: u32,
    /// Children (or cells) of the root: only as many as `len` needs.
    root_width: usize,
    root: OnceLock<Node<T>>,
}

impl<T> ComparatorSlab<T> {
    /// Creates a slab with `len` empty cells. `O(1)` time and no allocation
    /// for every `len`.
    pub fn new(len: usize) -> Self {
        let key_bits = usize::BITS - len.saturating_sub(1).leading_zeros();
        let height = key_bits.saturating_sub(PAGE_BITS).div_ceil(FANOUT_BITS);
        let root_width = if len == 0 {
            0
        } else {
            ((len - 1) >> Self::shift(height)) + 1
        };
        ComparatorSlab {
            len,
            height,
            root_width,
            root: OnceLock::new(),
        }
    }

    /// Creates a slab whose cells are pre-filled with the given values (used
    /// when the caller supplies ready-made objects instead of relying on
    /// lazy creation, e.g. `BitBatchingRenaming::with_slots`).
    pub fn from_values<I: IntoIterator<Item = T>>(values: I) -> Self {
        let values: Vec<T> = values.into_iter().collect();
        let slab = Self::new(values.len());
        for (slot, value) in values.into_iter().enumerate() {
            let _ = slab.cell(slot).set(Box::new(value));
        }
        slab
    }

    /// Bit position of the child index in a node `level` levels above the
    /// pages.
    fn shift(level: u32) -> u32 {
        match level {
            0 => 0,
            _ => PAGE_BITS + (level - 1) * FANOUT_BITS,
        }
    }

    /// Index of `slot`'s child (or cell) in a node `level` levels above the
    /// pages. At the root the mask is a no-op: `slot < len` already bounds
    /// the index by `root_width`.
    fn child_index(slot: usize, level: u32) -> usize {
        let bits = if level == 0 { PAGE_BITS } else { FANOUT_BITS };
        (slot >> Self::shift(level)) & ((1 << bits) - 1)
    }

    /// The cell of `slot`, creating the pages and nodes on its path.
    fn cell(&self, slot: usize) -> &OnceLock<Box<T>> {
        assert!(
            slot < self.len,
            "slot {slot} out of range for a slab of {} cells",
            self.len
        );
        let mut level = self.height;
        let mut node = self
            .root
            .get_or_init(|| Node::empty(level, self.root_width));
        loop {
            let index = Self::child_index(slot, level);
            match node {
                Node::Page(cells) => return &cells[index],
                Node::Branch(children) => {
                    level -= 1;
                    let width = if level == 0 {
                        PAGE_CELLS
                    } else {
                        1 << FANOUT_BITS
                    };
                    node = children[index].get_or_init(|| Node::empty(level, width));
                }
            }
        }
    }

    /// The object at `slot`, created by `init` on first touch.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.len()`.
    #[inline]
    pub fn get_with<F: FnOnce() -> T>(&self, slot: usize, init: F) -> &T {
        self.cell(slot).get_or_init(|| Box::new(init()))
    }

    /// The object at `slot` if some process already touched it. Creates
    /// nothing.
    pub fn peek(&self, slot: usize) -> Option<&T> {
        if slot >= self.len {
            return None;
        }
        let mut level = self.height;
        let mut node = self.root.get()?;
        loop {
            let index = Self::child_index(slot, level);
            match node {
                Node::Page(cells) => return cells[index].get().map(|cell| &**cell),
                Node::Branch(children) => {
                    level -= 1;
                    node = children[index].get()?;
                }
            }
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of objects created so far (harness inspection; linear in the
    /// pages created, not in `len`).
    pub fn allocated(&self) -> usize {
        self.root.get().map_or(0, Node::allocated)
    }
}

impl<T: Default> ComparatorSlab<T> {
    /// The object at `slot`, default-created on first touch.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.len()`.
    #[inline]
    pub fn get(&self, slot: usize) -> &T {
        self.get_with(slot, T::default)
    }
}

impl<T> fmt::Debug for ComparatorSlab<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComparatorSlab")
            .field("slots", &self.len)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[derive(Default)]
    struct Counter(AtomicUsize);

    #[test]
    fn cells_initialize_lazily_and_once() {
        let slab: ComparatorSlab<Counter> = ComparatorSlab::new(8);
        assert_eq!(slab.len(), 8);
        assert!(!slab.is_empty());
        assert_eq!(slab.allocated(), 0);
        assert!(slab.peek(3).is_none());
        slab.get(3).0.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(test-only single-threaded counter)
        slab.get(3).0.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(test-only single-threaded counter)
        assert_eq!(slab.allocated(), 1);
        assert_eq!(slab.peek(3).unwrap().0.load(Ordering::Relaxed), 2); // lint: relaxed-ok(test-only single-threaded counter)
        assert!(slab.peek(99).is_none(), "out-of-range peek is None");
    }

    #[test]
    fn concurrent_first_touch_yields_one_object() {
        let slab: Arc<ComparatorSlab<Counter>> = Arc::new(ComparatorSlab::new(4));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let slab = Arc::clone(&slab);
                scope.spawn(move || {
                    for slot in 0..4 {
                        slab.get(slot).0.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(test-only counter; threads joined before the assert)
                    }
                });
            }
        });
        assert_eq!(slab.allocated(), 4);
        for slot in 0..4 {
            // lint: relaxed-ok(test-only counter; threads joined before the assert)
            assert_eq!(slab.get(slot).0.load(Ordering::Relaxed), 8, "slot {slot}");
        }
    }

    #[test]
    fn concurrent_first_touch_across_pages_yields_one_object_per_key() {
        // Keys spread over distinct pages and radix nodes of a deep slab,
        // every thread touching them in a different order: all threads must
        // race on creating the same nodes and still share one object per key.
        let keys: Vec<usize> = (0..16).map(|i| i * 1_000_003 + (i << 36)).collect();
        let slab: ComparatorSlab<Counter> = ComparatorSlab::new(1 << 41);
        let threads = 4;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (slab, keys) = (&slab, &keys);
                scope.spawn(move || {
                    for i in 0..keys.len() {
                        let key = keys[(i + 5 * t) % keys.len()];
                        slab.get(key).0.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(test-only counter; threads joined before the assert)
                    }
                });
            }
        });
        assert_eq!(slab.allocated(), keys.len());
        for &key in &keys {
            // lint: relaxed-ok(test-only counter; threads joined before the assert)
            assert_eq!(slab.peek(key).unwrap().0.load(Ordering::Relaxed), threads);
        }
    }

    #[test]
    fn keys_at_the_top_of_huge_ranges_work() {
        // The outermost §6.1 section: 2^32 wires × 528 stages.
        let section_cells = (1usize << 32) * 528;
        let slab: ComparatorSlab<Counter> = ComparatorSlab::new(section_cells);
        assert_eq!(slab.len(), section_cells);
        slab.get(section_cells - 1);
        slab.get(0);
        assert_eq!(slab.allocated(), 2);
        assert!(slab.peek(section_cells - 1).is_some());
        assert!(slab.peek(section_cells - 2).is_none());

        // The splitter tree: heap indices below 2^60.
        let tree: ComparatorSlab<Counter> = ComparatorSlab::new(1 << 60);
        tree.get((1 << 60) - 1);
        assert!(tree.peek((1 << 60) - 1).is_some());
        assert_eq!(tree.allocated(), 1);

        // The full key space.
        let full: ComparatorSlab<Counter> = ComparatorSlab::new(usize::MAX);
        full.get(usize::MAX - 1);
        assert_eq!(full.allocated(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let slab: ComparatorSlab<Counter> = ComparatorSlab::new(2);
        let _ = slab.get(2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_on_a_paged_slab_panics() {
        let slab: ComparatorSlab<Counter> = ComparatorSlab::new(1000);
        let _ = slab.get(1000);
    }

    #[test]
    fn peek_and_allocated_agree() {
        // Two radix levels of 64-cell pages; the touched keys straddle page
        // and node boundaries.
        let slab: ComparatorSlab<Counter> = ComparatorSlab::new(5_000);
        let touched = [0usize, 1, 63, 64, 65, 4095, 4096, 4999];
        for &slot in &touched {
            slab.get(slot);
        }
        let peeked = (0..slab.len())
            .filter(|&slot| slab.peek(slot).is_some())
            .count();
        assert_eq!(peeked, touched.len());
        assert_eq!(slab.allocated(), touched.len());
    }

    #[test]
    fn values_fill_every_cell() {
        let slab = ComparatorSlab::from_values((0..100).map(AtomicUsize::new));
        assert_eq!(slab.len(), 100);
        assert_eq!(slab.allocated(), 100);
        assert_eq!(slab.peek(57).unwrap().load(Ordering::Relaxed), 57); // lint: relaxed-ok(test-only single-threaded value)
        let last = slab.get_with(99, || unreachable!("pre-filled cells never initialize"));
        assert_eq!(last.load(Ordering::Relaxed), 99); // lint: relaxed-ok(test-only single-threaded value)
    }

    #[test]
    fn zero_length_slab_is_empty() {
        let slab: ComparatorSlab<Counter> = ComparatorSlab::new(0);
        assert!(slab.is_empty());
        assert_eq!(slab.allocated(), 0);
        assert!(slab.peek(0).is_none());
        assert!(format!("{slab:?}").contains("ComparatorSlab"));
    }
}
