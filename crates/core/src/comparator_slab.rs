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
//! Cells are stored inline: a page is one `Box<[T]>` of `T::default()`
//! objects, built when some process first reaches it, so a read after that
//! is one atomic acquire load per radix level and an index — no per-cell
//! allocation, lock or extra dereference. This suits small objects whose
//! default state is "not yet played": a two-process test-and-set is 24
//! bytes (a 1.5 KiB page), and processes touch the analytic sections of the
//! §6.1 network sparsely, so a per-cell box would cost more than the cells
//! it leaves unbuilt. An object built by a factory stores `OnceLock<T>`
//! cells instead (`BitBatchingRenaming`). Because every cell of a page
//! exists once the page does, [`ComparatorSlab::allocated`] counts the cells
//! that have been *played*, through a predicate the caller supplies for its
//! cell type.
//!
//! The only blocking the slab can introduce is per-node and one-time — a
//! contender arriving while a node's initializer is still running waits for
//! it — after which that node is immutable and lock-free forever.

use std::fmt;
use std::sync::OnceLock;

/// log2 of [`PAGE_CELLS`].
const PAGE_BITS: u32 = 6;

/// Cells per page: the unit in which cell storage is allocated.
const PAGE_CELLS: usize = 1 << PAGE_BITS;

/// log2 of the number of children of an interior radix node.
const FANOUT_BITS: u32 = 6;

/// One radix node: interior nodes hold children, leaves hold a page of
/// cells.
enum Node<T> {
    Branch(Box<[OnceLock<Node<T>>]>),
    Page(Box<[T]>),
}

impl<T: Default> Node<T> {
    /// An empty node `level` radix levels above the pages, with `width`
    /// children (or default cells, for a page).
    fn empty(level: u32, width: usize) -> Self {
        if level == 0 {
            Node::Page((0..width).map(|_| T::default()).collect())
        } else {
            Node::Branch((0..width).map(|_| OnceLock::new()).collect())
        }
    }
}

impl<T> Node<T> {
    /// Number of cells at or below this node for which `played` holds.
    fn allocated(&self, played: &impl Fn(&T) -> bool) -> usize {
        match self {
            Node::Branch(children) => children
                .iter()
                .filter_map(OnceLock::get)
                .map(|child| child.allocated(played))
                .sum(),
            Node::Page(cells) => cells.iter().filter(|cell| played(cell)).count(),
        }
    }
}

/// A fixed-capacity slab of lazily paged `T`s, one per dense key.
///
/// Reads after a page exists are one atomic acquire load per radix level
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
/// let played = |cell: &Cell| cell.0.load(Ordering::Relaxed) > 0;
/// let slab: ComparatorSlab<Cell> = ComparatorSlab::new(1 << 40);
/// assert_eq!(slab.allocated(played), 0);
/// slab.get(1 << 39).0.fetch_add(1, Ordering::Relaxed);
/// slab.get(1 << 39).0.fetch_add(1, Ordering::Relaxed);
/// assert_eq!(slab.allocated(played), 1);
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

impl<T: Default> ComparatorSlab<T> {
    /// Creates a slab with `len` unbuilt cells. `O(1)` time and no
    /// allocation for every `len`.
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

    /// The object at `slot`, building the pages and nodes on its path on
    /// first touch.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.len()`.
    #[inline]
    pub fn get(&self, slot: usize) -> &T {
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

    /// The object at `slot` if its page already exists. Builds nothing.
    pub fn peek(&self, slot: usize) -> Option<&T> {
        if slot >= self.len {
            return None;
        }
        let mut level = self.height;
        let mut node = self.root.get()?;
        loop {
            let index = Self::child_index(slot, level);
            match node {
                Node::Page(cells) => return Some(&cells[index]),
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

    /// Number of built cells for which `played` holds (harness inspection;
    /// linear in the pages built, not in `len`). Cells of a page that no
    /// process played are in their default state, so `played` tells them
    /// apart: `has_winner` for a test-and-set, for instance.
    pub fn allocated(&self, played: impl Fn(&T) -> bool) -> usize {
        self.root.get().map_or(0, |root| root.allocated(&played))
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

    impl Counter {
        fn bump(&self) {
            self.0.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(test-only counter; threads joined before any assert)
        }

        fn value(&self) -> usize {
            self.0.load(Ordering::Relaxed) // lint: relaxed-ok(test-only counter; threads joined before any assert)
        }

        fn played(&self) -> bool {
            self.value() > 0
        }
    }

    #[test]
    fn cells_initialize_lazily_and_once() {
        let slab: ComparatorSlab<Counter> = ComparatorSlab::new(8);
        assert_eq!(slab.len(), 8);
        assert!(!slab.is_empty());
        assert_eq!(slab.allocated(Counter::played), 0);
        assert!(slab.peek(3).is_none());
        slab.get(3).bump();
        slab.get(3).bump();
        assert_eq!(slab.allocated(Counter::played), 1);
        assert_eq!(slab.peek(3).unwrap().value(), 2);
        assert_eq!(slab.peek(4).unwrap().value(), 0, "built with the page");
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
                        slab.get(slot).bump();
                    }
                });
            }
        });
        assert_eq!(slab.allocated(Counter::played), 4);
        for slot in 0..4 {
            assert_eq!(slab.get(slot).value(), 8, "slot {slot}");
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
                        slab.get(keys[(i + 5 * t) % keys.len()]).bump();
                    }
                });
            }
        });
        assert_eq!(slab.allocated(Counter::played), keys.len());
        for &key in &keys {
            assert_eq!(slab.peek(key).unwrap().value(), threads);
        }
    }

    #[test]
    fn keys_at_the_top_of_huge_ranges_work() {
        // The outermost §6.1 section: 2^32 wires × 528 stages.
        let section_cells = (1usize << 32) * 528;
        let slab: ComparatorSlab<Counter> = ComparatorSlab::new(section_cells);
        assert_eq!(slab.len(), section_cells);
        slab.get(section_cells - 1).bump();
        slab.get(0).bump();
        assert_eq!(slab.allocated(Counter::played), 2);
        assert!(slab.peek(section_cells - 1).unwrap().played());
        assert!(!slab.peek(section_cells - 2).unwrap().played());
        assert!(slab.peek(section_cells - 1 - PAGE_CELLS).is_none());

        // The splitter tree: heap indices below 2^60.
        let tree: ComparatorSlab<Counter> = ComparatorSlab::new(1 << 60);
        tree.get((1 << 60) - 1).bump();
        assert!(tree.peek((1 << 60) - 1).is_some());
        assert_eq!(tree.allocated(Counter::played), 1);

        // The full key space.
        let full: ComparatorSlab<Counter> = ComparatorSlab::new(usize::MAX);
        full.get(usize::MAX - 1).bump();
        assert_eq!(full.allocated(Counter::played), 1);
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
            slab.get(slot).bump();
        }
        let played = (0..slab.len())
            .filter(|&slot| slab.peek(slot).is_some_and(Counter::played))
            .count();
        assert_eq!(played, touched.len());
        assert_eq!(slab.allocated(Counter::played), touched.len());
        // Pages 0, 1, 63, 64 and 78 were built whole; only 8 cells of the
        // last are in range.
        let built = (0..slab.len())
            .filter(|&slot| slab.peek(slot).is_some())
            .count();
        assert_eq!(built, 4 * PAGE_CELLS + 5_000 % PAGE_CELLS);
        assert_eq!(slab.allocated(|_| true), 5 * PAGE_CELLS);
    }

    #[test]
    fn values_fill_every_cell() {
        // Factory-built objects sit in `OnceLock` cells, set one by one.
        let slab: ComparatorSlab<OnceLock<usize>> = ComparatorSlab::new(100);
        let set = |cell: &OnceLock<usize>| cell.get().is_some();
        for slot in 0..100 {
            assert!(slab.get(slot).set(slot).is_ok());
        }
        assert_eq!(slab.len(), 100);
        assert_eq!(slab.allocated(set), 100);
        assert_eq!(slab.peek(57).and_then(OnceLock::get), Some(&57));
        let last = slab
            .get(99)
            .get_or_init(|| unreachable!("filled cells never initialize"));
        assert_eq!(*last, 99);
    }

    #[test]
    fn zero_length_slab_is_empty() {
        let slab: ComparatorSlab<Counter> = ComparatorSlab::new(0);
        assert!(slab.is_empty());
        assert_eq!(slab.allocated(Counter::played), 0);
        assert!(slab.peek(0).is_none());
        assert!(format!("{slab:?}").contains("ComparatorSlab"));
    }
}
