//! A device-resident scratch-buffer arena.
//!
//! The multi-pass device primitives ([`crate::primitives`]) and the
//! worklists ([`crate::worklist`]) need short-lived `u64` working buffers —
//! block partials for the reductions, block totals and offsets for the
//! scan, frontier lists and stamps sized by the graph.  Allocating fresh
//! [`DeviceBuffer`]s on every call put a host allocation (and, before the
//! fix, a full input copy) on a path the paper's shrink kernel hits after
//! every global relabeling.
//!
//! The arena keeps returned buffers on a free list and hands them back out
//! through the same [`DeviceBuffer::recycle`] machinery warm solver
//! workspaces use.  An [`acquire`](ScratchArena::acquire) takes the free
//! buffer with the smallest capacity that holds the requested length (best
//! fit) and re-initializes it in place; when none is large enough it grows
//! the largest free buffer to exactly that length, and only an empty free
//! list allocates a fresh buffer.  Buffers return to the arena when their
//! [`ScratchBuffer`] guard drops.
//!
//! What the arena retains is therefore bounded by the work it serves, not
//! by the number of distinct lengths it has seen: it never holds more
//! buffers than were live at once, no buffer's capacity exceeds the
//! largest length requested, and the retained capacity never exceeds
//! `MAX_RETAINED_WORDS` (4 Mi words).  A device that solves graphs of many
//! shapes keeps about one largest graph's worth of scratch.

use crate::buffer::DeviceBuffer;
use parking_lot::Mutex;
use std::ops::Deref;

/// Upper bound on the words of capacity kept alive on the free list (4 Mi
/// words ≈ 32 MiB of `u64` cells); a buffer whose release would exceed it
/// is dropped instead.  Best-fit reuse keeps a device well below it unless
/// its largest graph's working set is itself that large.
const MAX_RETAINED_WORDS: usize = 1 << 22;

/// Counters describing arena behaviour; see [`ScratchArena::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Total `acquire` calls.
    pub acquires: u64,
    /// Acquires served by re-initializing a free-listed allocation that was
    /// already large enough.
    pub reuses: u64,
    /// Acquires that had to allocate: a fresh buffer, or a free-listed one
    /// grown past its capacity.
    pub allocations: u64,
    /// Buffers currently parked on the free list.
    pub retained_buffers: usize,
    /// Total words of capacity currently parked on the free list.
    pub retained_words: usize,
}

#[derive(Default)]
struct ArenaInner {
    free: Vec<DeviceBuffer<u64>>,
    retained_words: usize,
    acquires: u64,
    reuses: u64,
    allocations: u64,
}

/// The per-device scratch arena; obtained via `VirtualGpu::scratch`.
pub struct ScratchArena {
    inner: Mutex<ArenaInner>,
}

impl ScratchArena {
    pub(crate) fn new() -> Self {
        Self { inner: Mutex::new(ArenaInner::default()) }
    }

    /// Returns a buffer of exactly `len` words, each set to `init`: the free
    /// buffer of smallest capacity ≥ `len` when there is one, else the
    /// largest free buffer grown to `len`, else a fresh allocation.  The
    /// buffer returns to the arena when the guard drops.
    pub fn acquire(&self, len: usize, init: u64) -> ScratchBuffer<'_> {
        let mut slot = {
            let mut inner = self.inner.lock();
            inner.acquires += 1;
            // Buffers that fit sort first, closest capacity first; of the
            // rest, the largest is closest.
            let pick = (inner.free.iter().enumerate())
                .min_by_key(|(_, buf)| (buf.capacity() < len, buf.capacity().abs_diff(len)))
                .map(|(i, _)| i);
            let buf = pick.map(|i| inner.free.swap_remove(i));
            match &buf {
                Some(buf) if buf.capacity() >= len => inner.reuses += 1,
                _ => inner.allocations += 1,
            }
            inner.retained_words -= buf.as_ref().map_or(0, DeviceBuffer::capacity);
            buf
        };
        // Outside the lock: `recycle` re-fills the reused allocation, grows
        // it, or allocates fresh, all O(len).
        DeviceBuffer::recycle(&mut slot, len, init);
        ScratchBuffer { buf: slot, arena: self }
    }

    /// A point-in-time snapshot of the arena counters.
    pub fn stats(&self) -> ScratchStats {
        let inner = self.inner.lock();
        ScratchStats {
            acquires: inner.acquires,
            reuses: inner.reuses,
            allocations: inner.allocations,
            retained_buffers: inner.free.len(),
            retained_words: inner.retained_words,
        }
    }

    fn release(&self, buf: DeviceBuffer<u64>) {
        let mut inner = self.inner.lock();
        if inner.retained_words + buf.capacity() <= MAX_RETAINED_WORDS {
            inner.retained_words += buf.capacity();
            inner.free.push(buf);
        }
    }
}

impl std::fmt::Debug for ScratchArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ScratchArena")
            .field("retained_buffers", &stats.retained_buffers)
            .field("retained_words", &stats.retained_words)
            .finish()
    }
}

/// An arena-owned `u64` device buffer; dereferences to [`DeviceBuffer`] and
/// returns its allocation to the arena on drop.
pub struct ScratchBuffer<'a> {
    buf: Option<DeviceBuffer<u64>>,
    arena: &'a ScratchArena,
}

impl Deref for ScratchBuffer<'_> {
    type Target = DeviceBuffer<u64>;

    fn deref(&self) -> &DeviceBuffer<u64> {
        self.buf.as_ref().expect("scratch buffer present until drop")
    }
}

impl Drop for ScratchBuffer<'_> {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.arena.release(buf);
        }
    }
}

impl std::fmt::Debug for ScratchBuffer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchBuffer").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn acquire_initializes_and_reuses_matching_lengths() {
        let arena = ScratchArena::new();
        {
            let buf = arena.acquire(64, 7);
            assert_eq!(buf.to_vec(), vec![7u64; 64]);
            buf.set(3, 99);
        }
        // Same length: the allocation comes back re-initialized.
        let buf = arena.acquire(64, 0);
        assert_eq!(buf.to_vec(), vec![0u64; 64]);
        let stats = arena.stats();
        assert_eq!(stats.acquires, 2);
        assert_eq!(stats.reuses, 1);
        assert_eq!(stats.allocations, 1);
    }

    #[test]
    fn a_smaller_request_reuses_a_larger_allocation() {
        let arena = ScratchArena::new();
        drop(arena.acquire(100, 0));
        let buf = arena.acquire(50, 4);
        assert_eq!(buf.to_vec(), vec![4u64; 50]);
        assert_eq!(buf.capacity(), 100);
        drop(buf);
        let stats = arena.stats();
        assert_eq!((stats.allocations, stats.reuses), (1, 1));
        assert_eq!((stats.retained_buffers, stats.retained_words), (1, 100));
    }

    #[test]
    fn best_fit_picks_the_smallest_buffer_that_holds_the_request() {
        let arena = ScratchArena::new();
        {
            let (_a, _b, _c) = (arena.acquire(10, 0), arena.acquire(30, 0), arena.acquire(20, 0));
        }
        let fit = arena.acquire(15, 0);
        assert_eq!(fit.capacity(), 20);
        // Nothing free holds 40 words: the largest free buffer grows to
        // exactly 40 and the smaller one stays parked.
        let grown = arena.acquire(40, 1);
        assert_eq!(grown.to_vec(), vec![1u64; 40]);
        assert_eq!(grown.capacity(), 40);
        let stats = arena.stats();
        assert_eq!((stats.allocations, stats.reuses), (4, 1));
        assert_eq!((stats.retained_buffers, stats.retained_words), (1, 10));
    }

    #[test]
    fn concurrent_guards_get_distinct_buffers() {
        let arena = ScratchArena::new();
        let a = arena.acquire(32, 1);
        let b = arena.acquire(32, 2);
        a.set(0, 10);
        assert_eq!(b.get(0), 2);
        drop(a);
        drop(b);
        assert_eq!(arena.stats().retained_buffers, 2);
        // Only one of them is reused per acquire.
        let c = arena.acquire(32, 0);
        assert_eq!(arena.stats().retained_buffers, 1);
        drop(c);
    }

    #[test]
    fn zero_length_buffers_are_fine() {
        let arena = ScratchArena::new();
        let buf = arena.acquire(0, 0);
        assert!(buf.is_empty());
        drop(buf);
        let buf = arena.acquire(0, 0);
        assert_eq!(arena.stats().reuses, 1);
        drop(buf);
    }

    #[test]
    fn oversized_releases_are_dropped_not_retained() {
        let arena = ScratchArena::new();
        drop(arena.acquire(MAX_RETAINED_WORDS + 1, 0));
        assert_eq!(arena.stats().retained_buffers, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn acquire_and_release_sequences_keep_the_arena_bounded(
            ops in vec((0usize..4097, any::<u64>(), any::<bool>()), 1..64),
        ) {
            let arena = ScratchArena::new();
            let mut live: Vec<ScratchBuffer<'_>> = Vec::new();
            let (mut peak_live, mut largest) = (0usize, 0usize);
            for (len, init, release) in ops {
                if release && !live.is_empty() {
                    drop(live.swap_remove(init as usize % live.len()));
                } else if live.len() < 8 {
                    let buf = arena.acquire(len, init);
                    prop_assert_eq!(buf.len(), len);
                    prop_assert_eq!(buf.to_vec(), vec![init; len]);
                    live.push(buf);
                    peak_live = peak_live.max(live.len());
                    largest = largest.max(len);
                }
                // A buffer's words are contiguous, so live buffers share no
                // word when the spans of their first and last words are
                // disjoint.
                let mut spans: Vec<(u64, u64)> = (live.iter().filter(|buf| !buf.is_empty()))
                    .map(|buf| (buf.word_id(0), buf.word_id(buf.len() - 1)))
                    .collect();
                spans.sort_unstable();
                prop_assert!(spans.windows(2).all(|w| w[0].1 < w[1].0), "a word is live twice");
                let inner = arena.inner.lock();
                prop_assert!(inner.free.len() <= peak_live);
                prop_assert!(inner.free.iter().all(|buf| buf.capacity() <= largest));
                let capacity: usize = inner.free.iter().map(DeviceBuffer::capacity).sum();
                prop_assert_eq!(inner.retained_words, capacity);
                prop_assert!(capacity <= MAX_RETAINED_WORDS);
            }
        }
    }
}
