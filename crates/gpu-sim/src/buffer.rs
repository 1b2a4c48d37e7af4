//! Device memory buffers with GPU word-access semantics.
//!
//! CUDA guarantees that naturally-aligned 32-/64-bit loads and stores are
//! indivisible, but gives no ordering and no mutual exclusion between threads
//! of a grid.  The paper's kernels rely on exactly that: several threads may
//! write the same `ψ(u)` or `µ(u)` entry in a launch, and the algorithm is
//! designed so any interleaving of *whole-word* values is acceptable.
//!
//! In Rust, a plain `&[Cell<T>]` shared across threads would be a data race
//! (undefined behaviour), so each word of a [`DeviceBuffer`] is stored in a
//! platform atomic accessed with `Ordering::Relaxed`.  Relaxed atomics
//! compile to plain loads/stores on every relevant ISA, carry no ordering —
//! and therefore model the device memory semantics faithfully without UB.
//! The matching kernels never use read-modify-write operations, preserving
//! the paper's "atomic-free" claim (relaxed loads/stores are not the CUDA
//! `atomicAdd`-style operations the paper avoids); the RMWs below serve the
//! worklist only: its append queues, and the host bitmaps of its dense
//! frontiers' members and its slot lists' live slots.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// A scalar type that can live in device memory.
///
/// Implementations map the scalar onto an atomic cell used with relaxed
/// ordering; see the module documentation for why.
pub trait DeviceScalar: Copy + Send + Sync + 'static {
    /// The backing cell type.
    type Cell: Send + Sync;

    /// Creates a cell holding `v`.
    fn new_cell(v: Self) -> Self::Cell;
    /// Reads the cell (relaxed).
    fn load(cell: &Self::Cell) -> Self;
    /// Writes the cell (relaxed).
    fn store(cell: &Self::Cell, v: Self);
}

macro_rules! impl_device_scalar {
    ($ty:ty, $atomic:ty) => {
        impl DeviceScalar for $ty {
            type Cell = $atomic;

            #[inline]
            fn new_cell(v: Self) -> Self::Cell {
                <$atomic>::new(v)
            }

            #[inline]
            fn load(cell: &Self::Cell) -> Self {
                cell.load(Ordering::Relaxed)
            }

            #[inline]
            fn store(cell: &Self::Cell, v: Self) {
                cell.store(v, Ordering::Relaxed)
            }
        }
    };
}

impl_device_scalar!(i64, AtomicI64);
impl_device_scalar!(u32, AtomicU32);
impl_device_scalar!(u64, AtomicU64);
impl_device_scalar!(usize, AtomicUsize);
impl_device_scalar!(bool, AtomicBool);

impl DeviceScalar for i32 {
    type Cell = std::sync::atomic::AtomicI32;

    #[inline]
    fn new_cell(v: Self) -> Self::Cell {
        std::sync::atomic::AtomicI32::new(v)
    }

    #[inline]
    fn load(cell: &Self::Cell) -> Self {
        cell.load(Ordering::Relaxed)
    }

    #[inline]
    fn store(cell: &Self::Cell, v: Self) {
        cell.store(v, Ordering::Relaxed)
    }
}

/// A device-resident array of `T` with word-granular, unordered access.
///
/// Cloning a handle is not supported; kernels receive `&DeviceBuffer<T>` and
/// may read and write concurrently from many threads.
pub struct DeviceBuffer<T: DeviceScalar> {
    cells: Vec<T::Cell>,
}

impl<T: DeviceScalar> DeviceBuffer<T> {
    /// Allocates a buffer of `len` words, each initialized to `init`.
    pub fn new(len: usize, init: T) -> Self {
        Self { cells: (0..len).map(|_| T::new_cell(init)).collect() }
    }

    /// Copies a host slice to a new device buffer (host → device transfer).
    pub fn from_slice(host: &[T]) -> Self {
        Self { cells: host.iter().map(|&v| T::new_cell(v)).collect() }
    }

    /// Number of words in the buffer.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the buffer holds no words.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Reads word `i` (device load, relaxed).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        T::load(&self.cells[i])
    }

    /// Writes word `i` (device store, relaxed).
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        T::store(&self.cells[i], v)
    }

    /// Copies the device buffer back to a host vector (device → host).
    pub fn to_vec(&self) -> Vec<T> {
        self.cells.iter().map(T::load).collect()
    }

    /// Overwrites every word with `v`.
    pub fn fill(&self, v: T) {
        for cell in &self.cells {
            T::store(cell, v);
        }
    }

    /// Copies the contents of a host slice into the buffer.
    ///
    /// # Panics
    /// Panics if the slice length differs from the buffer length.
    pub fn copy_from_slice(&self, host: &[T]) {
        assert_eq!(host.len(), self.len(), "host/device length mismatch");
        for (cell, &v) in self.cells.iter().zip(host) {
            T::store(cell, v);
        }
    }

    /// Words the buffer's allocation holds, which may exceed its length
    /// after [`DeviceBuffer::reshape`] shortened it.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cells.capacity()
    }

    /// Makes the buffer `len` words long, each set to `init`, in its own
    /// allocation: a shorter length truncates it and keeps the capacity, a
    /// longer one grows the capacity to exactly `len` words.
    pub fn reshape(&mut self, len: usize, init: T) {
        self.cells.truncate(len);
        self.fill(init);
        let grow = len - self.cells.len();
        self.cells.reserve_exact(grow);
        self.cells.extend(std::iter::repeat_with(|| T::new_cell(init)).take(grow));
    }

    /// Makes the buffer a copy of `host` (host → device transfer) in its own
    /// allocation, truncating or growing it as [`DeviceBuffer::reshape`]
    /// does.
    pub fn reshape_from_slice(&mut self, host: &[T]) {
        self.cells.truncate(host.len());
        let (kept, grow) = host.split_at(self.cells.len());
        self.copy_from_slice(kept);
        self.cells.reserve_exact(grow.len());
        self.cells.extend(grow.iter().map(|&v| T::new_cell(v)));
    }

    /// Workspace hook: returns a buffer of exactly `len` words, all set to
    /// `init`, reshaping the buffer already in `slot` when there is one.
    /// Warm solver sessions keep their device buffers in `Option` slots and
    /// recycle them across solves of any shape instead of re-allocating
    /// ("copying to the device") every call, so a slot's allocation is as
    /// large as the largest length it has been asked for.
    pub fn recycle(slot: &mut Option<Self>, len: usize, init: T) -> &Self {
        let buf = slot.get_or_insert_with(|| Self::new(0, init));
        buf.reshape(len, init);
        buf
    }
}

impl DeviceBuffer<u64> {
    /// Atomically adds `delta` to word `i` and returns the previous value —
    /// the analogue of CUDA's `atomicAdd` on a 64-bit word, with relaxed
    /// ordering (no fence, no cross-thread ordering guarantee beyond the
    /// indivisibility of the read-modify-write itself).
    ///
    /// The paper's matching kernels never use it (their races are benign by
    /// construction); it exists for the worklist subsystem's
    /// [`AtomicQueue`](crate::worklist::WorklistMode::AtomicQueue) and
    /// [`BlockedQueue`](crate::worklist::WorklistMode::BlockedQueue)
    /// representations, whose device-side appends mirror the atomic-append
    /// frontier queues of the GPU BFS literature.
    ///
    /// RMW traffic is what the device cost model charges contention for:
    /// kernels that call this should report it through
    /// [`crate::ThreadCtx::add_atomic`] with [`DeviceBuffer::word_id`] of
    /// the touched word, so same-word serialization shows up in the
    /// modelled launch time.
    #[inline]
    pub fn fetch_add(&self, i: usize, delta: u64) -> u64 {
        self.cells[i].fetch_add(delta, Ordering::Relaxed)
    }

    /// Atomically replaces word `i` with `v` and returns the previous value
    /// — CUDA's `atomicExch` on a 64-bit word, relaxed ordering.  Of several
    /// threads swapping the same value into one word, exactly one observes
    /// the old value: the queue worklists use this to append an item once
    /// per round however many threads push it.  Like
    /// [`DeviceBuffer::fetch_add`], a kernel reports it to the cost model
    /// through its thread's atomic counters.
    #[inline]
    pub fn swap(&self, i: usize, v: u64) -> u64 {
        self.cells[i].swap(v, Ordering::Relaxed)
    }

    /// Atomically ORs `bits` into word `i`, relaxed.  Not a device
    /// operation: it sets bits of the dense frontier's host membership
    /// bitmap, which the cost model never charges.
    #[inline]
    pub(crate) fn fetch_or(&self, i: usize, bits: u64) {
        self.cells[i].fetch_or(bits, Ordering::Relaxed);
    }

    /// Atomically ANDs `bits` into word `i`, relaxed.  Not a device
    /// operation either: it clears bits of a slot list's host bitmap of live
    /// slots.
    #[inline]
    pub(crate) fn fetch_and(&self, i: usize, bits: u64) {
        self.cells[i].fetch_and(bits, Ordering::Relaxed);
    }

    /// A stable identifier of word `i` for contention accounting
    /// ([`crate::ThreadCtx::add_atomic`]).  Distinct live words always get
    /// distinct ids; the value itself is meaningless beyond equality.
    #[inline]
    pub fn word_id(&self, i: usize) -> u64 {
        &self.cells[i] as *const _ as u64
    }
}

impl<T: DeviceScalar + std::fmt::Debug> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceBuffer").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_initializes_all_words() {
        let b = DeviceBuffer::<i64>::new(5, -1);
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
        assert_eq!(b.to_vec(), vec![-1; 5]);
    }

    #[test]
    fn from_slice_and_back_round_trips() {
        let host = vec![3u32, 1, 4, 1, 5, 9, 2, 6];
        let b = DeviceBuffer::from_slice(&host);
        assert_eq!(b.to_vec(), host);
    }

    #[test]
    fn get_set_single_words() {
        let b = DeviceBuffer::<i64>::new(3, 0);
        b.set(1, 42);
        assert_eq!(b.get(0), 0);
        assert_eq!(b.get(1), 42);
        b.set(1, -7);
        assert_eq!(b.get(1), -7);
    }

    #[test]
    fn fill_overwrites_everything() {
        let b = DeviceBuffer::<u32>::new(4, 1);
        b.fill(9);
        assert_eq!(b.to_vec(), vec![9; 4]);
    }

    #[test]
    fn copy_from_slice_replaces_contents() {
        let b = DeviceBuffer::<usize>::new(3, 0);
        b.copy_from_slice(&[7, 8, 9]);
        assert_eq!(b.to_vec(), vec![7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn copy_from_slice_length_mismatch_panics() {
        let b = DeviceBuffer::<usize>::new(3, 0);
        b.copy_from_slice(&[1, 2]);
    }

    #[test]
    fn bool_buffer_works_as_flag_array() {
        let b = DeviceBuffer::<bool>::new(2, false);
        b.set(1, true);
        assert!(!b.get(0));
        assert!(b.get(1));
    }

    #[test]
    fn empty_buffer() {
        let b = DeviceBuffer::<i32>::new(0, 0);
        assert!(b.is_empty());
        assert_eq!(b.to_vec(), Vec::<i32>::new());
    }

    #[test]
    fn recycle_reuses_matching_allocations() {
        let mut slot: Option<DeviceBuffer<i64>> = None;
        {
            let b = DeviceBuffer::recycle(&mut slot, 4, -1);
            assert_eq!(b.to_vec(), vec![-1; 4]);
            b.set(2, 9);
        }
        let ptr_before = slot.as_ref().unwrap() as *const _;
        // Same length: the allocation is reused and re-initialized.
        let b = DeviceBuffer::recycle(&mut slot, 4, 5);
        assert_eq!(b.to_vec(), vec![5; 4]);
        assert_eq!(slot.as_ref().unwrap() as *const _, ptr_before);
        // Different length: the buffer in the slot is reshaped.
        let b = DeviceBuffer::recycle(&mut slot, 2, 0);
        assert_eq!(b.to_vec(), vec![0; 2]);
    }

    /// The address of word 0: where the buffer's allocation lives.
    fn words_at(b: &DeviceBuffer<i64>) -> *const AtomicI64 {
        b.cells.as_ptr()
    }

    #[test]
    fn recycle_reshapes_on_shrink_grow_and_equal_length() {
        let mut slot: Option<DeviceBuffer<i64>> = None;
        DeviceBuffer::recycle(&mut slot, 8, 3).set(7, 99);
        let words = words_at(slot.as_ref().unwrap());
        // Shrink: the allocation stays, every kept word is re-initialized.
        let b = DeviceBuffer::recycle(&mut slot, 5, -1);
        assert_eq!(b.to_vec(), vec![-1; 5]);
        assert_eq!((b.capacity(), words_at(b)), (8, words));
        // Grow within the capacity: no allocation, and the word that was
        // cut off comes back as `init`, not as its stale value.
        let b = DeviceBuffer::recycle(&mut slot, 8, 0);
        assert_eq!(b.to_vec(), vec![0; 8]);
        assert_eq!((b.capacity(), words_at(b)), (8, words));
        // Equal length: re-initialized in place.
        let b = DeviceBuffer::recycle(&mut slot, 8, 4);
        assert_eq!(b.to_vec(), vec![4; 8]);
        assert_eq!(words_at(b), words);
        // Grow past the capacity: exactly the new length, not a doubling.
        let b = DeviceBuffer::recycle(&mut slot, 13, 6);
        assert_eq!(b.to_vec(), vec![6; 13]);
        assert_eq!(b.capacity(), 13);
    }

    #[test]
    fn reshape_from_slice_copies_in_place_or_grows_exactly() {
        let mut b = DeviceBuffer::from_slice(&[1i64, 2, 3, 4, 5, 6]);
        let words = words_at(&b);
        b.reshape_from_slice(&[7, 8]);
        assert_eq!(b.to_vec(), vec![7, 8]);
        assert_eq!((b.capacity(), words_at(&b)), (6, words));
        b.reshape_from_slice(&[9, 10, 11, 12, 13, 14]);
        assert_eq!(b.to_vec(), vec![9, 10, 11, 12, 13, 14]);
        assert_eq!(words_at(&b), words);
        b.reshape_from_slice(&[0; 9]);
        assert_eq!(b.to_vec(), vec![0; 9]);
        assert_eq!(b.capacity(), 9);
    }

    #[test]
    fn fetch_add_returns_previous_value_and_accumulates() {
        let b = DeviceBuffer::<u64>::new(2, 10);
        assert_eq!(b.fetch_add(0, 5), 10);
        assert_eq!(b.fetch_add(0, 1), 15);
        assert_eq!(b.get(0), 16);
        assert_eq!(b.get(1), 10);
    }

    #[test]
    fn concurrent_fetch_add_claims_unique_slots() {
        // The queue-append pattern: every increment must observe a distinct
        // previous value, even under contention.
        let tail = std::sync::Arc::new(DeviceBuffer::<u64>::new(1, 0));
        let claimed = std::sync::Arc::new(DeviceBuffer::<bool>::new(8 * 500, false));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let tail = std::sync::Arc::clone(&tail);
            let claimed = std::sync::Arc::clone(&claimed);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let pos = tail.fetch_add(0, 1) as usize;
                    assert!(!claimed.get(pos), "slot {pos} claimed twice");
                    claimed.set(pos, true);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tail.get(0), 8 * 500);
    }

    #[test]
    fn concurrent_swaps_let_exactly_one_thread_see_the_old_value() {
        // The exactly-once append guard: per word, one winner among all the
        // threads swapping the same new value in.
        let stamps = std::sync::Arc::new(DeviceBuffer::<u64>::new(64, 0));
        let winners = std::sync::Arc::new(DeviceBuffer::<u64>::new(64, 0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let stamps = std::sync::Arc::clone(&stamps);
                let winners = std::sync::Arc::clone(&winners);
                std::thread::spawn(move || {
                    for i in 0..64 {
                        if stamps.swap(i, 7) != 7 {
                            winners.fetch_add(i, 1);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(winners.to_vec(), vec![1; 64]);
        assert_eq!(stamps.to_vec(), vec![7; 64]);
    }

    #[test]
    fn concurrent_writes_land_as_whole_words() {
        // Many threads hammer the same cells; every observed value must be
        // one that some thread wrote (no torn words).
        let b = std::sync::Arc::new(DeviceBuffer::<i64>::new(4, 0));
        let mut handles = Vec::new();
        for t in 1..=8i64 {
            let b = std::sync::Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000usize {
                    b.set(i % 4, t * 1_000_000 + i as i64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for v in b.to_vec() {
            let t = v / 1_000_000;
            let i = v % 1_000_000;
            assert!((1..=8).contains(&t), "torn or invalid word: {v}");
            assert!(i < 1000);
        }
    }
}
