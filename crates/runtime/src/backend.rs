//! Execution backends: the seam between algorithm code and the thread pool.
//!
//! Algorithms express their data-parallel structure as *chunked index
//! ranges*; a [`Backend`] decides how chunks execute. Crucially, the chunk
//! geometry is fixed by the caller (a constant grain, independent of worker
//! count), so a deterministic fold over chunk results in index order
//! produces bitwise-identical output on [`Serial`] and on [`Parallel`] at
//! any pool size.

use crate::pool::ThreadPool;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// An execution strategy for chunked data-parallel loops.
pub trait Backend: Send + Sync {
    /// Human-readable backend name (for reports and benches).
    fn name(&self) -> &'static str;

    /// Upper bound on chunks that may run simultaneously (1 for serial).
    fn concurrency(&self) -> usize;

    /// Partitions `0..len` into `chunk_size`-sized chunks and invokes
    /// `body(chunk_index, range)` for each, in any order and possibly
    /// concurrently. Returns after all chunks completed.
    fn for_each_chunk(
        &self,
        len: usize,
        chunk_size: usize,
        body: &(dyn Fn(usize, Range<usize>) + Sync),
    );
}

/// Single-threaded reference backend: chunks run in index order on the
/// calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Serial;

impl Backend for Serial {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn concurrency(&self) -> usize {
        1
    }

    fn for_each_chunk(
        &self,
        len: usize,
        chunk_size: usize,
        body: &(dyn Fn(usize, Range<usize>) + Sync),
    ) {
        let chunk_size = chunk_size.max(1);
        let mut index = 0;
        let mut start = 0;
        while start < len {
            let end = (start + chunk_size).min(len);
            body(index, start..end);
            index += 1;
            start = end;
        }
    }
}

/// Work-stealing parallel backend over a [`ThreadPool`].
#[derive(Debug, Clone)]
pub struct Parallel {
    pool: Arc<ThreadPool>,
}

impl Parallel {
    /// Backend over a shared process-wide pool of the given size. Pools are
    /// cached per size, so constructing the same configuration repeatedly
    /// (e.g. one per SLAM session) does not multiply threads.
    pub fn new(threads: usize) -> Self {
        Self {
            pool: shared_pool(threads),
        }
    }

    /// Backend over the machine-sized shared pool.
    pub fn with_default_size() -> Self {
        Self::new(0)
    }

    /// Backend over an explicit pool (dedicated, not cached).
    pub fn over(pool: Arc<ThreadPool>) -> Self {
        Self { pool }
    }

    /// The underlying pool.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }
}

impl Backend for Parallel {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn concurrency(&self) -> usize {
        self.pool.threads()
    }

    fn for_each_chunk(
        &self,
        len: usize,
        chunk_size: usize,
        body: &(dyn Fn(usize, Range<usize>) + Sync),
    ) {
        self.pool.for_each_chunk(len, chunk_size, body);
    }
}

/// Returns the process-wide shared pool for a worker count (`0` = machine
/// size). Pools live for the process lifetime and are created on first use.
pub fn shared_pool(threads: usize) -> Arc<ThreadPool> {
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<ThreadPool>>>> = OnceLock::new();
    let resolved = if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    };
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut pools = pools.lock().unwrap();
    Arc::clone(
        pools
            .entry(resolved)
            .or_insert_with(|| Arc::new(ThreadPool::new(resolved))),
    )
}

/// Exclusive prefix sum over per-chunk counts, used by chunked kernels that
/// compact variable-sized per-chunk output into one dense
/// structure-of-arrays buffer (count in parallel, scan serially, scatter in
/// parallel at `offsets[chunk]`).
///
/// Returns `(offsets, total)` where `offsets[i]` is the output position of
/// chunk `i`'s first element and `total` the summed count. The scan runs on
/// the calling thread — it is O(chunks) — so the resulting offsets, and
/// therefore the scatter layout, are identical on every backend and pool
/// size.
pub fn exclusive_prefix_sum(counts: &[usize]) -> (Vec<usize>, usize) {
    let mut offsets = Vec::new();
    let total = exclusive_prefix_sum_into(counts, &mut offsets);
    (offsets, total)
}

/// [`exclusive_prefix_sum`] writing into caller-owned storage.
///
/// `offsets` is cleared and refilled; once its capacity covers
/// `counts.len()` the scan performs no heap allocation, which is what lets
/// chunked kernels run allocation-free in the steady state (the frame-arena
/// contract of `rtgs-render`). Returns the summed total.
pub fn exclusive_prefix_sum_into(counts: &[usize], offsets: &mut Vec<usize>) -> usize {
    offsets.clear();
    offsets.reserve(counts.len());
    let mut total = 0usize;
    for &c in counts {
        offsets.push(total);
        total += c;
    }
    total
}

/// A pool of reusable scratch values for chunked kernels.
///
/// Chunk bodies running on a [`Backend`] cannot own per-worker state (the
/// body is a shared `Fn`), so kernels that need per-chunk scratch — e.g. the
/// render kernels' gathered tile working set — [`ScratchPool::take`] a
/// value at chunk entry and [`ScratchPool::put`] it back at exit. Values
/// come back exactly as they were put (a `Vec` keeps its capacity *and*
/// contents — users `clear()` what they refill), and the pool grows to at
/// most the number of concurrently running chunks; after warm-up,
/// steady-state take/put cycles perform no heap allocation.
#[derive(Debug)]
pub struct ScratchPool<T> {
    idle: Mutex<Vec<T>>,
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ScratchPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Self {
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Pops a pooled value or returns a default one when the pool is dry.
    pub fn take(&self) -> T
    where
        T: Default,
    {
        self.lock().pop().unwrap_or_default()
    }

    /// Returns a value to the pool for reuse.
    pub fn put(&self, scratch: T) {
        self.lock().push(scratch);
    }

    /// Number of currently pooled (idle) values.
    pub fn idle(&self) -> usize {
        self.lock().len()
    }

    /// Sums `f` over the idle values (capacity accounting).
    pub fn sum_idle(&self, f: impl Fn(&T) -> usize) -> usize {
        self.lock().iter().map(f).sum()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<T>> {
        self.idle
            .lock()
            .expect("a chunk body panicked while holding the scratch pool")
    }
}

/// Copyable backend selector for configuration structs (`SlamConfig` stays
/// `Copy`); [`BackendChoice::instantiate`] resolves it to a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendChoice {
    /// Single-threaded execution.
    #[default]
    Serial,
    /// Work-stealing execution on the shared pool of `threads` workers
    /// (`0` = machine size).
    Parallel {
        /// Worker count; `0` picks `available_parallelism`.
        threads: usize,
    },
}

impl BackendChoice {
    /// Resolves the choice to a backend instance.
    pub fn instantiate(&self) -> Arc<dyn Backend> {
        match *self {
            Self::Serial => Arc::new(Serial),
            Self::Parallel { threads } => Arc::new(Parallel::new(threads)),
        }
    }

    /// Short label for reports (`serial`, `parallel(4)`, `parallel(auto)`).
    pub fn label(&self) -> String {
        match self {
            Self::Serial => "serial".to_string(),
            Self::Parallel { threads: 0 } => "parallel(auto)".to_string(),
            Self::Parallel { threads } => format!("parallel({threads})"),
        }
    }
}

/// A length-checked shared view over a mutable slice for disjoint parallel
/// writes.
///
/// Chunked kernels preallocate their output and let each chunk write its own
/// disjoint index range. Rust cannot prove that disjointness across the
/// `dyn Fn` backend seam, so this wrapper carries the invariant instead.
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: access is only through `write`/`get_mut`, whose contract requires
// callers to touch disjoint indices from different threads.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wraps a mutable slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Slice length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a mutable reference to element `i`.
    ///
    /// # Safety
    ///
    /// No two concurrently-live references returned by this method (from any
    /// thread) may target the same index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        &mut *self.ptr.add(i)
    }

    /// Writes `value` to element `i`.
    ///
    /// # Safety
    ///
    /// As for [`SharedSlice::get_mut`]: concurrent writers must target
    /// disjoint indices.
    pub unsafe fn write(&self, i: usize, value: T) {
        *self.get_mut(i) = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_backend_visits_chunks_in_order() {
        let order = Mutex::new(Vec::new());
        Serial.for_each_chunk(10, 3, &|index, range| {
            order.lock().unwrap().push((index, range.start, range.end));
        });
        assert_eq!(
            *order.lock().unwrap(),
            vec![(0, 0, 3), (1, 3, 6), (2, 6, 9), (3, 9, 10)]
        );
    }

    #[test]
    fn parallel_backend_covers_all_chunks() {
        let backend = Parallel::new(3);
        let hits: Vec<std::sync::atomic::AtomicUsize> = (0..100)
            .map(|_| std::sync::atomic::AtomicUsize::new(0))
            .collect();
        backend.for_each_chunk(100, 7, &|_, range| {
            for i in range {
                hits[i].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        });
        assert!(hits
            .iter()
            .all(|h| h.load(std::sync::atomic::Ordering::Relaxed) == 1));
    }

    #[test]
    fn shared_pools_are_cached_per_size() {
        let a = shared_pool(2);
        let b = shared_pool(2);
        assert!(Arc::ptr_eq(&a, &b));
        let c = shared_pool(3);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn backend_choice_labels() {
        assert_eq!(BackendChoice::Serial.label(), "serial");
        assert_eq!(
            BackendChoice::Parallel { threads: 4 }.label(),
            "parallel(4)"
        );
        assert_eq!(
            BackendChoice::Parallel { threads: 0 }.label(),
            "parallel(auto)"
        );
        assert_eq!(BackendChoice::default(), BackendChoice::Serial);
    }

    #[test]
    fn exclusive_prefix_sum_offsets() {
        let (offsets, total) = exclusive_prefix_sum(&[3, 0, 2, 5]);
        assert_eq!(offsets, vec![0, 3, 3, 5]);
        assert_eq!(total, 10);
        let (empty, zero) = exclusive_prefix_sum(&[]);
        assert!(empty.is_empty());
        assert_eq!(zero, 0);
    }

    #[test]
    fn exclusive_prefix_sum_into_reuses_capacity() {
        let mut offsets = Vec::new();
        let total = exclusive_prefix_sum_into(&[3, 0, 2, 5], &mut offsets);
        assert_eq!(offsets, vec![0, 3, 3, 5]);
        assert_eq!(total, 10);
        let cap = offsets.capacity();
        let total = exclusive_prefix_sum_into(&[1, 1], &mut offsets);
        assert_eq!(offsets, vec![0, 1]);
        assert_eq!(total, 2);
        assert_eq!(offsets.capacity(), cap, "reuse must keep capacity");
    }

    #[test]
    fn scratch_pool_recycles_buffers() {
        let pool: ScratchPool<Vec<u32>> = ScratchPool::new();
        let mut a = pool.take();
        a.extend(0..100);
        let cap = a.capacity();
        pool.put(a);
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.sum_idle(Vec::capacity), cap);
        let b = pool.take();
        assert_eq!(b.len(), 100, "pooled values come back as they were put");
        assert_eq!(b.capacity(), cap, "pooled buffers keep capacity");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn shared_slice_disjoint_parallel_writes() {
        let backend = Parallel::new(4);
        let mut data = vec![0usize; 256];
        let view = SharedSlice::new(&mut data);
        backend.for_each_chunk(256, 16, &|_, range| {
            for i in range {
                // SAFETY: each index is written by exactly one chunk.
                unsafe { view.write(i, i * 3) };
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i * 3));
    }
}
