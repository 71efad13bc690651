//! Execution backends: the seam between algorithm code and the thread pool.
//!
//! Algorithms express their data-parallel structure as *chunked index
//! ranges*; a [`Backend`] decides how chunks execute. Crucially, the chunk
//! geometry is fixed by the caller (a constant grain, independent of worker
//! count), so a deterministic fold over chunk results in index order
//! produces bitwise-identical output on [`Serial`] and on [`Parallel`] at
//! any pool size.
//!
//! **One pool, always.** A [`Parallel`] loop started on a thread that is
//! executing work of some pool — inside a chunk of one of its loops, which
//! is where a served session's step runs, or on the `Serve` caller between
//! rounds — is published on *that* pool, whatever pool the backend itself
//! names: a served session fans out onto the executors that are stepping
//! it (the idle ones), and only a free-standing caller brings the
//! backend's own pool: a served session never brings a second pool. The
//! guarantee is per loop, not per process: a free-standing loop on another
//! backend (dataset generation renders on the machine default) brings that
//! backend's pool, whose workers park once the loop ends.

use crate::pool::ThreadPool;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// An execution strategy for chunked data-parallel loops.
pub trait Backend: Send + Sync {
    /// Human-readable backend name (for reports and benches).
    fn name(&self) -> &'static str;

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

/// Parallel backend: chunked loops run on the caller and on the idle
/// threads of a [`ThreadPool`] — the pool whose work the calling thread is
/// executing if there is one, this backend's own otherwise (see the module
/// docs, "One pool, always").
#[derive(Debug, Clone)]
pub struct Parallel {
    threads: usize,
    /// Resolved on the first loop a free-standing caller starts, so a
    /// backend that only ever runs inside another pool's chunks creates
    /// none.
    pool: OnceLock<Arc<ThreadPool>>,
}

impl Parallel {
    /// Backend over the process-wide shared pool of `threads` workers (`0`
    /// = the machine, see [`shared_pool`]). Pools are cached per size, so
    /// constructing the same configuration repeatedly (e.g. one per SLAM
    /// session) does not multiply threads.
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            pool: OnceLock::new(),
        }
    }

    /// The backend's own pool: where a thread that is running no pool's work
    /// publishes its loops.
    fn pool(&self) -> &Arc<ThreadPool> {
        self.pool.get_or_init(|| shared_pool(self.threads))
    }
}

impl Backend for Parallel {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn for_each_chunk(
        &self,
        len: usize,
        chunk_size: usize,
        body: &(dyn Fn(usize, Range<usize>) + Sync),
    ) {
        if !ThreadPool::for_each_chunk_in_job(len, chunk_size, body) {
            self.pool().for_each_chunk(len, chunk_size, body);
        }
    }
}

/// Workers of the machine pool: `available_parallelism() − 1`, because the
/// thread that starts a loop (or calls `Serve::run`) is an executor too —
/// `0` on a one-CPU host. Read once: the answer costs system calls and
/// cgroup file reads.
fn machine_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(0, |cpus| cpus.get() - 1))
}

fn pools() -> MutexGuard<'static, BTreeMap<usize, Arc<ThreadPool>>> {
    static POOLS: Mutex<BTreeMap<usize, Arc<ThreadPool>>> = Mutex::new(BTreeMap::new());
    POOLS
        .lock()
        .expect("spawning a pool's threads failed under the pool cache lock")
}

/// Returns the process-wide shared pool for a worker count. `0` means the
/// machine, *counting the caller*: `available_parallelism() − 1` workers
/// (at least one), so that the workers plus the thread that publishes loops
/// or serves sessions on the pool fill the cores without oversubscribing
/// them. Pools live for the process lifetime and are created on first use.
pub fn shared_pool(threads: usize) -> Arc<ThreadPool> {
    let resolved = if threads == 0 {
        machine_workers().max(1)
    } else {
        threads
    };
    Arc::clone(
        pools()
            .entry(resolved)
            .or_insert_with(|| Arc::new(ThreadPool::new(resolved))),
    )
}

/// Worker counts of the shared pools created so far, ascending — the check
/// behind "one pool, always": a process that serves on `threads(3)` and
/// runs every session on the default backend adds only `3`. Generating a
/// dataset brings the machine pool too, so such a process lists `[1, 3]` on
/// two CPUs (`[3]` on one CPU or four, where the machine is `Serial` or
/// the 3-worker pool itself).
pub fn shared_pool_sizes() -> Vec<usize> {
    pools().keys().copied().collect()
}

/// Exclusive prefix sum over per-chunk counts into caller-owned storage,
/// used by chunked kernels that compact variable-sized per-chunk output
/// into one dense structure-of-arrays buffer (count in parallel, scan
/// serially, scatter in parallel at `offsets[chunk]`).
///
/// `offsets` is cleared and refilled so that `offsets[i]` is the output
/// position of chunk `i`'s first element; returns the summed count. The
/// scan runs on the calling thread — it is O(chunks) — so the resulting
/// offsets, and therefore the scatter layout, are identical on every
/// backend and pool size. Once the capacity of `offsets` covers
/// `counts.len()` the scan performs no heap allocation, which is what lets
/// chunked kernels run allocation-free in the steady state (the frame-arena
/// contract of `rtgs-render`).
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

/// Copyable backend selector for configuration structs (`SlamConfig` stays
/// `Copy`); [`BackendChoice::instantiate`] resolves it to a backend.
///
/// The default is `Parallel { threads: 0 }` — the machine: results are
/// bitwise those of [`Serial`](BackendChoice::Serial) on every backend and
/// pool size, so the only thing the choice decides is how many cores one
/// frame gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// Single-threaded execution.
    Serial,
    /// Chunked loops on the caller plus the idle threads of a pool: the
    /// pool that is stepping the session when it is served, the shared pool
    /// of `threads` workers otherwise.
    Parallel {
        /// Worker count; `0` is the machine, counting the caller:
        /// `available_parallelism() − 1` workers, and plain serial
        /// execution on a one-CPU host.
        threads: usize,
    },
}

impl Default for BackendChoice {
    fn default() -> Self {
        Self::Parallel { threads: 0 }
    }
}

impl BackendChoice {
    /// Resolves the choice to a backend instance. No thread is created
    /// here: a [`Parallel`] backend resolves its pool on first use, and
    /// `Parallel { threads: 0 }` on a one-CPU host is [`Serial`].
    pub fn instantiate(&self) -> Arc<dyn Backend> {
        match *self {
            Self::Serial => Arc::new(Serial),
            Self::Parallel { threads: 0 } if machine_workers() == 0 => Arc::new(Serial),
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

    /// Returns the elements of `range` as one mutable slice.
    ///
    /// # Safety
    ///
    /// As for [`SharedSlice::get_mut`]: no two concurrently-live references
    /// returned by this method or by `get_mut` may overlap.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds or decreasing.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range_mut(&self, range: Range<usize>) -> &mut [T] {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "range {range:?} out of bounds (len {})",
            self.len
        );
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len())
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
        assert_eq!(BackendChoice::default().label(), "parallel(auto)");
    }

    #[test]
    fn auto_counts_the_caller_and_is_serial_on_one_cpu() {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(machine_workers(), cpus - 1);
        let expected = if cpus == 1 { "serial" } else { "parallel" };
        assert_eq!(BackendChoice::default().instantiate().name(), expected);
        assert_eq!(shared_pool(0).threads(), (cpus - 1).max(1));
    }

    #[test]
    fn a_loop_started_inside_a_job_runs_on_that_jobs_pool() {
        // 61 is nobody else's size: were the backend's own pool ever
        // resolved, the shared cache would list it.
        let backend = Parallel::new(61);
        let serving = ThreadPool::new(2);
        let sum = std::sync::atomic::AtomicUsize::new(0);
        let body = |_: usize, range: Range<usize>| {
            sum.fetch_add(range.sum(), std::sync::atomic::Ordering::Relaxed);
        };
        // From the chunks of a loop published by a free thread (a round's
        // steps: on a worker, or on this thread, whose own chunks are the
        // pool's work too) and from a step the scheduler runs on its own
        // thread between rounds.
        serving.for_each_chunk(4, 1, &|_, _| backend.for_each_chunk(100, 7, &body));
        serving.run_as_job(|| backend.for_each_chunk(100, 7, &body));
        assert_eq!(sum.into_inner(), 5 * 4950);
        assert!(backend.pool.get().is_none(), "the backend resolved a pool");
        assert!(!shared_pool_sizes().contains(&61));
    }

    #[test]
    fn exclusive_prefix_sum_offsets() {
        let mut offsets = vec![7];
        assert_eq!(exclusive_prefix_sum_into(&[3, 0, 2, 5], &mut offsets), 10);
        assert_eq!(offsets, vec![0, 3, 3, 5]);
        assert_eq!(exclusive_prefix_sum_into(&[], &mut offsets), 0);
        assert!(offsets.is_empty());
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

    #[test]
    fn shared_slice_disjoint_range_writes() {
        let backend = Parallel::new(2);
        let mut data = vec![0usize; 100];
        let view = SharedSlice::new(&mut data);
        backend.for_each_chunk(100, 16, &|chunk, range| {
            // SAFETY: chunk ranges are disjoint.
            unsafe { view.range_mut(range) }.fill(chunk + 1);
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i / 16 + 1));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn shared_slice_range_is_bounds_checked() {
        let mut data = [0u8; 4];
        let view = SharedSlice::new(&mut data);
        // SAFETY: the only reference; the call panics before creating it.
        let _ = unsafe { view.range_mut(2..5) };
    }
}
