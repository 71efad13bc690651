//! A std-only thread pool with one unit of work, the chunk, and one
//! mechanism that hands it out.
//!
//! [`ThreadPool::for_each_chunk`] is an allocation-free parallel-for: the
//! caller *publishes* one descriptor that lives on its own stack, and the
//! caller plus every idle thread of the pool claim chunk indices from it
//! with a `fetch_add` until none is left. Claiming decides *who* runs a
//! chunk, never its index, its range or the order results are folded in,
//! which is what keeps parallel == serial a bitwise law. Everything the
//! runtime runs concurrently is such a loop: the five and more loops of
//! 15–800 µs inside a tracking iteration, and the serving round around
//! them, whose chunks are the ready sessions' steps.
//!
//! A loop published from inside a chunk is *nested* (a step's kernels under
//! the round); any other is *top-level*. One rule says who runs what:
//!
//! * an idle worker joins any published loop that has an unclaimed chunk,
//!   the earliest published first, and claims from it until none is left —
//!   so the round, registered before anything its steps publish, has every
//!   step started before anyone takes a kernel's chunks;
//! * a thread waiting for its own *top-level* loop to settle runs chunks of
//!   *nested* loops, one at a time — the round barrier lends its idle time
//!   to the steps still in flight and is never more than one chunk away
//!   from noticing that its round is over, and no step ever runs inside
//!   another step's stack frame or timing window;
//! * a thread waiting for its own *nested* loop runs nothing: the tail it
//!   waits for is at most one chunk long.
//!
//! Nothing can deadlock, even on a single-worker pool, because a publisher
//! never depends on a helper: it claims chunks itself until none is left
//! and then waits only for chunks that are already running.
//!
//! Idle means idle: a thread that finds no loop with an unclaimed chunk
//! looks again a bounded number of times, yielding its time slice in
//! between ([`IDLE_YIELDS`]), and then parks on the pool's one condvar; a
//! loop whose chunks are all claimed is not work. Nobody spins, and nobody
//! pays a system call to wake a pool in which nobody sleeps.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

type ChunkBody<'a> = dyn Fn(usize, Range<usize>) + Sync + 'a;
type PanicPayload = Box<dyn Any + Send>;

/// Times an idle thread looks for work, giving up its time slice in
/// between, before it parks.
///
/// Why not park at once: the loops of one tracking iteration are 30–80 µs
/// apart (tile binning and the loss run on the caller alone), a parked
/// thread costs its publisher a futex system call and comes back tens of
/// microseconds late, and — what weighs most on the bench host — this
/// kernel wakes a thread on the CPU that woke it and leaves it there until
/// the periodic balancer looks: a worker that parks at once shares its
/// publisher's core for seconds, while one that stays runnable for a moment
/// is moved to the idle core within about a second and wakes there from
/// then on. Why yield and not spin: a yielding thread hands a shared core
/// straight back, so the wait costs a publisher that has no second core
/// nothing (a 200 µs busy spin ran the pinned case below at ×1.64 of
/// serial in ISSUE 19's prototype). 256 yields are ≈ 80 µs on an idle core.
///
/// Same host (2 vCPUs), `experiments arena --full`, the iteration on the
/// machine backend against serial in alternating blocks of one process,
/// three runs each: 0 yields ×0.61 / 0.61 / 0.62, 256 yields ×0.55 / 0.58 /
/// 0.60, 2 048 yields ×0.58 / 0.64 / 0.71. Pinned to one CPU with a
/// one-worker pool (`taskset -c 0 … --parallel=1`, the case CI gates at
/// ×1.15): ×1.01, ×1.00, ×0.98…1.07.
///
/// The bound is a count, so it cannot outlast the check it wraps: every
/// round reads the loop registry first, and an unclaimed chunk ends the
/// wait at once.
const IDLE_YIELDS: u32 = 256;

/// Times the publisher of a nested loop yields its time slice while the
/// last helpers finish the chunks they claimed, before it parks.
///
/// The tail it covers is at most one chunk long, and the helper that owns
/// it is either running on another core (a yield then returns at once, and
/// the loop ends without a futex round trip) or waiting for this one (a
/// yield is what lets it run); parking behind the bound keeps a helper the
/// kernel has descheduled for longer from turning the wait into a spin.
/// Same measurement as [`IDLE_YIELDS`], at 256 idle yields: 0 settle yields
/// ×0.56…0.61, 32 ×0.55…0.60, 256 ×0.59…0.72; pinned ×1.00…1.01 for all
/// three.
const SETTLE_YIELDS: u32 = 32;

/// Locks a mutex whose every critical section leaves the data valid at
/// every step (plain pushes, scans, removals, or `()`), so a panic under it
/// — there is none by construction — could not have broken an invariant.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One chunked loop in flight. It lives on its publisher's stack for the
/// duration of [`Shared::for_each_chunk`]; other threads reach it only
/// through the pool's loop registry.
struct ChunkLoop {
    /// The loop body, its lifetime erased (see [`Shared::for_each_chunk`]).
    body: *const ChunkBody<'static>,
    len: usize,
    chunk_size: usize,
    chunks: usize,
    /// Next unclaimed chunk index; `>= chunks` once every chunk is claimed.
    next: AtomicUsize,
    /// Chunks whose body has returned or panicked.
    done: AtomicUsize,
    /// Threads other than the publisher that hold a reference right now.
    helpers: AtomicUsize,
    /// First panic of any chunk body, re-raised on the publisher.
    panic: Mutex<Option<PanicPayload>>,
    /// Published from inside a chunk. Decides who may help (waiters take
    /// nested loops only) and how the publisher waits (see [`Published`]).
    nested: bool,
    /// Unparked by the last helper to leave a nested loop.
    publisher: Thread,
}

impl ChunkLoop {
    /// Whether a chunk is left for a helper that takes any loop, or nested
    /// loops only. A loop whose chunks are all claimed is not work, even
    /// while some of them still run.
    fn offers_chunk(&self, nested_only: bool) -> bool {
        // Relaxed: a hint. A stale "yes" costs one `fetch_add` that finds
        // nothing; a "no" is final, `next` only grows.
        (self.nested || !nested_only) && self.next.load(Ordering::Relaxed) < self.chunks
    }

    /// Every chunk has run and every helper has let go of the descriptor.
    /// Only meaningful to the publisher, after it withdrew the loop.
    fn settled(&self) -> bool {
        // `helpers` first, SeqCst: it is the half of the sleep handshake
        // (`Shared::wake`) a top-level publisher relies on, and reading the
        // last helper's decrement is what publishes every helper's chunk
        // results — and its `done` counts — to this thread.
        self.helpers.load(Ordering::SeqCst) == 0 && self.done.load(Ordering::Acquire) >= self.chunks
    }
}

/// A registry entry: a pointer to a [`ChunkLoop`] on its publisher's stack.
struct LoopRef(*const ChunkLoop);

// SAFETY: the pointer is only dereferenced under the protocol spelled out in
// `Shared::for_each_chunk`; every field behind it is `Sync` except the body
// pointer, which points at a `Sync` closure.
unsafe impl Send for LoopRef {}

struct Shared {
    /// Chunked loops with, possibly, an unclaimed chunk, in the order they
    /// were published. Sized up front for one top-level and one nested loop
    /// per executor, so a served round never grows it.
    loops: Mutex<Vec<LoopRef>>,
    /// `loops.len()`, readable without the lock: what an idle thread polls.
    published: AtomicUsize,
    /// Every idle thread — a worker, or the publisher of a top-level loop
    /// waiting for it to settle — parks here.
    wake_up: Condvar,
    /// Guards the sleep/wake handshake.
    sleep_lock: Mutex<()>,
    /// Threads parked on `wake_up`, or committed to parking after one last
    /// look for work. Only changed under `sleep_lock`.
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    /// Telemetry, see [`PoolStats`]: loops ever published, chunks run by a
    /// helper, parks.
    jobs: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
}

impl Shared {
    /// Wakes up to `at_most` parked threads — and makes no system call when
    /// nobody sleeps, the steady state of a busy pool.
    ///
    /// No wake-up is lost. A thread about to park raises `sleepers` (SeqCst)
    /// *before* its last look for work, and every event that creates work
    /// makes it visible (SeqCst, or under the lock the look takes) *before*
    /// it reads `sleepers` here: either the thread sees the work or this
    /// call sees the thread. The notification itself cannot fall between
    /// that look and the wait because both sides hold `sleep_lock`.
    fn wake(&self, at_most: usize) {
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        let _guard = lock(&self.sleep_lock);
        if at_most >= self.sleepers.load(Ordering::SeqCst) {
            self.wake_up.notify_all();
        } else {
            for _ in 0..at_most {
                self.wake_up.notify_one();
            }
        }
    }

    /// What an idle thread does: looks for work [`IDLE_YIELDS`] times,
    /// giving up its time slice in between, then parks until the next
    /// [`wake`](Self::wake) — unless `work_pending`, evaluated once more
    /// when the thread already counts as a sleeper, says there is something
    /// to do. May return spuriously; callers loop.
    fn idle(&self, work_pending: impl Fn() -> bool) {
        for _ in 0..IDLE_YIELDS {
            if work_pending() {
                return;
            }
            std::thread::yield_now();
        }
        let guard = lock(&self.sleep_lock);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if !work_pending() {
            self.parks.fetch_add(1, Ordering::Relaxed);
            drop(
                self.wake_up
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner),
            );
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    fn has_unclaimed_chunk(&self, nested_only: bool) -> bool {
        self.published.load(Ordering::SeqCst) > 0
            && lock(&self.loops).iter().any(|entry| {
                // SAFETY: a registered loop is alive — its publisher removes
                // the entry, under this lock, before its frame ends.
                unsafe { &*entry.0 }.offers_chunk(nested_only)
            })
    }

    /// Claims and runs chunks of `chunk_loop` until none is left or
    /// `at_most` have run; returns how many ran.
    fn run_chunks(&self, chunk_loop: &ChunkLoop, at_most: usize) -> usize {
        // A chunk is this pool's work whoever runs it — publisher, worker
        // or waiter: a loop started inside is published here, as a nested
        // loop ("one pool, always").
        let _in_chunk = Enter::new(self, true);
        let mut ran = 0;
        while ran < at_most {
            // Relaxed: the read-modify-write alone makes a claim unique;
            // what a chunk reads was published by the registry lock, what
            // it writes is published by `done` / `helpers`.
            let index = chunk_loop.next.fetch_add(1, Ordering::Relaxed);
            if index >= chunk_loop.chunks {
                break;
            }
            let start = index * chunk_loop.chunk_size;
            let end = (start + chunk_loop.chunk_size).min(chunk_loop.len);
            // SAFETY: whoever holds `chunk_loop` holds it under the protocol
            // of `for_each_chunk`, which keeps the publisher's frame — and
            // with it the borrow `body` was erased from — alive.
            let body = unsafe { &*chunk_loop.body };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(index, start..end))) {
                lock(&chunk_loop.panic).get_or_insert(payload);
            }
            chunk_loop.done.fetch_add(1, Ordering::Release);
            ran += 1;
        }
        ran
    }

    /// Joins the earliest published loop that still has an unclaimed chunk
    /// and runs chunks of it; `false` when there is no such loop. A worker
    /// takes any loop and stays until its chunks are claimed; a waiter
    /// (`nested_only`) takes nested loops only, one chunk at a time.
    fn help(&self, nested_only: bool) -> bool {
        // A pool nobody publishes on never touches the registry lock.
        if self.published.load(Ordering::SeqCst) == 0 {
            return false;
        }
        let joined = lock(&self.loops).iter().find_map(|entry| {
            // SAFETY: as in `has_unclaimed_chunk` — registered means alive.
            let chunk_loop = unsafe { &*entry.0 };
            chunk_loop.offers_chunk(nested_only).then(|| {
                // Relaxed: raised under the registry lock, which the
                // publisher takes to withdraw the loop before it reads
                // `helpers` for the first time.
                chunk_loop.helpers.fetch_add(1, Ordering::Relaxed);
                entry.0
            })
        });
        let Some(joined) = joined else {
            return false;
        };
        // SAFETY: `helpers` was raised while the loop was still registered,
        // and its publisher does not leave `for_each_chunk` before `helpers`
        // is back to zero (see there).
        let chunk_loop = unsafe { &*joined };
        let ran = self.run_chunks(chunk_loop, if nested_only { 1 } else { usize::MAX });
        self.steals.fetch_add(ran as u64, Ordering::Relaxed);
        // Leaving: what the wake-up needs is copied out first (the handle
        // is a reference count, no allocation) because the publisher's
        // frame may be gone the moment `helpers` reads zero. The decrement
        // publishes this thread's chunk results to `ChunkLoop::settled`.
        let parked_privately = chunk_loop.nested.then(|| chunk_loop.publisher.clone());
        if chunk_loop.helpers.fetch_sub(1, Ordering::SeqCst) == 1 {
            match parked_privately {
                Some(publisher) => publisher.unpark(),
                // Everyone: the publisher of a top-level loop sleeps among
                // the workers, and one wake-up could land on a worker.
                None => self.wake(usize::MAX),
            }
        }
        true
    }

    /// The one implementation of a chunked loop: splits `0..len` into
    /// `chunk_size`-sized chunks and runs `body(chunk_index, range)` for
    /// each on the caller and on whichever threads of this pool are idle.
    fn for_each_chunk(&self, len: usize, chunk_size: usize, body: &ChunkBody<'_>) {
        let chunk_size = chunk_size.max(1);
        let chunks = len.div_ceil(chunk_size);
        if chunks <= 1 {
            if len > 0 {
                body(0, 0..len);
            }
            return;
        }
        // SAFETY (lifetime erasure): the descriptor below is the only place
        // the erased pointer is stored, and other threads reach it only by
        // joining the loop — raising `helpers` under the registry lock
        // while the loop is registered. `Published::drop`, which runs on
        // every way out of this function, first withdraws the registration
        // under that lock and then waits on the two counters `done` (every
        // chunk body has returned) and `helpers` (every thread that joined
        // has let go of the descriptor): once both have settled nobody can
        // reach `body` or the descriptor again, and only then does this
        // frame — and the caller's borrow — end.
        let body = unsafe { std::mem::transmute::<&ChunkBody<'_>, &ChunkBody<'static>>(body) };
        let chunk_loop = ChunkLoop {
            body,
            len,
            chunk_size,
            chunks,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            helpers: AtomicUsize::new(0),
            panic: Mutex::new(None),
            nested: CONTEXT.with(Cell::get).in_chunk,
            publisher: std::thread::current(),
        };
        {
            let mut loops = lock(&self.loops);
            loops.push(LoopRef(&chunk_loop));
            self.published.store(loops.len(), Ordering::SeqCst);
        }
        let published = Published {
            pool: self,
            chunk_loop: &chunk_loop,
        };
        self.jobs.fetch_add(1, Ordering::Relaxed);
        // At most once per loop, and only as many threads as there are
        // chunks for besides the caller's own. One of them may be a waiter
        // that has to leave a top-level loop alone: that costs the loop a
        // helper, never progress.
        self.wake(chunks - 1);
        self.run_chunks(&chunk_loop, usize::MAX);
        drop(published);
        let panic = chunk_loop
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

/// Keeps a published [`ChunkLoop`] alive until nobody else can touch it.
struct Published<'a> {
    pool: &'a Shared,
    chunk_loop: &'a ChunkLoop,
}

impl Drop for Published<'_> {
    fn drop(&mut self) {
        let (pool, chunk_loop) = (self.pool, self.chunk_loop);
        {
            let mut loops = lock(&pool.loops);
            if let Some(at) = loops
                .iter()
                .position(|entry| std::ptr::eq(entry.0, chunk_loop))
            {
                // Not `swap_remove`: registry order is publication order.
                loops.remove(at);
                pool.published.store(loops.len(), Ordering::SeqCst);
            }
        }
        // Nobody new can join now; the helpers still inside finish the
        // chunks they claimed. How to wait for them follows from what the
        // loop is, and the two waits are not interchangeable.
        if chunk_loop.nested {
            // A kernel's loop under a step: the tail is at most one chunk
            // long. Yield, then park privately (`SETTLE_YIELDS`); the last
            // helper unparks this thread *after* lowering `helpers`, so a
            // wake-up cannot be missed, and a stale one only costs a
            // re-check. Sleeping on the pool's condvar instead ("one sleep
            // primitive") makes `sleepers` non-zero all through a busy
            // fleet, so every publish of every session takes `sleep_lock`,
            // notifies, and wakes this thread for a loop it cannot help:
            // `fleet_closed` frames/s −3 % over five alternating pairs
            // (32 yields, then the condvar) and −6 % over six, medians
            // 71.3 → 66.8 (256 yields, then the condvar).
            let mut yields = 0;
            while !chunk_loop.settled() {
                if yields < SETTLE_YIELDS {
                    yields += 1;
                    std::thread::yield_now();
                } else {
                    std::thread::park();
                }
            }
        } else {
            // A round, or a free-standing caller's loop: the tail can be a
            // whole step long, so this thread works meanwhile — one chunk
            // of a nested loop at a time — and otherwise idles like a
            // worker, woken by the next publish or by the last helper.
            while !chunk_loop.settled() {
                if !pool.help(true) {
                    pool.idle(|| chunk_loop.settled() || pool.has_unclaimed_chunk(true));
                }
            }
        }
    }
}

/// What the calling thread is doing for a pool right now.
#[derive(Clone, Copy)]
struct Context {
    /// The pool whose work this thread is executing (null: none).
    pool: *const Shared,
    /// Whether that work is a chunk: a loop published now is nested.
    in_chunk: bool,
}

thread_local! {
    static CONTEXT: Cell<Context> = const {
        Cell::new(Context {
            pool: std::ptr::null(),
            in_chunk: false,
        })
    };
}

/// Marks the calling thread as executing work of a pool until dropped.
struct Enter {
    previous: Context,
}

impl Enter {
    fn new(pool: &Shared, in_chunk: bool) -> Self {
        Self {
            previous: CONTEXT.with(|c| c.replace(Context { pool, in_chunk })),
        }
    }
}

impl Drop for Enter {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.set(self.previous));
    }
}

/// Cumulative scheduling counters for one pool. Cheap relaxed counters,
/// exported by the serving layer as pool-utilization telemetry. A loop of
/// one chunk runs inline on its caller and counts nowhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Chunked loops published on the pool.
    pub jobs: u64,
    /// Chunks run by a thread other than their loop's publisher.
    pub steals: u64,
    /// Times a thread — a worker, or the publisher of a top-level loop
    /// waiting for it to settle — went to sleep on the idle condvar.
    pub parks: u64,
}

/// A fixed-size thread pool that runs chunked loops.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            // Every worker and one outside caller, each with a top-level
            // loop (a round) and a nested one (a kernel) in flight.
            loops: Mutex::new(Vec::with_capacity(2 * (threads + 1))),
            published: AtomicUsize::new(0),
            wake_up: Condvar::new(),
            sleep_lock: Mutex::new(()),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            jobs: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rtgs-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning pool worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Cumulative scheduling counters since the pool was created.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            jobs: self.shared.jobs.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            parks: self.shared.parks.load(Ordering::Relaxed),
        }
    }

    /// Runs `f` on the calling thread as work of this pool: chunked loops a
    /// [`Parallel`](crate::Parallel) backend starts inside it are published
    /// here — as top-level loops, `f` is not a chunk. The scheduler serves
    /// under it.
    pub(crate) fn run_as_job<R>(&self, f: impl FnOnce() -> R) -> R {
        let _context = Enter::new(&self.shared, false);
        f()
    }

    /// Splits `0..len` into `chunk_size`-sized chunks and runs `body`
    /// concurrently as `body(chunk_index, range)`: on the calling thread and
    /// on every thread of this pool that is idle — parked workers (woken at
    /// most once per loop, and only if one is asleep) and, for a loop
    /// started inside a chunk, callers waiting for a loop of their own —
    /// each claiming the next chunk index until none is left. Returns once
    /// every chunk has run.
    ///
    /// The chunk geometry depends only on `len` and `chunk_size` — never on
    /// the worker count or on who claims what — which is what lets callers
    /// build bitwise-deterministic reductions on top (fold chunk results in
    /// index order).
    ///
    /// Allocates nothing. Never blocks on another loop: any number of
    /// threads may publish on one pool at once, a chunk may start a loop of
    /// its own, and a publisher nobody helps runs all of its chunks itself.
    /// While the caller waits for chunks other threads claimed it may run
    /// single chunks of loops that were started inside chunks (see the
    /// module docs).
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any chunk body on the calling thread,
    /// after every other chunk has run.
    pub fn for_each_chunk(
        &self,
        len: usize,
        chunk_size: usize,
        body: &(dyn Fn(usize, Range<usize>) + Sync),
    ) {
        self.shared.for_each_chunk(len, chunk_size, body);
    }

    /// [`for_each_chunk`](Self::for_each_chunk) on the pool whose work the
    /// calling thread is executing right now — it is inside a chunk of one
    /// of that pool's loops, or inside its
    /// [`run_as_job`](Self::run_as_job). Returns `false`, having run
    /// nothing, on a thread that works for no pool.
    pub(crate) fn for_each_chunk_in_job(
        len: usize,
        chunk_size: usize,
        body: &(dyn Fn(usize, Range<usize>) + Sync),
    ) -> bool {
        let pool = CONTEXT.with(Cell::get).pool;
        if pool.is_null() {
            return false;
        }
        // SAFETY: `CONTEXT` names a pool only for the lifetime of an
        // `Enter`, and every `Enter` is created from a `&Shared` that
        // outlives it: the receiver of the `run_chunks` call further up
        // this thread's stack (a worker's `Arc`, or the `ThreadPool`
        // borrowed by the `for_each_chunk` this thread published or waits
        // in), or the `ThreadPool` borrowed by `run_as_job`.
        unsafe { &*pool }.for_each_chunk(len, chunk_size, body);
        true
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake(usize::MAX);
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        if shared.help(false) {
            // Ran what was left of a published loop.
        } else if shared.shutdown.load(Ordering::SeqCst) {
            return;
        } else {
            shared.idle(|| {
                shared.shutdown.load(Ordering::SeqCst) || shared.has_unclaimed_chunk(false)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    #[test]
    fn scope_runs_all_tasks() {
        let pool = ThreadPool::new(4);
        let counter = AtomicU64::new(0);
        pool.for_each_chunk(100, 1, &|_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn tasks_can_borrow_stack_data() {
        let pool = ThreadPool::new(2);
        let mut results = vec![0u64; 64];
        let slots = crate::SharedSlice::new(&mut results);
        pool.for_each_chunk(64, 1, &|i, _| {
            // SAFETY: chunk `i` is the only writer of slot `i`.
            unsafe { slots.write(i, (i as u64) * 2) };
        });
        assert!(results.iter().enumerate().all(|(i, &v)| v == i as u64 * 2));
    }

    /// Runs one loop and checks the whole contract of its geometry: every
    /// chunk index exactly once, each with the range `Serial` would give
    /// it, hence every element exactly once.
    fn assert_exact_cover(pool: &ThreadPool, len: usize, chunk: usize) {
        let chunks = len.div_ceil(chunk);
        let chunk_hits: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each_chunk(len, chunk, &|index, range| {
            assert_eq!(range.start, index * chunk);
            assert_eq!(range.end, ((index + 1) * chunk).min(len));
            chunk_hits[index].fetch_add(1, Ordering::Relaxed);
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        let once = |counts: &[AtomicUsize]| counts.iter().all(|c| c.load(Ordering::Relaxed) == 1);
        assert!(
            once(&chunk_hits) && once(&hits),
            "len {len}, chunk {chunk}, {} workers",
            pool.threads()
        );
    }

    #[test]
    fn for_each_chunk_covers_range_exactly_once() {
        const CHUNK: usize = 64;
        for threads in 1..=8 {
            let pool = ThreadPool::new(threads);
            for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 1001] {
                assert_exact_cover(&pool, len, CHUNK);
            }
            // A zero chunk size is clamped to one element per chunk.
            assert_exact_cover(&pool, 5, 1);
            let visited = AtomicUsize::new(0);
            pool.for_each_chunk(5, 0, &|index, range| {
                assert_eq!(range, index..index + 1);
                visited.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(visited.into_inner(), 5);
        }
    }

    #[test]
    fn concurrent_publishers_share_one_pool_without_blocking() {
        for publishers in [2, 4] {
            for threads in [1, 3] {
                let pool = ThreadPool::new(threads);
                let start = Barrier::new(publishers);
                std::thread::scope(|s| {
                    for _ in 0..publishers {
                        s.spawn(|| {
                            // All loops are in flight at the same time.
                            start.wait();
                            for _ in 0..200 {
                                assert_exact_cover(&pool, 257, 16);
                            }
                        });
                    }
                });
            }
        }
    }

    #[test]
    fn a_publisher_nobody_helps_runs_every_chunk_itself() {
        // The one worker is held inside a chunk of the first loop until the
        // second loop, published meanwhile by another thread, is through:
        // a second publisher never waits for the pool. The first publisher,
        // waiting for its own loop, leaves the second alone too: both are
        // top-level.
        let pool = ThreadPool::new(1);
        let worker_inside = Barrier::new(2);
        let release_worker = Barrier::new(2);
        std::thread::scope(|s| {
            let first = s.spawn(|| {
                let publisher = std::thread::current().id();
                // Two chunks, each meeting the other at a barrier first: one
                // is the publisher's, so the other one is the worker's.
                let both = Barrier::new(2);
                pool.for_each_chunk(2, 1, &|_, _| {
                    both.wait();
                    if std::thread::current().id() != publisher {
                        worker_inside.wait();
                        release_worker.wait();
                    }
                });
            });
            worker_inside.wait();
            let me = std::thread::current().id();
            pool.for_each_chunk(64, 1, &|_, _| assert_eq!(std::thread::current().id(), me));
            release_worker.wait();
            first.join().unwrap();
        });
    }

    /// A round of `steps` chunks, each running an inner loop of its own on
    /// the same pool; `inner` gets the pool and the step's index.
    fn round_of(pool: &ThreadPool, steps: usize, inner: &(dyn Fn(&ThreadPool, usize) + Sync)) {
        pool.for_each_chunk(steps, 1, &|step, _| inner(pool, step));
    }

    #[test]
    fn a_loop_inside_a_scope_job_does_not_deadlock() {
        // On a single worker each step's loop is helped by whoever is idle
        // — the round's caller, or nobody.
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            for _ in 0..200 {
                let total = AtomicU64::new(0);
                round_of(&pool, 4, &|pool, _| {
                    pool.for_each_chunk(16, 4, &|_, range| {
                        total.fetch_add(range.len() as u64, Ordering::Relaxed);
                    });
                    assert_exact_cover(pool, 33, 8);
                });
                assert_eq!(total.into_inner(), 64, "{threads} workers");
            }
        }
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // Three levels deep: the publisher of a nested loop waits without
        // helping, so a single worker — the deadlock case if waiting were
        // blocking on someone else — has to get through on its own chunks.
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            for _ in 0..200 {
                let total = AtomicU64::new(0);
                round_of(&pool, 4, &|pool, _| {
                    round_of(pool, 4, &|pool, _| {
                        pool.for_each_chunk(4, 1, &|_, _| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    });
                });
                assert_eq!(total.into_inner(), 64, "{threads} workers");
            }
        }
    }

    #[test]
    fn a_scope_waiter_runs_chunks_of_a_step_still_in_flight() {
        // The round-barrier shape: a round of two steps that meet at a
        // barrier, so the caller and the pool's only worker run one each.
        // The caller's returns at once; the worker's publishes a loop of
        // two chunks which meet at a barrier too, so the second chunk can
        // only be run by the caller, which is waiting for its round.
        let pool = ThreadPool::new(1);
        let caller = std::thread::current().id();
        let ran_on: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let both_steps = Barrier::new(2);
        round_of(&pool, 2, &|pool, _| {
            both_steps.wait();
            if std::thread::current().id() != caller {
                let both_chunks = Barrier::new(2);
                pool.for_each_chunk(2, 1, &|_, _| {
                    both_chunks.wait();
                    ran_on.lock().unwrap().insert(std::thread::current().id());
                });
            }
        });
        let ran_on = ran_on.into_inner().unwrap();
        assert_eq!(ran_on.len(), 2, "both executors ran a chunk");
        assert!(ran_on.contains(&caller));
    }

    #[test]
    fn a_nested_waiter_never_starts_a_step() {
        // The converse: a thread inside a step, waiting for that step's own
        // loop, must not take another step of the round — it would run
        // inside the first one's stack frame and timing window. A third
        // thread helps the way a round waiter does, one nested chunk at a
        // time, so that steps do wait for a chunk somebody else claimed
        // while the round (eight steps, one worker) has steps left over.
        thread_local! {
            static INSIDE_A_STEP: Cell<bool> = const { Cell::new(false) };
        }
        let pool = ThreadPool::new(1);
        let started_inside_another = AtomicUsize::new(0);
        let chunks = AtomicUsize::new(0);
        let rounds_over = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !rounds_over.load(Ordering::SeqCst) {
                    if !pool.shared.help(true) {
                        std::thread::yield_now();
                    }
                }
            });
            for _ in 0..100 {
                round_of(&pool, 8, &|pool, _| {
                    if INSIDE_A_STEP.with(|inside| inside.replace(true)) {
                        started_inside_another.fetch_add(1, Ordering::Relaxed);
                    }
                    pool.for_each_chunk(6, 1, &|_, _| {
                        chunks.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                    });
                    INSIDE_A_STEP.with(|inside| inside.set(false));
                });
            }
            rounds_over.store(true, Ordering::SeqCst);
        });
        assert_eq!(chunks.into_inner(), 100 * 8 * 6);
        assert_eq!(started_inside_another.into_inner(), 0);
        assert!(lock(&pool.shared.loops).is_empty());
    }

    #[test]
    fn ten_thousand_tiny_loops_back_to_back() {
        let pool = ThreadPool::new(2);
        let sum = AtomicU64::new(0);
        for _ in 0..10_000 {
            pool.for_each_chunk(3, 1, &|index, _| {
                sum.fetch_add(index as u64 + 1, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.into_inner(), 10_000 * 6);
    }

    /// A two-chunk loop whose chunks meet at a barrier, so the publisher
    /// and a helper run one each; the one on the chosen side panics.
    fn panic_in_one_chunk(pool: &ThreadPool, on_publisher: bool) {
        let publisher = std::thread::current().id();
        let both = Barrier::new(2);
        let survived = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_chunk(2, 1, &|_, _| {
                both.wait();
                if (std::thread::current().id() == publisher) == on_publisher {
                    panic!("chunk failure");
                }
                survived.fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = result.expect_err("the chunk's panic is re-raised on the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk failure"));
        assert_eq!(survived.into_inner(), 1, "the other chunk ran");
    }

    #[test]
    fn a_chunk_panic_is_reraised_after_the_loop_settled() {
        let pool = ThreadPool::new(1);
        panic_in_one_chunk(&pool, true);
        panic_in_one_chunk(&pool, false);
        // Every chunk of a longer loop still runs, wherever the panic hit.
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_chunk(100, 1, &|index, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                assert_ne!(index, 13);
            });
        }));
        assert!(result.is_err());
        assert_eq!(ran.into_inner(), 100);
        // The pool is as usable as before.
        assert_exact_cover(&pool, 1001, 64);
        assert!(lock(&pool.shared.loops).is_empty());
    }

    #[test]
    fn panics_propagate_after_settling() {
        // A step that panics — below its own loop, on whichever thread took
        // it — is re-raised on the round's caller after every other step,
        // and every chunk of every step's loop, ran.
        let pool = ThreadPool::new(2);
        let completed = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            round_of(&pool, 8, &|pool, step| {
                pool.for_each_chunk(4, 1, &|_, _| {
                    completed.fetch_add(1, Ordering::Relaxed);
                });
                assert_ne!(step, 3, "step failure");
            });
        }));
        assert!(result.is_err());
        assert_eq!(completed.load(Ordering::Relaxed), 8 * 4);
        assert_exact_cover(&pool, 1001, 64);
        assert!(lock(&pool.shared.loops).is_empty());
    }

    /// Idle workers park after their bounded look for work: returns when
    /// all of them are waiting on the condvar (a sleeper holds `sleep_lock`
    /// until its wait begins).
    fn wait_until_all_parked(pool: &ThreadPool) {
        while pool.shared.sleepers.load(Ordering::SeqCst) < pool.threads() {
            std::thread::yield_now();
        }
        drop(lock(&pool.shared.sleep_lock));
    }

    #[test]
    fn drop_joins_parked_workers() {
        let pool = ThreadPool::new(3);
        assert_exact_cover(&pool, 1001, 64);
        wait_until_all_parked(&pool);
        drop(pool);
    }

    #[test]
    fn idle_threads_park_and_a_busy_pool_is_not_woken() {
        let pool = ThreadPool::new(2);
        wait_until_all_parked(&pool);
        let parked = pool.stats().parks;
        assert_eq!(parked, 2, "each worker parked once and stayed parked");
        // One-chunk loops run inline: nothing is published, nobody woken.
        for _ in 0..100 {
            pool.for_each_chunk(10, 10, &|_, _| {});
        }
        assert_eq!(pool.stats().parks, parked);
        assert_eq!(pool.stats().jobs, 0, "a one-chunk loop publishes nothing");
    }

    #[test]
    fn stats_count_jobs_and_observe_steals() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.stats().jobs, 0);
        assert_eq!(pool.stats().steals, 0);
        let publisher = std::thread::current().id();
        let helped = AtomicU64::new(0);
        pool.for_each_chunk(256, 1, &|_, _| {
            if std::thread::current().id() != publisher {
                helped.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Who ran what is scheduling-dependent; that it is counted is not.
        let stats = pool.stats();
        assert_eq!(stats.jobs, 1, "one loop published");
        assert_eq!(stats.steals, helped.into_inner());
    }

    #[test]
    fn pool_survives_many_scopes() {
        let pool = ThreadPool::new(2);
        for round in 0..50 {
            let sum = AtomicU64::new(0);
            pool.for_each_chunk(8, 1, &|i, _| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 28, "round {round}");
        }
        assert_eq!(pool.stats().jobs, 50);
    }
}
