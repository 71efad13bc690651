//! A std-only work-stealing thread pool with two kinds of traffic, one
//! mechanism each.
//!
//! **Scoped tasks** ([`ThreadPool::scope`] / [`Scope::spawn`]) carry coarse,
//! heterogeneous work — one session step per task. Each worker owns a local
//! deque; `spawn` from a worker pushes to that worker's deque (LIFO pop for
//! cache locality), `spawn` from any other thread pushes to a shared
//! injector queue (FIFO). Idle workers drain their own deque, then the
//! injector, then steal from siblings (FIFO end, the classic Chase–Lev
//! discipline approximated with mutexed deques — a task is a whole frame,
//! so queue contention is not the bottleneck). A task costs one `Box`.
//!
//! **Chunked loops** ([`ThreadPool::for_each_chunk`]) carry the fine,
//! homogeneous work inside a step — five and more loops of 15–800 µs per
//! tracking iteration — and allocate nothing: the caller *publishes* one
//! descriptor that lives on its own stack, and the caller plus every idle
//! thread of the pool claim chunk indices from it with a `fetch_add` until
//! none is left. Claiming decides *who* runs a chunk, never its index, its
//! range or the order results are folded in, which is what keeps parallel
//! == serial a bitwise law.
//!
//! Idle means idle: a thread with neither a queued task nor a published
//! loop with an unclaimed chunk looks again a bounded number of times,
//! yielding its time slice in between ([`IDLE_YIELDS`]), and then parks on
//! the pool's one condvar; a loop whose chunks are all claimed is not work.
//! Nobody spins, and nobody pays a system call to wake a pool in which
//! nobody sleeps.
//! Threads waiting for a scope to drain *help* instead of blocking — with
//! their own scope's tasks, and with the chunks of any loop published on
//! the pool — so nested use is safe: a session step running on a worker may
//! fan out chunks on the same pool without deadlocking, even on a
//! single-worker pool, because a publisher never depends on a helper.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

type JobFn = Box<dyn FnOnce() + Send + 'static>;
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
/// round reads `queued` and the loop registry first, and an unclaimed chunk
/// ends the wait at once.
const IDLE_YIELDS: u32 = 256;

/// Times a publisher yields its time slice while the last helpers finish
/// the chunks they claimed, before it parks.
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

/// A queued task, tagged with the identity of the scope that spawned it so
/// scope waiters can help with their *own* work without executing
/// unrelated tasks (which would distort callers' timing and nest foreign
/// work inside their stack frames).
struct Job {
    scope: usize,
    run: JobFn,
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
    /// Unparked by the last helper to leave.
    publisher: Thread,
}

impl ChunkLoop {
    /// A loop whose chunks are all claimed is not work, even while some of
    /// them still run.
    fn has_unclaimed_chunk(&self) -> bool {
        // Relaxed: a hint. A stale "yes" costs one `fetch_add` that finds
        // nothing; a "no" is final, `next` only grows.
        self.next.load(Ordering::Relaxed) < self.chunks
    }

    /// Claims and runs chunks until none is left or `at_most` have run.
    fn run_chunks(&self, at_most: usize) {
        for _ in 0..at_most {
            // Relaxed: the read-modify-write alone makes a claim unique;
            // what a chunk reads was published by the registry lock, what
            // it writes is published by `done` / `helpers`.
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.chunks {
                return;
            }
            let start = index * self.chunk_size;
            let end = (start + self.chunk_size).min(self.len);
            // SAFETY: whoever holds `&self` holds it under the protocol of
            // `Shared::for_each_chunk`, which keeps the publisher's frame —
            // and with it the borrow `body` was erased from — alive.
            let body = unsafe { &*self.body };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(index, start..end))) {
                lock(&self.panic).get_or_insert(payload);
            }
            self.done.fetch_add(1, Ordering::Release);
        }
    }
}

/// A registry entry: a pointer to a [`ChunkLoop`] on its publisher's stack.
struct LoopRef(*const ChunkLoop);

// SAFETY: the pointer is only dereferenced under the protocol spelled out in
// `Shared::for_each_chunk`; every field behind it is `Sync` except the body
// pointer, which points at a `Sync` closure.
unsafe impl Send for LoopRef {}

struct Shared {
    /// FIFO queue for jobs submitted from outside the pool.
    injector: Mutex<VecDeque<Job>>,
    /// Per-worker deques (own end: back; steal end: front).
    locals: Vec<Mutex<VecDeque<Job>>>,
    /// Chunked loops with, possibly, an unclaimed chunk. Its capacity grows
    /// to the largest number of simultaneous publishers ever seen and stays.
    loops: Mutex<Vec<LoopRef>>,
    /// `loops.len()`, readable without the lock: what an idle thread polls.
    published: AtomicUsize,
    /// Every idle thread — worker or scope waiter — parks here.
    wake_up: Condvar,
    /// Guards the sleep/wake handshake.
    sleep_lock: Mutex<()>,
    /// Threads parked on `wake_up`, or committed to parking after one last
    /// look for work. Only changed under `sleep_lock`.
    sleepers: AtomicUsize,
    /// Jobs pushed but not yet popped.
    queued: AtomicUsize,
    shutdown: AtomicBool,
    /// Telemetry: jobs ever pushed, cross-deque steals, parks.
    jobs: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
}

/// Removes the most appropriate job from one deque: the back (LIFO) for an
/// owner, the front (FIFO) for the injector/steals — optionally restricted
/// to jobs of one scope.
fn take_from(deque: &mut VecDeque<Job>, from_back: bool, only_scope: Option<usize>) -> Option<Job> {
    match only_scope {
        None => {
            if from_back {
                deque.pop_back()
            } else {
                deque.pop_front()
            }
        }
        Some(tag) => {
            let position = if from_back {
                deque.iter().rposition(|job| job.scope == tag)
            } else {
                deque.iter().position(|job| job.scope == tag)
            };
            position.and_then(|i| deque.remove(i))
        }
    }
}

impl Shared {
    /// Pops one job: own deque first (LIFO), then the injector, then steals
    /// round-robin from siblings (FIFO). With `only_scope`, jobs of other
    /// scopes are left in place (used by helping scope waiters).
    fn pop_job(&self, own: Option<usize>, only_scope: Option<usize>) -> Option<Job> {
        if let Some(i) = own {
            if let Some(job) = take_from(&mut lock(&self.locals[i]), true, only_scope) {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        if let Some(job) = take_from(&mut lock(&self.injector), false, only_scope) {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(job);
        }
        let n = self.locals.len();
        let start = own.unwrap_or(0);
        for k in 1..=n {
            let victim = (start + k) % n;
            if Some(victim) == own {
                continue;
            }
            if let Some(job) = take_from(&mut lock(&self.locals[victim]), false, only_scope) {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    /// Whether a job of scope `tag` sits in any deque.
    fn has_job_of(&self, tag: usize) -> bool {
        std::iter::once(&self.injector)
            .chain(&self.locals)
            .any(|deque| lock(deque).iter().any(|job| job.scope == tag))
    }

    fn push_job(&self, job: Job, own: Option<usize>) {
        match own {
            Some(i) => lock(&self.locals[i]).push_back(job),
            None => lock(&self.injector).push_back(job),
        }
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.jobs.fetch_add(1, Ordering::Relaxed);
        // Everyone: a waiter of another scope may not take this job, so one
        // wake-up could land on a thread that has to ignore it.
        self.wake(usize::MAX);
    }

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

    fn has_unclaimed_chunk(&self) -> bool {
        self.published.load(Ordering::SeqCst) > 0
            && lock(&self.loops).iter().any(|entry| {
                // SAFETY: a registered loop is alive — its publisher removes
                // the entry, under this lock, before its frame ends.
                unsafe { &*entry.0 }.has_unclaimed_chunk()
            })
    }

    /// Joins one published loop that still has an unclaimed chunk and runs
    /// up to `at_most` of its chunks; `false` when there is no such loop.
    fn help(&self, at_most: usize) -> bool {
        // A pool that only steps sessions never touches the registry lock.
        if self.published.load(Ordering::SeqCst) == 0 {
            return false;
        }
        let joined = lock(&self.loops).iter().find_map(|entry| {
            // SAFETY: as in `has_unclaimed_chunk` — registered means alive.
            let chunk_loop = unsafe { &*entry.0 };
            chunk_loop.has_unclaimed_chunk().then(|| {
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
        chunk_loop.run_chunks(at_most);
        // Leaving: the handle is cloned first (a reference count, no
        // allocation) because the publisher's frame may be gone the moment
        // `helpers` reads zero. Release publishes this thread's chunk
        // results to the publisher's Acquire load.
        let publisher = chunk_loop.publisher.clone();
        if chunk_loop.helpers.fetch_sub(1, Ordering::Release) == 1 {
            publisher.unpark();
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
        // At most once per loop, and only as many threads as there are
        // chunks for besides the caller's own.
        self.wake(chunks - 1);
        chunk_loop.run_chunks(usize::MAX);
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
        let chunk_loop = self.chunk_loop;
        {
            let mut loops = lock(&self.pool.loops);
            if let Some(at) = loops
                .iter()
                .position(|entry| std::ptr::eq(entry.0, chunk_loop))
            {
                loops.swap_remove(at);
                self.pool.published.store(loops.len(), Ordering::SeqCst);
            }
        }
        // Nobody new can join now. Yield, then park, while the helpers
        // still inside finish the chunks they claimed (`SETTLE_YIELDS`).
        // The last of them unparks this thread *after* lowering `helpers`,
        // so a wake-up cannot be missed; a stale one only costs a re-check.
        let mut yields = 0;
        while chunk_loop.done.load(Ordering::Acquire) < chunk_loop.chunks
            || chunk_loop.helpers.load(Ordering::Acquire) > 0
        {
            if yields < SETTLE_YIELDS {
                yields += 1;
                std::thread::yield_now();
            } else {
                std::thread::park();
            }
        }
    }
}

/// What the calling thread is doing for a pool right now.
#[derive(Clone, Copy)]
struct Context {
    /// The pool whose work this thread is executing (null: none).
    pool: *const Shared,
    /// Its index among that pool's workers, if it is one.
    worker: Option<usize>,
}

thread_local! {
    static CONTEXT: Cell<Context> = const {
        Cell::new(Context {
            pool: std::ptr::null(),
            worker: None,
        })
    };
}

/// Marks the calling thread as executing work of a pool until dropped.
struct Enter {
    previous: Context,
}

impl Enter {
    fn new(pool: &Shared, worker: Option<usize>) -> Self {
        Self {
            previous: CONTEXT.with(|c| c.replace(Context { pool, worker })),
        }
    }
}

impl Drop for Enter {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.set(self.previous));
    }
}

/// Cumulative scheduling counters for one pool: jobs ever pushed, jobs taken
/// from another worker's deque (steals), and idle condvar parks. Cheap
/// relaxed counters, exported by the serving layer as pool-utilization
/// telemetry. Chunked loops push no job: `jobs` counts scoped tasks only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs pushed onto the pool (local deques + injector).
    pub jobs: u64,
    /// Jobs popped from a sibling worker's deque.
    pub steals: u64,
    /// Times a thread — a worker, or a caller waiting in
    /// [`ThreadPool::scope`] — went to sleep on the idle condvar.
    pub parks: u64,
}

/// A fixed-size work-stealing thread pool.
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
            injector: Mutex::new(VecDeque::new()),
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            // Every worker and one outside caller publishing at once.
            loops: Mutex::new(Vec::with_capacity(threads + 1)),
            published: AtomicUsize::new(0),
            wake_up: Condvar::new(),
            sleep_lock: Mutex::new(()),
            sleepers: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
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
                    .spawn(move || worker_loop(&shared, index))
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

    /// Worker index of the calling thread *within this pool*, if any.
    fn current_worker(&self) -> Option<usize> {
        let context = CONTEXT.with(Cell::get);
        if std::ptr::eq(context.pool, Arc::as_ptr(&self.shared)) {
            context.worker
        } else {
            None
        }
    }

    fn push(&self, job: Job) {
        self.shared.push_job(job, self.current_worker());
    }

    /// Runs `f` with a [`Scope`] on which borrowing tasks can be spawned;
    /// returns once every spawned task has completed.
    ///
    /// The calling thread helps while it waits, so scopes may be nested
    /// (tasks may themselves open scopes on the same pool) without
    /// deadlock. It runs tasks of *this* scope only — never another scope's,
    /// which would put, say, another session's step inside this thread's
    /// stack frame and timing window — and, when none is queued, chunks of
    /// loops published on the pool, one at a time: a round barrier lends its
    /// idle time to the steps still running, and is never more than one
    /// chunk away from noticing that its own scope has drained.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any spawned task (after all tasks have
    /// settled), or the closure's own panic.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let state = Arc::new(ScopeState {
            remaining: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _env: std::marker::PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));

        let shared = &*self.shared;
        let own = self.current_worker();
        let tag = Arc::as_ptr(&state) as usize;
        let pending = || state.remaining.load(Ordering::SeqCst) > 0;
        // Everything this thread runs while it drains is this pool's work.
        let draining = Enter::new(shared, own);
        while pending() {
            if let Some(job) = shared.pop_job(own, Some(tag)) {
                (job.run)();
            } else if !shared.help(1) {
                shared
                    .idle(|| !pending() || shared.has_job_of(tag) || shared.has_unclaimed_chunk());
            }
        }
        drop(draining);

        if let Some(payload) = lock(&state.panic).take() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Runs `f` on the calling thread as work of this pool: chunked loops a
    /// [`Parallel`](crate::Parallel) backend starts inside it are published
    /// here, as they are inside a spawned task. The scheduler serves under
    /// it.
    pub(crate) fn run_as_job<R>(&self, f: impl FnOnce() -> R) -> R {
        let _context = Enter::new(&self.shared, self.current_worker());
        f()
    }

    /// Splits `0..len` into `chunk_size`-sized chunks and runs `body`
    /// concurrently as `body(chunk_index, range)`: on the calling thread and
    /// on every thread of this pool that is idle — parked workers (woken at
    /// most once per loop, and only if one is asleep) and callers waiting
    /// in [`scope`](Self::scope) — each claiming the next chunk index until
    /// none is left. Returns once every chunk has run.
    ///
    /// The chunk geometry depends only on `len` and `chunk_size` — never on
    /// the worker count or on who claims what — which is what lets callers
    /// build bitwise-deterministic reductions on top (fold chunk results in
    /// index order).
    ///
    /// Allocates nothing. Never blocks on another loop: any number of
    /// threads may publish on one pool at once, and a publisher nobody
    /// helps runs all of its chunks itself.
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
    /// calling thread is executing right now — it is one of its workers, or
    /// it is helping inside that pool's [`scope`](Self::scope). Returns
    /// `false`, having run nothing, on a thread that works for no pool.
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
        // outlives it: `worker_loop`'s argument, or the `ThreadPool`
        // borrowed by the `scope` / `run_as_job` call further up this
        // thread's stack.
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

fn worker_loop(shared: &Shared, index: usize) {
    let _context = Enter::new(shared, Some(index));
    loop {
        if let Some(job) = shared.pop_job(Some(index), None) {
            (job.run)();
        } else if shared.help(usize::MAX) {
            // Ran what was left of a published loop.
        } else if shared.shutdown.load(Ordering::SeqCst) {
            return;
        } else {
            shared.idle(|| {
                shared.shutdown.load(Ordering::SeqCst)
                    || shared.queued.load(Ordering::SeqCst) > 0
                    || shared.has_unclaimed_chunk()
            });
        }
    }
}

struct ScopeState {
    remaining: AtomicUsize,
    panic: Mutex<Option<PanicPayload>>,
}

/// Spawn handle passed to [`ThreadPool::scope`] closures. Tasks may borrow
/// from the environment (`'env`).
pub struct Scope<'pool, 'env> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Spawns a task; the scope will not exit until it completes.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.remaining.fetch_add(1, Ordering::SeqCst);
        let tag = Arc::as_ptr(&self.state) as usize;
        let state = Arc::clone(&self.state);
        // Owned, not borrowed: the scope's caller may return — and drop the
        // pool — the moment `remaining` reads zero.
        let shared = Arc::clone(&self.pool.shared);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            if let Err(payload) = result {
                lock(&state.panic).get_or_insert(payload);
            }
            if state.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                // The waiter may be parked among the pool's sleepers.
                shared.wake(usize::MAX);
            }
        });
        // SAFETY: `scope` does not return (normally or by unwinding) until
        // `remaining` reaches zero, i.e. until this job has run to
        // completion, so every `'env` borrow the job captures outlives the
        // job. This is the same lifetime-erasure argument scoped-thread
        // libraries rely on.
        let run: JobFn =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, JobFn>(job) };
        self.pool.push(Job { scope: tag, run });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;

    #[test]
    fn scope_runs_all_tasks() {
        let pool = ThreadPool::new(4);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn tasks_can_borrow_stack_data() {
        let pool = ThreadPool::new(2);
        let mut results = vec![0u64; 64];
        pool.scope(|s| {
            for (i, slot) in results.iter_mut().enumerate() {
                s.spawn(move || *slot = (i as u64) * 2);
            }
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
        // a second publisher never waits for the pool.
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

    #[test]
    fn a_loop_inside_a_scope_job_does_not_deadlock() {
        // A single worker: each job's loop is helped by whoever is idle —
        // the scope's caller, or nobody.
        let pool = ThreadPool::new(1);
        let total = AtomicU64::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                outer.spawn(|| {
                    pool.for_each_chunk(16, 4, &|_, range| {
                        total.fetch_add(range.len() as u64, Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn a_scope_waiter_runs_chunks_of_a_step_still_in_flight() {
        // The round-barrier shape: the pool's only worker is inside a job
        // that publishes a loop of two chunks which meet at a barrier, so
        // the second chunk can only be run by the caller waiting in `scope`.
        let pool = ThreadPool::new(1);
        let caller = std::thread::current().id();
        let ran_on: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let job_started = Barrier::new(2);
        pool.scope(|scope| {
            scope.spawn(|| {
                job_started.wait();
                let both = Barrier::new(2);
                pool.for_each_chunk(2, 1, &|_, _| {
                    both.wait();
                    ran_on.lock().unwrap().insert(std::thread::current().id());
                });
            });
            // Leave the closure — and start draining — only once the worker
            // has taken the job, so this thread cannot pop it itself.
            job_started.wait();
        });
        let ran_on = ran_on.into_inner().unwrap();
        assert_eq!(ran_on.len(), 2, "both executors ran a chunk");
        assert!(ran_on.contains(&caller));
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
        assert_eq!(pool.stats().jobs, 0, "chunked loops push no job");
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // A single worker forces the outer task's inner scope to be drained
        // by helping — the deadlock case if waiting were blocking.
        let pool = ThreadPool::new(1);
        let total = AtomicU64::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                outer.spawn(|| {
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn panics_propagate_after_settling() {
        let pool = ThreadPool::new(2);
        let completed = Arc::new(AtomicU64::new(0));
        let completed2 = Arc::clone(&completed);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task failure"));
                s.spawn(move || {
                    completed2.fetch_add(1, Ordering::Relaxed);
                });
            });
        }));
        assert!(result.is_err());
        assert_eq!(completed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stats_count_jobs_and_observe_steals() {
        let pool = ThreadPool::new(4);
        let start = pool.stats();
        assert_eq!(start.jobs, 0);
        assert_eq!(start.steals, 0);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..256 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.jobs, 256);
        // Steals and parks are scheduling-dependent; just require sanity.
        assert!(stats.steals <= stats.jobs);
    }

    #[test]
    fn pool_survives_many_scopes() {
        let pool = ThreadPool::new(2);
        for round in 0..50 {
            let sum = AtomicU64::new(0);
            pool.scope(|s| {
                for i in 0..8 {
                    let sum = &sum;
                    s.spawn(move || {
                        sum.fetch_add(i, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(sum.load(Ordering::Relaxed), 28, "round {round}");
        }
    }
}
