//! The rank engine: one block/wake protocol, two carriers for a task.
//!
//! Every rank is a *task* with a slab entry ([`TaskSlot`]) indexed by task
//! id (== the MPI rank) and a five-state machine; the only way a task ever
//! waits is [`Engine::block_current`], and the only way it resumes is
//! [`Engine::wake`]. What differs between the two [`SchedulerKind`]s is
//! merely what *carries* a task's stack:
//!
//! * **Fibers** (`EventDriven`, after the dytor runtime): every task has a
//!   *home worker*; a wake pushes the task onto its home worker's run
//!   queue and only that worker ever resumes it. Stacks come from one
//!   anonymous mapping, and workers are `thread::scope` threads that park
//!   on a condvar when their queue drains. A wake signals that condvar
//!   only when the home worker is parked on it — a worker that is awake
//!   (the waker itself, often) finds the task on its next pop, so the
//!   common wake costs no syscall. Blocking switches stacks.
//! * **OS threads** (`ThreadPerRank`): every task's body runs directly on
//!   its own scoped thread. Blocking waits on the task's condvar, a wake
//!   notifies it. No stack pool, no assembly, no `unsafe` — so this
//!   carrier runs on every target and under ThreadSanitizer, and is the
//!   reference the cross-engine tests compare the fibers against.
//!
//! Home pinning is the fiber carrier's memory-safety linchpin: a task
//! mid-way through switching *out* (state already `Ready` again after a
//! racing wake, but registers not yet parked) can only be resumed by the
//! worker it is switching out *on*, which by construction pops the queue
//! only after the switch completes. It also keeps worker-thread-locals
//! (the linalg pack scratch) coherent for any given rank.
//!
//! ## Quiescence is exact — on both carriers
//!
//! `active` counts tasks that are runnable (`Ready`/`Running`/
//! `Notified`). Every wake originates from a running task — senders,
//! registry completions, and poison broadcasts all execute inside some
//! rank's body — and a wake counts its target runnable *before* the
//! target can observe it, so when a blocking task decrements `active` to
//! zero there is provably no wake in flight: the whole machine is
//! deadlocked *now*. [`Engine::block_current`] reports that as
//! [`WakeReason::Quiescent`] instead of parking forever, which is what
//! lets every run, checked or not, abort with its wait-for report at that
//! instant — no grace timer, no hang. When the last runnable task
//! *finishes* while blocked peers remain, `Engine::finish` wakes them
//! all: each finds its condition still unmet and blocks again, and the
//! last one to block sees the same exact quiescence — so a stuck run has
//! one signal however its last runnable task stopped. The argument never
//! mentions what carries a task, so it holds for preemptively scheduled
//! OS threads exactly as for fibers.

use super::fiber::{self, Context};
use super::SchedulerKind;
use parking_lot::{Condvar, Mutex};
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Why `Engine::block_current` (the crate-internal yield point every
/// blocking wait funnels through) returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WakeReason {
    /// A peer woke this task (message posted, collective completed,
    /// poison broadcast). Re-check the condition and block again if it
    /// still does not hold.
    Woken,
    /// No other task is runnable and none can become runnable: the task
    /// did *not* yield, and the caller owns reporting the deadlock.
    Quiescent,
}

/// Value written at the low end of every fiber stack; checked on each
/// block and at completion as a (best-effort) overflow tripwire — fiber
/// stacks have no OS guard page.
const CANARY: u64 = 0x6e65_6572_6c61_6721; // "greenla!" minus a vowel

enum TaskState {
    /// Runnable but not executing: queued on the home worker (fibers), or
    /// not yet started / just woken and about to leave its condvar
    /// (OS threads).
    Ready,
    /// Executing.
    Running,
    /// Running, and a wake arrived meanwhile; the next block consumes the
    /// notification instead of yielding (no lost wakeups).
    Notified,
    /// Parked, waiting for a wake (fibers: registers live in `ctx`).
    Blocked,
    /// Finished; never scheduled again.
    Done,
}

/// One task's slab entry: the scheduling state both carriers share, the
/// condvar an OS-thread task parks on, and the fiber carrier's two
/// execution contexts (the task's own, and the home worker's while the
/// task runs).
struct TaskSlot {
    id: usize,
    state: Mutex<TaskState>,
    /// OS-thread carrier: where the task's thread waits while `Blocked`.
    parked: Condvar,
    // Everything below is the fiber carrier's and stays at its initial
    // value under OS threads.
    /// The task's parked context (valid while `Ready`/`Blocked`).
    ctx: UnsafeCell<Context>,
    /// The home worker's context while the task runs (valid while
    /// `Running`/`Notified`).
    ret: UnsafeCell<Context>,
    body: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    engine: Cell<*const Engine>,
    canary: Cell<*mut u64>,
}

// SAFETY: `ctx`/`ret` are only touched by the home worker (resume/yield
// are strictly alternating on one thread thanks to home pinning); `body`
// and `state` are mutex-guarded; `engine`/`canary` are written once
// before workers start.
unsafe impl Send for TaskSlot {}
// SAFETY: shared access is sound for the same reasons as `Send` above —
// home pinning serialises the unsynchronised cells, mutexes guard the
// rest.
unsafe impl Sync for TaskSlot {}

/// Per-fiber stack size. Rank closures in this codebase are shallow
/// (solver frames plus the runtime), so 512 KiB is generous; the pool is
/// mapped without reserving swap and pages are only committed on touch,
/// so 10k ranks cost virtual address space, not resident memory.
const FIBER_STACK_BYTES: usize = 512 * 1024;

/// All fiber stacks in one anonymous mapping: 10k ranks × 512 KiB is
/// ~5 GiB of *virtual* address space (untouched pages cost nothing
/// resident, and one mapping sidesteps `vm.max_map_count`). The pool is
/// mapped directly rather than allocated: glibc serves a multi-MiB request
/// with a mapping of its own, and freeing that raises its dynamic mmap and
/// trim thresholds to the pool's size, so every later matrix of the
/// process would come from heap arenas that keep freed pages resident.
struct StackPool {
    base: *mut u8,
    len: usize,
}

impl StackPool {
    fn new(ntasks: usize) -> Self {
        let len = ntasks
            .max(1)
            .checked_mul(FIBER_STACK_BYTES)
            .expect("fiber stack pool size overflows usize");
        StackPool {
            base: fiber::map_stacks(len),
            len,
        }
    }

    fn top(&self, i: usize) -> *mut u8 {
        self.base.wrapping_add((i + 1) * FIBER_STACK_BYTES)
    }

    fn bottom(&self, i: usize) -> *mut u64 {
        self.base.wrapping_add(i * FIBER_STACK_BYTES).cast()
    }
}

impl Drop for StackPool {
    fn drop(&mut self) {
        // SAFETY: `base`/`len` are this pool's own mapping, and nothing
        // runs on it any more: the engine that owns the pool is dropped
        // only after `run` returned, and `run` joins every worker first.
        unsafe { fiber::unmap_stacks(self.base, self.len) }
    }
}

/// One fiber worker's run queue and the condvar it sleeps on.
struct WorkerQueue {
    q: Mutex<RunQueue>,
    cv: Condvar,
}

/// What a worker's mutex guards: its queued task ids, and whether the
/// worker is asleep on `cv` — set just before it waits, cleared when the
/// wait returns, both under the lock, so a waker that reads `parked` under
/// the same lock knows whether anyone needs the signal.
#[derive(Default)]
struct RunQueue {
    tasks: VecDeque<usize>,
    parked: bool,
}

/// The one worker that ever resumes fiber `tid` (see the module docs).
fn home(workers: &[WorkerQueue], tid: usize) -> &WorkerQueue {
    &workers[tid % workers.len()]
}

/// What executes a task's body (see the module docs). The only code that
/// branches on it lives in this file.
enum Carrier {
    /// One scoped OS thread per task.
    Threads,
    /// Fibers multiplexed over a worker pool.
    Fibers {
        workers: Vec<WorkerQueue>,
        pool: StackPool,
    },
}

/// Fiber worker-pool size when the machine doesn't pin one: the host's
/// parallelism, clamped to a small pool (the workers mostly shuffle
/// fibers, and past a handful they just contend on the queues). Never
/// fewer than two, so a machine nobody sized still wakes ranks across
/// workers; the harness pins one itself where its model predicts the
/// ranks mostly wait on each other (`Machine::with_sched_workers`).
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8)
}

/// The rank scheduler for one machine run. Runtime internals (mailboxes,
/// the registry) wake tasks through it; rank code never touches it.
pub(crate) struct Engine {
    tasks: Vec<TaskSlot>,
    carrier: Carrier,
    /// Tasks in `Ready`/`Running`/`Notified` (see module docs).
    active: AtomicUsize,
    done: AtomicUsize,
}

// SAFETY: raw pointers inside are derived from storage the engine owns
// and that stays put while `run` borrows it; all cross-thread access is
// synchronised as described on `TaskSlot`.
unsafe impl Send for Engine {}
// SAFETY: as for `Send` — the stack pool is only carved into disjoint
// per-task regions, and every `TaskSlot` synchronises its own state.
unsafe impl Sync for Engine {}

thread_local! {
    /// (engine, task id) of the task executing on this thread: set for
    /// good on a task's own OS thread, and around every resume on a fiber
    /// worker.
    static CURRENT: Cell<Option<(*const Engine, usize)>> = const { Cell::new(None) };
}

/// Task id of the rank body running on the current thread (`None`
/// outside [`Engine::run`]).
pub(crate) fn current_task() -> Option<usize> {
    CURRENT.with(|c| c.get().map(|(_, t)| t))
}

impl Engine {
    /// Build an engine carrying `ntasks` tasks the way `kind` names.
    /// `workers` pins the fiber worker-pool size (`None` derives it from
    /// the host); the OS-thread carrier ignores it.
    pub(crate) fn new(ntasks: usize, kind: SchedulerKind, workers: Option<usize>) -> Self {
        let carrier = match kind {
            SchedulerKind::ThreadPerRank => Carrier::Threads,
            SchedulerKind::EventDriven => {
                assert!(
                    fiber::supported(),
                    "the event-driven scheduler has no fiber switch on this target; \
                     use SchedulerKind::ThreadPerRank"
                );
                let workers = workers.unwrap_or_else(default_workers);
                assert!(workers >= 1, "need at least one worker");
                Carrier::Fibers {
                    workers: (0..workers.min(ntasks.max(1)))
                        .map(|_| WorkerQueue {
                            q: Mutex::new(RunQueue::default()),
                            cv: Condvar::new(),
                        })
                        .collect(),
                    pool: StackPool::new(ntasks),
                }
            }
        };
        let tasks = (0..ntasks)
            .map(|id| TaskSlot {
                id,
                state: Mutex::new(TaskState::Ready),
                parked: Condvar::new(),
                ctx: UnsafeCell::new(Context::empty()),
                ret: UnsafeCell::new(Context::empty()),
                body: Mutex::new(None),
                engine: Cell::new(std::ptr::null()),
                canary: Cell::new(std::ptr::null_mut()),
            })
            .collect();
        Engine {
            tasks,
            carrier,
            active: AtomicUsize::new(ntasks),
            done: AtomicUsize::new(0),
        }
    }

    pub(crate) fn ntasks(&self) -> usize {
        self.tasks.len()
    }

    /// Has task `tid` finished its body?
    pub(crate) fn finished(&self, tid: usize) -> bool {
        matches!(*self.tasks[tid].state.lock(), TaskState::Done)
    }

    /// Run every task to completion. Blocks the calling thread until all
    /// tasks are `Done`.
    pub(crate) fn run<'scope>(&self, bodies: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        assert_eq!(bodies.len(), self.tasks.len(), "one body per task");
        match &self.carrier {
            Carrier::Threads => std::thread::scope(|scope| {
                for (tid, body) in bodies.into_iter().enumerate() {
                    scope.spawn(move || {
                        CURRENT.with(|c| c.set(Some((self as *const Engine, tid))));
                        let slot = &self.tasks[tid];
                        *slot.state.lock() = TaskState::Running;
                        // Backstop only, as in `fiber_entry`: keeps the
                        // completion accounting below on the panic path.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
                        self.finish(slot);
                    });
                }
            }),
            Carrier::Fibers { workers, pool } => self.run_fibers(workers, pool, bodies),
        }
        assert_eq!(
            self.done.load(Ordering::SeqCst),
            self.tasks.len(),
            "engine stopped with unfinished tasks"
        );
    }

    fn run_fibers<'scope>(
        &self,
        workers: &[WorkerQueue],
        pool: &StackPool,
        bodies: Vec<Box<dyn FnOnce() + Send + 'scope>>,
    ) {
        for (i, body) in bodies.into_iter().enumerate() {
            // SAFETY: lifetime erasure to 'static, sound for the same
            // reason scoped threads are: `run` does not return until every
            // task is `Done`, so no body (or anything it borrows) outlives
            // this call.
            let body: Box<dyn FnOnce() + Send> = unsafe { std::mem::transmute(body) };
            let slot = &self.tasks[i];
            *slot.body.lock() = Some(body);
            slot.engine.set(self);
            let canary = pool.bottom(i);
            // SAFETY: slot `i` of the pool is exclusively this task's.
            unsafe {
                canary.write(CANARY);
                *slot.ctx.get() =
                    fiber::prepare(pool.top(i), fiber_entry, slot as *const TaskSlot as *mut u8);
            }
            slot.canary.set(canary);
        }
        // Seed each task on its home worker in ascending id order.
        for tid in 0..self.tasks.len() {
            home(workers, tid).q.lock().tasks.push_back(tid);
        }
        std::thread::scope(|scope| {
            for w in workers {
                scope.spawn(move || self.worker_loop(w));
            }
        });
    }

    fn worker_loop(&self, w: &WorkerQueue) {
        let n = self.tasks.len();
        loop {
            let tid = {
                let mut q = w.q.lock();
                loop {
                    if let Some(t) = q.tasks.pop_front() {
                        break Some(t);
                    }
                    if self.done.load(Ordering::SeqCst) == n {
                        break None;
                    }
                    q.parked = true;
                    w.cv.wait(&mut q);
                    q.parked = false;
                }
            };
            match tid {
                Some(t) => self.resume(t),
                None => return,
            }
        }
    }

    /// Switch the home worker into task `tid` until it yields or
    /// finishes.
    fn resume(&self, tid: usize) {
        let slot = &self.tasks[tid];
        {
            let mut s = slot.state.lock();
            match *s {
                TaskState::Ready => *s = TaskState::Running,
                // Stale queue entry (task already resumed and progressed);
                // skip.
                _ => return,
            }
        }
        CURRENT.with(|c| c.set(Some((self as *const Engine, tid))));
        // SAFETY: `ctx` holds a prepared or parked context; home pinning
        // guarantees no other worker touches this slot concurrently.
        unsafe { fiber::switch(slot.ret.get(), slot.ctx.get()) };
        CURRENT.with(|c| c.set(None));
    }

    /// Park the calling task until a wake arrives. Must be called from a
    /// task of this engine. Returns [`WakeReason::Quiescent`] — *without*
    /// yielding — when no wake can ever arrive; the caller then owns
    /// diagnosing and aborting the run.
    pub(crate) fn block_current(&self) -> WakeReason {
        #[cfg(debug_assertions)]
        super::assert_no_guard_held("Engine::block_current");
        let (eng, tid) = CURRENT
            .with(|c| c.get())
            .expect("block_current called outside an engine task");
        debug_assert!(std::ptr::eq(eng, self), "task blocked on a foreign engine");
        let slot = &self.tasks[tid];
        self.check_canary(slot);
        {
            let mut s = slot.state.lock();
            match *s {
                // A wake raced in while we were running: consume it
                // instead of yielding.
                TaskState::Notified => {
                    *s = TaskState::Running;
                    return WakeReason::Woken;
                }
                TaskState::Running => *s = TaskState::Blocked,
                _ => unreachable!("blocking task not in Running state"),
            }
        }
        if self.active.fetch_sub(1, Ordering::SeqCst) == 1
            && self.done.load(Ordering::SeqCst) < self.tasks.len()
        {
            // We were the only runnable task, so no wake targeting us can
            // be in flight (wakes originate from runnable tasks) and none
            // ever will: true quiescence. Un-block and report instead of
            // parking forever.
            self.active.fetch_add(1, Ordering::SeqCst);
            *slot.state.lock() = TaskState::Running;
            return WakeReason::Quiescent;
        }
        match &self.carrier {
            Carrier::Threads => {
                let mut s = slot.state.lock();
                while !matches!(*s, TaskState::Ready) {
                    slot.parked.wait(&mut s);
                }
                *s = TaskState::Running;
            }
            // SAFETY: home pinning — the worker under us is the only
            // thread that can resume this slot, and it only pops its queue
            // after this switch lands back in `worker_loop`.
            Carrier::Fibers { .. } => unsafe { fiber::switch(slot.ctx.get(), slot.ret.get()) },
        }
        WakeReason::Woken
    }

    /// Make task `tid` runnable if it is blocked. Running tasks are
    /// flagged `Notified` so the wake cannot be lost; `Ready`/`Done`
    /// tasks are left alone.
    pub(crate) fn wake(&self, tid: usize) {
        let slot = &self.tasks[tid];
        let mut s = slot.state.lock();
        match *s {
            TaskState::Blocked => {
                // Count the task runnable *before* it can observe the
                // wake (a parked thread re-reads `state` the moment the
                // lock drops; a fiber once it is queued), so a racing
                // blocker can never see a spurious zero.
                self.active.fetch_add(1, Ordering::SeqCst);
                *s = TaskState::Ready;
                drop(s);
                match &self.carrier {
                    Carrier::Threads => slot.parked.notify_one(),
                    Carrier::Fibers { workers, .. } => {
                        let w = home(workers, tid);
                        let parked = {
                            let mut q = w.q.lock();
                            q.tasks.push_back(tid);
                            q.parked
                        };
                        // An awake home worker pops the task before it
                        // can park again, so only a sleeping one needs
                        // the signal.
                        if parked {
                            w.cv.notify_one();
                        }
                    }
                }
            }
            TaskState::Running => *s = TaskState::Notified,
            TaskState::Ready | TaskState::Notified | TaskState::Done => {}
        }
    }

    /// Wake every blocked task (poison broadcast, last runnable task
    /// finished).
    pub(crate) fn wake_all(&self) {
        for tid in 0..self.tasks.len() {
            self.wake(tid);
        }
    }

    fn check_canary(&self, slot: &TaskSlot) {
        let canary = slot.canary.get();
        if !canary.is_null() {
            // SAFETY: points at the low word of this task's pool slot.
            let v = unsafe { canary.read() };
            assert!(
                v == CANARY,
                "fiber stack overflow on task {} (canary clobbered); run on \
                 OS threads (`--scheduler thread`, SchedulerKind::ThreadPerRank)",
                slot.id
            );
        }
    }

    /// Completion accounting, running on the finished task's own stack.
    fn finish(&self, slot: &TaskSlot) {
        self.check_canary(slot);
        *slot.state.lock() = TaskState::Done;
        let n = self.tasks.len();
        let all_done = self.done.fetch_add(1, Ordering::SeqCst) + 1 == n;
        if self.active.fetch_sub(1, Ordering::SeqCst) == 1 && self.done.load(Ordering::SeqCst) < n {
            // Last runnable task gone while blocked peers remain: nobody
            // is left to meet their conditions. Wake them all; each blocks
            // again, and the last to do so sees quiescence.
            self.wake_all();
        }
        if let (true, Carrier::Fibers { workers, .. }) = (all_done, &self.carrier) {
            for w in workers {
                let _q = w.q.lock();
                w.cv.notify_all();
            }
        }
    }
}

/// First (and only) frame of every task fiber.
extern "C" fn fiber_entry(arg: *mut u8) -> ! {
    // SAFETY: `arg` is the `TaskSlot` this fiber was prepared with; the
    // engine outlives all fibers (workers join before `run` returns).
    let slot = unsafe { &*(arg as *const TaskSlot) };
    // SAFETY: `engine` was set to `run`'s own `&self` before any fiber
    // started, and `run` holds that borrow until every task is Done.
    let engine = unsafe { &*slot.engine.get() };
    let body = slot
        .body
        .lock()
        .take()
        .expect("fiber entered without a body");
    // Backstop only: rank bodies wrap user code in their own
    // catch_unwind and record a panic with the run's registry. Letting a panic
    // cross the fiber boot frame (which has no unwind info) would abort
    // the process.
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    engine.finish(slot);
    // SAFETY: final switch out; the slot is `Done` and never resumed.
    unsafe { fiber::switch(slot.ctx.get(), slot.ret.get()) };
    unreachable!("finished fiber was resumed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Every carrier this target has: the protocol tests below run once
    /// per carrier, with the fiber pool at `workers`.
    fn carriers(workers: usize) -> Vec<(SchedulerKind, Option<usize>)> {
        let mut all = vec![(SchedulerKind::ThreadPerRank, None)];
        if fiber::supported() {
            all.push((SchedulerKind::EventDriven, Some(workers)));
        }
        all
    }

    fn run_engine(
        n: usize,
        (kind, workers): (SchedulerKind, Option<usize>),
        f: impl Fn(usize, &Engine) + Sync,
    ) {
        let engine = Engine::new(n, kind, workers);
        let (f, engine) = (&f, &engine);
        engine.run(
            (0..n)
                .map(|i| Box::new(move || f(i, engine)) as Box<dyn FnOnce() + Send + '_>)
                .collect(),
        );
    }

    #[test]
    fn all_tasks_run_to_completion() {
        for carrier in carriers(3) {
            let hits = (0..100).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
            run_engine(100, carrier, |i, _| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
        }
    }

    #[test]
    fn block_and_wake_ping_pong() {
        // Task 0 blocks until task 1 wakes it; flag proves ordering.
        for carrier in carriers(2) {
            let flag = AtomicBool::new(false);
            run_engine(2, carrier, |i, engine| {
                if i == 0 {
                    while !flag.load(Ordering::SeqCst) {
                        assert_eq!(engine.block_current(), WakeReason::Woken);
                    }
                } else {
                    flag.store(true, Ordering::SeqCst);
                    engine.wake(0);
                }
            });
            assert!(flag.load(Ordering::SeqCst));
        }
    }

    #[test]
    fn notified_state_absorbs_racing_wakes() {
        // A wake delivered while the target runs must be consumed by the
        // target's *next* block, not lost. Task 0 is provably Running
        // when the wake lands (it signals `started` and spins), so the
        // wake takes the Notified path; were the notification lost, task
        // 0 would park with nobody left to wake it and see Quiescent.
        for carrier in carriers(2) {
            let started = AtomicBool::new(false);
            let flag = AtomicBool::new(false);
            run_engine(2, carrier, |i, engine| {
                if i == 0 {
                    started.store(true, Ordering::SeqCst);
                    while !flag.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    assert_eq!(engine.block_current(), WakeReason::Woken);
                } else {
                    while !started.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    engine.wake(0);
                    flag.store(true, Ordering::SeqCst);
                }
            });
        }
    }

    #[test]
    fn sole_blocker_observes_quiescence() {
        // 4 tasks all block with nobody left to wake them; exactly the
        // last one to park must see Quiescent, and its wake_all releases
        // the rest.
        for carrier in carriers(2) {
            let quiescent = AtomicUsize::new(0);
            run_engine(4, carrier, |_, engine| match engine.block_current() {
                WakeReason::Quiescent => {
                    quiescent.fetch_add(1, Ordering::SeqCst);
                    engine.wake_all();
                }
                WakeReason::Woken => {}
            });
            assert_eq!(quiescent.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn a_blocked_peer_sees_quiescence_once_the_last_runnable_task_finishes() {
        // Task 0 parks until task 1 wakes it, then holds off finishing
        // until task 1 has parked too (`active` back down to one — on a
        // single fiber worker that is already true when task 0 resumes).
        // Task 0 finishing is then the last runnable task going away with
        // a blocked peer left: the engine wakes task 1, and when task 1
        // blocks again nothing can ever wake it, which it must be told.
        for carrier in carriers(1) {
            let flag = AtomicBool::new(false);
            let saw_quiescence = AtomicBool::new(false);
            run_engine(2, carrier, |i, engine| {
                if i == 0 {
                    while !flag.load(Ordering::SeqCst) {
                        assert_eq!(engine.block_current(), WakeReason::Woken);
                    }
                    while engine.active.load(Ordering::SeqCst) != 1 {
                        std::thread::yield_now();
                    }
                } else {
                    flag.store(true, Ordering::SeqCst);
                    engine.wake(0);
                    assert_eq!(engine.block_current(), WakeReason::Woken);
                    assert_eq!(
                        engine.done.load(Ordering::SeqCst),
                        1,
                        "woken before task 0 finished"
                    );
                    assert_eq!(engine.block_current(), WakeReason::Quiescent);
                    saw_quiescence.store(true, Ordering::SeqCst);
                }
            });
            assert!(saw_quiescence.load(Ordering::SeqCst));
        }
    }

    /// The OS-thread carrier once, and the fiber carrier on 1, 2 and 3
    /// workers: every way the wake protocol can split tasks across homes.
    fn stress_carriers() -> Vec<(SchedulerKind, Option<usize>)> {
        let mut all = carriers(1);
        if fiber::supported() {
            all.extend([2, 3].map(|w| (SchedulerKind::EventDriven, Some(w))));
        }
        all
    }

    /// Run `f` on a thread of its own and fail if it has not returned
    /// within a minute. A lost wake leaves a task queued on a sleeping
    /// worker; `active` still counts it runnable, so no peer ever sees
    /// `Quiescent` and the run would hang instead of failing.
    fn terminates(what: String, f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(()) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("{what}: still running after 60 s (lost wakeup?)")
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => panic!("{what}: panicked"),
        }
    }

    #[test]
    fn cross_worker_ping_pong_loses_no_wake() {
        // Tasks 0 and 1 (different homes on 2 and 3 workers) hand a turn
        // back and forth; each wakes the other and blocks until its turn
        // comes round again.
        const ROUNDS: usize = 10_000;
        for carrier in stress_carriers() {
            terminates(format!("ping-pong on {carrier:?}"), move || {
                let turn = AtomicUsize::new(0);
                run_engine(2, carrier, |i, engine| loop {
                    let t = turn.load(Ordering::SeqCst);
                    if t >= 2 * ROUNDS {
                        break;
                    }
                    if t % 2 == i {
                        turn.store(t + 1, Ordering::SeqCst);
                        engine.wake(1 - i);
                    } else {
                        assert_eq!(engine.block_current(), WakeReason::Woken);
                    }
                });
                assert_eq!(turn.load(Ordering::SeqCst), 2 * ROUNDS);
            });
        }
    }

    #[test]
    fn fan_in_wake_storm_loses_no_wake() {
        // Senders 1..=N each post ROUNDS times to task 0 and wake it,
        // waiting for task 0's acknowledgement between posts; task 0
        // acknowledges every post it finds and wakes its sender. Task 0's
        // home sees a storm of concurrent wakes from every other worker.
        const SENDERS: usize = 63;
        const ROUNDS: usize = 200;
        for carrier in stress_carriers() {
            terminates(format!("fan-in on {carrier:?}"), move || {
                let sent: Vec<AtomicUsize> = (0..=SENDERS).map(|_| AtomicUsize::new(0)).collect();
                let acked: Vec<AtomicUsize> = (0..=SENDERS).map(|_| AtomicUsize::new(0)).collect();
                run_engine(SENDERS + 1, carrier, |i, engine| {
                    if i == 0 {
                        let mut received = 0;
                        while received < SENDERS * ROUNDS {
                            let mut progress = false;
                            for s in 1..=SENDERS {
                                let posted = sent[s].load(Ordering::SeqCst);
                                if posted > acked[s].load(Ordering::SeqCst) {
                                    acked[s].store(posted, Ordering::SeqCst);
                                    received += 1;
                                    progress = true;
                                    engine.wake(s);
                                }
                            }
                            if !progress {
                                assert_eq!(engine.block_current(), WakeReason::Woken);
                            }
                        }
                    } else {
                        for r in 0..ROUNDS {
                            while acked[i].load(Ordering::SeqCst) < r {
                                assert_eq!(engine.block_current(), WakeReason::Woken);
                            }
                            sent[i].store(r + 1, Ordering::SeqCst);
                            engine.wake(0);
                        }
                    }
                });
                assert!(acked[1..]
                    .iter()
                    .all(|a| a.load(Ordering::SeqCst) == ROUNDS));
            });
        }
    }

    #[test]
    fn stack_pool_slots_are_disjoint_and_writable_end_to_end() {
        if !fiber::supported() {
            return;
        }
        // Each fiber fills its own slot with a pattern of its own, from
        // just under its live frames down to the word above its canary.
        // Once all have run, every canary and every pattern must be
        // intact: the slots do not overlap, and each is writable over its
        // whole length.
        const TASKS: usize = 5;
        // Left unwritten under the filling frame, for the calls the loop
        // itself makes in an unoptimised build.
        const FRAME_ROOM: usize = 16 * 1024;
        let engine = Engine::new(TASKS, SchedulerKind::EventDriven, Some(2));
        let Carrier::Fibers { pool, .. } = &engine.carrier else {
            unreachable!("fibers were asked for");
        };
        let slots: Vec<(usize, usize)> = (0..TASKS)
            .map(|i| (pool.bottom(i) as usize, pool.top(i) as usize))
            .collect();
        let word = |tid: usize, addr: usize| ((tid as u64 + 1) << 56) ^ addr as u64;
        let filled_to: Vec<AtomicUsize> = (0..TASKS).map(|_| AtomicUsize::new(0)).collect();
        let (slots, filled_to) = (&slots, &filled_to);
        engine.run(
            (0..TASKS)
                .map(|tid| {
                    Box::new(move || {
                        let (bottom, top) = slots[tid];
                        let probe = 0u8;
                        let frame = std::hint::black_box(&probe) as *const u8 as usize;
                        assert!(
                            bottom < frame && frame < top,
                            "task {tid} runs off its slot"
                        );
                        let end = (frame - FRAME_ROOM) & !7;
                        for addr in (bottom + 8..end).step_by(8) {
                            // SAFETY: below this fiber's live frames and
                            // above its canary, inside its own slot.
                            unsafe { (addr as *mut u64).write_volatile(word(tid, addr)) };
                        }
                        filled_to[tid].store(end, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect(),
        );
        for (tid, &(bottom, _)) in slots.iter().enumerate() {
            // SAFETY: the pool stays mapped while the engine lives, and no
            // fiber runs any more.
            let canary = unsafe { (bottom as *const u64).read() };
            assert_eq!(canary, CANARY, "task {tid}'s canary");
            let end = filled_to[tid].load(Ordering::SeqCst);
            assert!(end > bottom + 8, "task {tid} filled nothing");
            for addr in (bottom + 8..end).step_by(8) {
                // SAFETY: as above.
                let v = unsafe { (addr as *const u64).read_volatile() };
                assert_eq!(
                    v,
                    word(tid, addr),
                    "task {tid}'s slot overwritten at {addr:#x}"
                );
            }
        }
    }

    #[test]
    fn ten_thousand_fibers_spin_up_and_finish() {
        if !fiber::supported() {
            return;
        }
        let count = AtomicUsize::new(0);
        run_engine(10_000, (SchedulerKind::EventDriven, Some(4)), |_, _| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 10_000);
    }
}
