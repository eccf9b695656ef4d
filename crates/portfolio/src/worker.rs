//! [`ShadowWorker`]: a [`ShadowSet`] driven from a thread of its own.
//!
//! The shadows matter to a reply only through the meta-policy's
//! evaluations and status reads, which come once per several hundred
//! operations; the request path should not wait for all of them at
//! every operation. So the set lives behind a bounded, in-order queue:
//! [`push`](ShadowWorker::push) appends an accepted operation and
//! returns, one worker thread applies the queue in batches, and every
//! read goes through a **barrier** ([`read`](ShadowWorker::read)) that
//! first waits until the worker has applied every operation pushed
//! before it. Reads therefore see exactly the state a synchronously fed
//! set would hold at the same point of the stream.
//!
//! * *Wake rarely, never spin.* The worker parks on a condition
//!   variable once the queue is empty. A push wakes it only when
//!   [`WAKE_AT`] operations are pending; a push that finds
//!   [`QUEUE_CAPACITY`] pending wakes it and waits for room. Once
//!   awake, the worker takes batch after batch until the queue is
//!   empty, so it runs alongside the pushing thread instead of at
//!   barriers.
//! * *Barriers.* A barrier waits for a batch the worker is applying and
//!   applies the rest of the queue — fewer than [`WAKE_AT`] operations
//!   while the worker keeps up — on its own thread, which costs less
//!   than waking the worker and waiting to be woken in turn.
//! * *Lazy start.* The thread starts with the first push. Until then
//!   reads answer from the idle set directly, and a state that is built
//!   and dropped without operations never starts one.
//! * *Shadow-major batches.* [`ShadowSet::apply`] runs the whole batch
//!   through one shadow before the next.
//! * *Failure.* A shadow that refuses an accepted operation panics,
//!   on the worker or in a barrier. The panic is caught, the queue
//!   records its message, and every later push or barrier fails at once
//!   with it instead of waiting.
//! * *No steady-state allocation.* The pending queue and the worker's
//!   batch are two buffers of [`QUEUE_CAPACITY`] operations, swapped
//!   under the lock and cleared for reuse.
//!
//! Dropping the worker closes the queue, discards what is still pending
//! (nothing can read it any more) and joins the thread.

use crate::shadow::ShadowSet;
use dvbp_core::LiveOp;
use dvbp_dimvec::DimVec;
use dvbp_sim::Time;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Pending operations at which a push wakes a parked worker.
pub const WAKE_AT: usize = 64;

/// Pending operations at which a push waits for the worker to take a
/// batch.
pub const QUEUE_CAPACITY: usize = 1024;

/// The queue between the pushing thread and the worker.
struct Queue {
    /// Operations pushed and not yet taken, in stream order.
    pending: Vec<LiveOp>,
    /// Operations the worker has taken and not finished applying.
    in_flight: usize,
    /// The worker waits on [`Shared::work`]; whoever wakes it clears
    /// this.
    parked: bool,
    /// Barriers and full-queue pushes waiting on [`Shared::done`].
    waiters: usize,
    /// Set by drop: the worker exits.
    closed: bool,
    /// The worker's panic message, once it died.
    failure: Option<String>,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Wakes the worker: a batch is ready, the queue is full, or close.
    work: Condvar,
    /// Wakes waiters: room in the queue, a batch applied, or a failure.
    done: Condvar,
    /// Mirrors `queue.failure.is_some()` for the lock-free check.
    down: AtomicBool,
    shadows: Mutex<ShadowSet>,
}

impl Shared {
    /// The queue lock. No code panics while holding it, so a poisoned
    /// lock still guards consistent data.
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The set. A panic in [`ShadowSet::apply`] poisons this lock and
    /// leaves the set half-updated, so callers read it only while no
    /// failure is recorded.
    fn shadows(&self) -> MutexGuard<'_, ShadowSet> {
        self.shadows.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies `batch` on the calling thread. A shadow that refuses an
    /// operation panics; the panic is caught and recorded, under the
    /// worker's `name`, as the failure every later push or barrier
    /// returns.
    fn apply(&self, batch: &[LiveOp], name: &str) -> Result<(), WorkerDown> {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| self.shadows().apply(batch)));
        outcome.map_err(|payload| {
            let cause = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            self.fail(format!("{name} panicked: {cause}"))
        })
    }

    /// Records the worker's failure and wakes every waiter.
    fn fail(&self, msg: String) -> WorkerDown {
        let mut q = self.queue();
        q.failure = Some(msg.clone());
        self.down.store(true, Ordering::Release);
        drop(q);
        self.done.notify_all();
        WorkerDown(msg)
    }

    /// Blocks on `done` until `until` holds or the worker died.
    fn wait_done<'a>(
        &self,
        mut q: MutexGuard<'a, Queue>,
        until: impl Fn(&Queue) -> bool,
    ) -> MutexGuard<'a, Queue> {
        q.waiters += 1;
        if q.parked {
            q.parked = false;
            self.work.notify_one();
        }
        while !until(&q) && q.failure.is_none() {
            q = self.done.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
        q.waiters -= 1;
        q
    }
}

/// The worker stopped: the panic message of the shadow that refused an
/// operation, or the reason its thread could not start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct WorkerDown(pub String);

/// A [`ShadowSet`] applied on a worker thread; see the module docs.
pub(crate) struct ShadowWorker {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
    /// Arrivals pushed so far: the next operation's dense item index.
    arrivals: usize,
    name: String,
}

impl ShadowWorker {
    /// Wraps an idle set; no thread starts until the first push.
    pub fn new(shadows: ShadowSet) -> Self {
        ShadowWorker {
            arrivals: shadows.items_seen(),
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue {
                    pending: Vec::new(),
                    in_flight: 0,
                    parked: false,
                    waiters: 0,
                    closed: false,
                    failure: None,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
                down: AtomicBool::new(false),
                shadows: Mutex::new(shadows),
            }),
            thread: None,
            name: "dvbp-shadows".to_string(),
        }
    }

    /// Names the thread (`dvbp-shadows-<label>`). Takes effect only
    /// before the first push starts it.
    pub fn label(&mut self, label: usize) {
        self.name = format!("dvbp-shadows-{label}");
    }

    /// Queues an accepted arrival.
    ///
    /// # Errors
    ///
    /// [`WorkerDown`] once the worker has died.
    pub fn arrive(&mut self, size: &DimVec, time: Time) -> Result<(), WorkerDown> {
        let item = self.arrivals;
        self.push(LiveOp::Arrive {
            item,
            size: size.clone(),
            time,
        })?;
        self.arrivals += 1;
        Ok(())
    }

    /// Queues an accepted departure.
    ///
    /// # Errors
    ///
    /// [`WorkerDown`] once the worker has died.
    pub fn depart(&mut self, item: usize, time: Time) -> Result<(), WorkerDown> {
        self.push(LiveOp::Depart { item, time })
    }

    fn push(&mut self, op: LiveOp) -> Result<(), WorkerDown> {
        if self.thread.is_none() {
            self.start()?;
        }
        let shared = &*self.shared;
        let mut q = shared.queue();
        if q.pending.len() >= QUEUE_CAPACITY {
            q = shared.wait_done(q, |q| q.pending.len() < QUEUE_CAPACITY);
        }
        if let Some(msg) = &q.failure {
            return Err(WorkerDown(msg.clone()));
        }
        q.pending.push(op);
        if q.parked && q.pending.len() >= WAKE_AT {
            q.parked = false;
            shared.work.notify_one();
        }
        Ok(())
    }

    fn start(&mut self) -> Result<(), WorkerDown> {
        {
            let mut q = self.shared.queue();
            if let Some(msg) = &q.failure {
                return Err(WorkerDown(msg.clone()));
            }
            q.pending.reserve_exact(QUEUE_CAPACITY);
        }
        let shared = Arc::clone(&self.shared);
        let name = self.name.clone();
        match std::thread::Builder::new()
            .name(self.name.clone())
            .spawn(move || run(&shared, &name))
        {
            Ok(handle) => {
                self.thread = Some(handle);
                Ok(())
            }
            Err(e) => Err(self
                .shared
                .fail(format!("{} could not start: {e}", self.name))),
        }
    }

    /// The barrier: once every operation pushed so far has been
    /// applied, runs `f` on the set. It waits for a batch the worker is
    /// applying, which must come first, and applies the operations the
    /// worker has not taken itself, on the calling thread, rather than
    /// wake the worker and wait for it.
    ///
    /// # Errors
    ///
    /// [`WorkerDown`] once the worker has died, without waiting.
    pub fn read<R>(&self, f: impl FnOnce(&ShadowSet) -> R) -> Result<R, WorkerDown> {
        let shared = &*self.shared;
        let mut q = shared.queue();
        if q.in_flight > 0 && q.failure.is_none() {
            q = shared.wait_done(q, |q| q.in_flight == 0);
        }
        if let Some(msg) = &q.failure {
            return Err(WorkerDown(msg.clone()));
        }
        // The worker is idle, and nothing is pushed while a barrier
        // runs: the rest of the queue is this thread's to apply.
        let mut rest = std::mem::take(&mut q.pending);
        q.in_flight = rest.len();
        drop(q);
        let applied = shared.apply(&rest, &self.name);
        rest.clear();
        let mut q = shared.queue();
        q.pending = rest;
        q.in_flight = 0;
        drop(q);
        applied?;
        Ok(f(&shared.shadows()))
    }

    /// Whether the worker thread has started.
    #[cfg(test)]
    pub fn started(&self) -> bool {
        self.thread.is_some()
    }

    /// The worker's failure, if it died; does not wait.
    pub fn failure(&self) -> Option<WorkerDown> {
        if !self.shared.down.load(Ordering::Acquire) {
            return None;
        }
        self.shared.queue().failure.clone().map(WorkerDown)
    }
}

impl Drop for ShadowWorker {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.shared.queue().closed = true;
            self.shared.work.notify_one();
            // A worker that panicked has already recorded why.
            let _ = thread.join();
        }
    }
}

/// The worker thread: applies batches until the queue closes or a
/// shadow refuses an operation.
fn run(shared: &Shared, name: &str) {
    let mut batch: Vec<LiveOp> = Vec::with_capacity(QUEUE_CAPACITY);
    loop {
        {
            let mut q = shared.queue();
            if q.pending.is_empty() {
                q.parked = true;
                while q.parked && !q.closed {
                    q = shared.work.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
            }
            if q.closed {
                return;
            }
            std::mem::swap(&mut q.pending, &mut batch);
            q.in_flight = batch.len();
            if q.waiters > 0 {
                // A push waiting for room may go on.
                shared.done.notify_all();
            }
        }
        let applied = shared.apply(&batch, name);
        batch.clear();
        let mut q = shared.queue();
        q.in_flight = 0;
        if q.waiters > 0 {
            shared.done.notify_all();
        }
        if applied.is_err() {
            return;
        }
    }
}
