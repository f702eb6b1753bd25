//! Per-rank mailboxes: one mutex-guarded `VecDeque` per rank, owned by
//! the run rather than by the rank.
//!
//! A post pushes the envelope and *wakes* the destination task; a receive
//! pops, and when the queue is empty the receiver blocks in the engine
//! ([`crate::sched::Engine::block_current`]) — waiting is the scheduler's
//! job, never the queue's, so the same mailbox serves both carriers.
//! Keeping the queues run-owned (rather than inside each rank) lets the
//! machine drain every inbox after the run for the MSG001 leak audit and
//! the duplicate accounting.

use crate::envelope::Envelope;
use crate::sched::Engine;
use parking_lot::Mutex;
use std::collections::VecDeque;

/// All ranks' inboxes, plus the run's engine — a post needs it to wake
/// the destination.
pub(crate) struct Mailboxes {
    inboxes: Vec<Mutex<VecDeque<Envelope>>>,
    engine: Engine,
}

impl Mailboxes {
    pub(crate) fn new(engine: Engine) -> Self {
        Mailboxes {
            inboxes: (0..engine.ntasks())
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            engine,
        }
    }

    pub(crate) fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Deliver `env` to rank `dst` and wake it.
    pub(crate) fn post(&self, dst: usize, env: Envelope) {
        self.inboxes[dst].lock().push_back(env);
        self.engine.wake(dst);
    }

    /// Pop the next queued envelope for `rank`, if any.
    pub(crate) fn try_pop(&self, rank: usize) -> Option<Envelope> {
        self.inboxes[rank].lock().pop_front()
    }
}
