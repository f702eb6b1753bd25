//! Per-rank inboxes: one mutex-guarded `VecDeque` per rank, in arrival
//! order, owned by the run rather than by the rank.
//!
//! A post appends the envelope and *wakes* the destination task. A
//! receive searches its own inbox in arrival order and takes the first
//! envelope it wants; when none matches, it notes in the inbox which
//! message it still needs and parks (`Registry::park`) — waiting is the
//! scheduler's job, never the queue's, so the same inbox serves both
//! carriers. The note is what the deadlock report reads for a rank parked
//! in a receive. An inbox is the rank's only queue: what a receive passes
//! over stays where it arrived, so after the run the machine drains every
//! inbox for the MSG001 leak audit and the duplicate accounting.

use crate::envelope::Envelope;
use crate::sched::Engine;
use parking_lot::Mutex;
use std::collections::VecDeque;

/// The message a receive that found no match still needs: the deadlock
/// report's `recv(src=…, comm=…, tag=…)` line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RecvWait {
    /// Global rank of the source.
    pub(crate) src: usize,
    pub(crate) comm: u64,
    pub(crate) tag: u64,
}

/// One rank's queue, and what its receive waits on while it is parked.
#[derive(Default)]
struct Inbox {
    queue: VecDeque<Envelope>,
    waiting: Option<RecvWait>,
}

/// All ranks' inboxes, plus the run's engine — a post needs it to wake
/// the destination.
pub(crate) struct Mailboxes {
    inboxes: Vec<Mutex<Inbox>>,
    engine: Engine,
}

impl Mailboxes {
    pub(crate) fn new(engine: Engine) -> Self {
        Mailboxes {
            inboxes: (0..engine.ntasks())
                .map(|_| Mutex::new(Inbox::default()))
                .collect(),
            engine,
        }
    }

    pub(crate) fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Deliver `env` to rank `dst` and wake it.
    pub(crate) fn post(&self, dst: usize, env: Envelope) {
        self.inboxes[dst].lock().queue.push_back(env);
        self.engine.wake(dst);
    }

    /// Remove the first envelope of `rank`'s inbox that `wanted` accepts,
    /// searching in arrival order. An injected duplicate the search
    /// passes is discarded on sight, so no predicate ever sees one; the
    /// count of those discarded comes back with the match. Without a
    /// match the inbox notes `waits_on()` as what the rank is about to
    /// park for; a match clears the note.
    pub(crate) fn take(
        &self,
        rank: usize,
        wanted: impl Fn(&Envelope) -> bool,
        waits_on: impl FnOnce() -> RecvWait,
    ) -> (Option<Envelope>, usize) {
        let mut inbox = self.inboxes[rank].lock();
        let mut dups = 0;
        let mut i = 0;
        while i < inbox.queue.len() {
            if inbox.queue[i].dup {
                inbox.queue.remove(i);
                dups += 1;
            } else if wanted(&inbox.queue[i]) {
                inbox.waiting = None;
                return (inbox.queue.remove(i), dups);
            } else {
                i += 1;
            }
        }
        inbox.waiting = Some(waits_on());
        (None, dups)
    }

    /// What `rank`'s receive is parked for, if it is parked in one.
    pub(crate) fn waiting(&self, rank: usize) -> Option<RecvWait> {
        self.inboxes[rank].lock().waiting
    }

    /// Everything still in `rank`'s inbox, in arrival order.
    pub(crate) fn drain(&self, rank: usize) -> VecDeque<Envelope> {
        std::mem::take(&mut self.inboxes[rank].lock().queue)
    }
}
