//! Per-rank inboxes: one mutex-guarded `VecDeque` per rank, in arrival
//! order, owned by the run rather than by the rank.
//!
//! A post appends the envelope and *wakes* the destination task. A
//! receive searches its own inbox in arrival order and takes the first
//! envelope it wants; when none matches, the receiver parks
//! ([`crate::registry::Registry::park`]) — waiting is the scheduler's job,
//! never the queue's, so the same inbox serves both carriers. An inbox is
//! the rank's only queue: what a receive passes over stays where it
//! arrived, so after the run the machine drains every inbox for the
//! MSG001 leak audit and the duplicate accounting.

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

    /// Remove the first envelope of `rank`'s inbox that `wanted` accepts,
    /// searching in arrival order. An injected duplicate the search
    /// passes is discarded on sight, so no predicate ever sees one; the
    /// count of those discarded comes back with the match.
    pub(crate) fn take(
        &self,
        rank: usize,
        wanted: impl Fn(&Envelope) -> bool,
    ) -> (Option<Envelope>, usize) {
        let mut inbox = self.inboxes[rank].lock();
        let mut dups = 0;
        let mut i = 0;
        while i < inbox.len() {
            if inbox[i].dup {
                inbox.remove(i);
                dups += 1;
            } else if wanted(&inbox[i]) {
                return (inbox.remove(i), dups);
            } else {
                i += 1;
            }
        }
        (None, dups)
    }

    /// Everything still in `rank`'s inbox, in arrival order.
    pub(crate) fn drain(&self, rank: usize) -> VecDeque<Envelope> {
        std::mem::take(&mut *self.inboxes[rank].lock())
    }
}
