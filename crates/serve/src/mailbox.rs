//! The per-client result mailbox: one FIFO every shard worker posts
//! into, and the per-stream [`Outlet`] a worker posts through.
//!
//! A stream costs the client one map entry and one [`StreamShared`]
//! (two words); nothing is sized by `result_capacity`, which survives as
//! a *count* the worker checks before each post.

use crate::client::StreamId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use zskip_runtime::StepResult;

/// One thing a worker tells a client.
pub(crate) enum Entry<I> {
    /// The next result of a stream, in that stream's submit order.
    Result(StreamId, StepResult<I>),
    /// The stream is gone server-side (TTL, slow consumer, shutdown).
    /// Posted after every result the stream will ever get, so "buffered
    /// results drain, then `Evicted`" is the queue's own order.
    Evicted(StreamId),
}

/// What one stream's client entry and worker entry share.
#[derive(Default)]
pub(crate) struct StreamShared {
    /// Results posted but not yet handed to the caller (in the mailbox,
    /// the client's inbox, or the stream's stash). The worker adds, the
    /// client subtracts; at `result_capacity` the worker evicts instead
    /// of posting. `Relaxed` throughout: the count guards no other data,
    /// and being one off for an instant only moves the eviction by one.
    pub unread: AtomicUsize,
    /// The client let go of the stream (close, drop, failed open): no
    /// result and no eviction notice is owed to it anymore. Stored with
    /// `Release` before the `Close` request is queued, loaded with
    /// `Acquire` by the worker.
    pub closed: AtomicBool,
}

struct State<I> {
    queue: VecDeque<Entry<I>>,
    /// The client is blocked in [`Mailbox::take`]. A poster notifies
    /// only then: a condvar notify with nobody waiting is still a futex
    /// syscall, and the worker would pay it per step.
    parked: bool,
}

/// A client's inbound queue. One consumer (the client), many producers
/// (every shard that hosts one of its streams).
pub(crate) struct Mailbox<I> {
    state: Mutex<State<I>>,
    ready: Condvar,
}

impl<I> Mailbox<I> {
    pub fn new() -> Self {
        Self {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                parked: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Every update under the lock is a single queue operation or flag
    /// store, so the state is valid even if a holder panicked: recover
    /// the guard instead of spreading the panic (posting also runs in
    /// `Drop`, which must not panic).
    fn lock(&self) -> MutexGuard<'_, State<I>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `entries` under one lock, then wakes the client once if
    /// it is parked.
    pub fn post(&self, entries: impl IntoIterator<Item = Entry<I>>) {
        let wake = {
            let mut state = self.lock();
            state.queue.extend(entries);
            std::mem::take(&mut state.parked)
        };
        if wake {
            self.ready.notify_one();
        }
    }

    /// Moves everything queued into the (empty) `inbox` by swapping the
    /// two buffers — one lock per batch on the consumer side too, and
    /// the buffers' allocations ping-pong instead of being freed.
    /// Blocks until something is queued; `false` once `deadline` passed
    /// with the queue still empty.
    pub fn take(&self, inbox: &mut VecDeque<Entry<I>>, deadline: Option<Instant>) -> bool {
        debug_assert!(inbox.is_empty());
        let mut state = self.lock();
        while state.queue.is_empty() {
            state.parked = true;
            state = match deadline {
                None => self
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        state.parked = false;
                        return false;
                    }
                    self.ready
                        .wait_timeout(state, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
        state.parked = false;
        std::mem::swap(&mut state.queue, inbox);
        true
    }
}

/// A worker's end of one stream: where its results go and the count
/// that bounds them. Dropping it while the client still holds the
/// stream posts the [`Entry::Evicted`] notice — however the session
/// ended (TTL, slow consumer, the worker exiting or panicking, an `Open`
/// still queued when the shard's queue closed), the client's `recv`
/// returns instead of parking forever, as a dropped per-stream sender
/// used to guarantee.
pub(crate) struct Outlet<I> {
    pub id: StreamId,
    pub mailbox: Arc<Mailbox<I>>,
    pub shared: Arc<StreamShared>,
}

impl<I> Drop for Outlet<I> {
    fn drop(&mut self) {
        if !self.shared.closed.load(Ordering::Acquire) {
            self.mailbox.post([Entry::Evicted(self.id)]);
        }
    }
}
