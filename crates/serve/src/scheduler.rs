//! Bounded admission queue and request batching.
//!
//! Connections submit query jobs with [`AdmissionQueue::try_submit`],
//! which **never blocks**: when the queue is at capacity the request is
//! shed with a typed [`SubmitError::Overloaded`] that the wire layer
//! turns into an `overloaded` error response. Backpressure is therefore
//! always explicit — a client sees the rejection immediately instead of
//! a silently growing tail latency.
//!
//! Workers drain with [`AdmissionQueue::next_batch`], taking up to a
//! configured number of jobs in one go. All jobs of a batch are answered
//! against a single epoch snapshot, which is what makes batching more
//! than a loop: expensive from-scratch `solve` requests for the same
//! algorithm are computed once per batch and shared (the
//! `solve_runs < queries_solve` gap in [`ServeStats`](crate::ServeStats)).
//!
//! After [`AdmissionQueue::close`], submissions fail with
//! [`SubmitError::Closed`] but draining continues until the queue is
//! empty — every admitted job is answered before the workers exit, so
//! graceful shutdown never drops an accepted request.

use crate::wire::{ErrorCode, QueryOp, WireError};
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// One admitted query: the parsed op plus everything needed to answer
/// it — the correlation id, the reply channel back to the connection's
/// writer, and the admission timestamp for the latency histogram.
#[derive(Debug)]
pub struct Job {
    /// Client correlation id, echoed in the response.
    pub id: Option<u64>,
    /// The query to answer.
    pub op: QueryOp,
    /// When the job was admitted (starts the latency clock).
    pub enqueued: Instant,
    /// Channel to the owning connection's writer thread. Most jobs
    /// produce exactly one response line; a `heatmap` job first streams
    /// zero or more batch lines through this channel and then its one
    /// terminal (`done`) line. The channel is unbounded, so a slow
    /// client back-pressures its own socket writer, never the worker.
    pub reply: Sender<String>,
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue was at capacity; the request was shed.
    Overloaded {
        /// Queue depth at rejection time (== capacity).
        depth: usize,
        /// The configured capacity.
        capacity: usize,
    },
    /// The queue was closed (server draining).
    Closed,
}

impl From<SubmitError> for WireError {
    fn from(e: SubmitError) -> WireError {
        match e {
            SubmitError::Overloaded { depth, capacity } => WireError::new(
                ErrorCode::Overloaded,
                format!("admission queue full ({depth}/{capacity}); retry later"),
            ),
            SubmitError::Closed => {
                WireError::new(ErrorCode::ShuttingDown, "server is draining".to_string())
            }
        }
    }
}

#[derive(Debug)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
    high_water: u64,
}

/// The bounded, condvar-backed admission queue (see module docs).
#[derive(Debug)]
pub struct AdmissionQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    capacity: usize,
}

impl AdmissionQueue {
    /// Creates a queue admitting at most `capacity` waiting jobs.
    pub fn new(capacity: usize) -> AdmissionQueue {
        AdmissionQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
                high_water: 0,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Recovers the state even if a holder panicked mid-section; the
    /// queue's invariants (a VecDeque plus counters) cannot be torn by
    /// any panic point inside our own critical sections.
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Admits a job, or rejects it without ever blocking.
    pub fn try_submit(&self, job: Job) -> Result<(), SubmitError> {
        let mut state = self.lock();
        if state.closed {
            return Err(SubmitError::Closed);
        }
        if state.jobs.len() >= self.capacity {
            return Err(SubmitError::Overloaded {
                depth: state.jobs.len(),
                capacity: self.capacity,
            });
        }
        state.jobs.push_back(job);
        state.high_water = state.high_water.max(state.jobs.len() as u64);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until jobs are available and drains up to `max` of them in
    /// FIFO order. Returns `None` only when the queue is closed *and*
    /// empty — admitted jobs are always handed to some worker.
    pub fn next_batch(&self, max: usize) -> Option<Vec<Job>> {
        let max = max.max(1);
        let mut state = self.lock();
        loop {
            if !state.jobs.is_empty() {
                let take = state.jobs.len().min(max);
                let batch: Vec<Job> = state.jobs.drain(..take).collect();
                let more = !state.jobs.is_empty();
                drop(state);
                if more {
                    // Leftovers exist: hand them to another worker
                    // instead of waiting for the next submission's
                    // notify.
                    self.available.notify_one();
                }
                return Some(batch);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Closes the queue: future submissions fail, blocked workers wake
    /// and drain the remainder.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    /// Current queue depth (racy; for the `stats` endpoint).
    pub fn depth(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Highest depth ever observed at admission time.
    pub fn high_water(&self) -> u64 {
        self.lock().high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use std::thread;

    fn job(id: u64) -> (Job, std::sync::mpsc::Receiver<String>) {
        let (tx, rx) = channel();
        (
            Job {
                id: Some(id),
                op: QueryOp::Ping,
                enqueued: Instant::now(),
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn sheds_at_capacity_without_blocking() {
        let q = AdmissionQueue::new(2);
        let (j1, _r1) = job(1);
        let (j2, _r2) = job(2);
        let (j3, _r3) = job(3);
        assert!(q.try_submit(j1).is_ok());
        assert!(q.try_submit(j2).is_ok());
        assert_eq!(
            q.try_submit(j3),
            Err(SubmitError::Overloaded {
                depth: 2,
                capacity: 2
            })
        );
        assert_eq!(q.high_water(), 2);
        // Draining frees capacity again.
        let batch = q.next_batch(8).expect("jobs queued");
        assert_eq!(batch.len(), 2);
        let (j4, _r4) = job(4);
        assert!(q.try_submit(j4).is_ok());
    }

    #[test]
    fn batches_drain_fifo_and_respect_max() {
        let q = AdmissionQueue::new(16);
        let mut receivers = Vec::new();
        for i in 0..5 {
            let (j, r) = job(i);
            q.try_submit(j).unwrap();
            receivers.push(r);
        }
        let first = q.next_batch(3).expect("jobs queued");
        assert_eq!(
            first.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![Some(0), Some(1), Some(2)]
        );
        let rest = q.next_batch(3).expect("leftovers");
        assert_eq!(
            rest.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![Some(3), Some(4)]
        );
    }

    #[test]
    fn close_rejects_new_work_but_drains_admitted_jobs() {
        let q = AdmissionQueue::new(4);
        let (j, _r) = job(1);
        q.try_submit(j).unwrap();
        q.close();
        let (late, _r2) = job(2);
        assert_eq!(q.try_submit(late), Err(SubmitError::Closed));
        // The admitted job is still delivered…
        assert_eq!(q.next_batch(4).expect("drain remainder").len(), 1);
        // …and only then does the queue report exhaustion.
        assert!(q.next_batch(4).is_none());
    }

    #[test]
    fn blocked_workers_wake_on_submit_and_on_close() {
        let q = Arc::new(AdmissionQueue::new(4));
        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut seen = 0;
                while let Some(batch) = q.next_batch(2) {
                    seen += batch.len();
                }
                seen
            })
        };
        let mut receivers = Vec::new();
        for i in 0..6 {
            loop {
                let (j, r) = job(i);
                match q.try_submit(j) {
                    Ok(()) => {
                        receivers.push(r);
                        break;
                    }
                    // The single worker may lag; capacity 4 can fill.
                    Err(SubmitError::Overloaded { .. }) => thread::yield_now(),
                    Err(SubmitError::Closed) => panic!("queue closed early"),
                }
            }
        }
        q.close();
        assert_eq!(worker.join().expect("worker panicked"), 6);
    }

    #[test]
    fn submit_errors_map_to_wire_codes() {
        let overloaded: WireError = SubmitError::Overloaded {
            depth: 8,
            capacity: 8,
        }
        .into();
        assert_eq!(overloaded.code, ErrorCode::Overloaded);
        assert!(overloaded.message.contains("8/8"));
        let closed: WireError = SubmitError::Closed.into();
        assert_eq!(closed.code, ErrorCode::ShuttingDown);
    }
}
