//! Epoch-snapshot state store: one writer, one current slot.
//!
//! The [`Publisher`] swaps each new snapshot into a mutex-guarded slot; a
//! [`Reader`] clones the current `Arc` out. The mutex's unlock/lock pair
//! orders the building of a snapshot before any read of it, so no reader
//! sees a torn state. A displaced snapshot is freed once no request holds
//! it: at most the in-flight requests' snapshots plus the current one are
//! alive (DESIGN.md §12).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One immutable published state, tagged with its epoch (0 = the initial
/// state; each `publish` adds one).
#[derive(Debug)]
pub struct Snapshot<T> {
    /// Monotone publication counter.
    pub epoch: u64,
    /// The state frozen at this epoch.
    pub state: T,
    /// The store's live-snapshot gauge; counts this snapshot until dropped.
    live: Arc<AtomicUsize>,
}

impl<T> Drop for Snapshot<T> {
    fn drop(&mut self) {
        // ordering: Release pairs with the Acquire load in `epochs_live`;
        // the gauge only reports, the slot's mutex publishes snapshots.
        self.live.fetch_sub(1, Ordering::Release);
    }
}

fn snapshot<T>(live: &Arc<AtomicUsize>, epoch: u64, state: T) -> Arc<Snapshot<T>> {
    // ordering: see `Snapshot::drop`.
    live.fetch_add(1, Ordering::Release);
    let live = Arc::clone(live);
    Arc::new(Snapshot { epoch, state, live })
}

/// The current snapshot.
type Slot<T> = Mutex<Arc<Snapshot<T>>>;

fn lock<T>(slot: &Slot<T>) -> MutexGuard<'_, Arc<Snapshot<T>>> {
    // Each critical section clones or swaps one `Arc`: a poisoned lock holds a whole snapshot.
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The writing half: exactly one per store (not `Clone`).
#[derive(Debug)]
pub struct Publisher<T> {
    slot: Arc<Slot<T>>,
}

/// The reading half: a cheap-to-clone handle on the slot.
#[derive(Debug, Clone)]
pub struct Reader<T> {
    slot: Arc<Slot<T>>,
}

impl<T> Publisher<T> {
    /// A store holding `initial` as epoch 0: its one publisher, a reader.
    pub fn new(initial: T) -> (Publisher<T>, Reader<T>) {
        let live = Arc::new(AtomicUsize::new(0));
        let slot = Arc::new(Mutex::new(snapshot(&live, 0, initial)));
        let reader = Reader {
            slot: Arc::clone(&slot),
        };
        (Publisher { slot }, reader)
    }

    /// Publishes `state` as the next epoch and returns that epoch: the
    /// linearisation point of an update batch. Every later `latest`
    /// observes this epoch or a newer one, fully constructed.
    pub fn publish(&mut self, state: T) -> u64 {
        let current = self.current();
        let epoch = current.epoch + 1;
        // `current` keeps the displaced snapshot alive past the swap: it is freed outside the lock.
        *lock(&self.slot) = snapshot(&current.live, epoch, state);
        epoch
    }

    /// The most recently published epoch.
    pub fn epoch(&self) -> u64 {
        self.current().epoch
    }

    /// A snapshot of the most recently published state.
    pub fn current(&self) -> Arc<Snapshot<T>> {
        Arc::clone(&lock(&self.slot))
    }
}

impl<T> Reader<T> {
    /// The newest published snapshot.
    pub fn latest(&self) -> Arc<Snapshot<T>> {
        Arc::clone(&lock(&self.slot))
    }

    /// Snapshots alive now: the current one and every older one a request holds.
    pub(crate) fn epochs_live(&self) -> usize {
        // ordering: see `Snapshot::drop`.
        self.latest().live.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn epochs_are_dense_and_monotone() {
        let (mut publisher, reader) = Publisher::new("genesis");
        assert_eq!(reader.latest().epoch, 0);
        assert_eq!(publisher.epoch(), 0);
        assert_eq!(reader.latest().state, "genesis");
        assert_eq!(publisher.publish("one"), 1);
        assert_eq!(publisher.publish("two"), 2);
        assert_eq!(publisher.epoch(), 2);
        let held = reader.latest();
        assert_eq!((held.epoch, held.state), (2, "two"));
        // A held snapshot keeps its epoch; the next look sees the new one.
        assert_eq!(publisher.publish("three"), 3);
        assert_eq!(publisher.epoch(), 3);
        assert_eq!(held.epoch, 2);
        assert_eq!(reader.clone().latest().epoch, 3);
        assert_eq!(publisher.current().state, "three");
    }

    #[test]
    fn every_reader_sees_a_consistent_snapshot_under_concurrency() {
        // The writer publishes vectors whose entries all equal the
        // epoch; readers assert they never observe a mixed state.
        let (mut publisher, reader) = Publisher::new(vec![0u64; 64]);
        let rounds = 200u64;
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = reader.clone();
                thread::spawn(move || {
                    let mut max_seen = 0;
                    while max_seen < rounds {
                        let snap = r.latest();
                        assert!(snap.state.iter().all(|&v| v == snap.epoch), "torn");
                        assert!(snap.epoch >= max_seen, "epoch went backwards");
                        max_seen = snap.epoch;
                        thread::yield_now();
                    }
                })
            })
            .collect();
        for epoch in 1..=rounds {
            publisher.publish(vec![epoch; 64]);
        }
        for h in handles {
            h.join().expect("reader panicked");
        }
    }

    #[test]
    fn a_reader_that_never_idles_pins_at_most_the_epoch_it_holds() {
        // One reader requests back to back, holding one snapshot at a
        // time, while the writer publishes 200 epochs: every epoch but
        // the current one and the one the reader holds is freed.
        let rounds = 200u64;
        let (mut publisher, reader) = Publisher::new(Arc::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let busy = {
            let (stop, reader) = (Arc::clone(&stop), reader.clone());
            thread::spawn(move || loop {
                let held = reader.latest();
                // ordering: pairs with the Release store below.
                if stop.load(Ordering::Acquire) {
                    return held;
                }
            })
        };
        let mut probes = vec![Arc::downgrade(&publisher.current().state)];
        for epoch in 1..=rounds {
            let state = Arc::new(epoch);
            probes.push(Arc::downgrade(&state));
            publisher.publish(state);
            // The current snapshot, the reader's, and the one whose drop
            // by the reader may still be in flight.
            assert!(reader.epochs_live() <= 3);
        }
        // ordering: see the reader's load.
        stop.store(true, Ordering::Release);
        let held = busy.join().expect("reader panicked");
        for (epoch, probe) in (0u64..).zip(&probes) {
            let kept = epoch == held.epoch || epoch == rounds;
            assert_eq!(probe.upgrade().is_some(), kept, "epoch {epoch}");
        }
        // The held epoch lives exactly as long as its holder.
        publisher.publish(Arc::new(rounds + 1));
        let probe = Arc::downgrade(&held.state);
        assert_eq!(reader.epochs_live(), 2);
        drop(held);
        assert!(probe.upgrade().is_none(), "freed with its last holder");
        assert_eq!(reader.epochs_live(), 1);
    }
}
