//! [`Published`]: a single-slot snapshot cell that is **lock-free for
//! readers**, built for read-mostly state that is replaced wholesale —
//! the serving layer's generation-tagged ranker snapshots (DESIGN.md
//! §5e).
//!
//! ## Why not `Mutex<Arc<T>>` or `RwLock<Arc<T>>`?
//!
//! The serving requirement is that *publishing a new snapshot never
//! stalls readers*: a retrain may take seconds, and even the brief
//! writer-side critical section of an `RwLock` would let a stream of
//! readers starve the publish (or, with writer priority, let the
//! publish block readers). Here readers never take a lock at all:
//!
//! * **read** — load the current pointer, advertise it in a *hazard
//!   slot*, and re-check the pointer; on agreement the snapshot is
//!   pinned for as long as the guard lives. The loop re-runs only if a
//!   publish raced in between, so the read path is lock-free (some
//!   reader always makes progress) and in the common case costs three
//!   atomic operations.
//! * **publish** — swap the pointer and move the old value onto a
//!   retire list; retired values are dropped on a later publish once no
//!   hazard slot advertises them. Publishing serializes writers on a
//!   `Mutex`, which is fine: there is one retrain at a time.
//!
//! Hazard slots live in an append-only lock-free list, acquired by CAS
//! and cached per [`ReadGuard`]; with `n` concurrent readers the list
//! holds at most `n` nodes for the life of the cell. Guards borrow the
//! cell, so the borrow checker rules out a guard outliving it.

use std::ops::Deref;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};

/// One reader's advertisement: "I am dereferencing this pointer".
struct HazardSlot<T> {
    /// Pointer currently protected by the owning reader (null = none).
    protected: AtomicPtr<T>,
    /// Whether a reader currently owns this slot.
    in_use: AtomicBool,
    /// Next slot in the cell's append-only list.
    next: AtomicPtr<HazardSlot<T>>,
}

/// A published snapshot: readers pin the current value lock-free,
/// writers replace it wholesale with [`Published::publish`]. See the
/// module docs for the protocol.
pub struct Published<T> {
    /// The current value, as a raw `Arc` (`Arc::into_raw`).
    current: AtomicPtr<T>,
    /// Head of the append-only hazard-slot list.
    slots: AtomicPtr<HazardSlot<T>>,
    /// Swapped-out values awaiting quiescence, reclaimed on publish.
    retired: Mutex<Vec<*mut T>>,
}

// SAFETY: the cell hands out `&T` across threads (so `T: Sync`) and
// drops `T` on whichever thread publishes or drops the cell (so
// `T: Send`). The raw pointers are all managed through `Arc` and the
// hazard protocol.
unsafe impl<T: Send + Sync> Send for Published<T> {}
unsafe impl<T: Send + Sync> Sync for Published<T> {}

/// Pins one snapshot for the guard's lifetime; derefs to `&T`.
pub struct ReadGuard<'a, T> {
    slot: &'a HazardSlot<T>,
    ptr: *const T,
}

impl<T> Deref for ReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: `ptr` is advertised in `slot.protected`, so no
        // publish can reclaim it while this guard lives.
        unsafe { &*self.ptr }
    }
}

impl<T> Drop for ReadGuard<'_, T> {
    fn drop(&mut self) {
        self.slot
            .protected
            .store(ptr::null_mut(), Ordering::Release);
        self.slot.in_use.store(false, Ordering::Release);
    }
}

impl<T> Published<T> {
    /// A cell initially holding `value`.
    pub fn new(value: Arc<T>) -> Self {
        Self {
            current: AtomicPtr::new(Arc::into_raw(value) as *mut T),
            slots: AtomicPtr::new(ptr::null_mut()),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Claims a hazard slot: reuses a free one or appends a new node.
    fn acquire_slot(&self) -> &HazardSlot<T> {
        let mut node = self.slots.load(Ordering::Acquire);
        while !node.is_null() {
            // SAFETY: list nodes are never freed before the cell drops.
            let slot = unsafe { &*node };
            if slot
                .in_use
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return slot;
            }
            node = slot.next.load(Ordering::Acquire);
        }
        // All slots busy: append a fresh node (CAS loop on the head).
        let fresh = Box::into_raw(Box::new(HazardSlot {
            protected: AtomicPtr::new(ptr::null_mut()),
            in_use: AtomicBool::new(true),
            next: AtomicPtr::new(ptr::null_mut()),
        }));
        loop {
            let head = self.slots.load(Ordering::Acquire);
            // SAFETY: `fresh` is ours until the CAS publishes it.
            unsafe { (*fresh).next.store(head, Ordering::Relaxed) };
            if self
                .slots
                .compare_exchange(head, fresh, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // SAFETY: now reachable and never freed until cell drop.
                return unsafe { &*fresh };
            }
        }
    }

    /// Pins the current snapshot. Lock-free: retries only when a
    /// publish races the pin, and some thread always makes progress.
    pub fn read(&self) -> ReadGuard<'_, T> {
        let slot = self.acquire_slot();
        loop {
            let ptr = self.current.load(Ordering::SeqCst);
            slot.protected.store(ptr, Ordering::SeqCst);
            // Re-check: if the pointer is still current, any publish
            // that retires it must subsequently scan the hazard list
            // (both operations are SeqCst, so the scan sees our store)
            // and will keep the value alive until this guard drops.
            if self.current.load(Ordering::SeqCst) == ptr {
                return ReadGuard { slot, ptr };
            }
        }
    }

    /// Replaces the snapshot. In-flight readers keep the value they
    /// pinned; it is reclaimed by a later publish (or cell drop) once
    /// no hazard slot advertises it. Returns the number of retired
    /// values still awaiting quiescent readers.
    pub fn publish(&self, value: Arc<T>) -> usize {
        let fresh = Arc::into_raw(value) as *mut T;
        let old = self.current.swap(fresh, Ordering::SeqCst);
        let mut retired = self.retired.lock().unwrap();
        retired.push(old);
        self.reclaim(&mut retired);
        retired.len()
    }

    /// Values swapped out but still pinned by some reader.
    pub fn retired_count(&self) -> usize {
        let mut retired = self.retired.lock().unwrap();
        self.reclaim(&mut retired);
        retired.len()
    }

    /// Drops every retired value no hazard slot advertises.
    fn reclaim(&self, retired: &mut Vec<*mut T>) {
        let mut hazards = Vec::new();
        let mut node = self.slots.load(Ordering::SeqCst);
        while !node.is_null() {
            // SAFETY: list nodes live until the cell drops.
            let slot = unsafe { &*node };
            let protected = slot.protected.load(Ordering::SeqCst);
            if !protected.is_null() {
                hazards.push(protected);
            }
            node = slot.next.load(Ordering::Acquire);
        }
        retired.retain(|&old| {
            if hazards.contains(&old) {
                true
            } else {
                // SAFETY: `old` came from `Arc::into_raw` in `publish`
                // and no reader advertises it, so this drop releases
                // the cell's sole reference.
                unsafe { drop(Arc::from_raw(old)) };
                false
            }
        });
    }
}

impl<T> Drop for Published<T> {
    fn drop(&mut self) {
        // `&mut self` proves no guard is alive (guards borrow the
        // cell), so everything can be released unconditionally.
        let current = *self.current.get_mut();
        // SAFETY: the cell's own reference, no readers remain.
        unsafe { drop(Arc::from_raw(current)) };
        for &old in self.retired.get_mut().unwrap().iter() {
            // SAFETY: as above; retired values are uniquely ours now.
            unsafe { drop(Arc::from_raw(old)) };
        }
        let mut node = *self.slots.get_mut();
        while !node.is_null() {
            // SAFETY: nodes were leaked from `Box::into_raw` and are
            // only reachable through this cell.
            let slot = unsafe { Box::from_raw(node) };
            node = slot.next.load(Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::atomic::Ordering::Relaxed;

    /// Counts drops so reclamation is observable.
    struct Tracked {
        generation: u64,
        double: u64,
        drops: Arc<AtomicUsize>,
    }

    impl Tracked {
        fn new(generation: u64, drops: &Arc<AtomicUsize>) -> Arc<Self> {
            Arc::new(Self {
                generation,
                double: generation * 2,
                drops: Arc::clone(drops),
            })
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Relaxed);
        }
    }

    #[test]
    fn read_sees_latest_publish() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Published::new(Tracked::new(0, &drops));
        assert_eq!(cell.read().generation, 0);
        cell.publish(Tracked::new(1, &drops));
        assert_eq!(cell.read().generation, 1);
    }

    #[test]
    fn publish_reclaims_unpinned_values() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Published::new(Tracked::new(0, &drops));
        cell.publish(Tracked::new(1, &drops));
        cell.publish(Tracked::new(2, &drops));
        // Generations 0 and 1 had no readers: both reclaimed by now.
        assert_eq!(drops.load(Relaxed), 2);
        assert_eq!(cell.retired_count(), 0);
    }

    #[test]
    fn pinned_value_survives_publish_until_guard_drops() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Published::new(Tracked::new(0, &drops));
        let guard = cell.read();
        cell.publish(Tracked::new(1, &drops));
        // Generation 0 is pinned: not dropped, still readable.
        assert_eq!(drops.load(Relaxed), 0);
        assert_eq!(guard.generation, 0);
        assert_eq!(cell.retired_count(), 1);
        drop(guard);
        assert_eq!(cell.retired_count(), 0);
        assert_eq!(drops.load(Relaxed), 1);
    }

    #[test]
    fn cell_drop_releases_everything() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let cell = Published::new(Tracked::new(0, &drops));
            let _pin_forces_retire = {
                let guard = cell.read();
                cell.publish(Tracked::new(1, &drops));
                guard.generation
            };
            cell.publish(Tracked::new(2, &drops));
        }
        assert_eq!(drops.load(Relaxed), 3);
    }

    #[test]
    fn concurrent_readers_never_see_torn_snapshots() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(Published::new(Tracked::new(1, &drops)));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..2000 {
                        let guard = cell.read();
                        // The invariant binds the two fields together:
                        // a torn or reclaimed snapshot would break it.
                        assert_eq!(guard.double, guard.generation * 2);
                    }
                })
            })
            .collect();
        for generation in 2..500 {
            cell.publish(Tracked::new(generation, &drops));
        }
        for reader in readers {
            reader.join().expect("reader panicked");
        }
        assert_eq!(cell.retired_count(), 0);
    }
}
