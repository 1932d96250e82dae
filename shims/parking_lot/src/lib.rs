//! Offline stand-in for `parking_lot`.
//!
//! Wraps `std::sync` primitives behind parking_lot's non-poisoning API:
//! `lock()`/`read()`/`write()` return guards directly rather than `Result`s.
//! A poisoned std lock (a panic while held) here recovers the inner value,
//! matching parking_lot's behavior of not propagating poison.
//!
//! Every lock in the workspace is a leaf: no code path takes a lock while
//! it holds another, so no acquisition order exists to get wrong. Debug
//! builds check this where it happens: each guard counts itself in a
//! thread-local while it lives, and `lock`, `read` and `write` panic at
//! the caller if that count is not zero. `try_lock` never blocks, so it
//! does not check, but its guard counts as held. Release builds carry
//! neither the count nor the check.

#![forbid(unsafe_code)]

use std::fmt;
use std::sync::{self, PoisonError};

/// This thread's count of live guards, in debug builds.
#[cfg(debug_assertions)]
mod held {
    use std::cell::Cell;

    thread_local! {
        static HELD: Cell<usize> = const { Cell::new(0) };
    }

    pub(crate) fn count() -> usize {
        HELD.try_with(Cell::get).unwrap_or(0)
    }

    pub(crate) fn add(delta: isize) {
        let _ = HELD.try_with(|held| held.set(held.get().wrapping_add_signed(delta)));
    }
}

/// One live guard's share of the thread's held-lock count. A zero-sized
/// no-op in release builds.
struct Held(());

impl Held {
    /// Before a blocking acquisition: panics at the caller if this thread
    /// already holds a lock.
    #[track_caller]
    fn check_leaf() {
        #[cfg(debug_assertions)]
        {
            let held = held::count();
            assert!(
                held == 0,
                "lock taken while this thread holds {held} other lock(s): every lock must be a leaf"
            );
        }
    }

    /// After the acquisition succeeded.
    fn acquired() -> Held {
        #[cfg(debug_assertions)]
        held::add(1);
        Held(())
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        held::add(-1);
    }
}

/// A mutual-exclusion primitive with a non-poisoning `lock`.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
    _held: Held,
}

impl<T> Mutex<T> {
    /// Creates a mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex { inner: sync::Mutex::new(value) }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        Held::check_leaf();
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner, _held: Held::acquired() }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard { inner, _held: Held::acquired() })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized + fmt::Display> fmt::Display for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

/// A reader-writer lock with non-poisoning `read`/`write`.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// RAII guard for [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
    _held: Held,
}

/// RAII guard for [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T> RwLock<T> {
    /// Creates a lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock { inner: sync::RwLock::new(value) }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        Held::check_leaf();
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        RwLockReadGuard { inner, _held: Held::acquired() }
    }

    /// Acquires exclusive write access.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        Held::check_leaf();
        let inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        RwLockWriteGuard { inner, _held: Held::acquired() }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        // Two readers at once, one per thread (one thread holding two
        // guards would be a nesting).
        let l = RwLock::new(vec![1, 2]);
        let both = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let guard = l.read();
                    both.wait();
                    assert_eq!(guard.len(), 2);
                });
            }
        });
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn sequential_and_repeated_acquisitions_are_leaves() {
        let (a, b) = (Mutex::new(0), RwLock::new(0));
        *a.lock() += 1;
        *b.write() += 1;
        let guard = a.lock();
        drop(guard);
        let sum = *a.lock();
        assert_eq!(sum + *b.read(), 2);
        let guard = a.try_lock().unwrap();
        drop(guard);
        *a.lock() += 1;
        assert_eq!(*a.lock(), 2);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "every lock must be a leaf"))]
    fn a_mutex_taken_under_another_panics_in_debug() {
        let (a, b) = (Mutex::new(0), Mutex::new(0));
        let _outer = a.lock();
        *b.lock() += 1;
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "every lock must be a leaf"))]
    fn an_rwlock_taken_under_a_read_guard_panics_in_debug() {
        let (a, b) = (RwLock::new(0), RwLock::new(0));
        let _outer = a.read();
        *b.write() += 1;
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "every lock must be a leaf"))]
    fn a_try_lock_guard_counts_as_held() {
        let (a, b) = (Mutex::new(0), RwLock::new(0));
        let _outer = a.try_lock().unwrap();
        let _ = *b.read();
    }

    #[test]
    fn panic_while_locked_does_not_poison() {
        let m = std::sync::Arc::new(Mutex::new(7));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}
