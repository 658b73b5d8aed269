//! First-party synchronisation layer.
//!
//! The workspace used to pull `parking_lot` and `crossbeam` for a mutex
//! and an unbounded channel; both are thin conveniences over what `std`
//! already provides. This module is the single place the rest of the
//! workspace imports locking and channel primitives from, so the
//! implementation can change without touching forty call sites again.

use std::fmt;
pub use std::sync::mpsc::{Receiver, Sender, TryRecvError};
pub use std::sync::MutexGuard;

/// A mutex with the `parking_lot` calling convention: [`lock`](Mutex::lock)
/// returns the guard directly instead of a `Result`.
///
/// Poisoning is deliberately ignored — a panicked simulation thread has
/// already failed the run, and every protected structure here is valid
/// after any partial update (tables of plain integers).
///
/// # Example
///
/// ```
/// use pard_sim::sync::Mutex;
/// let m = Mutex::new(5u32);
/// *m.lock() += 1;
/// assert_eq!(*m.lock(), 6);
/// ```
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wraps `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires the lock only if it is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_tuple("Mutex").field(&&*guard).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Self {
        Mutex::new(value)
    }
}

/// An unbounded MPSC channel (the `crossbeam::channel::unbounded`
/// replacement; senders clone, the receiver polls).
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    std::sync::mpsc::channel()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_round_trips() {
        let m = Mutex::new(vec![1, 2]);
        m.lock().push(3);
        assert_eq!(*m.lock(), vec![1, 2, 3]);
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn try_lock_reports_contention() {
        let m = Mutex::new(0u8);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn channel_delivers_in_order() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Empty)));
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = std::sync::Arc::new(Mutex::new(7u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn debug_formats() {
        let m = Mutex::new(3u8);
        assert!(format!("{m:?}").contains('3'));
    }
}
