//! Offline stand-in for `crossbeam`.
//!
//! Only the part of the `channel` module the workspace calls is provided,
//! backed by `std::sync::mpsc` with crossbeam's API shape: `unbounded`, a
//! cloneable `Sender`, and `Receiver::recv_timeout` returning
//! `RecvTimeoutError`.

#![forbid(unsafe_code)]

pub mod channel {
    //! Multi-producer single-consumer channels (crossbeam exposes mpmc; the
    //! workspace only ever clones senders, which mpsc covers).

    use std::fmt;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender { inner: tx }, Receiver { inner: rx })
    }

    /// The sending half; cloneable.
    pub struct Sender<T> {
        inner: mpsc::Sender<T>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender { inner: self.inner.clone() }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Sender<T> {
        /// Sends a message, failing only when the receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.inner.send(value).map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    /// The receiving half.
    pub struct Receiver<T> {
        inner: mpsc::Receiver<T>,
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.inner.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }
    }

    /// The receiver disconnected before the message was sent.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Outcome of a timed-out or disconnected `recv_timeout`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message within the timeout.
        Timeout,
        /// All senders disconnected with the channel empty.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
                RecvTimeoutError::Disconnected => f.write_str("channel is disconnected"),
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn cloned_senders_feed_one_receiver() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            tx.send(1).unwrap();
            tx2.send(2).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(1));
            assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(2));
        }

        #[test]
        fn recv_timeout_reports_timeout_then_disconnect() {
            let (tx, rx) = unbounded::<u8>();
            assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Timeout));
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Disconnected)
            );
        }
    }
}
