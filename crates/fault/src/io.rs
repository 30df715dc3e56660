//! Retry for fallible I/O. The daemon's journal append retries through
//! [`retry_io`] when an injected (or real) transient failure surfaces as
//! [`io::ErrorKind::Interrupted`], and the ingest client sleeps on the
//! same [`backoff`] schedule.

use std::io;
use std::time::Duration;

/// Runs a fallible I/O operation up to `1 + max_retries` times,
/// retrying only [`io::ErrorKind::Interrupted`] failures with a bounded
/// deterministic backoff (`base << attempt`, capped at 50 ms). The
/// closure receives the attempt number so injected transients can
/// re-roll.
pub fn retry_io<T>(max_retries: u32, mut f: impl FnMut(u32) -> io::Result<T>) -> io::Result<T> {
    let mut attempt = 0;
    loop {
        match f(attempt) {
            Ok(v) => return Ok(v),
            Err(e) if e.kind() == io::ErrorKind::Interrupted && attempt < max_retries => {
                std::thread::sleep(backoff(attempt));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// The bounded deterministic backoff schedule shared with the
/// supervised pool: 1 ms doubling per attempt, capped at 50 ms.
pub fn backoff(attempt: u32) -> Duration {
    Duration::from_millis((1u64 << attempt.min(6)).min(50))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_read_errors_retry_to_success() {
        // The first three attempts fail transiently; the fourth reads.
        let mut calls = 0;
        let bytes = retry_io(16, |attempt| {
            calls += 1;
            if attempt < 3 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "transient"))
            } else {
                Ok(b"payload".to_vec())
            }
        })
        .unwrap();
        assert_eq!(bytes, b"payload");
        assert_eq!(calls, 4);
    }

    #[test]
    fn retry_io_gives_up_after_the_budget() {
        let mut calls = 0;
        let r: io::Result<()> = retry_io(3, |_| {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::Interrupted, "always"))
        });
        assert!(r.is_err());
        assert_eq!(calls, 4, "1 initial + 3 retries");
    }

    #[test]
    fn non_transient_errors_do_not_retry() {
        let mut calls = 0;
        let r: io::Result<()> = retry_io(5, |_| {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::NotFound, "gone"))
        });
        assert!(r.is_err());
        assert_eq!(calls, 1);
    }

    #[test]
    fn backoff_is_bounded() {
        assert_eq!(backoff(0), Duration::from_millis(1));
        assert_eq!(backoff(1), Duration::from_millis(2));
        assert!(backoff(63) <= Duration::from_millis(50));
    }
}
