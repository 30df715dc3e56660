//! Load generation: open-loop schedules timed from each request's due
//! time, and closed-loop bursts.
//!
//! An open-loop stream sends request `i` at `start + i / rate` whatever
//! happened before, as independent collectors would. Each connection is
//! synchronous, so when one request stalls the ones due behind it are
//! sent late; timing every request from its *due* time charges them the
//! wait the stall imposed, and the generator's own lateness (send time
//! minus due time) is reported separately so a slow generator cannot
//! pass for a fast server.

use std::time::{Duration, Instant};

/// Time source of a load loop (a trait so tests can drive a fake clock).
pub trait Clock {
    /// Time elapsed since the clock's origin.
    fn now(&self) -> Duration;
    /// Blocks until `now() >= t` (returns at once when already past).
    fn sleep_until(&self, t: Duration);
}

/// The wall clock, with its origin at construction.
#[derive(Debug)]
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// What one open-loop stream measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpenLoopResult {
    /// Per-request latency from due time to reply, in ms, in send order.
    pub latency_ms: Vec<f64>,
    /// Per-request generator lag (send time minus due time), in ms.
    pub lag_ms: Vec<f64>,
    /// Requests that returned an error.
    pub failed: u64,
}

impl OpenLoopResult {
    /// The largest generator lag, in ms (0 for an empty stream).
    pub fn max_lag_ms(&self) -> f64 {
        self.lag_ms.iter().copied().fold(0.0, f64::max)
    }
}

/// Runs `count` requests on the schedule `i * period` (relative to the
/// clock's origin) and times each from its due time. `request(i)`
/// performs request `i` synchronously; an `Err` counts as a failure but
/// still occupies the connection for as long as it took.
pub fn open_loop<E>(
    clock: &impl Clock,
    count: usize,
    period: Duration,
    mut request: impl FnMut(usize) -> Result<(), E>,
) -> OpenLoopResult {
    let mut out = OpenLoopResult::default();
    for i in 0..count {
        let due = period * i as u32;
        clock.sleep_until(due);
        let sent = clock.now();
        if request(i).is_err() {
            out.failed += 1;
        }
        let done = clock.now();
        out.lag_ms.push(ms(sent.saturating_sub(due)));
        out.latency_ms.push(ms(done.saturating_sub(due)));
    }
    out
}

/// Runs `count` requests back to back and returns the per-request
/// latencies in ms plus the failure count.
pub fn closed_loop<E>(
    clock: &impl Clock,
    count: usize,
    mut request: impl FnMut(usize) -> Result<(), E>,
) -> (Vec<f64>, u64) {
    let mut latencies = Vec::with_capacity(count);
    let mut failed = 0;
    for i in 0..count {
        let t0 = clock.now();
        if request(i).is_err() {
            failed += 1;
        }
        latencies.push(ms(clock.now() - t0));
    }
    (latencies, failed)
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when slept on or advanced by a request.
    struct FakeClock(Cell<Duration>);

    impl FakeClock {
        fn advance(&self, d: Duration) {
            self.0.set(self.0.get() + d);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, t: Duration) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        // Due every 100 ms; request 1 stalls for 350 ms, the rest take 10.
        let service = [10u64, 350, 10, 10, 10, 10];
        let r = open_loop(
            &clock,
            service.len(),
            Duration::from_millis(100),
            |i| -> Result<(), ()> {
                clock.advance(Duration::from_millis(service[i]));
                Ok(())
            },
        );
        // Request 1 is due at 100, replies at 450. Request 2 is due at
        // 200 but can only be sent at 450: latency 260, lag 250. Request
        // 3 (due 300) goes at 460 -> 170; request 4 (due 400) at 470 ->
        // 80; request 5 (due 500) is on time again.
        assert_eq!(r.latency_ms, vec![10.0, 350.0, 260.0, 170.0, 80.0, 10.0]);
        assert_eq!(r.lag_ms, vec![0.0, 0.0, 250.0, 160.0, 70.0, 0.0]);
        assert_eq!(r.max_lag_ms(), 250.0);
        assert_eq!(r.failed, 0);
    }

    #[test]
    fn failures_are_counted_and_still_timed() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let r = open_loop(&clock, 3, Duration::from_millis(50), |i| {
            clock.advance(Duration::from_millis(5));
            if i == 1 {
                Err("refused")
            } else {
                Ok(())
            }
        });
        assert_eq!(r.failed, 1);
        assert_eq!(r.latency_ms, vec![5.0, 5.0, 5.0]);

        let (lat, failed) = closed_loop(&clock, 2, |_| -> Result<(), ()> {
            clock.advance(Duration::from_millis(7));
            Ok(())
        });
        assert_eq!((lat, failed), (vec![7.0, 7.0], 0));
    }
}
