//! Counters and time-weighted statistics collected by the engine.

use crate::queue::DropReason;
use crate::time::{SimDuration, SimTime};

/// Per-channel statistics: admission counters and the time-weighted queue
/// length (the quantity RED averages and the paper's "buffer period"
/// analysis looks at).
#[derive(Debug, Default, Clone)]
pub struct ChannelStats {
    /// Packets offered to the channel (enqueued or dropped).
    pub offered: u64,
    /// Packets accepted into the buffer or transmitted directly.
    pub accepted: u64,
    /// Packets fully transmitted.
    pub transmitted: u64,
    /// Bytes fully transmitted.
    pub bytes_transmitted: u64,
    /// Drops because the physical buffer was full.
    pub overflow_drops: u64,
    /// RED early drops.
    pub early_drops: u64,
    /// RED forced drops (average above the max threshold).
    pub forced_drops: u64,
    /// Fault-injector drops.
    pub fault_drops: u64,
    /// Running integral of queue length over time (packets * seconds).
    qlen_area: f64,
    /// Time of the last queue-length change.
    last_change: SimTime,
    /// Queue length at the last change.
    last_len: usize,
    /// Largest instantaneous queue length seen.
    pub max_qlen: usize,
    /// Total busy (transmitting) time over *closed* intervals.
    busy: SimDuration,
    /// Start of the in-progress transmission, if one is open.
    busy_since: Option<SimTime>,
}

impl ChannelStats {
    /// Record a drop of the given kind.
    pub fn record_drop(&mut self, reason: DropReason) {
        match reason {
            DropReason::BufferOverflow => self.overflow_drops += 1,
            DropReason::EarlyDrop => self.early_drops += 1,
            DropReason::ForcedDrop => self.forced_drops += 1,
            DropReason::Fault => self.fault_drops += 1,
        }
    }

    /// Total queue drops (excluding fault injection).
    pub fn queue_drops(&self) -> u64 {
        self.overflow_drops + self.early_drops + self.forced_drops
    }

    /// Update the queue-length integral when the length changes.
    pub fn record_qlen(&mut self, now: SimTime, len: usize) {
        let dt = now.saturating_since(self.last_change).as_secs_f64();
        self.qlen_area += self.last_len as f64 * dt;
        self.last_change = now;
        self.last_len = len;
        self.max_qlen = self.max_qlen.max(len);
    }

    /// The transmitter went busy at `now`. Busy time is tracked as
    /// open/closed intervals rather than charged up-front, so a
    /// measurement deadline that cuts a transmission in half counts only
    /// the elapsed half (see [`utilization`](Self::utilization)).
    pub fn record_tx_begin(&mut self, now: SimTime) {
        debug_assert!(self.busy_since.is_none(), "transmitter already busy");
        self.busy_since = Some(now);
    }

    /// The transmitter went idle at `now`, closing the interval opened by
    /// [`record_tx_begin`](Self::record_tx_begin).
    pub fn record_tx_end(&mut self, now: SimTime) {
        if let Some(since) = self.busy_since.take() {
            self.busy += now.saturating_since(since);
        }
    }

    /// Average queue length over `[0, now]`, in packets.
    pub fn avg_qlen(&self, now: SimTime) -> f64 {
        let total = now.as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        let tail = now.saturating_since(self.last_change).as_secs_f64();
        (self.qlen_area + self.last_len as f64 * tail) / total
    }

    /// Fraction of `[0, now]` the transmitter was busy. Includes the
    /// elapsed part of a transmission still in progress at `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let total = now.as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        let open = self
            .busy_since
            .map_or(0.0, |since| now.saturating_since(since).as_secs_f64());
        ((self.busy.as_secs_f64() + open) / total).min(1.0)
    }
}

/// An exponentially-weighted moving average: `avg += gain * (x - avg)`.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    gain: f64,
    value: Option<f64>,
}

impl Ewma {
    /// A fresh EWMA with the given gain in `(0, 1]`.
    pub fn new(gain: f64) -> Self {
        assert!(gain > 0.0 && gain <= 1.0, "EWMA gain must be in (0, 1]");
        Ewma { gain, value: None }
    }

    /// Fold in one observation; the first observation initializes.
    pub fn push(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.gain * (x - v),
        });
    }

    /// The current average, if any observation has been folded in.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// The current average, or `default` before the first observation.
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }
}

/// A streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Default, Clone)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Running {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

/// A time-weighted average of a piecewise-constant signal (e.g. the
/// congestion window as a function of time).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    start: SimTime,
    last_t: SimTime,
    last_v: f64,
    area: f64,
}

impl TimeWeighted {
    /// Start integrating at `start` with initial value `v`.
    pub fn new(start: SimTime, v: f64) -> Self {
        TimeWeighted {
            start,
            last_t: start,
            last_v: v,
            area: 0.0,
        }
    }

    /// The signal changed to `v` at `now`.
    pub fn set(&mut self, now: SimTime, v: f64) {
        let dt = now.saturating_since(self.last_t).as_secs_f64();
        self.area += self.last_v * dt;
        self.last_t = now;
        self.last_v = v;
    }

    /// Time average over `[start, now]`.
    pub fn average(&self, now: SimTime) -> f64 {
        let span = now.saturating_since(self.start).as_secs_f64();
        if span == 0.0 {
            return self.last_v;
        }
        let tail = now.saturating_since(self.last_t).as_secs_f64();
        (self.area + self.last_v * tail) / span
    }

    /// Current value of the signal.
    pub fn current(&self) -> f64 {
        self.last_v
    }

    /// Restart the integration window at `now`, keeping the current value.
    /// Used to discard the warmup transient before collecting statistics.
    pub fn reset(&mut self, now: SimTime) {
        self.start = now;
        self.last_t = now;
        self.area = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_initializes_and_converges() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.value_or(7.0), 7.0);
        e.push(10.0);
        assert_eq!(e.value(), Some(10.0));
        for _ in 0..30 {
            e.push(0.0);
        }
        assert!(e.value().unwrap() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "gain")]
    fn ewma_rejects_zero_gain() {
        Ewma::new(0.0);
    }

    #[test]
    fn running_moments() {
        let mut r = Running::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            r.push(x);
        }
        assert_eq!(r.count(), 8);
        assert!((r.mean() - 5.0).abs() < 1e-12);
        assert!((r.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(r.min(), 2.0);
        assert_eq!(r.max(), 9.0);
    }

    #[test]
    fn running_empty_is_sane() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.variance(), 0.0);
        assert!(r.min().is_nan());
    }

    #[test]
    fn time_weighted_average() {
        let mut w = TimeWeighted::new(SimTime::ZERO, 10.0);
        w.set(SimTime::from_secs(1), 20.0); // 10 for 1s
        w.set(SimTime::from_secs(3), 0.0); // 20 for 2s
        let avg = w.average(SimTime::from_secs(5)); // 0 for 2s
        assert!((avg - (10.0 + 40.0) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_reset_discards_history() {
        let mut w = TimeWeighted::new(SimTime::ZERO, 100.0);
        w.set(SimTime::from_secs(10), 2.0);
        w.reset(SimTime::from_secs(10));
        let avg = w.average(SimTime::from_secs(20));
        assert!((avg - 2.0).abs() < 1e-12);
    }

    #[test]
    fn channel_stats_qlen_integral() {
        let mut s = ChannelStats::default();
        s.record_qlen(SimTime::from_secs(1), 5); // len 0 for 1s
        s.record_qlen(SimTime::from_secs(3), 0); // len 5 for 2s
        let avg = s.avg_qlen(SimTime::from_secs(5)); // len 0 for 2s
        assert!((avg - 10.0 / 5.0).abs() < 1e-12);
        assert_eq!(s.max_qlen, 5);
    }

    #[test]
    fn utilization_counts_only_the_elapsed_part_of_an_open_tx() {
        let mut s = ChannelStats::default();
        s.record_tx_begin(SimTime::from_millis(1000));
        // At 1.5s the transmission is still in flight: only the elapsed
        // 0.5s counts. The old up-front accounting charged the full
        // service time at tx start, overstating utilization whenever the
        // measurement deadline cut a transmission in half.
        let u = s.utilization(SimTime::from_millis(1500));
        assert!((u - 0.5 / 1.5).abs() < 1e-12, "got {u}");
    }

    #[test]
    fn utilization_sums_closed_intervals() {
        let mut s = ChannelStats::default();
        s.record_tx_begin(SimTime::from_secs(1));
        s.record_tx_end(SimTime::from_secs(2));
        s.record_tx_begin(SimTime::from_secs(3));
        s.record_tx_end(SimTime::from_secs(4));
        let u = s.utilization(SimTime::from_secs(4));
        assert!((u - 0.5).abs() < 1e-12, "got {u}");
        // Idle afterwards: the open-interval term stays zero.
        let u = s.utilization(SimTime::from_secs(8));
        assert!((u - 0.25).abs() < 1e-12, "got {u}");
    }

    #[test]
    fn utilization_saturates_at_one() {
        let mut s = ChannelStats::default();
        s.record_tx_begin(SimTime::ZERO);
        s.record_tx_end(SimTime::from_secs(5));
        assert_eq!(s.utilization(SimTime::from_secs(5)), 1.0);
    }

    #[test]
    fn channel_stats_drop_classification() {
        let mut s = ChannelStats::default();
        s.record_drop(DropReason::BufferOverflow);
        s.record_drop(DropReason::EarlyDrop);
        s.record_drop(DropReason::EarlyDrop);
        s.record_drop(DropReason::Fault);
        assert_eq!(s.overflow_drops, 1);
        assert_eq!(s.early_drops, 2);
        assert_eq!(s.fault_drops, 1);
        assert_eq!(s.queue_drops(), 3);
    }
}
