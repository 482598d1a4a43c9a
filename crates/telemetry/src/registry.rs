//! Counter/gauge registry with typed handles.
//!
//! A [`Registry`] owns a flat vector of named metrics. Registration
//! returns a typed handle ([`CounterId`] / [`GaugeId`]) — an index, not a
//! reference — so updates are a bounds-checked array write through plain
//! `&mut Registry`: no `RefCell`, no atomics, no locking. The registry is
//! meant to be owned by whoever drives the simulation (an experiment
//! binary, a scenario runner) and snapshotted into the run manifest at
//! the end ([`Registry::snapshot`]).
//!
//! The [`RegistryExport`] trait is the uniform export path: every
//! statistics block that wants to appear in a manifest implements it and
//! writes its numbers under a caller-chosen prefix, replacing per-binary
//! ad-hoc plumbing.

use netsim::time::SimTime;

/// Handle to a registered counter (monotone `u64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge (instantaneous `f64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// A metric's current value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// An instantaneous measurement.
    Gauge(f64),
}

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: MetricValue,
}

/// A registry of named counters and gauges. See the module docs.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    metrics: Vec<Metric>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&mut self, name: String, value: MetricValue) -> usize {
        assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name:?} registered twice"
        );
        self.metrics.push(Metric { name, value });
        self.metrics.len() - 1
    }

    /// Register a counter starting at zero. Panics on a duplicate name —
    /// two subsystems silently sharing a counter is always a bug.
    pub fn counter(&mut self, name: impl Into<String>) -> CounterId {
        CounterId(self.register(name.into(), MetricValue::Counter(0)))
    }

    /// Register a gauge starting at zero.
    pub fn gauge(&mut self, name: impl Into<String>) -> GaugeId {
        GaugeId(self.register(name.into(), MetricValue::Gauge(0.0)))
    }

    /// Increment a counter by `by`.
    pub fn add(&mut self, id: CounterId, by: u64) {
        match &mut self.metrics[id.0].value {
            MetricValue::Counter(v) => *v += by,
            MetricValue::Gauge(_) => unreachable!("counter handle points at a gauge"),
        }
    }

    /// Increment a counter by one.
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Set a gauge to `v`.
    pub fn set(&mut self, id: GaugeId, v: f64) {
        match &mut self.metrics[id.0].value {
            MetricValue::Gauge(g) => *g = v,
            MetricValue::Counter(_) => unreachable!("gauge handle points at a counter"),
        }
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        match self.metrics[id.0].value {
            MetricValue::Counter(v) => v,
            MetricValue::Gauge(_) => unreachable!("counter handle points at a gauge"),
        }
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        match self.metrics[id.0].value {
            MetricValue::Gauge(v) => v,
            MetricValue::Counter(_) => unreachable!("gauge handle points at a counter"),
        }
    }

    /// Register-and-set in one step: a counter whose final value is
    /// already known (the common case when exporting a finished run's
    /// statistics block).
    pub fn record_count(&mut self, name: impl Into<String>, value: u64) {
        let id = self.counter(name);
        self.add(id, value);
    }

    /// Register-and-set in one step for gauges.
    pub fn record_gauge(&mut self, name: impl Into<String>, value: f64) {
        let id = self.gauge(name);
        self.set(id, value);
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// A point-in-time copy of every metric, sorted by name so manifests
    /// and diffs are stable regardless of registration order.
    ///
    /// Ordering contract: entries are sorted by byte-lexicographic
    /// comparison of the full metric name (so `tcp.10.x` precedes
    /// `tcp.2.x`), names are unique, and two registries holding the same
    /// metrics snapshot identically however registration was interleaved.
    /// The manifest `registry` sections and the `rla_diff` key alignment
    /// both rely on this.
    pub fn snapshot(&self) -> Snapshot {
        let mut entries: Vec<SnapshotEntry> = self
            .metrics
            .iter()
            .map(|m| SnapshotEntry {
                name: m.name.clone(),
                value: m.value,
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { entries }
    }
}

/// One metric inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// The registered name (prefixed by the exporter, e.g. `rla.0.delivered`).
    pub name: String,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// A sorted point-in-time copy of a [`Registry`] — the form that goes
/// into run manifests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All metrics, sorted by name.
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// Look up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.value)
    }

    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The uniform export path into a [`Registry`]: a statistics block writes
/// its counters and gauges under `prefix` (e.g. `tcp.3`), using `now` to
/// close any time-weighted accumulators.
pub trait RegistryExport {
    /// Export every reportable number under `prefix.<metric>`.
    fn export(&self, reg: &mut Registry, prefix: &str, now: SimTime);
}

/// Export a channel's [`ChannelStats`](netsim::stats::ChannelStats)
/// under `prefix` (lives here because `netsim` must not depend on this
/// crate).
pub fn export_channel_stats(
    reg: &mut Registry,
    prefix: &str,
    stats: &netsim::stats::ChannelStats,
    now: SimTime,
) {
    reg.record_count(format!("{prefix}.offered"), stats.offered);
    reg.record_count(format!("{prefix}.accepted"), stats.accepted);
    reg.record_count(format!("{prefix}.transmitted"), stats.transmitted);
    reg.record_count(
        format!("{prefix}.bytes_transmitted"),
        stats.bytes_transmitted,
    );
    reg.record_count(format!("{prefix}.overflow_drops"), stats.overflow_drops);
    reg.record_count(format!("{prefix}.early_drops"), stats.early_drops);
    reg.record_count(format!("{prefix}.forced_drops"), stats.forced_drops);
    reg.record_count(format!("{prefix}.fault_drops"), stats.fault_drops);
    reg.record_count(format!("{prefix}.max_qlen"), stats.max_qlen as u64);
    reg.record_gauge(format!("{prefix}.avg_qlen"), stats.avg_qlen(now));
    reg.record_gauge(format!("{prefix}.utilization"), stats.utilization(now));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_handles_update_and_read_back() {
        let mut r = Registry::new();
        let c = r.counter("a.count");
        let g = r.gauge("a.level");
        r.inc(c);
        r.add(c, 4);
        r.set(g, 2.5);
        assert_eq!(r.counter_value(c), 5);
        assert_eq!(r.gauge_value(g), 2.5);
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_are_rejected() {
        let mut r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let mut r = Registry::new();
        r.record_count("z.last", 9);
        r.record_gauge("a.first", 1.0);
        r.record_count("m.mid", 3);
        let s = r.snapshot();
        let names: Vec<&str> = s.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a.first", "m.mid", "z.last"]);
        assert_eq!(s.get("m.mid"), Some(MetricValue::Counter(3)));
        assert_eq!(s.get("a.first"), Some(MetricValue::Gauge(1.0)));
        assert_eq!(s.get("missing"), None);
    }

    #[test]
    fn snapshot_order_is_a_stable_byte_lexicographic_contract() {
        // Same metrics, opposite registration orders: identical snapshots.
        let mut a = Registry::new();
        a.record_count("net.offered", 7);
        a.record_gauge("chan.L1.utilization", 0.5);
        a.record_count("engine.drops", 2);
        let mut b = Registry::new();
        b.record_count("engine.drops", 2);
        b.record_count("net.offered", 7);
        b.record_gauge("chan.L1.utilization", 0.5);
        assert_eq!(a.snapshot(), b.snapshot());

        // Byte order, not numeric order: tcp.10 sorts before tcp.2. The
        // manifest emitter and rla_diff both pin this exact order.
        let mut c = Registry::new();
        c.record_count("tcp.2.delivered", 0);
        c.record_count("tcp.10.delivered", 0);
        let snap = c.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["tcp.10.delivered", "tcp.2.delivered"]);

        // Snapshots are point-in-time: later updates don't leak in.
        let mut r = Registry::new();
        let id = r.counter("x");
        let before = r.snapshot();
        r.inc(id);
        assert_eq!(before.get("x"), Some(MetricValue::Counter(0)));
        assert_eq!(r.snapshot().get("x"), Some(MetricValue::Counter(1)));
    }

    #[test]
    fn channel_stats_export_covers_the_block() {
        use netsim::queue::DropReason;
        use netsim::stats::ChannelStats;

        let mut stats = ChannelStats::default();
        stats.offered = 10;
        stats.accepted = 8;
        stats.record_drop(DropReason::EarlyDrop);
        stats.record_drop(DropReason::BufferOverflow);
        let mut r = Registry::new();
        export_channel_stats(&mut r, "net", &stats, SimTime::from_secs(10));
        let s = r.snapshot();
        assert_eq!(s.get("net.offered"), Some(MetricValue::Counter(10)));
        assert_eq!(s.get("net.early_drops"), Some(MetricValue::Counter(1)));
        assert_eq!(s.get("net.overflow_drops"), Some(MetricValue::Counter(1)));
        assert!(matches!(
            s.get("net.utilization"),
            Some(MetricValue::Gauge(_))
        ));
    }
}
