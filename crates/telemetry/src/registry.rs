//! Counter/gauge registry.
//!
//! A [`Registry`] owns a flat vector of named metrics, written through
//! plain `&mut Registry` — no `RefCell`, no atomics, no locking — one
//! [`record_count`](Registry::record_count) or
//! [`record_gauge`](Registry::record_gauge) per metric. The registry is
//! meant to be owned by whoever drives the simulation (an experiment
//! binary, a scenario runner) and snapshotted into the run manifest at
//! the end ([`Registry::snapshot`]).
//!
//! A statistics block that appears in a manifest writes its numbers under
//! a caller-chosen prefix through an inherent `export(reg, prefix, now)`
//! (`SenderStats`, `RlaStats`, and [`export_channel_stats`] here).

use netsim::time::SimTime;

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

    /// Panics on a duplicate name — two subsystems silently sharing a
    /// metric is always a bug.
    fn register(&mut self, name: String, value: MetricValue) {
        assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name:?} registered twice"
        );
        self.metrics.push(Metric { name, value });
    }

    /// Record a counter — a monotone count whose value is known (the
    /// common case when exporting a finished run's statistics block).
    /// Panics if `name` is already registered.
    pub fn record_count(&mut self, name: impl Into<String>, value: u64) {
        self.register(name.into(), MetricValue::Counter(value));
    }

    /// Record a gauge — an instantaneous measurement. Panics if `name`
    /// is already registered.
    pub fn record_gauge(&mut self, name: impl Into<String>, value: f64) {
        self.register(name.into(), MetricValue::Gauge(value));
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
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_are_rejected() {
        let mut r = Registry::new();
        r.record_count("x", 1);
        r.record_gauge("x", 1.0);
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

        // Snapshots are point-in-time: later records don't leak in.
        let mut r = Registry::new();
        r.record_count("x", 0);
        let before = r.snapshot();
        r.record_count("y", 1);
        assert_eq!(before.len(), 1);
        assert_eq!(r.snapshot().len(), 2);
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
