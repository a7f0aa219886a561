//! Structured telemetry: counters, gauges, and duration histograms wired
//! through every pipeline stage.
//!
//! The paper's evaluation (Tables 5–8) is entirely about *where analysis
//! time goes* — alias resolution, typestate tracking, SMT validation. A
//! flat counter dump at the end cannot attribute a regression to a stage,
//! a root function, or a solver behaviour. This module is the
//! observability backbone: every stage records into a [`TelemetrySink`],
//! per-worker sinks are merged deterministically at the end (mirroring the
//! work-stealing driver's result merge), and the merged
//! [`TelemetrySnapshot`] travels on [`crate::SessionOutcome`] so
//! the CLI (`--stats-json`, `--profile`) and the bench binaries consume
//! structured data instead of scraping counters.
//!
//! # Design constraints
//!
//! * **Zero dependencies, no unsafe.** Histograms use fixed log2 buckets;
//!   JSON comes from [`crate::json`].
//! * **Disabled means a branch.** When telemetry is off, every record path
//!   is gated on a single `bool` loaded once per root (or a relaxed
//!   [`AtomicBool`] load on shared paths) — no clock reads, no hashing,
//!   no allocation. The `telemetry_overhead` bench enforces this.
//! * **Exact under parallelism.** Counter merging is commutative addition,
//!   so for a deterministic workload the merged counters under
//!   `--threads N` equal the `threads = 1` totals exactly (durations and
//!   gauges are timing-dependent and excluded from that guarantee).
//!
//! # Metric names
//!
//! Names are dotted strings, optionally labelled (e.g. per root function):
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `stage.collect` / `stage.explore` / `stage.filter` | histogram | wall-clock per pipeline stage |
//! | `collect.roots`, `collect.call_edges` | counter | collector output sizes |
//! | `explore.root` (label = function) | histogram | per-root exploration time |
//! | `path.paths`, `path.insts`, `path.budget_exhausted` | counter | exploration volume |
//! | `alias.op` (label = move/load/store/gep/index/const/addr) | counter | alias-graph updates by rule |
//! | `typestate.transitions` | counter | alias-aware FSM transitions |
//! | `constraints.emitted` | counter | path constraints pushed |
//! | `driver.threads` | gauge | worker threads used |
//! | `driver.work_steals` | counter | roots stolen across queues |
//! | `validate.conjunctions` | counter | stage-2 solver questions asked |
//! | `validate.cache_hit` / `validate.cache_miss` | counter | [`crate::validate::ValidationCache`] outcomes |
//! | `validate.solve` | histogram | time spent inside stage-2 solving |
//! | `smt.solve_calls`, `smt.push`, `smt.pop` | counter | solver API traffic |
//! | `smt.propagations` | counter | interval-propagation iterations |
//! | `smt.scope_depth.max` | gauge | deepest push/pop nesting seen |

use crate::json;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of log2 histogram buckets: bucket `i` counts values `v` with
/// `64 - v.leading_zeros() == i`, i.e. bucket 0 holds `v == 0`, bucket 1
/// holds `v == 1`, bucket `i` holds `2^(i-1) <= v < 2^i`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Schema version stamped into [`TelemetrySnapshot::to_json`] output.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 1;

/// One recorded metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Metric {
    /// A monotonically increasing count.
    Counter(u64),
    /// A level; merging keeps the maximum.
    Gauge(i64),
    /// A duration histogram over nanosecond samples, with fixed log2
    /// buckets plus exact count/total/min/max.
    Histogram(Histogram),
}

/// Fixed-bucket log2 histogram of nanosecond durations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub total_ns: u64,
    /// Smallest sample (ns); meaningless when `count == 0`.
    pub min_ns: u64,
    /// Largest sample (ns).
    pub max_ns: u64,
    buckets: Box<[u64; HISTOGRAM_BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: Box::new([0; HISTOGRAM_BUCKETS]),
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.buckets[Self::bucket_of(ns)] += 1;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += *src;
        }
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Non-empty buckets as `(bucket_index, count)` pairs — the sparse
    /// form used by the JSON schema.
    pub fn sparse_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

/// Key identifying a metric: a static name plus an optional label (e.g.
/// the root function for `explore.root`).
pub type MetricKey = (&'static str, Option<Box<str>>);

/// A per-worker shard of recorded metrics. Not shared: each worker (and
/// each [`crate::path::Explorer`]) owns one and records without locking;
/// shards are merged into the session [`Telemetry`] at the end.
#[derive(Debug, Default)]
pub struct TelemetrySink {
    metrics: HashMap<MetricKey, Metric>,
}

impl TelemetrySink {
    /// An empty sink.
    pub fn new() -> Self {
        TelemetrySink::default()
    }

    /// Adds `n` to the counter `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        self.add_labeled(name, None, n);
    }

    /// Adds `n` to the counter `name` with a label.
    pub fn add_labeled(&mut self, name: &'static str, label: Option<Box<str>>, n: u64) {
        match self
            .metrics
            .entry((name, label))
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(c) => *c += n,
            _ => debug_assert!(false, "metric `{name}` is not a counter"),
        }
    }

    /// Raises the gauge `name` to at least `v`.
    pub fn gauge_max(&mut self, name: &'static str, v: i64) {
        match self
            .metrics
            .entry((name, None))
            .or_insert(Metric::Gauge(i64::MIN))
        {
            Metric::Gauge(g) => *g = (*g).max(v),
            _ => debug_assert!(false, "metric `{name}` is not a gauge"),
        }
    }

    /// Records a duration sample (in nanoseconds) into histogram `name`.
    pub fn record_ns(&mut self, name: &'static str, label: Option<Box<str>>, ns: u64) {
        match self
            .metrics
            .entry((name, label))
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.record(ns),
            _ => debug_assert!(false, "metric `{name}` is not a histogram"),
        }
    }

    /// Merges another sink into this one (commutative for counters and
    /// histograms, max for gauges).
    pub fn merge(&mut self, other: TelemetrySink) {
        for (key, metric) in other.metrics {
            match self.metrics.entry(key) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(metric);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => match (e.get_mut(), metric) {
                    (Metric::Counter(a), Metric::Counter(b)) => *a += b,
                    (Metric::Gauge(a), Metric::Gauge(b)) => *a = (*a).max(b),
                    (Metric::Histogram(a), Metric::Histogram(b)) => a.merge(&b),
                    _ => debug_assert!(false, "metric kind mismatch on merge"),
                },
            }
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }
}

/// Session-level telemetry: the enable gate plus the merge target for all
/// per-worker sinks. Shared across the analysis as `Arc<Telemetry>`.
#[derive(Debug, Default)]
pub struct Telemetry {
    enabled: AtomicBool,
    merged: Mutex<TelemetrySink>,
}

impl Telemetry {
    /// A new registry with the given enable state.
    pub fn new(enabled: bool) -> Self {
        Telemetry {
            enabled: AtomicBool::new(enabled),
            merged: Mutex::new(TelemetrySink::new()),
        }
    }

    /// Whether recording is on. A single relaxed atomic load — this is the
    /// whole cost of disabled telemetry on shared paths.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Merges a worker's shard into the session totals.
    pub fn merge(&self, sink: TelemetrySink) {
        if sink.is_empty() {
            return;
        }
        self.merged.lock().unwrap().merge(sink);
    }

    /// Records directly into the merged sink (for one-shot stage-level
    /// events outside the per-worker hot paths).
    pub fn record_direct(&self, f: impl FnOnce(&mut TelemetrySink)) {
        if !self.is_enabled() {
            return;
        }
        f(&mut self.merged.lock().unwrap());
    }

    /// Takes a snapshot of everything merged so far, sorted by
    /// `(name, label)` so output is deterministic.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let merged = self.merged.lock().unwrap();
        let mut entries: Vec<MetricEntry> = merged
            .metrics
            .iter()
            .map(|((name, label), metric)| MetricEntry {
                name: (*name).to_owned(),
                label: label.as_ref().map(|l| l.to_string()),
                metric: metric.clone(),
            })
            .collect();
        entries.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        TelemetrySnapshot { entries }
    }
}

/// A span timer: measures wall-clock from construction to [`Span::finish`]
/// and records it into a histogram. When telemetry is disabled the
/// constructor takes one branch and never reads the clock.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Starts a span, reading the clock only when `enabled` is true.
    #[inline]
    pub fn start(enabled: bool, name: &'static str) -> Span {
        Span {
            name,
            start: if enabled { Some(Instant::now()) } else { None },
        }
    }

    /// Finishes the span into `sink` (no-op when started disabled).
    pub fn finish(self, sink: &mut TelemetrySink) {
        self.finish_labeled(sink, None);
    }

    /// Finishes the span with a label, e.g. the root function name.
    pub fn finish_labeled(self, sink: &mut TelemetrySink, label: Option<Box<str>>) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            sink.record_ns(self.name, label, ns);
        }
    }

    /// Whether the span is live (telemetry was enabled at start).
    pub fn is_live(&self) -> bool {
        self.start.is_some()
    }
}

/// Starts a [`Span`]: `span!(enabled, "alias.resolve")`. Sugar so call
/// sites read as annotations rather than plumbing.
#[macro_export]
macro_rules! span {
    ($enabled:expr, $name:literal) => {
        $crate::telemetry::Span::start($enabled, $name)
    };
}

/// One metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// Dotted metric name (see module docs for the catalog).
    pub name: String,
    /// Optional label, e.g. a function name.
    pub label: Option<String>,
    /// The recorded value.
    pub metric: Metric,
}

/// An immutable, sorted view of everything recorded during one analysis.
/// Carried on [`crate::SessionOutcome`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// All metrics, sorted by `(name, label)`.
    pub entries: Vec<MetricEntry>,
}

impl TelemetrySnapshot {
    /// Whether nothing was recorded (telemetry disabled).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a metric by name and label.
    pub fn get(&self, name: &str, label: Option<&str>) -> Option<&Metric> {
        self.entries
            .iter()
            .find(|e| e.name == name && e.label.as_deref() == label)
            .map(|e| &e.metric)
    }

    /// The value of an unlabelled counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name, None) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Sums a counter across all its labels.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| match &e.metric {
                Metric::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// The value of a gauge (None when absent).
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name, None) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// An unlabelled histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.get(name, None) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Only the counter entries, for exactness comparisons across thread
    /// counts (durations and gauges are timing-dependent).
    pub fn counters(&self) -> Vec<(&str, Option<&str>, u64)> {
        self.entries
            .iter()
            .filter_map(|e| match &e.metric {
                Metric::Counter(c) => Some((e.name.as_str(), e.label.as_deref(), *c)),
                _ => None,
            })
            .collect()
    }

    /// Serializes the snapshot. Schema (`telemetry` object in the
    /// `--stats-json` document):
    ///
    /// ```json
    /// {
    ///   "schema_version": 1,
    ///   "metrics": [
    ///     {"name": "path.paths", "kind": "counter", "value": 42},
    ///     {"name": "driver.threads", "kind": "gauge", "value": 8},
    ///     {"name": "explore.root", "label": "probe", "kind": "histogram",
    ///      "count": 1, "total_ns": 1200, "min_ns": 1200, "max_ns": 1200,
    ///      "buckets": [[11, 1]]}
    ///   ]
    /// }
    /// ```
    ///
    /// `label` is omitted when absent; `buckets` is sparse
    /// `[bucket_index, count]` pairs over the fixed log2 buckets.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema_version\": {TELEMETRY_SCHEMA_VERSION},\n  \"metrics\": ["
        );
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "    {{\"name\": {}", json::quote(&e.name));
            if let Some(label) = &e.label {
                let _ = write!(out, ", \"label\": {}", json::quote(label));
            }
            match &e.metric {
                Metric::Counter(c) => {
                    let _ = write!(out, ", \"kind\": \"counter\", \"value\": {c}");
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, ", \"kind\": \"gauge\", \"value\": {g}");
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        ", \"kind\": \"histogram\", \"count\": {}, \"total_ns\": {}, \
                         \"min_ns\": {}, \"max_ns\": {}, \"buckets\": [",
                        h.count,
                        h.total_ns,
                        if h.count == 0 { 0 } else { h.min_ns },
                        h.max_ns
                    );
                    for (j, (idx, c)) in h.sparse_buckets().iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "[{idx}, {c}]");
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}");
        out
    }

    /// Renders the human `--profile` table: stage wall-clock breakdown,
    /// top-`top_n` slowest roots, cache hit rates, and solver traffic.
    pub fn render_profile(&self, top_n: usize) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("telemetry was disabled; nothing to profile\n");
            return out;
        }

        // Stage breakdown, in pipeline order. The session-level spans
        // (`driver.serve.*`) are absent from in-memory `analyze_module` runs
        // and then show as zero.
        let stages = [
            ("store load", "driver.serve.store_load"),
            ("compile", "driver.serve.compile"),
            ("collect", "stage.collect"),
            ("fingerprint", "driver.serve.fingerprint"),
            ("explore", "stage.explore"),
            ("filter", "stage.filter"),
            ("store save", "driver.serve.store_save"),
        ];
        let total_ns: u64 = stages
            .iter()
            .filter_map(|(_, m)| self.histogram(m))
            .map(|h| h.total_ns)
            .sum();
        out.push_str("stage breakdown\n");
        for (label, metric) in stages {
            let ns = self.histogram(metric).map_or(0, |h| h.total_ns);
            let pct = if total_ns == 0 {
                0.0
            } else {
                100.0 * ns as f64 / total_ns as f64
            };
            let _ = writeln!(out, "  {label:<11} {:>12}  {pct:5.1}%", fmt_ns(ns));
        }

        // Slowest roots.
        let mut roots: Vec<(&str, u64)> = self
            .entries
            .iter()
            .filter(|e| e.name == "explore.root")
            .filter_map(|e| match (&e.label, &e.metric) {
                (Some(l), Metric::Histogram(h)) => Some((l.as_str(), h.total_ns)),
                _ => None,
            })
            .collect();
        roots.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        if !roots.is_empty() {
            let labeled_counter = |name: &str, label: &str| match self.get(name, Some(label)) {
                Some(Metric::Counter(c)) => *c,
                _ => 0,
            };
            let _ = writeln!(
                out,
                "top {} slowest roots ({:<28} {:>12} {:>8} {:>10})",
                top_n.min(roots.len()),
                "root",
                "time",
                "forks",
                "copied"
            );
            for (name, ns) in roots.iter().take(top_n) {
                let forks = labeled_counter("driver.explore.fork.forks", name);
                let copied = labeled_counter("driver.explore.fork.bytes_copied", name);
                let _ = writeln!(
                    out,
                    "  {name:<28} {:>12} {forks:>8} {:>10}",
                    fmt_ns(*ns),
                    fmt_bytes(copied)
                );
            }
        }

        // Cache hit rates.
        let hits = self.counter("validate.cache_hit");
        let misses = self.counter("validate.cache_miss");
        if hits + misses > 0 {
            let _ = writeln!(
                out,
                "validation cache: {hits} hits / {misses} misses ({:.1}% hit rate)",
                100.0 * hits as f64 / (hits + misses) as f64
            );
        }

        // Solver traffic.
        let solves = self.counter("smt.solve_calls");
        if solves > 0 {
            let _ = writeln!(
                out,
                "smt: {solves} solve calls, {} push / {} pop, max scope depth {}, \
                 {} propagation steps",
                self.counter("smt.push"),
                self.counter("smt.pop"),
                self.gauge("smt.scope_depth.max").unwrap_or(0),
                self.counter("smt.propagations")
            );
        }

        // Volume summary.
        let _ = writeln!(
            out,
            "volume: {} paths, {} insts, {} alias ops, {} typestate transitions, \
             {} constraints",
            self.counter("path.paths"),
            self.counter("path.insts"),
            self.counter_sum("alias.op"),
            self.counter("typestate.transitions"),
            self.counter("constraints.emitted")
        );
        // Branch-fork costs (copy-on-write path state).
        let forks = self.counter_sum("driver.explore.fork.forks");
        if forks > 0 {
            let _ = writeln!(
                out,
                "forks: {forks} state forks, {} copied / {} shared, \
                 journal depth max {}, live state max {}",
                fmt_bytes(self.counter_sum("driver.explore.fork.bytes_copied")),
                fmt_bytes(self.counter("driver.explore.fork.bytes_shared")),
                self.gauge("driver.explore.fork.journal_depth.max")
                    .unwrap_or(0),
                fmt_bytes(
                    self.gauge("driver.explore.fork.live_bytes.max")
                        .unwrap_or(0) as u64
                )
            );
        }
        if let Some(threads) = self.gauge("driver.threads") {
            let _ = writeln!(
                out,
                "driver: {threads} threads, {} work steals",
                self.counter("driver.work_steals")
            );
        }
        // Fault containment — shown only when the recovery ladder actually
        // intervened, so fault-free profiles are unchanged.
        let quarantined = self.counter_sum("driver.recover.quarantined");
        let demoted = self.counter("driver.recover.demoted");
        let deadline_hits = self.counter("driver.recover.deadline_hits");
        let live_bytes_hits = self.counter("driver.recover.live_bytes_hits");
        if quarantined + demoted + deadline_hits + live_bytes_hits > 0 {
            let _ = writeln!(
                out,
                "recover: {quarantined} quarantined, {demoted} demoted, \
                 {deadline_hits} deadline trips, {live_bytes_hits} live-bytes trips"
            );
        }
        out
    }
}

/// Formats a byte count human-readably (B/KiB/MiB/GiB).
fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2}KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

/// Formats nanoseconds human-readably (ns/µs/ms/s).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_records_and_merges() {
        let mut a = Histogram::default();
        a.record(5);
        a.record(100);
        let mut b = Histogram::default();
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.total_ns, 112);
        assert_eq!(a.min_ns, 5);
        assert_eq!(a.max_ns, 100);
        assert_eq!(a.mean_ns(), 37);
    }

    #[test]
    fn sink_counter_and_gauge_merge() {
        let mut a = TelemetrySink::new();
        a.add("x", 2);
        a.gauge_max("g", 3);
        let mut b = TelemetrySink::new();
        b.add("x", 5);
        b.gauge_max("g", 1);
        b.add_labeled("alias.op", Some("move".into()), 4);
        a.merge(b);
        let tel = Telemetry::new(true);
        tel.merge(a);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("x"), 7);
        assert_eq!(snap.gauge("g"), Some(3));
        assert_eq!(snap.counter_sum("alias.op"), 4);
    }

    #[test]
    fn disabled_span_never_records() {
        let span = Span::start(false, "stage.collect");
        assert!(!span.is_live());
        let mut sink = TelemetrySink::new();
        span.finish(&mut sink);
        assert!(sink.is_empty());
    }

    #[test]
    fn enabled_span_records_histogram() {
        let span = Span::start(true, "stage.collect");
        let mut sink = TelemetrySink::new();
        span.finish(&mut sink);
        let tel = Telemetry::new(true);
        tel.merge(sink);
        let h = tel.snapshot();
        assert_eq!(h.histogram("stage.collect").unwrap().count, 1);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let mut sink = TelemetrySink::new();
        sink.add("z.last", 1);
        sink.add("a.first", 1);
        sink.add_labeled("m.mid", Some("b".into()), 1);
        sink.add_labeled("m.mid", Some("a".into()), 1);
        let tel = Telemetry::new(true);
        tel.merge(sink);
        let names: Vec<String> = tel
            .snapshot()
            .entries
            .iter()
            .map(|e| format!("{}/{}", e.name, e.label.as_deref().unwrap_or("-")))
            .collect();
        assert_eq!(names, ["a.first/-", "m.mid/a", "m.mid/b", "z.last/-"]);
    }

    #[test]
    fn snapshot_json_parses_and_round_trips_counters() {
        let mut sink = TelemetrySink::new();
        sink.add("path.paths", 42);
        sink.gauge_max("driver.threads", 8);
        sink.record_ns("explore.root", Some("probe".into()), 1200);
        let tel = Telemetry::new(true);
        tel.merge(sink);
        let snap = tel.snapshot();
        let text = snap.to_json();
        let v = crate::json::JsonValue::parse(&text).expect("snapshot JSON must parse");
        assert_eq!(
            v.get("schema_version").unwrap().as_u64(),
            Some(TELEMETRY_SCHEMA_VERSION as u64)
        );
        let metrics = v.get("metrics").unwrap().as_array().unwrap();
        assert_eq!(metrics.len(), 3);
        let paths = metrics
            .iter()
            .find(|m| m.get("name").unwrap().as_str() == Some("path.paths"))
            .unwrap();
        assert_eq!(paths.get("kind").unwrap().as_str(), Some("counter"));
        assert_eq!(paths.get("value").unwrap().as_u64(), Some(42));
        let hist = metrics
            .iter()
            .find(|m| m.get("kind").unwrap().as_str() == Some("histogram"))
            .unwrap();
        assert_eq!(hist.get("label").unwrap().as_str(), Some("probe"));
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(hist.get("total_ns").unwrap().as_u64(), Some(1200));
        let buckets = hist.get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].as_array().unwrap()[0].as_u64(), Some(11));
    }

    #[test]
    fn profile_render_mentions_stages_and_caches() {
        let mut sink = TelemetrySink::new();
        sink.record_ns("driver.serve.store_load", None, 500);
        sink.record_ns("driver.serve.compile", None, 2_000);
        sink.record_ns("stage.collect", None, 1_000);
        sink.record_ns("driver.serve.fingerprint", None, 1_000);
        sink.record_ns("stage.explore", None, 4_000);
        sink.record_ns("stage.filter", None, 1_000);
        sink.record_ns("driver.serve.store_save", None, 500);
        sink.record_ns("explore.root", Some("slow_fn".into()), 3_000);
        sink.add("validate.cache_hit", 3);
        sink.add("validate.cache_miss", 1);
        let tel = Telemetry::new(true);
        tel.merge(sink);
        let text = tel.snapshot().render_profile(5);
        assert!(text.contains("stage breakdown"), "{text}");
        // Every stage row, in pipeline order, as a share of the 10µs total.
        let rows = [
            ("store load", "5.0%"),
            ("compile", "20.0%"),
            ("collect", "10.0%"),
            ("fingerprint", "10.0%"),
            ("explore", "40.0%"),
            ("filter", "10.0%"),
            ("store save", "5.0%"),
        ];
        let mut at = 0;
        for (label, pct) in rows {
            let line = text[at..]
                .lines()
                .find(|l| l.trim_start().starts_with(label))
                .unwrap_or_else(|| panic!("no {label} row: {text}"));
            assert!(line.ends_with(pct), "{label}: {line}");
            at = text.find(line).unwrap() + line.len();
        }
        assert!(text.contains("slow_fn"), "{text}");
        assert!(text.contains("75.0% hit rate"), "{text}");
    }

    #[test]
    fn profile_recovery_line_gated_on_recover_counters() {
        let tel = Telemetry::new(true);
        let mut sink = TelemetrySink::new();
        sink.record_ns("stage.explore", None, 1_000);
        tel.merge(sink);
        let quiet = tel.snapshot().render_profile(5);
        assert!(!quiet.contains("recover:"), "{quiet}");

        let mut sink = TelemetrySink::new();
        sink.add_labeled("driver.recover.quarantined", Some("explore".into()), 2);
        sink.add("driver.recover.demoted", 1);
        sink.add("driver.recover.deadline_hits", 3);
        tel.merge(sink);
        let noisy = tel.snapshot().render_profile(5);
        assert!(
            noisy.contains(
                "recover: 2 quarantined, 1 demoted, 3 deadline trips, 0 live-bytes trips"
            ),
            "{noisy}"
        );
    }

    #[test]
    fn merge_order_does_not_change_counters() {
        let mk = |a: u64, b: u64| {
            let mut s = TelemetrySink::new();
            s.add("x", a);
            s.add_labeled("y", Some("l".into()), b);
            s
        };
        let t1 = Telemetry::new(true);
        t1.merge(mk(1, 10));
        t1.merge(mk(2, 20));
        let t2 = Telemetry::new(true);
        t2.merge(mk(2, 20));
        t2.merge(mk(1, 10));
        assert_eq!(t1.snapshot().counters(), t2.snapshot().counters());
    }

    #[test]
    fn span_macro_compiles() {
        let s = span!(true, "stage.filter");
        assert!(s.is_live());
    }
}
