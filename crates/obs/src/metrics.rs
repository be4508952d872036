//! Counters, gauges and log-linear histograms with Prometheus-style
//! text exposition and a serde JSON snapshot.
//!
//! Metrics are keyed by a static name plus a small ordered list of
//! label pairs (`device="FDC"`, or `op="SubmitBatch",stage="auth"`),
//! which covers everything the enforcement pipeline exports while
//! keeping the exposition ordering deterministic (`BTreeMap` iteration
//! — the golden test relies on it). Exposition follows the Prometheus
//! text format: label values are escaped, histogram buckets render as
//! a dense cumulative `le` grid (every grid boundary up to the largest
//! observed bucket, empty buckets included, so boundaries never
//! appear or vanish between scrapes) closed by `+Inf`, `_sum` and
//! `_count` series.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Linear sub-buckets per power-of-two octave. Four sub-buckets bound
/// the relative quantization error at 25%.
const SUBS: u64 = 4;

/// A log-linear-bucket histogram over `u64` samples.
///
/// Values below [`SUBS`] get exact unit buckets; above that, each
/// power-of-two octave `[2^e, 2^(e+1))` is split into [`SUBS`] equal
/// linear sub-buckets, HDR-histogram style. Recording is O(1) with no
/// allocation once the bucket vector covers the observed range.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index sample `v` falls into.
    pub fn bucket_index(v: u64) -> usize {
        if v < SUBS {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros() as u64;
        (SUBS + (exp - 2) * SUBS + ((v >> (exp - 2)) & (SUBS - 1))) as usize
    }

    /// Inclusive `(lower, upper)` value bounds of bucket `idx`.
    pub fn bucket_bounds(idx: usize) -> (u64, u64) {
        let idx = idx as u64;
        if idx < SUBS {
            return (idx, idx);
        }
        let oct = (idx - SUBS) / SUBS;
        let sub = (idx - SUBS) % SUBS;
        let lower = (SUBS + sub) << oct;
        (lower, lower + ((1u64 << oct) - 1))
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = Self::bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile: the upper bound of the first bucket whose
    /// cumulative count reaches `q * count`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::bucket_bounds(idx).1.min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lower, upper, count)` triples.
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| {
                let (lo, hi) = Self::bucket_bounds(idx);
                (lo, hi, c)
            })
            .collect()
    }

    /// The dense cumulative bucket grid for exposition: one
    /// `(upper_bound, cumulative_count)` pair per grid bucket from 0
    /// through the highest bucket any sample reached, empty buckets
    /// included. The boundaries come from the fixed log-linear grid,
    /// so between scrapes an existing `le` series only ever grows —
    /// it never disappears or shifts.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            out.push((Self::bucket_bounds(idx).1, cum));
        }
        out
    }
}

/// Escapes a label value per the Prometheus text format: backslash,
/// double quote and newline must be escaped inside `v="..."`.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Metric identity: static name plus an ordered list of label pairs
/// (empty for unlabeled series; one or two pairs in practice). The
/// derived order is the one [`SeriesId`] spells out, as `Borrow`
/// requires.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
}

/// A series identity as the maps order it, implemented by the owned
/// [`Key`] and by the borrowed [`KeyRef`], so updating an existing
/// series looks it up without building an owned key.
trait SeriesId {
    fn name(&self) -> &'static str;
    fn label(&self, i: usize) -> Option<(&'static str, &str)>;
}

impl SeriesId for Key {
    fn name(&self) -> &'static str {
        self.name
    }

    fn label(&self, i: usize) -> Option<(&'static str, &str)> {
        self.labels.get(i).map(|(k, v)| (*k, v.as_str()))
    }
}

/// A series identity over borrowed label values: name and label pairs.
type KeyRef<'a> = (&'static str, &'a [(&'static str, &'a str)]);

impl SeriesId for KeyRef<'_> {
    fn name(&self) -> &'static str {
        self.0
    }

    fn label(&self, i: usize) -> Option<(&'static str, &str)> {
        self.1.get(i).copied()
    }
}

/// Name first, then the label pairs in order; a prefix sorts first.
impl Ord for dyn SeriesId + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.name().cmp(other.name()).then_with(|| {
            (0..)
                .map(|i| (self.label(i), other.label(i)))
                .find(|(a, b)| a != b || a.is_none())
                .map_or(Ordering::Equal, |(a, b)| a.cmp(&b))
        })
    }
}

impl PartialOrd for dyn SeriesId + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for dyn SeriesId + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for dyn SeriesId + '_ {}

impl<'a> Borrow<dyn SeriesId + 'a> for Key {
    fn borrow(&self) -> &(dyn SeriesId + 'a) {
        self
    }
}

/// Applies `f` to series `name{labels}`, building its owned key (the
/// only allocation) when the series is new.
fn with_series<V: Default>(
    map: &mut BTreeMap<Key, V>,
    name: &'static str,
    labels: &[(&'static str, &str)],
    f: impl FnOnce(&mut V),
) {
    match map.get_mut(&(name, labels) as &dyn SeriesId) {
        Some(v) => f(v),
        None => {
            let labels = labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
            f(map.entry(Key { name, labels }).or_default());
        }
    }
}

/// Series `name{labels}`, if it exists.
fn series<'m, V>(
    map: &'m BTreeMap<Key, V>,
    name: &'static str,
    labels: &[(&'static str, &str)],
) -> Option<&'m V> {
    map.get(&(name, labels) as &dyn SeriesId)
}

impl Key {
    /// The `{k="v",...}` suffix (empty string for unlabeled series),
    /// with `le` appended last when given — Prometheus convention.
    fn label_suffix(&self, le: Option<&str>) -> String {
        if self.labels.is_empty() && le.is_none() {
            return String::new();
        }
        let mut parts: Vec<String> =
            self.labels.iter().map(|(k, v)| format!("{}=\"{}\"", k, escape_label(v))).collect();
        if let Some(le) = le {
            parts.push(format!("le=\"{le}\""));
        }
        format!("{{{}}}", parts.join(","))
    }

    fn render(&self) -> String {
        format!("{}{}", self.name, self.label_suffix(None))
    }

    fn render_with_le(&self, le: &str) -> String {
        format!("{}_bucket{}", self.name, self.label_suffix(Some(le)))
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, i64>,
    histograms: BTreeMap<Key, Histogram>,
}

/// One metric series in a JSON snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeriesSnapshot {
    /// Metric name.
    pub name: String,
    /// First label pair, when the series is labeled (kept for
    /// single-label consumers; `labels` carries the full set).
    pub label: Option<(String, String)>,
    /// Every label pair, in exposition order.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub labels: Vec<(String, String)>,
    /// Counter value (counters only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub counter: Option<u64>,
    /// Gauge value (gauges only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub gauge: Option<i64>,
    /// Histogram summary (histograms only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub histogram: Option<HistogramSnapshot>,
}

/// A histogram rendered for the JSON snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Approximate median.
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Non-empty buckets as `(lower, upper, count)`.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistogramSnapshot {
    fn of(h: &Histogram) -> Self {
        HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            max: h.max(),
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p99: h.quantile(0.99),
            buckets: h.buckets(),
        }
    }
}

/// The registry: thread-safe, deterministic exposition order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to an unlabeled counter.
    pub fn inc(&self, name: &'static str, delta: u64) {
        with_series(&mut self.inner.lock().counters, name, &[], |c| *c += delta);
    }

    /// Adds `delta` to a labeled counter.
    pub fn inc_labeled(&self, name: &'static str, label: (&'static str, &str), delta: u64) {
        with_series(&mut self.inner.lock().counters, name, &[label], |c| *c += delta);
    }

    /// Sets an unlabeled gauge.
    pub fn set_gauge(&self, name: &'static str, value: i64) {
        with_series(&mut self.inner.lock().gauges, name, &[], |g| *g = value);
    }

    /// Adds `delta` (possibly negative) to an unlabeled gauge.
    pub fn add_gauge(&self, name: &'static str, delta: i64) {
        with_series(&mut self.inner.lock().gauges, name, &[], |g| *g += delta);
    }

    /// Records a sample into an unlabeled histogram.
    pub fn observe(&self, name: &'static str, value: u64) {
        with_series(&mut self.inner.lock().histograms, name, &[], |h| h.record(value));
    }

    /// Records a sample into a labeled histogram.
    pub fn observe_labeled(&self, name: &'static str, label: (&'static str, &str), value: u64) {
        with_series(&mut self.inner.lock().histograms, name, &[label], |h| h.record(value));
    }

    /// Records a sample into a two-label histogram (e.g.
    /// `sedspecd_request_ns{op,stage}`). Labels render in argument
    /// order, `le` last.
    pub fn observe_labeled2(
        &self,
        name: &'static str,
        l1: (&'static str, &str),
        l2: (&'static str, &str),
        value: u64,
    ) {
        with_series(&mut self.inner.lock().histograms, name, &[l1, l2], |h| h.record(value));
    }

    /// A labeled histogram's current state, if it exists.
    pub fn histogram(
        &self,
        name: &'static str,
        label: Option<(&'static str, &str)>,
    ) -> Option<Histogram> {
        series(&self.inner.lock().histograms, name, label.as_slice()).cloned()
    }

    /// A two-label histogram's current state, if it exists.
    pub fn histogram2(
        &self,
        name: &'static str,
        l1: (&'static str, &str),
        l2: (&'static str, &str),
    ) -> Option<Histogram> {
        series(&self.inner.lock().histograms, name, &[l1, l2]).cloned()
    }

    /// A counter's current value (0 when never incremented).
    pub fn counter(&self, name: &'static str, label: Option<(&'static str, &str)>) -> u64 {
        series(&self.inner.lock().counters, name, label.as_slice()).copied().unwrap_or(0)
    }

    /// The sum of a counter across all of its label values.
    pub fn sum_counter(&self, name: &'static str) -> u64 {
        self.inner.lock().counters.iter().filter(|(k, _)| k.name == name).map(|(_, &v)| v).sum()
    }

    /// Prometheus-style text exposition. One `# TYPE` line per metric
    /// name; histograms render cumulative `_bucket` series over the
    /// dense log-linear grid (empty buckets included, so `le`
    /// boundaries are stable between scrapes) plus `+Inf`, `_sum` and
    /// `_count`; label values are escaped per the text format.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let inner = self.inner.lock();
        let mut out = String::new();
        let mut last_type: Option<&'static str> = None;
        let mut type_line = |out: &mut String, name: &'static str, kind: &str| {
            if last_type != Some(name) {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_type = Some(name);
            }
        };
        for (key, value) in &inner.counters {
            type_line(&mut out, key.name, "counter");
            let _ = writeln!(out, "{} {}", key.render(), value);
        }
        for (key, value) in &inner.gauges {
            type_line(&mut out, key.name, "gauge");
            let _ = writeln!(out, "{} {}", key.render(), value);
        }
        for (key, h) in &inner.histograms {
            type_line(&mut out, key.name, "histogram");
            for (upper, cum) in h.cumulative_buckets() {
                let _ = writeln!(out, "{} {}", key.render_with_le(&upper.to_string()), cum);
            }
            let _ = writeln!(out, "{} {}", key.render_with_le("+Inf"), h.count());
            let _ = writeln!(out, "{}_sum{} {}", key.name, key.label_suffix(None), h.sum());
            let _ = writeln!(out, "{}_count{} {}", key.name, key.label_suffix(None), h.count());
        }
        out
    }

    /// Every series, for the JSON snapshot.
    pub fn snapshot(&self) -> Vec<SeriesSnapshot> {
        let inner = self.inner.lock();
        let series = |key: &Key| {
            let labels: Vec<(String, String)> =
                key.labels.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
            (key.name.to_string(), labels.first().cloned(), labels)
        };
        let mut out = Vec::new();
        for (key, &value) in &inner.counters {
            let (name, label, labels) = series(key);
            out.push(SeriesSnapshot {
                name,
                label,
                labels,
                counter: Some(value),
                gauge: None,
                histogram: None,
            });
        }
        for (key, &value) in &inner.gauges {
            let (name, label, labels) = series(key);
            out.push(SeriesSnapshot {
                name,
                label,
                labels,
                counter: None,
                gauge: Some(value),
                histogram: None,
            });
        }
        for (key, h) in &inner.histograms {
            let (name, label, labels) = series(key);
            out.push(SeriesSnapshot {
                name,
                label,
                labels,
                counter: None,
                gauge: None,
                histogram: Some(HistogramSnapshot::of(h)),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_buckets_below_four() {
        for v in 0..4u64 {
            let idx = Histogram::bucket_index(v);
            assert_eq!(idx, v as usize);
            assert_eq!(Histogram::bucket_bounds(idx), (v, v));
        }
    }

    #[test]
    fn bucket_boundaries_are_exact() {
        // Every bucket's own bounds map back to it, and upper+1 moves on.
        for idx in 0..200usize {
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert_eq!(Histogram::bucket_index(lo), idx, "lower bound of bucket {idx}");
            assert_eq!(Histogram::bucket_index(hi), idx, "upper bound of bucket {idx}");
            assert_eq!(Histogram::bucket_index(hi + 1), idx + 1, "first value past bucket {idx}");
        }
    }

    #[test]
    fn octave_boundaries() {
        // Powers of two open a fresh sub-bucket row.
        for exp in 2..63u32 {
            let v = 1u64 << exp;
            let idx = Histogram::bucket_index(v);
            assert_eq!(Histogram::bucket_bounds(idx).0, v, "2^{exp} starts its bucket");
        }
        // u64::MAX lands in the last bucket, whose upper bound is exact.
        let idx = Histogram::bucket_index(u64::MAX);
        let (lo, hi) = Histogram::bucket_bounds(idx);
        assert!(lo < u64::MAX);
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn relative_error_bounded_at_25_percent() {
        for idx in 4..200usize {
            let (lo, hi) = Histogram::bucket_bounds(idx);
            let width = hi - lo + 1;
            assert!(width * 4 <= lo, "bucket {idx} [{lo},{hi}] wider than 25% of its lower bound");
        }
    }

    #[test]
    fn quantiles_track_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.5);
        assert!((400..=625).contains(&p50), "p50 {p50} off for uniform 1..=1000");
        let p99 = h.quantile(0.99);
        assert!((990..=1024 + 255).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn prometheus_exposition_golden() {
        let reg = MetricsRegistry::new();
        reg.inc("sedspec_rounds_total", 3);
        reg.inc_labeled("sedspec_halts_total", ("device", "FDC"), 1);
        reg.set_gauge("sedspec_quarantined_tenants", 2);
        for v in [1u64, 2, 5, 5, 17] {
            reg.observe_labeled("sedspec_walk_ns", ("device", "FDC"), v);
        }
        let got = reg.render_prometheus();
        // The bucket grid is dense: every log-linear boundary up to
        // the largest observed bucket renders, empty ones included,
        // so `le` series are stable between scrapes.
        let want = "\
# TYPE sedspec_halts_total counter
sedspec_halts_total{device=\"FDC\"} 1
# TYPE sedspec_rounds_total counter
sedspec_rounds_total 3
# TYPE sedspec_quarantined_tenants gauge
sedspec_quarantined_tenants 2
# TYPE sedspec_walk_ns histogram
sedspec_walk_ns_bucket{device=\"FDC\",le=\"0\"} 0
sedspec_walk_ns_bucket{device=\"FDC\",le=\"1\"} 1
sedspec_walk_ns_bucket{device=\"FDC\",le=\"2\"} 2
sedspec_walk_ns_bucket{device=\"FDC\",le=\"3\"} 2
sedspec_walk_ns_bucket{device=\"FDC\",le=\"4\"} 2
sedspec_walk_ns_bucket{device=\"FDC\",le=\"5\"} 4
sedspec_walk_ns_bucket{device=\"FDC\",le=\"6\"} 4
sedspec_walk_ns_bucket{device=\"FDC\",le=\"7\"} 4
sedspec_walk_ns_bucket{device=\"FDC\",le=\"9\"} 4
sedspec_walk_ns_bucket{device=\"FDC\",le=\"11\"} 4
sedspec_walk_ns_bucket{device=\"FDC\",le=\"13\"} 4
sedspec_walk_ns_bucket{device=\"FDC\",le=\"15\"} 4
sedspec_walk_ns_bucket{device=\"FDC\",le=\"19\"} 5
sedspec_walk_ns_bucket{device=\"FDC\",le=\"+Inf\"} 5
sedspec_walk_ns_sum{device=\"FDC\"} 30
sedspec_walk_ns_count{device=\"FDC\"} 5
";
        assert_eq!(got, want);
    }

    #[test]
    fn dense_bucket_grid_is_stable_across_scrapes() {
        let reg = MetricsRegistry::new();
        reg.observe("sedspec_walk_ns", 17);
        let le_set = |text: &str| {
            text.lines()
                .filter_map(|l| l.split("le=\"").nth(1))
                .filter_map(|rest| rest.split('"').next())
                .map(String::from)
                .collect::<Vec<_>>()
        };
        let first = le_set(&reg.render_prometheus());
        // New samples inside the existing range must not change the
        // boundary set — only the counts.
        reg.observe("sedspec_walk_ns", 3);
        reg.observe("sedspec_walk_ns", 9);
        let second = le_set(&reg.render_prometheus());
        assert_eq!(first, second, "le boundaries moved under in-range samples");
        // Every prior boundary survives a range extension.
        reg.observe("sedspec_walk_ns", 1000);
        let third = le_set(&reg.render_prometheus());
        assert_eq!(&third[..second.len() - 1], &second[..second.len() - 1]);
        assert_eq!(third.last().map(String::as_str), Some("+Inf"));
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.inc_labeled("sedspec_faults_injected_total", ("kind", "say \"hi\"\\\n"), 1);
        let got = reg.render_prometheus();
        assert!(
            got.contains("sedspec_faults_injected_total{kind=\"say \\\"hi\\\"\\\\\\n\"} 1"),
            "unescaped exposition: {got}"
        );
    }

    #[test]
    fn two_label_histograms_render_with_le_last() {
        let reg = MetricsRegistry::new();
        reg.observe_labeled2("sedspecd_request_ns", ("op", "SubmitBatch"), ("stage", "auth"), 2);
        reg.observe_labeled2("sedspecd_request_ns", ("op", "Ping"), ("stage", "total"), 1);
        let got = reg.render_prometheus();
        assert!(got.contains("sedspecd_request_ns_bucket{op=\"Ping\",stage=\"total\",le=\"1\"} 1"));
        assert!(got.contains("sedspecd_request_ns_sum{op=\"SubmitBatch\",stage=\"auth\"} 2"));
        assert!(got.contains("sedspecd_request_ns_count{op=\"SubmitBatch\",stage=\"auth\"} 1"));
        let h = reg
            .histogram2("sedspecd_request_ns", ("op", "SubmitBatch"), ("stage", "auth"))
            .unwrap();
        assert_eq!(h.count(), 1);
        // The snapshot carries the full label set for both series.
        let snap = reg.snapshot();
        assert!(snap.iter().all(|s| s.labels.len() == 2));
        assert_eq!(snap[0].label, Some(("op".into(), "Ping".into())));
    }

    #[test]
    fn json_snapshot_round_trips() {
        let reg = MetricsRegistry::new();
        reg.inc("sedspec_rounds_total", 7);
        reg.observe("sedspec_blocks_per_round", 12);
        let json = serde_json::to_string(&reg.snapshot()).unwrap();
        let back: Vec<SeriesSnapshot> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].counter, Some(7));
        assert_eq!(back[1].histogram.as_ref().unwrap().count, 1);
    }
}
