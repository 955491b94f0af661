//! Lock-free metrics: counters, gauges, log2 histograms, and the
//! registry that names and renders them.
//!
//! All mutation is relaxed atomics — the hot path never locks. The
//! registry itself takes a short mutex only at registration (service
//! start) and at exposition (a `metrics` request), never per sample.
//!
//! Names follow the Prometheus convention (`serve_requests_total`);
//! a *static label* can be baked into a series at registration
//! (`serve_requests_total{type="solve"}`) — the label set is fixed at
//! service start, so exposition needs no label interning or hashing.

use crate::json::{obj, Json};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the count to `total` when it is behind, for a count kept
    /// elsewhere and copied in at read. The count never falls, and
    /// concurrent raises cannot add twice.
    pub fn raise_to(&self, total: u64) {
        self.0.fetch_max(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depth, open
/// sessions, uptime). Set-at-read by the exposition path for values
/// that already live elsewhere (cache length, pool depth).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count of every [`Histogram`]: bucket `i` holds samples whose
/// bit length is `i` (i.e. values in `[2^(i-1), 2^i)`), bucket 0 holds
/// zeros, and the last bucket saturates. 40 buckets cover `[0, 2^39)` —
/// for microsecond samples that is ~6.4 days, far past any request.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed-bucket log2 histogram. `observe` is two relaxed atomic adds;
/// there is no count field to drift — the total count *is* the sum of
/// the bucket counts, so concurrent bursts can never make the totals
/// inconsistent.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in: its bit length, clamped to the last
/// bucket.
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`); the last bucket is
/// unbounded and renders as `+Inf`.
pub fn bucket_upper_bound(i: usize) -> u64 {
    (1u64 << i) - 1
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total samples recorded (sum over buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded sample values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// One registered series.
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: String,
    help: &'static str,
    metric: Metric,
}

impl Entry {
    /// Series name without the optional static label suffix.
    fn base(&self) -> &str {
        self.name.split('{').next().unwrap_or(&self.name)
    }
}

/// The process-wide registry: named handles registered once at service
/// start, rendered on demand. Registration is idempotent by full name
/// (the existing handle is returned), so a `Default`-constructed stats
/// block in a unit test and the service share one code path.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.entries.lock().map(|e| e.len()).unwrap_or(0);
        write!(f, "Registry({n} series)")
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register<T: Default>(
        &self,
        name: &str,
        help: &'static str,
        wrap: impl Fn(Arc<T>) -> Metric,
        unwrap: impl Fn(&Metric) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            return unwrap(&e.metric)
                .unwrap_or_else(|| panic!("metric {name} re-registered with another type"));
        }
        let handle = Arc::new(T::default());
        entries.push(Entry {
            name: name.to_string(),
            help,
            metric: wrap(Arc::clone(&handle)),
        });
        handle
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&self, name: &str, help: &'static str) -> Arc<Counter> {
        self.register(name, help, Metric::Counter, |m| match m {
            Metric::Counter(c) => Some(Arc::clone(c)),
            _ => None,
        })
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &str, help: &'static str) -> Arc<Gauge> {
        self.register(name, help, Metric::Gauge, |m| match m {
            Metric::Gauge(g) => Some(Arc::clone(g)),
            _ => None,
        })
    }

    /// Registers (or retrieves) a histogram.
    pub fn histogram(&self, name: &str, help: &'static str) -> Arc<Histogram> {
        self.register(name, help, Metric::Histogram, |m| match m {
            Metric::Histogram(h) => Some(Arc::clone(h)),
            _ => None,
        })
    }

    /// Current value of a counter or gauge by full name.
    pub fn value(&self, name: &str) -> Option<u64> {
        let entries = self.entries.lock().expect("registry poisoned");
        entries
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| match &e.metric {
                Metric::Counter(c) => Some(c.get()),
                Metric::Gauge(g) => Some(g.get()),
                Metric::Histogram(_) => None,
            })
    }

    /// Renders every series as one JSON object: counters and gauges as
    /// numbers, histograms as `{count, sum, buckets: [[le, n], ...]}`
    /// with only non-empty buckets listed.
    pub fn expose_json(&self) -> Json {
        let entries = self.entries.lock().expect("registry poisoned");
        let mut fields = Vec::with_capacity(entries.len());
        for e in entries.iter() {
            let v = match &e.metric {
                Metric::Counter(c) => c.get().into(),
                Metric::Gauge(g) => g.get().into(),
                Metric::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let buckets: Vec<Json> = counts
                        .iter()
                        .enumerate()
                        .filter(|(_, &n)| n > 0)
                        .map(|(i, &n)| {
                            let le: Json = if i == HISTOGRAM_BUCKETS - 1 {
                                "+Inf".into()
                            } else {
                                bucket_upper_bound(i).into()
                            };
                            Json::Arr(vec![le, n.into()])
                        })
                        .collect();
                    obj([
                        ("count", counts.iter().sum::<u64>().into()),
                        ("sum", h.sum().into()),
                        ("buckets", Json::Arr(buckets)),
                    ])
                }
            };
            fields.push((e.name.clone(), v));
        }
        Json::Obj(fields)
    }

    /// Renders every series as a Prometheus-style text exposition:
    /// `# HELP` / `# TYPE` per series family, cumulative `le` buckets
    /// plus `_sum` / `_count` for histograms.
    pub fn expose_text(&self) -> String {
        let entries = self.entries.lock().expect("registry poisoned");
        let mut out = String::new();
        let mut last_base = "";
        for e in entries.iter() {
            if e.base() != last_base {
                let kind = match &e.metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# HELP {} {}\n", e.base(), e.help));
                out.push_str(&format!("# TYPE {} {}\n", e.base(), kind));
            }
            match &e.metric {
                Metric::Counter(c) => out.push_str(&format!("{} {}\n", e.name, c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{} {}\n", e.name, g.get())),
                Metric::Histogram(h) => {
                    // A labeled series (`name{family="flow",...}`) must
                    // merge its static labels with the `le` label on
                    // every bucket line — `name{labels}_bucket{le=..}`
                    // is not valid exposition text.
                    let (base, labels) = match e.name.split_once('{') {
                        Some((b, rest)) => (b, Some(rest.trim_end_matches('}'))),
                        None => (e.name.as_str(), None),
                    };
                    let bucket = |le: &str| match labels {
                        Some(l) => format!("{base}_bucket{{{l},le=\"{le}\"}}"),
                        None => format!("{base}_bucket{{le=\"{le}\"}}"),
                    };
                    let series = |suffix: &str| match labels {
                        Some(l) => format!("{base}{suffix}{{{l}}}"),
                        None => format!("{base}{suffix}"),
                    };
                    let counts = h.bucket_counts();
                    let total: u64 = counts.iter().sum();
                    let mut cumulative = 0u64;
                    for (i, &n) in counts.iter().enumerate() {
                        cumulative += n;
                        // Skip leading/trailing all-zero buckets but keep
                        // the cumulative contract: emit a bucket whenever
                        // it has samples, plus the final +Inf line.
                        if n == 0 {
                            continue;
                        }
                        if i == HISTOGRAM_BUCKETS - 1 {
                            continue; // rendered by the +Inf line below
                        }
                        out.push_str(&format!(
                            "{} {}\n",
                            bucket(&bucket_upper_bound(i).to_string()),
                            cumulative
                        ));
                    }
                    out.push_str(&format!("{} {}\n", bucket("+Inf"), total));
                    out.push_str(&format!("{} {}\n", series("_sum"), h.sum()));
                    out.push_str(&format!("{} {}\n", series("_count"), total));
                }
            }
            last_base = e.base();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("t_total", "a counter");
        let g = r.gauge("t_depth", "a gauge");
        c.inc();
        c.add(4);
        g.set(7);
        g.set(3);
        assert_eq!(r.value("t_total"), Some(5));
        assert_eq!(r.value("t_depth"), Some(3));
        assert_eq!(r.value("missing"), None);
        // A raise only ever moves a counter up.
        c.raise_to(9);
        c.raise_to(2);
        assert_eq!(r.value("t_total"), Some(9));
    }

    #[test]
    fn registration_is_idempotent_by_name() {
        let r = Registry::new();
        let a = r.counter("dup_total", "first");
        let b = r.counter("dup_total", "second");
        a.inc();
        b.inc();
        assert_eq!(r.value("dup_total"), Some(2));
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn re_registering_with_another_type_panics() {
        let r = Registry::new();
        let _ = r.counter("kind_clash", "counter");
        let _ = r.gauge("kind_clash", "gauge");
    }

    #[test]
    fn log2_bucketing_lands_on_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(255), 8);
        assert_eq!(bucket_index(256), 9);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Bucket i's inclusive upper bound is the largest value that
        // still lands in it.
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
            assert_eq!(bucket_index(bucket_upper_bound(i) + 1), i + 1);
        }
    }

    #[test]
    fn histogram_totals_are_consistent() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 3, 200, 4096] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 4301);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
    }

    /// The concurrent-burst contract: counters are monotone and
    /// histogram totals stay consistent under a multi-threaded storm.
    #[test]
    fn concurrent_burst_keeps_counters_monotone_and_histograms_consistent() {
        let r = Arc::new(Registry::new());
        let c = r.counter("burst_total", "burst counter");
        let h = r.histogram("burst_us", "burst histogram");
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 5_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (c, h) = (Arc::clone(&c), Arc::clone(&h));
                thread::spawn(move || {
                    let mut last = 0;
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.observe(t as u64 * 1000 + i % 97);
                        // Monotone from this thread's perspective.
                        let now = c.get();
                        assert!(now > last);
                        last = now;
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("burst thread panicked");
        }
        let expected = THREADS as u64 * PER_THREAD;
        assert_eq!(c.get(), expected);
        assert_eq!(h.count(), expected);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), expected);
    }

    #[test]
    fn text_exposition_renders_cumulative_buckets() {
        let r = Registry::new();
        let c = r.counter("exp_total", "requests served");
        let h = r.histogram("exp_us", "latency");
        c.add(3);
        h.observe(1); // bucket le=1
        h.observe(3); // bucket le=3
        h.observe(3);
        let text = r.expose_text();
        assert!(text.contains("# HELP exp_total requests served"));
        assert!(text.contains("# TYPE exp_total counter"));
        assert!(text.contains("exp_total 3"));
        assert!(text.contains("# TYPE exp_us histogram"));
        assert!(text.contains("exp_us_bucket{le=\"1\"} 1"));
        assert!(text.contains("exp_us_bucket{le=\"3\"} 3")); // cumulative
        assert!(text.contains("exp_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("exp_us_sum 7"));
        assert!(text.contains("exp_us_count 3"));
    }

    #[test]
    fn labeled_series_share_one_help_block() {
        let r = Registry::new();
        r.counter("lab_total{type=\"solve\"}", "requests by type")
            .inc();
        r.counter("lab_total{type=\"batch\"}", "requests by type")
            .add(2);
        let text = r.expose_text();
        assert_eq!(text.matches("# HELP lab_total").count(), 1);
        assert!(text.contains("lab_total{type=\"solve\"} 1"));
        assert!(text.contains("lab_total{type=\"batch\"} 2"));
        let json = r.expose_json();
        assert_eq!(
            json.get("lab_total{type=\"batch\"}").and_then(Json::as_u64),
            Some(2)
        );
    }

    #[test]
    fn bucket_lines_are_cumulative_and_monotone() {
        let r = Registry::new();
        let h = r.histogram("mono_us", "latency");
        // Spread samples across several buckets, including repeats.
        for v in [0u64, 1, 2, 3, 3, 100, 5000, 5000, u64::MAX] {
            h.observe(v);
        }
        let text = r.expose_text();
        let mut prev = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines().filter(|l| l.starts_with("mono_us_bucket")) {
            bucket_lines += 1;
            let n: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|s| s.parse().ok())
                .expect("bucket count");
            assert!(n >= prev, "cumulative counts must be non-decreasing");
            prev = n;
        }
        assert!(bucket_lines >= 4, "multiple buckets rendered");
        // The +Inf line carries the grand total and closes the series.
        assert!(text.contains("mono_us_bucket{le=\"+Inf\"} 9"));
        assert_eq!(prev, 9);
        assert!(text.contains("mono_us_count 9"));
    }

    #[test]
    fn labeled_histogram_merges_static_labels_into_bucket_lines() {
        // A histogram registered with a static label set must render
        // bucket/sum/count lines with the labels *merged* alongside
        // `le`, never as `name{labels}_bucket{...}` (invalid text).
        let r = Registry::new();
        let h = r.histogram("phase_us{family=\"flow\",phase=\"decode\"}", "phase time");
        h.observe(3);
        h.observe(700);
        let text = r.expose_text();
        assert!(
            text.contains("# TYPE phase_us histogram"),
            "HELP/TYPE use the base name: {text}"
        );
        assert!(
            text.contains("phase_us_bucket{family=\"flow\",phase=\"decode\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("phase_us_sum{family=\"flow\",phase=\"decode\"} 703"));
        assert!(text.contains("phase_us_count{family=\"flow\",phase=\"decode\"} 2"));
        assert!(
            !text.contains("}_bucket"),
            "labels must never precede the _bucket suffix: {text}"
        );
    }

    #[test]
    fn sum_and_count_stay_consistent_under_concurrent_exposition() {
        // Writers hammer one histogram while a reader renders the text
        // exposition mid-burst: every rendered snapshot must satisfy
        // sum == count * VALUE (all samples share one value, so any
        // torn read shows up as an inconsistent pair), and the final
        // exposition must account for every sample exactly once.
        const VALUE: u64 = 37;
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 20_000;
        let r = Arc::new(Registry::new());
        let h = r.histogram("cons_us", "burst consistency");
        let writers: Vec<_> = (0..THREADS)
            .map(|_| {
                let h = Arc::clone(&h);
                thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        h.observe(VALUE);
                    }
                })
            })
            .collect();
        let reader = {
            let r = Arc::clone(&r);
            thread::spawn(move || {
                let mut last_count = 0u64;
                for _ in 0..50 {
                    let text = r.expose_text();
                    let grab = |prefix: &str| -> u64 {
                        text.lines()
                            .find(|l| l.starts_with(prefix))
                            .and_then(|l| l.rsplit(' ').next())
                            .and_then(|s| s.parse().ok())
                            .unwrap_or(0)
                    };
                    let (sum, count) = (grab("cons_us_sum"), grab("cons_us_count"));
                    // No torn samples: the sum is always a whole number
                    // of observations, the count is monotone across
                    // snapshots, and since `observe` bumps the bucket
                    // before the sum (and the renderer reads buckets
                    // before the sum), the sum can lag the rendered
                    // count by at most the in-flight writer set.
                    assert_eq!(sum % VALUE, 0, "sum is a whole number of samples");
                    assert!(count >= last_count, "count is monotone");
                    last_count = count;
                    let seen = sum / VALUE;
                    assert!(
                        seen >= count.saturating_sub(THREADS as u64),
                        "sum ({seen} samples) lags count ({count}) by more \
                         than the writer set"
                    );
                }
            })
        };
        for w in writers {
            w.join().expect("writer panicked");
        }
        reader.join().expect("reader panicked");
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(h.count(), total);
        assert_eq!(h.sum(), total * VALUE);
        let text = r.expose_text();
        assert!(text.contains(&format!("cons_us_count {total}")));
        assert!(text.contains(&format!("cons_us_sum {}", total * VALUE)));
    }

    #[test]
    fn json_exposition_renders_histograms_structurally() {
        let r = Registry::new();
        let h = r.histogram("j_us", "latency");
        h.observe(0);
        h.observe(100);
        let json = r.expose_json();
        let hist = json.get("j_us").expect("histogram present");
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(hist.get("sum").and_then(Json::as_u64), Some(100));
        let buckets = hist.get("buckets").and_then(Json::as_arr).expect("buckets");
        assert_eq!(buckets.len(), 2); // only non-empty buckets listed
    }
}
