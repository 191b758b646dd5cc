//! Thread-safe metrics: atomic counters and fixed-bucket histograms,
//! collected in a named registry.
//!
//! Buckets are powers of two: observation `v` lands in bucket
//! `⌈log2(v+1)⌉`, so bucket `i` covers `(2^(i-1), 2^i]` (bucket 0 holds
//! exactly 0). Quantiles are reported as the upper bound of the bucket
//! containing the requested rank — an over-estimate by at most 2×, which
//! is plenty for latency/size distributions and keeps `observe` a single
//! atomic increment.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Number of histogram buckets: bucket 63 covers everything above `2^62`.
const NUM_BUCKETS: usize = 64;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket power-of-two histogram with exact count/sum/min/max.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index of observation `v`: 0 for 0, else `64 - leading_zeros`,
/// capped at the last bucket.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((u64::BITS - v.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
    }
}

/// Upper bound of bucket `i` (the value quantiles report).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 63 {
        u64::MAX
    } else {
        1u64 << i
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time snapshot. Concurrent `observe`
    /// calls may skew quantiles by a few samples; counts and sums are
    /// exact for any quiesced histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Rank of the q-th sample (1-based, clamped).
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &b) in buckets.iter().enumerate() {
                seen += b;
                if seen >= rank {
                    return bucket_upper(i);
                }
            }
            bucket_upper(NUM_BUCKETS - 1)
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if min == u64::MAX { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
}

/// Point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 95th percentile (bucket upper bound).
    pub p95: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

/// Point-in-time view of a whole [`Registry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// A named collection of metrics. Handles are `Arc`s: resolve once, then
/// update lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// Get-or-create in one of the registry maps (read-lock fast path).
fn resolve<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(m) = map.read().expect("registry lock").get(name) {
        return Arc::clone(m);
    }
    let mut w = map.write().expect("registry lock");
    Arc::clone(w.entry(name.to_string()).or_default())
}

impl Registry {
    /// An empty registry (tests; the process-wide one is [`global`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        resolve(&self.counters, name)
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        resolve(&self.histograms, name)
    }

    /// Snapshot every metric currently registered.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// The process-wide registry all instrumentation records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 4);
        assert_eq!(bucket_upper(63), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_and_extrema() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        // The true p50 is 50 → bucket (32,64] → upper bound 64; the
        // quantile never under-reports and never exceeds 2× the truth.
        assert_eq!(s.p50, 64);
        assert_eq!(s.p95, 128);
        assert_eq!(s.p99, 128);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(
            s,
            HistogramSnapshot {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                p50: 0,
                p95: 0,
                p99: 0
            }
        );
    }

    #[test]
    fn counter_atomicity_under_threads() {
        let reg = Registry::new();
        let n_threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..n_threads {
                let c = reg.counter("t.hits");
                let h = reg.histogram("t.sizes");
                s.spawn(move || {
                    for i in 0..per_thread {
                        c.inc();
                        h.observe(i % 7);
                    }
                });
            }
        });
        assert_eq!(reg.counter("t.hits").get(), n_threads * per_thread);
        assert_eq!(reg.histogram("t.sizes").count(), n_threads * per_thread);
    }
}
