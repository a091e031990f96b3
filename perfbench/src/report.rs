//! Measurement helpers and the result record: latency logs, percentiles,
//! counters, provenance and the JSON the benchmark prints.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Latency samples of one operation kind, in nanoseconds, cut into
/// measurement segments.
///
/// Percentiles and rates are reported as the median over segments, so a
/// burst of interference from outside the program moves a few segments,
/// not the figure.
#[derive(Debug, Default, Clone)]
pub struct Lat {
    v: Vec<u64>,
    /// End index of every closed segment.
    cuts: Vec<usize>,
}

/// Segments with fewer samples are left out of the segment medians.
const MIN_SEGMENT: usize = 20;

impl Lat {
    /// Records one sample.
    pub fn push(&mut self, d: Duration) {
        self.v.push(d.as_nanos() as u64);
    }

    /// Appends every sample of `other`, keeping its segment cuts.
    pub fn extend(&mut self, other: &Lat) {
        let base = self.v.len();
        self.v.extend_from_slice(&other.v);
        self.cuts.extend(other.cuts.iter().map(|c| base + c));
    }

    /// Closes the open segment.
    pub fn cut(&mut self) {
        if self.cuts.last().copied().unwrap_or(0) < self.v.len() {
            self.cuts.push(self.v.len());
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    fn segments(&self) -> Vec<&[u64]> {
        let mut out = Vec::new();
        let mut start = 0;
        for &end in self.cuts.iter().chain(std::iter::once(&self.v.len())) {
            if end - start >= MIN_SEGMENT {
                out.push(&self.v[start..end]);
            }
            start = end;
        }
        out
    }

    /// The `q` quantile in microseconds over all samples (nearest rank),
    /// 0 when empty.
    pub fn pct_us(&self, q: f64) -> f64 {
        let mut v = self.v.clone();
        percentile(&mut v, q) / 1e3
    }

    /// The median over segments of each segment's `q` quantile, in
    /// microseconds; the pooled quantile if no segment is large enough.
    pub fn seg_pct_us(&self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .segments()
            .into_iter()
            .map(|s| percentile(&mut s.to_vec(), q) / 1e3)
            .collect();
        if per.is_empty() {
            self.pct_us(q)
        } else {
            median(&per)
        }
    }
}

/// Nearest-rank quantile of `v` (sorted in place), 0 when empty.
pub fn percentile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Median of `v`, 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Median wall time of `reps` calls of `f`, in microseconds.
pub fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<u64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    percentile(&mut v, 0.5) / 1e3
}

/// A named, unit-tagged number in the result.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json` or the full record.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Reads, read-backs or stripes whose bytes disagreed with the oracle.
    pub wrong: u64,
    /// Metrics checked against `BENCHMARK.json` (the last line).
    pub metrics: Vec<Metric>,
    /// Everything else worth keeping: the figures the README names, with their
    /// sample counts, counters and configuration.
    pub record: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a metric to the checked set.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a number to the full record.
    pub fn note(&mut self, name: &str, value: f64) {
        self.record.push((name.to_string(), num(value)));
    }

    /// Adds a string to the full record.
    pub fn note_str(&mut self, name: &str, value: &str) {
        self.record.push((name.to_string(), json_str(value)));
    }

    /// Adds a latency log's p50, p90 and p99 (segment medians), its pooled
    /// p50 and p99 and its sample count to the full record.
    pub fn note_lat(&mut self, name: &str, lat: &Lat) {
        self.note(&format!("{name}_p50_us"), lat.seg_pct_us(0.5));
        self.note(&format!("{name}_p90_us"), lat.seg_pct_us(0.9));
        self.note(&format!("{name}_p99_us"), lat.seg_pct_us(0.99));
        self.note(&format!("{name}_pooled_p50_us"), lat.pct_us(0.5));
        self.note(&format!("{name}_pooled_p99_us"), lat.pct_us(0.99));
        self.note(&format!("{name}_samples"), lat.len() as f64);
    }

    /// Failed operations: errors plus wrong results.
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }
}

/// A JSON number (non-finite values become `null`).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-encoded values.
pub fn json_obj(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(out: &Outcome, correct: bool) -> String {
    let metrics: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                json_obj(&[
                    ("value".to_string(), num(m.value)),
                    ("unit".to_string(), json_str(m.unit)),
                ]),
            )
        })
        .collect();
    json_obj(&[
        ("correct".to_string(), correct.to_string()),
        ("attempted".to_string(), out.attempted.max(1).to_string()),
        ("failed".to_string(), out.failed().to_string()),
        ("metrics".to_string(), json_obj(&metrics)),
    ])
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the benchmark was built from, read from `.git` in the
/// working directory; "unknown" outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs").and_then(|p| {
                p.lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
