//! Sample statistics and the metric record the benchmark prints.

/// Percentiles a tail metric may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Value at percentile `p` (0–100) of `samples`, nearest-rank on the
/// sorted copy. `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Number of samples strictly beyond percentile `p` of `n` samples under
/// the nearest-rank rule of [`percentile`].
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// The highest percentile, at most `cap`, with at least [`MIN_BEYOND`]
/// of `n` samples beyond it. `None` when even the median lacks them.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// `true` when `name` is a legal metric name: starts with a letter or a
/// digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured value with its unit, the number of samples behind it,
/// and an optional label (the name the workload gives the figure).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    pub label: String,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name,
            unit,
            value,
            samples,
            label: name.to_string(),
        }
    }

    /// Names the figure as the workload knows it (e.g. `plan_p50_ms` for
    /// `op_p50_ms` on `plan`).
    pub fn labelled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// Renders a finite `f64` as JSON with every digit Rust keeps.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Quotes `s` as a JSON string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(0, 50.0), 0);
        assert_eq!(beyond(1, 50.0), 0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(999, 99.0), Some(90.0));
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
        assert_eq!(tail_percentile(99, 99.0), Some(75.0));
        assert_eq!(tail_percentile(40, 99.0), Some(75.0));
        assert_eq!(tail_percentile(39, 99.0), Some(50.0));
        assert_eq!(tail_percentile(19, 99.0), None);
        // The cap keeps a workload's percentile fixed as samples grow.
        assert_eq!(tail_percentile(5000, 90.0), Some(90.0));
        assert_eq!(tail_percentile(5000, 75.0), Some(75.0));
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "setup_s",
            "op_p50_ms",
            "nn.head_fit_ms",
            "http.queue_us",
            "a-b",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok} should be valid");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "pct%",
            "uni\u{e9}",
            "a/b",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn json_rendering() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
