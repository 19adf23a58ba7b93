//! Box-plot statistics (Tabs. 7/8, the quartiles behind Figs. 13/14).

use sgq_common::json::JsonValue;

/// Five-number summary plus count and mean, computed over runtimes in
/// milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of measurements.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Computes the summary; returns `None` for an empty sample.
    pub fn compute(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = values.to_vec();
        v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("runtimes are finite"));
        let n = v.len();
        Some(Summary {
            count: n,
            min: v[0],
            q1: percentile(&v, 0.25),
            median: percentile(&v, 0.5),
            q3: percentile(&v, 0.75),
            max: v[n - 1],
            mean: v.iter().sum::<f64>() / n as f64,
        })
    }

    /// The [`Table`](crate::replay::Table) column spec matching
    /// [`Summary::row_seconds`].
    pub const COLUMNS: &'static str = "<Series|Count|Min|Q1|Median|Q3|Max|Mean";

    /// One table row in the Tab. 7/8 style (values in seconds, as the
    /// paper reports them).
    pub fn row_seconds(&self, label: &str) -> String {
        let [min, q1, median, q3, max, mean] =
            [self.min, self.q1, self.median, self.q3, self.max, self.mean].map(|ms| ms / 1e3);
        let count = self.count;
        format!("{label}|{count}|{min:.4}|{q1:.4}|{median:.4}|{q3:.4}|{max:.4}|{mean:.4}")
    }

    /// Machine-readable form (values as computed, in milliseconds).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("count", JsonValue::Int(self.count as u64)),
            ("min", JsonValue::Num(self.min)),
            ("q1", JsonValue::Num(self.q1)),
            ("median", JsonValue::Num(self.median)),
            ("q3", JsonValue::Num(self.q3)),
            ("max", JsonValue::Num(self.max)),
            ("mean", JsonValue::Num(self.mean)),
        ])
    }
}

/// Linear-interpolation percentile over a sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = p * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_number_summary() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        let s = Summary::compute(&v).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn interpolated_quartiles() {
        let v = [1.0, 2.0, 3.0, 4.0];
        let s = Summary::compute(&v).unwrap();
        assert!((s.q1 - 1.75).abs() < 1e-9);
        assert!((s.median - 2.5).abs() < 1e-9);
        assert!((s.q3 - 3.25).abs() < 1e-9);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(Summary::compute(&[]).is_none());
        let s = Summary::compute(&[7.0]).unwrap();
        assert_eq!(s.q1, 7.0);
        assert_eq!(s.max, 7.0);
    }

    #[test]
    fn row_renders_in_seconds() {
        let s = Summary::compute(&[1000.0]).unwrap();
        let row = s.row_seconds("x");
        assert!(row.starts_with("x|1|1.0000|"), "{row}");
    }
}
