//! Order statistics and the one-line JSON result.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between order statistics; `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Metrics in the order they were added, each with its unit.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds a metric. A missing or non-finite value is left out, and the
    /// name is returned so the caller can count the run as failed.
    pub fn put(
        &mut self,
        name: &str,
        value: Option<f64>,
        unit: &'static str,
    ) -> Result<(), String> {
        match value {
            Some(v) if v.is_finite() => {
                self.entries.push((name.to_string(), v, unit));
                Ok(())
            }
            _ => Err(name.to_string()),
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.put("a.b", Some(1.0 / 3.0), "ms").unwrap();
        assert!(m.put("nan", Some(f64::NAN), "ms").is_err());
        assert_eq!(
            m.to_json(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a.b\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}}"
        );
    }
}
