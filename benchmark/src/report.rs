//! Order statistics and the hand-written JSON the binaries print.

/// Median of `v` (sorts it). 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile of `v` by nearest rank (sorts it). 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

pub fn median_u64(v: &[u64]) -> f64 {
    quantile_u64(v, 0.5)
}

pub fn quantile_u64(v: &[u64], q: f64) -> f64 {
    let mut f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
    quantile(&mut f, q)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Named measurements in print order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// `a / b`, or 0 when the layer saw no traffic (`b == 0`): a workload
    /// that bypasses a layer reads 0 for that layer's ratios.
    pub fn put_ratio(&mut self, name: &str, a: f64, b: f64, unit: &'static str) {
        self.put(name, if b == 0.0 { 0.0 } else { a / b }, unit);
    }

    /// `{"name":{"value":v,"unit":"u"},...}`. A non-finite value prints as
    /// `null`, which the runner rejects.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// A JSON number with all its digits, or `null` if not finite.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
