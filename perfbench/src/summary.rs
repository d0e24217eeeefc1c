//! Summary arithmetic: percentiles with the "ten samples beyond" rule,
//! `/proc` CPU and RSS parsing, and per-window means from the
//! Prometheus exposition's histogram `_sum`/`_count` pairs.

use gpufreq_obs::parse_exposition;

/// How many samples must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (Linux
/// `USER_HZ`, fixed at 100 on every mainstream architecture).
pub const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Nearest-rank percentile `q` (0–1] of ascending `sorted`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above the chosen rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The median of `values` (any order); `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of `values` (any order) with no tail rule —
/// for summaries of a handful of repeats; `0.0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// User plus system CPU ticks from the text of `/proc/<pid>/stat`
/// (fields 14 and 15; the command name in field 2 may contain spaces
/// and parentheses, so fields are counted after its last `)`).
pub fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (the state), so field k is index k - 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Resident set size in kB from the text of `/proc/<pid>/status`.
pub fn status_rss_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line["VmRSS:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU seconds (user + system, every thread) used so far by `pid`.
pub fn process_cpu_s(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let ticks = stat_cpu_ticks(&text).ok_or(format!("{path}: no utime/stime fields"))?;
    Ok(ticks as f64 / CLOCK_TICKS_PER_S)
}

/// Resident memory of `pid` in MB (10^6 bytes).
pub fn process_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb = status_rss_kb(&text).ok_or(format!("{path}: no VmRSS line"))?;
    Ok(kb as f64 * 1024.0 / 1e6)
}

/// `(sum, count)` of histogram `family` in an exposition document.
pub fn histogram_sum_count(text: &str, family: &str) -> Result<(f64, f64), String> {
    let families = parse_exposition(text)?;
    let f = families
        .iter()
        .find(|f| f.name == family)
        .ok_or(format!("exposition has no family `{family}`"))?;
    let sum_name = format!("{family}_sum");
    let sum = f
        .samples
        .iter()
        .find(|s| s.name == sum_name)
        .map(|s| s.value)
        .ok_or(format!("`{family}` has no _sum"))?;
    let count = f.count().ok_or(format!("`{family}` has no _count"))?;
    Ok((sum, count as f64))
}

/// The mean of the observations histogram `family` gained between two
/// scrapes, with the count of those observations; the mean is `0.0`
/// when none were added.
pub fn delta_mean(before: &str, after: &str, family: &str) -> Result<(f64, f64), String> {
    let (s0, c0) = histogram_sum_count(before, family)?;
    let (s1, c1) = histogram_sum_count(after, family)?;
    let count = c1 - c0;
    Ok((if count > 0.0 { (s1 - s0) / count } else { 0.0 }, count))
}

/// Cut `n` ordered samples into consecutive `(start, end)` groups of
/// `size`, the remainder joining the last group; empty when `n < size`.
pub fn groups(n: usize, size: usize) -> Vec<(usize, usize)> {
    let count = n / size;
    (0..count)
        .map(|g| (g * size, if g + 1 == count { n } else { (g + 1) * size }))
        .collect()
}

/// `numerator / denominator`, or `0.0` for an empty denominator.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics` (each value with its unit, all digits kept).
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpufreq_obs::{Exposition, Histogram};

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples: rank 990 leaves 9 beyond.
        assert_eq!(percentile(&values, 0.99), None);
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: rank 990 leaves exactly 10 beyond.
        assert_eq!(percentile(&values, 0.99), Some(990.0));
        assert_eq!(percentile(&values, 0.5), Some(500.0));
        // The median obeys the same rule.
        assert_eq!(percentile(&[7.0; 20], 0.5), Some(7.0));
        assert_eq!(percentile(&[7.0; 19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quantiles_and_medians_sort_their_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.9), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_stat_cpu_counts_fields_after_the_command_name() {
        let stat = "4242 (gpufreq (x) y) S 1 4242 4242 0 -1 4194560 1500 0 0 0 \
                    731 119 0 0 20 0 5 0 8765 123456789 2048 18446744073709551615";
        assert_eq!(stat_cpu_ticks(stat), Some(731 + 119));
        assert_eq!(stat_cpu_ticks("4242 (short) S 1"), None);
        assert_eq!(stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn proc_status_rss_reads_vmrss_in_kb() {
        let status = "Name:\tgpufreq\nVmPeak:\t  90000 kB\nVmRSS:\t   51234 kB\nThreads:\t5\n";
        assert_eq!(status_rss_kb(status), Some(51234));
        assert_eq!(status_rss_kb("Name:\tx\n"), None);
    }

    #[test]
    fn groups_hold_enough_samples_for_their_percentile() {
        assert_eq!(groups(2500, 1000), vec![(0, 1000), (1000, 2500)]);
        assert_eq!(groups(2000, 1000), vec![(0, 1000), (1000, 2000)]);
        assert!(groups(999, 1000).is_empty());
    }

    #[test]
    fn live_process_readers_see_this_process() {
        let pid = std::process::id();
        assert!(process_cpu_s(pid).unwrap() >= 0.0);
        assert!(process_rss_mb(pid).unwrap() > 0.0);
    }

    fn exposition(observations: &[u64]) -> String {
        let h = Histogram::new();
        for &us in observations {
            h.observe_us(us);
        }
        let mut x = Exposition::new();
        x.histogram_us("gpufreq_stage_score_latency_us", "Score.", &h.snapshot());
        x.finish()
    }

    #[test]
    fn delta_means_come_from_sum_and_count_differences() {
        let before = exposition(&[100, 300]);
        let after = exposition(&[100, 300, 50, 70, 90]);
        let family = "gpufreq_stage_score_latency_us";
        assert_eq!(histogram_sum_count(&after, family).unwrap(), (610.0, 5.0));
        assert_eq!(delta_mean(&before, &after, family).unwrap(), (70.0, 3.0));
        assert_eq!(delta_mean(&after, &after, family).unwrap(), (0.0, 0.0));
        assert!(delta_mean(&before, &after, "gpufreq_missing").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(
            true,
            12,
            0,
            &[
                Metric::new("setup_s", 0.8127, "s"),
                Metric::new("ok_ratio", f64::NAN, "ratio"),
            ],
        );
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        let serde_json::Value::Object(fields) = v else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        assert!(line.contains("\"ok_ratio\": {\"value\": 0, \"unit\": \"ratio\"}"));
    }
}
