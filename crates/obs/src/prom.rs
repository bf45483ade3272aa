//! Prometheus text exposition: the one writer every exporter renders
//! through ([`PromWriter`]), the recorder and journal exporters built
//! on it, a text-format validator, and a sample parser that turns a
//! scrape back into samples and histograms.
//!
//! Counters become `pcap_<name>_total`, histograms become cumulative
//! `le`-bucketed series over the [`LogHistogram`] log₂ buckets (so `le`
//! bounds are `2^k − 1`) with the standard `_sum`/`_count` companions,
//! and per-worker telemetry becomes labelled gauges. Every family
//! carries `# HELP` and `# TYPE` metadata, checkable with
//! [`validate_prometheus_strict`]; [`parse_prometheus_samples`] and
//! [`scraped_histogram`] read a scrape back for consumers like
//! `pcap top`.

use crate::journal::JournalProgressSnapshot;
use crate::recorder::TraceRecorder;
use crate::LogHistogram;
use std::fmt::{Display, Write as _};

/// A Prometheus metric family type, as announced by `# TYPE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonic counter (names end in `_total`).
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// Cumulative `le` buckets plus `_sum` and `_count`.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Builds Prometheus text exposition (version 0.0.4). A family is
/// announced once with [`family`](Self::family) (its `# HELP` and
/// `# TYPE` lines) and then gets one [`sample`](Self::sample) or
/// [`histogram_series`](Self::histogram_series) per label set. Label
/// values are escaped, so output built only through this writer passes
/// [`validate_prometheus_strict`].
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// An empty exposition.
    pub fn new() -> PromWriter {
        PromWriter::default()
    }

    /// Announces family `name` with its `# HELP` and `# TYPE` lines.
    pub fn family(&mut self, name: &str, kind: MetricKind, help: &str) -> &mut Self {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {}", kind.as_str());
        self
    }

    fn series(&mut self, name: &str, labels: &[(&str, &str)], le: Option<&str>) {
        self.out.push_str(name);
        if labels.is_empty() && le.is_none() {
            return;
        }
        self.out.push('{');
        let le = le.map(|le| ("le", le));
        for (i, (key, value)) in labels.iter().copied().chain(le).enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push_str(key);
            self.out.push_str("=\"");
            for c in value.chars() {
                match c {
                    '\\' => self.out.push_str("\\\\"),
                    '"' => self.out.push_str("\\\""),
                    '\n' => self.out.push_str("\\n"),
                    c => self.out.push(c),
                }
            }
            self.out.push('"');
        }
        self.out.push('}');
    }

    /// One sample line, `name{labels} value`.
    pub fn sample(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        value: impl Display,
    ) -> &mut Self {
        self.series(name, labels, None);
        let _ = writeln!(self.out, " {value}");
        self
    }

    /// The `_bucket`/`_sum`/`_count` series of one histogram instance
    /// of family `name`, with `labels` on every line.
    pub fn histogram_series(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        histogram: &LogHistogram,
        sum: u64,
    ) -> &mut Self {
        let bucket = format!("{name}_bucket");
        let mut bound = String::new();
        let mut cumulative = 0u64;
        for (k, count) in histogram.counts().iter().enumerate() {
            cumulative += count;
            bound.clear();
            if k < 31 {
                let _ = write!(bound, "{}", LogHistogram::bucket_bounds(k).1 - 1);
            } else {
                bound.push_str("+Inf");
            }
            self.series(&bucket, labels, Some(&bound));
            let _ = writeln!(self.out, " {cumulative}");
        }
        self.sample(&format!("{name}_sum"), labels, sum);
        self.sample(&format!("{name}_count"), labels, cumulative)
    }

    /// The rendered exposition.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Renders the recorder's registry in Prometheus text exposition
/// format (version 0.0.4), with `# HELP`/`# TYPE` metadata on every
/// family. The output passes [`validate_prometheus_strict`].
pub fn render_prometheus(recorder: &TraceRecorder) -> String {
    let mut out = PromWriter::new();
    for (name, value) in recorder.counters() {
        let metric = format!("pcap_{name}_total");
        let help = format!("Monotonic pipeline counter `{name}`.");
        out.family(&metric, MetricKind::Counter, &help)
            .sample(&metric, &[], value);
    }
    for (name, (histogram, sum)) in recorder.histograms() {
        let metric = format!("pcap_{name}");
        let help = format!("Log2-bucketed microsecond histogram `{name}`.");
        out.family(&metric, MetricKind::Histogram, &help)
            .histogram_series(&metric, &[], &histogram, sum);
    }
    let workers = recorder.workers();
    if !workers.is_empty() {
        #[allow(clippy::type_complexity)]
        let gauges: [(&str, &str, fn(&crate::WorkerStats) -> u64); 3] = [
            (
                "pcap_worker_tasks",
                "Tasks completed by each sweep worker.",
                |w| w.tasks,
            ),
            (
                "pcap_worker_busy_us",
                "Microseconds each worker spent inside tasks.",
                |w| w.busy_us,
            ),
            (
                "pcap_worker_wait_us",
                "Microseconds each worker spent off-task.",
                crate::WorkerStats::wait_us,
            ),
        ];
        for (metric, help, read) in gauges {
            out.family(metric, MetricKind::Gauge, help);
            for w in &workers {
                let worker = w.worker.to_string();
                out.sample(metric, &[("scope", &w.scope), ("worker", &worker)], read(w));
            }
        }
    }
    if let Some(slowest) = recorder.slowest() {
        let metric = "pcap_slowest_task_us";
        out.family(
            metric,
            MetricKind::Gauge,
            "Duration of the slowest recorded task.",
        )
        .sample(metric, &[("task", &slowest.label)], slowest.micros);
    }
    out.finish()
}

/// Renders journal resume/compute counters as a Prometheus scrape
/// (with metadata), so journaled sweeps are scrapeable rather than
/// stderr-only. Passes [`validate_prometheus_strict`].
pub fn render_journal_progress(progress: &JournalProgressSnapshot) -> String {
    let mut out = PromWriter::new();
    for (name, help, value) in [
        (
            "pcap_journal_resumed_total",
            "Sweep cells reused from the journal instead of recomputed.",
            progress.resumed,
        ),
        (
            "pcap_journal_computed_total",
            "Sweep cells computed and appended to the journal.",
            progress.computed,
        ),
        (
            "pcap_journal_ceded_total",
            "Sweep cells ceded to a concurrent journal holder.",
            progress.ceded,
        ),
        (
            "pcap_journal_torn_bytes_total",
            "Bytes of torn tail records truncated during journal recovery.",
            progress.torn_bytes,
        ),
        (
            "pcap_journal_refreshes_total",
            "Journal re-reads triggered by ceded cells.",
            progress.refreshes,
        ),
    ] {
        out.family(name, MetricKind::Counter, help)
            .sample(name, &[], value);
    }
    out.finish()
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Splits `name{labels}` into the metric name and the optional label
/// body, validating label syntax (`key="value"` pairs, escaped values).
fn split_series(series: &str) -> Result<(&str, Option<&str>), String> {
    match series.find('{') {
        None => Ok((series, None)),
        Some(open) => {
            let name = &series[..open];
            let rest = &series[open + 1..];
            let close = rest
                .rfind('}')
                .ok_or_else(|| format!("unclosed label braces in {series:?}"))?;
            if close != rest.len() - 1 {
                return Err(format!("trailing text after labels in {series:?}"));
            }
            Ok((name, Some(&rest[..close])))
        }
    }
}

fn unescape_label(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Parses a label body into `(key, unescaped value)` pairs in
/// declaration order.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    // Walk `key="value"` pairs; values may contain escaped quotes.
    let mut pairs = Vec::new();
    let mut rest = body;
    loop {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' in {body:?}"))?;
        let key = &rest[..eq];
        if !valid_metric_name(key) {
            return Err(format!("bad label name {key:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("label {key:?} value is not quoted"));
        }
        let mut end = None;
        let bytes = after.as_bytes();
        let mut i = 1;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => {
                    end = Some(i);
                    break;
                }
                _ => i += 1,
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value in {body:?}"))?;
        pairs.push((key.to_owned(), unescape_label(&after[1..end])));
        rest = &after[end + 1..];
        if rest.is_empty() {
            return Ok(pairs);
        }
        rest = rest
            .strip_prefix(',')
            .ok_or_else(|| format!("expected ',' between labels in {body:?}"))?;
    }
}

/// One parsed sample from a Prometheus text scrape.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// The metric name (including any `_total`/`_bucket` suffix).
    pub name: String,
    /// Label pairs in declaration order, values unescaped.
    pub labels: Vec<(String, String)>,
    /// The sample value (`+Inf`/`-Inf`/`NaN` map to the float specials).
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn parse_value(value: &str) -> Option<f64> {
    match value {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        other => other.parse::<f64>().ok(),
    }
}

/// Parses one sample line, `name{labels} value`; `n` numbers errors.
fn parse_sample(line: &str, n: usize) -> Result<PromSample, String> {
    let space = line
        .rfind(' ')
        .ok_or_else(|| format!("line {n}: no value separator in {line:?}"))?;
    let (series, value) = (&line[..space], &line[space + 1..]);
    let value =
        parse_value(value).ok_or_else(|| format!("line {n}: bad sample value {value:?}"))?;
    let (name, labels) = split_series(series).map_err(|e| format!("line {n}: {e}"))?;
    if !valid_metric_name(name) {
        return Err(format!("line {n}: bad metric name {name:?}"));
    }
    let labels = match labels {
        Some(body) => parse_labels(body).map_err(|e| format!("line {n}: {e}"))?,
        None => Vec::new(),
    };
    Ok(PromSample {
        name: name.to_owned(),
        labels,
        value,
    })
}

/// Parses every sample line of a Prometheus text scrape into
/// structured [`PromSample`]s, skipping comments.
///
/// # Errors
///
/// Returns a description of the first malformed sample line.
pub fn parse_prometheus_samples(text: &str) -> Result<Vec<PromSample>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
        .map(|(i, line)| parse_sample(line, i + 1))
        .collect()
}

/// The scraped samples named `name` that carry all of `labels`.
fn matching<'a>(
    samples: &'a [PromSample],
    name: &'a str,
    labels: &'a [(&str, &str)],
) -> impl Iterator<Item = &'a PromSample> {
    samples
        .iter()
        .filter(move |s| s.name == name && labels.iter().all(|&(k, v)| s.label(k) == Some(v)))
}

/// Sum of the scraped samples named `name` that carry all of `labels`;
/// 0 when there are none.
pub fn scraped_value(samples: &[PromSample], name: &str, labels: &[(&str, &str)]) -> f64 {
    matching(samples, name, labels).map(|s| s.value).sum()
}

/// Rebuilds the [`LogHistogram`] behind a scraped histogram family, as
/// written by [`PromWriter::histogram_series`]: bucket `k` holds the
/// cumulative count at its `le` bound minus the one below it. Every
/// instance of the family carrying all of `labels` is summed in
/// (cumulative counts over one bucket layout add pointwise), so `&[]`
/// merges all instances, e.g. every shard.
pub fn scraped_histogram(
    samples: &[PromSample],
    family: &str,
    labels: &[(&str, &str)],
) -> LogHistogram {
    let mut cumulative = [0u64; 32];
    for sample in matching(samples, &format!("{family}_bucket"), labels) {
        let index = match sample.label("le") {
            Some("+Inf") => 31,
            Some(le) => match le.parse::<f64>() {
                Ok(le) => LogHistogram::bucket_of(le as u64),
                Err(_) => continue,
            },
            None => continue,
        };
        cumulative[index] += sample.value as u64;
    }
    let mut below = 0;
    LogHistogram::from_counts(std::array::from_fn(|k| {
        // A bound missing from the scrape holds nothing of its own.
        let at = cumulative[k].max(below);
        let count = at - below;
        below = at;
        count
    }))
}

/// `value` as an observation count, if it is a non-negative integer.
fn count_of(value: f64) -> Option<u64> {
    (value >= 0.0 && value.fract() == 0.0).then_some(value as u64)
}

/// The histogram-family key for a bucket or `_count` line: the base
/// metric name plus every label except `le`, so differently-labelled
/// histograms under one metric name (e.g. per-shard stage histograms)
/// are checked as independent cumulative families.
fn family_key(base: &str, labels: &[(String, String)]) -> String {
    let mut key = base.to_owned();
    for (k, v) in labels {
        if k != "le" {
            key.push_str(&format!("|{k}={v}"));
        }
    }
    key
}

/// Validates Prometheus text exposition line by line, plus two
/// family-level checks:
///
/// * metadata: every sample must belong to a family announced by both a
///   `# HELP` and a `# TYPE` line (resolving `_bucket`/`_sum`/`_count`
///   suffixes to their histogram base) — the contract every exposition
///   this workspace writes is held to;
/// * histograms: each `*_bucket` family (keyed by base name *and*
///   non-`le` labels) must be cumulative (nondecreasing), end with
///   `le="+Inf"`, and agree with its `_count`.
///
/// # Errors
///
/// Returns the first malformed line, inconsistent histogram family, or
/// sample whose family is missing `# HELP`/`# TYPE` metadata.
///
/// Returns the number of samples (non-comment lines) on success.
pub fn validate_prometheus_strict(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    // family key → (bucket cumulative counts in order, +Inf value)
    let mut families: Vec<(String, Vec<u64>, Option<u64>)> = Vec::new();
    let mut counts: Vec<(String, u64)> = Vec::new();
    let mut helped: Vec<String> = Vec::new();
    let mut typed: Vec<(String, String)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            match parts.next() {
                Some("TYPE") => {
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("line {n}: TYPE without metric name"))?;
                    if !valid_metric_name(name) {
                        return Err(format!("line {n}: bad metric name {name:?}"));
                    }
                    match parts.next() {
                        Some(ty @ ("counter" | "gauge" | "histogram" | "summary" | "untyped")) => {
                            typed.push((name.to_owned(), ty.to_owned()));
                        }
                        other => return Err(format!("line {n}: bad TYPE {other:?}")),
                    }
                }
                Some("HELP") => {
                    if let Some(name) = parts.next() {
                        helped.push(name.to_owned());
                    }
                }
                Some("EOF") => {}
                _ => return Err(format!("line {n}: unrecognized comment {line:?}")),
            }
            continue;
        }
        let sample = parse_sample(line, n)?;
        let (name, labels) = (sample.name.as_str(), &sample.labels);
        samples += 1;
        // Resolve the sample to the family name metadata is
        // declared under: histogram series use the base name.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                typed
                    .iter()
                    .any(|(t, ty)| t == base && ty == "histogram")
                    .then_some(base)
            })
            .unwrap_or(name);
        if !typed.iter().any(|(t, _)| t == family) {
            return Err(format!("line {n}: sample {name} has no # TYPE metadata"));
        }
        if !helped.iter().any(|h| h == family) {
            return Err(format!("line {n}: sample {name} has no # HELP metadata"));
        }
        if let Some(base) = name.strip_suffix("_bucket") {
            let le = sample
                .label("le")
                .ok_or_else(|| format!("line {n}: bucket without le label"))?;
            let cumulative = count_of(sample.value)
                .ok_or_else(|| format!("line {n}: non-integer bucket count {}", sample.value))?;
            let key = family_key(base, labels);
            let idx = match families.iter().position(|(b, _, _)| *b == key) {
                Some(idx) => idx,
                None => {
                    families.push((key, Vec::new(), None));
                    families.len() - 1
                }
            };
            let family = &mut families[idx];
            if let Some(prev) = family.1.last() {
                if cumulative < *prev {
                    return Err(format!(
                        "line {n}: bucket counts for {base} not cumulative ({cumulative} < {prev})"
                    ));
                }
            }
            family.1.push(cumulative);
            if le == "+Inf" {
                family.2 = Some(cumulative);
            }
        } else if let Some(base) = name.strip_suffix("_count") {
            if let Some(total) = count_of(sample.value) {
                counts.push((family_key(base, labels), total));
            }
        }
    }
    for (key, _, inf) in &families {
        let inf = inf.ok_or_else(|| format!("histogram {key} missing le=\"+Inf\" bucket"))?;
        if let Some((_, total)) = counts.iter().find(|(b, _)| b == key) {
            if inf != *total {
                return Err(format!(
                    "histogram {key}: +Inf bucket {inf} != _count {total}"
                ));
            }
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipelineObserver, WorkerStats};

    #[test]
    fn rendered_exposition_validates_strictly() {
        let recorder = TraceRecorder::new();
        recorder.counter_add("runs", 5);
        recorder.observe_us("prepare_us", 3);
        recorder.observe_us("prepare_us", 900);
        recorder.task_done("cell:mozilla×PCAP", 120);
        recorder.worker_done(WorkerStats {
            scope: "warm_up".to_owned(),
            worker: 0,
            tasks: 1,
            busy_us: 120,
            elapsed_us: 130,
        });
        let text = render_prometheus(&recorder);
        let samples = validate_prometheus_strict(&text).expect("valid exposition");
        assert!(samples > 40, "two histograms plus counters: {samples}");
        assert!(text.contains("pcap_runs_total 5"));
        assert!(text.contains("# HELP pcap_runs_total"));
        assert!(text.contains("# TYPE pcap_prepare_us histogram"));
        assert!(text.contains("pcap_prepare_us_count 2"));
        assert!(text.contains("pcap_prepare_us_sum 903"));
        assert!(text.contains("pcap_worker_wait_us{scope=\"warm_up\",worker=\"0\"} 10"));
        assert!(text.contains("pcap_slowest_task_us{task=\"cell:mozilla×PCAP\"} 120"));
    }

    #[test]
    fn journal_progress_render_validates_strictly() {
        let progress = crate::JournalProgress::new();
        progress.add("resumed", 3);
        progress.add("computed", 2);
        progress.add("torn_bytes", 17);
        let text = render_journal_progress(&progress.snapshot());
        validate_prometheus_strict(&text).expect("journal scrape validates");
        assert!(text.contains("pcap_journal_resumed_total 3"));
        assert!(text.contains("pcap_journal_computed_total 2"));
        assert!(text.contains("pcap_journal_torn_bytes_total 17"));
        assert!(text.contains("pcap_journal_ceded_total 0"));
    }

    /// Metadata for the histogram family `m` used by the snippets below.
    const M: &str = "# HELP m M.\n# TYPE m histogram\n";

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_prometheus_strict("metric").is_err());
        assert!(validate_prometheus_strict("1metric 2").is_err());
        assert!(validate_prometheus_strict("metric notanumber").is_err());
        assert!(validate_prometheus_strict("metric{le=\"unterminated} 1").is_err());
        assert!(validate_prometheus_strict("# BOGUS comment").is_err());
        // Non-cumulative buckets.
        let text = format!("{M}m_bucket{{le=\"1\"}} 5\nm_bucket{{le=\"+Inf\"}} 3\n");
        assert!(validate_prometheus_strict(&text)
            .unwrap_err()
            .contains("not cumulative"));
        // +Inf disagrees with _count.
        let text = format!("{M}m_bucket{{le=\"+Inf\"}} 3\nm_count 4\n");
        assert!(validate_prometheus_strict(&text)
            .unwrap_err()
            .contains("!= _count"));
        // Missing +Inf bucket entirely.
        let text = format!("{M}m_bucket{{le=\"1\"}} 3\n");
        assert!(validate_prometheus_strict(&text)
            .unwrap_err()
            .contains("+Inf"));
    }

    #[test]
    fn per_label_histogram_families_are_checked_independently() {
        // Two shards interleaved under one metric name: cumulative
        // within each shard even though the raw sequence dips.
        let text = M.to_owned()
            + "\
m_bucket{shard=\"0\",le=\"1\"} 5
m_bucket{shard=\"0\",le=\"+Inf\"} 9
m_bucket{shard=\"1\",le=\"1\"} 2
m_bucket{shard=\"1\",le=\"+Inf\"} 3
m_count{shard=\"0\"} 9
m_count{shard=\"1\"} 3
";
        assert_eq!(
            validate_prometheus_strict(&text).expect("per-shard families"),
            6
        );
        // A per-shard +Inf / _count mismatch is still caught.
        let bad = text.replace("m_count{shard=\"1\"} 3", "m_count{shard=\"1\"} 4");
        assert!(validate_prometheus_strict(&bad)
            .unwrap_err()
            .contains("!= _count"));
    }

    #[test]
    fn validator_requires_help_and_type() {
        let no_meta = "m_total 3\n";
        assert!(validate_prometheus_strict(no_meta)
            .unwrap_err()
            .contains("# TYPE"));
        let type_only = "# TYPE m_total counter\nm_total 3\n";
        assert!(validate_prometheus_strict(type_only)
            .unwrap_err()
            .contains("# HELP"));
        let full = "# HELP m_total m.\n# TYPE m_total counter\nm_total 3\n";
        assert_eq!(validate_prometheus_strict(full), Ok(1));
        // Histogram series resolve through the base name.
        let hist = "\
# HELP h Latency.
# TYPE h histogram
h_bucket{le=\"+Inf\"} 2
h_sum 9
h_count 2
";
        assert_eq!(validate_prometheus_strict(hist), Ok(3));
        // A counter whose name merely ends in _count must not resolve
        // to a nonexistent histogram base.
        let fake = "# HELP x_count X.\n# TYPE x_count counter\nx_count 1\n";
        assert_eq!(validate_prometheus_strict(fake), Ok(1));
    }

    #[test]
    fn samples_parse_with_labels_and_specials() {
        let text = "\
# HELP m M.
# TYPE m gauge
m{shard=\"3\",path=\"a\\\\b\\\"c\"} 4.5
m_inf +Inf
";
        let samples = parse_prometheus_samples(text).expect("parses");
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].name, "m");
        assert_eq!(samples[0].label("shard"), Some("3"));
        assert_eq!(samples[0].label("path"), Some("a\\b\"c"));
        assert_eq!(samples[0].label("missing"), None);
        assert_eq!(samples[0].value, 4.5);
        assert!(samples[1].value.is_infinite());
        assert!(parse_prometheus_samples("broken").is_err());
    }

    #[test]
    fn scraped_histograms_round_trip_through_the_writer() {
        let mut a = LogHistogram::new();
        for v in [0, 3, 100, 100, 5_000_000, u64::MAX] {
            a.record(v);
        }
        let mut b = LogHistogram::new();
        for v in [7, 8, 1 << 29] {
            b.record(v);
        }
        let mut out = PromWriter::new();
        out.family("x_us", MetricKind::Histogram, "Stage latency.")
            .histogram_series("x_us", &[("shard", "0")], &a, 1)
            .histogram_series("x_us", &[("shard", "1")], &b, 2);
        let text = out.finish();
        validate_prometheus_strict(&text).expect("writer output validates");
        let samples = parse_prometheus_samples(&text).expect("parses");
        assert_eq!(scraped_histogram(&samples, "x_us", &[("shard", "0")]), a);
        assert_eq!(scraped_histogram(&samples, "x_us", &[("shard", "1")]), b);
        let both =
            LogHistogram::from_counts(std::array::from_fn(|k| a.counts()[k] + b.counts()[k]));
        assert_eq!(
            scraped_histogram(&samples, "x_us", &[]),
            both,
            "no label filter merges the shards"
        );
        assert_eq!(
            scraped_histogram(&samples, "x_us", &[("shard", "9")]).total(),
            0
        );
        assert_eq!(scraped_histogram(&samples, "y_us", &[]).total(), 0);
        assert_eq!(scraped_value(&samples, "x_us_count", &[]), 9.0);
        assert_eq!(scraped_value(&samples, "x_us_sum", &[("shard", "1")]), 2.0);
        assert_eq!(scraped_value(&samples, "x_us_sum", &[("shard", "9")]), 0.0);
    }

    #[test]
    fn label_escaping_round_trips() {
        let recorder = TraceRecorder::new();
        recorder.task_done("cell:\"quoted\"\\path", 7);
        let text = render_prometheus(&recorder);
        validate_prometheus_strict(&text).expect("escaped labels still validate");
        assert!(text.contains("task=\"cell:\\\"quoted\\\"\\\\path\""));
        let samples = parse_prometheus_samples(&text).expect("parses");
        let slowest = samples
            .iter()
            .find(|s| s.name == "pcap_slowest_task_us")
            .expect("slowest gauge");
        assert_eq!(slowest.label("task"), Some("cell:\"quoted\"\\path"));
    }
}
