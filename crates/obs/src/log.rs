//! The daemon's rate-limited warn line (DESIGN.md §15).
//!
//! [`warn`] writes one JSONL line to stderr, so daemon logs are machine
//! parseable and interleave cleanly with the crash-time flight dump.
//! Hot paths must not log per event; they go through a [`RateGate`],
//! which admits a bounded number of lines per window and counts the
//! rest, reporting the suppressed total on the next admitted line.

use serde::Value;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Formats one warn line without emitting it (the testable core of
/// [`warn`]):
/// `{"ts_us":…,"level":"warn","target":…,"msg":…,"fields":{…}}`.
fn warn_line(ts_us: u64, target: &str, msg: &str, fields: &[(&str, &str)]) -> String {
    let text = |s: &str| Value::Str(s.to_owned());
    let mut line = vec![
        ("ts_us".to_owned(), Value::UInt(ts_us)),
        ("level".to_owned(), text("warn")),
        ("target".to_owned(), text(target)),
        ("msg".to_owned(), text(msg)),
    ];
    if !fields.is_empty() {
        let fields = fields.iter().map(|&(k, v)| (k.to_owned(), text(v)));
        line.push(("fields".to_owned(), Value::Object(fields.collect())));
    }
    serde_json::to_string(&Value::Object(line)).expect("a warn line holds no floats")
}

/// Emits one structured warn line to stderr. `target` names the
/// subsystem (`"serve"`); `fields` carry the structured payload.
pub fn warn(target: &str, msg: &str, fields: &[(&str, &str)]) {
    let ts_us = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let line = warn_line(ts_us, target, msg, fields);
    let mut stderr = std::io::stderr().lock();
    let _ = writeln!(stderr, "{line}");
}

/// A token-bucket-style limiter for hot-path logging: at most `limit`
/// admissions per `window_us`, everything else counted, with the
/// suppressed count handed back on the next admission so no signal is
/// silently lost. Lock-free and allocation-free; suitable for shared
/// `static` use.
#[derive(Debug)]
pub struct RateGate {
    limit: u64,
    window_us: u64,
    window_start: AtomicU64,
    count: AtomicU64,
    suppressed: AtomicU64,
}

impl RateGate {
    /// A gate admitting `limit` events per `window_us` microseconds.
    pub const fn new(limit: u64, window_us: u64) -> RateGate {
        RateGate {
            limit,
            window_us,
            window_start: AtomicU64::new(0),
            count: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
        }
    }

    /// Asks to emit one event at time `now_us` (any monotone µs clock).
    /// `Some(suppressed)` grants admission and reports how many events
    /// were dropped since the last admitted one; `None` means stay
    /// quiet.
    pub fn admit(&self, now_us: u64) -> Option<u64> {
        let start = self.window_start.load(Ordering::Relaxed);
        if now_us.saturating_sub(start) >= self.window_us {
            // A new window: the first caller to move the marker resets
            // the budget. Losing the race just means counting against
            // the winner's fresh window, which is fine for logging.
            if self
                .window_start
                .compare_exchange(start, now_us, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.count.store(0, Ordering::Relaxed);
            }
        }
        if self.count.fetch_add(1, Ordering::Relaxed) < self.limit {
            Some(self.suppressed.swap(0, Ordering::Relaxed))
        } else {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatted_lines_are_valid_json() {
        let line = warn_line(
            42,
            "serve",
            "bad frame \"x\"\n",
            &[("conn", "7"), ("why\t", "over\\size")],
        );
        let value: serde::Value = serde_json::from_str(&line).expect("line parses");
        assert_eq!(value.get("ts_us"), Some(&serde::Value::UInt(42)));
        assert_eq!(
            value.get("level"),
            Some(&serde::Value::Str("warn".to_string()))
        );
        assert_eq!(
            value.get("msg"),
            Some(&serde::Value::Str("bad frame \"x\"\n".to_string()))
        );
        let fields = value.get("fields").expect("fields object");
        assert_eq!(
            fields.get("conn"),
            Some(&serde::Value::Str("7".to_string()))
        );
        assert_eq!(
            fields.get("why\t"),
            Some(&serde::Value::Str("over\\size".to_string()))
        );
    }

    #[test]
    fn fieldless_lines_omit_the_fields_object() {
        let line = warn_line(1, "serve", "up", &[]);
        assert!(!line.contains("fields"));
        serde_json::from_str::<serde::Value>(&line).expect("still valid JSON");
    }

    #[test]
    fn rate_gate_admits_limit_per_window_and_reports_suppressed() {
        let gate = RateGate::new(2, 1_000_000);
        assert_eq!(gate.admit(0), Some(0));
        assert_eq!(gate.admit(10), Some(0));
        assert_eq!(gate.admit(20), None);
        assert_eq!(gate.admit(30), None);
        // New window: admitted again, with the two drops reported.
        assert_eq!(gate.admit(1_000_000), Some(2));
        assert_eq!(gate.admit(1_000_001), Some(0));
        assert_eq!(gate.admit(1_000_002), None);
    }

    #[test]
    fn rate_gate_is_safe_from_many_threads() {
        static GATE: RateGate = RateGate::new(4, u64::MAX);
        let admitted: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        (0..100).filter(|&i| GATE.admit(i as u64).is_some()).count() as u64
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(admitted, 4, "one shared budget across all threads");
    }
}
