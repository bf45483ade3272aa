//! Per-layer self time from the spans a traced run records.
//!
//! Traced runs wrap every call into a layer's public function in a
//! [`pcap_obs::span`] on a [`pcap_obs::TraceRecorder`]; a span's stage
//! is its name up to the first `:`. A layer's self time is its spans'
//! duration minus the part of that interval their child spans cover.

use pcap_obs::TraceEvent;
use std::collections::BTreeMap;

/// Folds a recorder's span log into self time (µs) per stage, matching
/// begin and end edges per track.
pub fn fold(events: &[TraceEvent]) -> BTreeMap<String, u64> {
    let mut stacks: BTreeMap<u64, Vec<(&str, u64, u64)>> = BTreeMap::new();
    let mut layers: BTreeMap<String, u64> = BTreeMap::new();
    for event in events {
        let stack = stacks.entry(event.track).or_default();
        if event.begin {
            stack.push((&event.name, event.ts_us, 0));
        } else if let Some((name, begin_us, child_us)) = stack.pop() {
            let duration = event.ts_us.saturating_sub(begin_us);
            if let Some(parent) = stack.last_mut() {
                parent.2 += duration;
            }
            let stage = name.split(':').next().unwrap_or(name);
            *layers.entry(stage.to_owned()).or_default() += duration.saturating_sub(child_us);
        }
    }
    layers
}

/// Self time of `stage` in nanoseconds (0 when it never ran).
pub fn self_ns(layers: &BTreeMap<String, u64>, stage: &str) -> f64 {
    layers.get(stage).map_or(0.0, |&us| us as f64 * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(name: &str, begin: bool, ts_us: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_owned(),
            begin,
            ts_us,
            track: 0,
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let events = [
            edge("task:0", true, 0),
            edge("engine", true, 10),
            edge("engine", false, 40),
            edge("engine", true, 50),
            edge("engine", false, 60),
            edge("task:0", false, 100),
        ];
        let layers = fold(&events);
        assert_eq!(layers["task"], 60);
        assert_eq!(layers["engine"], 40);
        assert_eq!(self_ns(&layers, "engine"), 40_000.0);
        assert_eq!(self_ns(&layers, "absent"), 0.0);
    }
}
