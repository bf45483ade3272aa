//! Parameterized device populations for fleet-scale sweeps.
//!
//! A *fleet* of `N` devices is a deterministic function of a single
//! base seed: device `d` runs application `PaperApp::ALL[d % 6]` with a
//! per-device seed derived by [`device_seed`]. The first six devices —
//! *cohort 0* — use the base seed verbatim, so a fleet sweep over
//! exactly six devices at the golden seed reproduces the six-app grid
//! bit for bit. Every later cohort (`d / 6 >= 1`) jitters the base
//! seed through [`splitmix64`], giving each device an independent but
//! reproducible workload realization.
//!
//! The contract is public and stable: changing the device→(app, seed)
//! mapping is a breaking change to every recorded fleet number.

use crate::apps::PaperApp;
use crate::spec::{AppModel, AppSpec, SitePcs};
use pcap_trace::{TraceError, TraceRun};

/// The finalizing mixer of Vigna's SplitMix64 generator, applied to
/// `x` plus the golden-gamma increment. Full-period on `u64`: distinct
/// inputs give distinct outputs, so distinct cohorts can never collide
/// onto one seed.
pub const fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Number of applications a fleet cycles through (the paper's six).
pub const APPS_PER_COHORT: u64 = PaperApp::ALL.len() as u64;

/// The application device `device` runs: the fleet cycles through the
/// paper's six apps in table order.
pub fn device_app(device: u64) -> PaperApp {
    PaperApp::ALL[(device % APPS_PER_COHORT) as usize]
}

/// The workload seed for `device` under `base_seed`.
///
/// Cohort 0 (devices 0–5) returns `base_seed` unchanged — the identity
/// that makes a six-device fleet sweep byte-identical to the legacy
/// six-app grid. Cohort `c >= 1` returns
/// `splitmix64(base_seed ^ c * GOLDEN_GAMMA)`, decorrelating cohorts
/// while staying a pure function of `(base_seed, device)`.
pub fn device_seed(base_seed: u64, device: u64) -> u64 {
    let cohort = device / APPS_PER_COHORT;
    if cohort == 0 {
        base_seed
    } else {
        splitmix64(base_seed ^ cohort.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// One device of a fleet: an app identity plus its jittered seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Device {
    /// Position in the fleet (`0..population.devices()`).
    pub index: u64,
    /// The application this device runs.
    pub app: PaperApp,
    /// The per-device workload seed (see [`device_seed`]).
    pub seed: u64,
}

/// A deterministic fleet of devices cycling through the six paper apps.
///
/// The population itself is tiny — it holds the six calibrated specs
/// and their site-PC tables once and maps indices on demand, so a
/// million-device fleet costs the same memory as a six-device one.
#[derive(Debug, Clone)]
pub struct DevicePopulation {
    devices: u64,
    base_seed: u64,
    specs: [AppSpec; 6],
    sites: [SitePcs; 6],
}

impl DevicePopulation {
    /// Creates a population of `devices` devices under `base_seed`.
    pub fn new(devices: u64, base_seed: u64) -> DevicePopulation {
        let specs = PaperApp::ALL.map(PaperApp::spec);
        let sites = std::array::from_fn(|app| SitePcs::of(&specs[app]));
        DevicePopulation {
            devices,
            base_seed,
            specs,
            sites,
        }
    }

    /// Number of devices in the fleet.
    pub fn devices(&self) -> u64 {
        self.devices
    }

    /// The base seed the whole fleet derives from.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The identity of device `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.devices()`.
    pub fn device(&self, index: u64) -> Device {
        assert!(index < self.devices, "device {index} out of range");
        Device {
            index,
            app: device_app(index),
            seed: device_seed(self.base_seed, index),
        }
    }

    /// The calibrated spec device `index` runs (shared per app — the
    /// six specs are built once at population construction).
    pub fn spec(&self, index: u64) -> &AppSpec {
        &self.specs[(index % APPS_PER_COHORT) as usize]
    }

    /// Number of executions device `index` generates (Table 1 count of
    /// its app).
    pub fn runs(&self, index: u64) -> usize {
        self.spec(index).executions()
    }

    /// Generates execution `run` of device `index`. Deterministic in
    /// `(base_seed, index, run)`.
    ///
    /// # Errors
    ///
    /// Propagates [`TraceError`] from the underlying app model.
    pub fn generate_run(&self, index: u64, run: usize) -> Result<TraceRun, TraceError> {
        let app = (index % APPS_PER_COHORT) as usize;
        self.specs[app].generate_run_with(&self.sites[app], device_seed(self.base_seed, index), run)
    }
}

/// An order-sensitive configuration hash for sweep journals, chained
/// through [`splitmix64`]. Not cryptographic — its job is to make two
/// *different* sweep configurations (grid, seed range, device count)
/// collide with negligible probability so a stale or foreign journal
/// is rejected, not merged.
#[derive(Debug, Clone)]
pub struct ConfigHash {
    state: u64,
}

impl ConfigHash {
    /// Starts a hash chain for the named sweep family (e.g.
    /// `"fleet-sweep"`); distinct domains never share a hash space.
    pub fn new(domain: &str) -> ConfigHash {
        let mut hash = ConfigHash { state: 0 };
        hash.push_str(domain);
        hash
    }

    /// Folds one integer into the chain (order matters).
    pub fn push(&mut self, value: u64) {
        self.state = splitmix64(self.state ^ value);
    }

    /// Folds a string into the chain, length-prefixed so `"ab","c"`
    /// and `"a","bc"` hash differently.
    pub fn push_str(&mut self, s: &str) {
        self.push(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.push(u64::from_le_bytes(word));
        }
    }

    /// The final hash value.
    pub fn finish(&self) -> u64 {
        splitmix64(self.state)
    }
}

/// The journal cell key of fleet-chunk `[start, end)`: the half-open
/// device range packed through the hash chain, so any two distinct
/// chunkings produce distinct keys.
pub fn fleet_cell_key(start: u64, end: u64) -> u64 {
    let mut hash = ConfigHash::new("fleet-chunk");
    hash.push(start);
    hash.push(end);
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohort_zero_uses_base_seed_verbatim() {
        for d in 0..6 {
            assert_eq!(device_seed(42, d), 42);
        }
        for d in 6..12 {
            assert_ne!(device_seed(42, d), 42, "device {d}");
        }
    }

    #[test]
    fn apps_cycle_in_table_order() {
        for d in 0..18u64 {
            assert_eq!(device_app(d), PaperApp::ALL[(d % 6) as usize]);
        }
    }

    #[test]
    fn cohorts_share_seed_and_differ_between_cohorts() {
        // Within a cohort all six devices share one jittered seed...
        let s = device_seed(7, 6);
        for d in 6..12 {
            assert_eq!(device_seed(7, d), s);
        }
        // ...and nearby cohorts don't collide.
        let seeds: Vec<u64> = (0..600).map(|d| device_seed(7, d * 6)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "cohort seed collision");
    }

    #[test]
    fn splitmix64_matches_reference_vector() {
        // Vigna's reference: splitmix64 state 0 outputs
        // 0xe220a8397b1dcdaf as its first value.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn population_maps_devices_deterministically() {
        let pop = DevicePopulation::new(20, 42);
        assert_eq!(pop.devices(), 20);
        assert_eq!(pop.base_seed(), 42);
        let d = pop.device(13);
        assert_eq!(d.index, 13);
        assert_eq!(d.app, PaperApp::ALL[1]);
        assert_eq!(d.seed, device_seed(42, 13));
        assert_eq!(pop.runs(13), 33); // writer: Table 1
        let again = DevicePopulation::new(20, 42);
        assert_eq!(
            pop.generate_run(13, 0).unwrap(),
            again.generate_run(13, 0).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn device_out_of_range_panics() {
        DevicePopulation::new(6, 42).device(6);
    }

    #[test]
    fn cohort_zero_runs_match_direct_spec_generation() {
        let pop = DevicePopulation::new(6, 42);
        for d in 0..6u64 {
            let direct = PaperApp::ALL[d as usize]
                .spec()
                .generate_run(42, 0)
                .unwrap();
            assert_eq!(pop.generate_run(d, 0).unwrap(), direct, "device {d}");
        }
    }
}
