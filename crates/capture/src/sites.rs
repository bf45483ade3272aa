//! Deterministic assignment of program counters to named code sites.
//!
//! PCAP's cross-execution table reuse (§4.2) rests on PCs being stable
//! across executions of the same binary. [`SiteMap`] places each named
//! call site of an application at a PC in a synthetic text segment,
//! hashed from the binary, its build and the site name. Two names can
//! hash to one slot: the name assigned first keeps it, so a PC depends
//! on the names assigned before it. The workload generator assigns
//! every site of a spec in spec order when a run starts, which gives
//! each site the same PC in every run, unless the application is
//! deliberately "recompiled" ([`SiteMap::recompiled`]) to study
//! retraining.

use pcap_types::Pc;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Base of the synthetic application text segment.
const APP_TEXT_BASE: u32 = 0x0804_8000;
/// Size of the synthetic application text segment.
const APP_TEXT_SIZE: u32 = 0x0080_0000;

/// Maps stable site names (e.g. `"mozilla::load_page::read_css"`) to
/// deterministic application PCs.
///
/// ```
/// use pcap_capture::SiteMap;
///
/// let mut a = SiteMap::new("mozilla");
/// let mut b = SiteMap::new("mozilla");
/// // Same binary ⇒ same PCs. These two names hash to different slots,
/// // so the order they are assigned in does not matter.
/// let x = a.pc("load_page");
/// let _ = b.pc("save_bookmarks");
/// assert_eq!(x, b.pc("load_page"));
/// // A recompiled binary lays code out differently.
/// let mut c = SiteMap::new("mozilla").recompiled(1);
/// assert_ne!(x, c.pc("load_page"));
/// // These two names hash to one slot: the first assigned keeps it,
/// // and the other takes the next instruction.
/// let mut d = SiteMap::new("collide");
/// let first = d.pc("1::a::s3903");
/// assert_eq!(d.pc("1::b::t190").0, first.0 + 4);
/// assert_eq!(SiteMap::new("collide").pc("1::b::t190"), first);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteMap {
    binary: String,
    build_id: u32,
    assigned: HashMap<String, Pc>,
    used: HashMap<u32, String>,
}

impl SiteMap {
    /// Creates the site map of `binary` at build 0.
    pub fn new(binary: &str) -> SiteMap {
        SiteMap {
            binary: binary.to_owned(),
            build_id: 0,
            assigned: HashMap::new(),
            used: HashMap::new(),
        }
    }

    /// Returns the map of the same binary after `build_id` recompilations:
    /// every site lands at a different address (§4.2: "PC addresses may
    /// change due to recompilation", forcing PCAP to retrain).
    #[must_use]
    pub fn recompiled(mut self, build_id: u32) -> SiteMap {
        assert!(
            self.assigned.is_empty(),
            "recompile before assigning any sites"
        );
        self.build_id = build_id;
        self
    }

    /// The binary name this map belongs to.
    pub fn binary(&self) -> &str {
        &self.binary
    }

    /// Returns the PC of the named call site, assigning one on first
    /// use.
    ///
    /// A new site's home slot is a hash of `(binary, build_id, site)`.
    /// If a site assigned earlier holds that slot, the new one probes
    /// forward one instruction at a time to the first free slot, so
    /// distinct sites always get distinct PCs, and a site's PC depends
    /// on the sites assigned before it.
    pub fn pc(&mut self, site: &str) -> Pc {
        if let Some(&pc) = self.assigned.get(site) {
            return pc;
        }
        let mut offset = fnv1a(&[
            self.binary.as_bytes(),
            &self.build_id.to_le_bytes(),
            site.as_bytes(),
        ]) % APP_TEXT_SIZE;
        // Instructions are 4-byte aligned in the synthetic segment;
        // probe by one instruction on collision.
        offset &= !3;
        loop {
            let candidate = APP_TEXT_BASE + offset;
            match self.used.get(&candidate) {
                None => {
                    let pc = Pc(candidate);
                    self.used.insert(candidate, site.to_owned());
                    self.assigned.insert(site.to_owned(), pc);
                    return pc;
                }
                Some(owner) if owner == site => return Pc(candidate),
                Some(_) => offset = (offset + 4) % APP_TEXT_SIZE,
            }
        }
    }

    /// Number of distinct sites assigned so far.
    pub fn len(&self) -> usize {
        self.assigned.len()
    }

    /// True if no sites were assigned yet.
    pub fn is_empty(&self) -> bool {
        self.assigned.is_empty()
    }
}

/// FNV-1a over a list of byte chunks.
fn fnv1a(chunks: &[&[u8]]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for chunk in chunks {
        for &b in *chunk {
            hash ^= u32::from(b);
            hash = hash.wrapping_mul(0x0100_0193);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SiteMap::new("xemacs");
        let mut b = SiteMap::new("xemacs");
        for site in ["open", "save", "autosave", "load_elisp"] {
            assert_eq!(a.pc(site), b.pc(site));
        }
    }

    #[test]
    fn stable_under_lookup_order() {
        let mut a = SiteMap::new("writer");
        let mut b = SiteMap::new("writer");
        let a1 = a.pc("one");
        let _ = a.pc("two");
        let _ = b.pc("two");
        let b1 = b.pc("one");
        // Hash-based assignment is order-independent barring probe
        // collisions between exactly these two sites, which the
        // distinct-hash check below rules out for this input.
        assert_eq!(a1, b1);
    }

    #[test]
    fn distinct_sites_get_distinct_pcs() {
        let mut m = SiteMap::new("impress");
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let pc = m.pc(&format!("site{i}"));
            assert!(seen.insert(pc), "collision at site{i}");
        }
        assert_eq!(m.len(), 500);
    }

    #[test]
    fn different_binaries_differ() {
        let mut a = SiteMap::new("mozilla");
        let mut b = SiteMap::new("nedit");
        assert_ne!(a.pc("open"), b.pc("open"));
    }

    #[test]
    fn recompilation_moves_sites() {
        let mut v0 = SiteMap::new("mplayer");
        let mut v1 = SiteMap::new("mplayer").recompiled(1);
        assert_ne!(v0.pc("fill_buffer"), v1.pc("fill_buffer"));
    }

    #[test]
    fn pcs_live_in_app_text_segment() {
        let mut m = SiteMap::new("app");
        for i in 0..100 {
            let pc = m.pc(&format!("s{i}")).0;
            assert!((APP_TEXT_BASE..APP_TEXT_BASE + APP_TEXT_SIZE).contains(&pc));
            assert_eq!(pc % 4, 0, "instruction alignment");
            assert_ne!(pc, 0, "PC 0 is the kernel sentinel");
        }
    }
}
