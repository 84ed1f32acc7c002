//! Cache-fault injection for robustness testing.
//!
//! The corpus crate injects faults into *source files*
//! ([`seldon_corpus::faults`]-style); this module injects faults into the
//! *cache directory itself*, simulating what crashes, disk errors, and
//! build skew do to persisted entries. The injector damages a
//! deterministic, seed-chosen subset of entries; the determinism gate then
//! asserts a warm run over the damaged cache still produces a spec
//! byte-identical to a cold run.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::Path;

/// One way to damage a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheFaultKind {
    /// Keep only a prefix of the file — the classic crash-mid-write shape
    /// an atomic rename is supposed to prevent when the *writer* is this
    /// crate, but which foreign tools or filesystems can still produce.
    TornWrite,
    /// Drop the final bytes of the file.
    Truncation,
    /// Flip one random bit somewhere in the file.
    BitFlip,
    /// Restamp the header with a future format version.
    StaleSchema,
    /// Delete `index.json`.
    MissingIndex,
}

impl CacheFaultKind {
    /// All kinds, in injection rotation order.
    pub const ALL: [CacheFaultKind; 5] = [
        CacheFaultKind::TornWrite,
        CacheFaultKind::Truncation,
        CacheFaultKind::BitFlip,
        CacheFaultKind::StaleSchema,
        CacheFaultKind::MissingIndex,
    ];

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            CacheFaultKind::TornWrite => "torn-write",
            CacheFaultKind::Truncation => "truncation",
            CacheFaultKind::BitFlip => "bit-flip",
            CacheFaultKind::StaleSchema => "stale-schema",
            CacheFaultKind::MissingIndex => "missing-index",
        }
    }
}

/// A record of one injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedCacheFault {
    /// The damaged cache file name.
    pub entry: String,
    /// How it was damaged.
    pub kind: CacheFaultKind,
}

fn damage(path: &Path, kind: CacheFaultKind, rng: &mut SmallRng) -> std::io::Result<()> {
    let bytes = fs::read(path)?;
    let damaged: Vec<u8> = match kind {
        CacheFaultKind::TornWrite => {
            // A torn write keeps some prefix, possibly mid-header.
            let keep = rng.gen_range(0..bytes.len().max(1));
            bytes[..keep].to_vec()
        }
        CacheFaultKind::Truncation => {
            let drop = rng.gen_range(1..=8.min(bytes.len()));
            bytes[..bytes.len() - drop].to_vec()
        }
        CacheFaultKind::BitFlip => {
            let mut out = bytes;
            if !out.is_empty() {
                let at = rng.gen_range(0..out.len());
                let bit = rng.gen_range(0..8u32);
                out[at] ^= 1 << bit;
            }
            out
        }
        CacheFaultKind::StaleSchema => {
            // Rewrite the version token of the header line in place.
            let text = String::from_utf8_lossy(&bytes);
            match text.split_once('\n') {
                Some((header, _)) => {
                    let mut tokens: Vec<&str> = header.split(' ').collect();
                    if tokens.len() >= 2 {
                        tokens[1] = "999999";
                    }
                    let mut out = tokens.join(" ").into_bytes();
                    out.push(b'\n');
                    out.extend_from_slice(&bytes[header.len() + 1..]);
                    out
                }
                None => bytes,
            }
        }
        CacheFaultKind::MissingIndex => {
            return fs::remove_file(path);
        }
    };
    fs::write(path, damaged)
}

/// Damages roughly `rate` of the `*.entry` files (plus the checkpoint and,
/// when selected, the index) under `dir`, rotating through
/// [`CacheFaultKind::ALL`]. Deterministic: the same directory contents,
/// `rate`, and `seed` always damage the same files the same way.
pub fn inject_cache_faults(dir: &Path, rate: f64, seed: u64) -> Vec<InjectedCacheFault> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x00CA_C4E0);
    let mut names: Vec<String> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".entry") || n == crate::store::CHECKPOINT_NAME)
        .collect();
    names.sort_unstable();
    let mut injected = Vec::new();
    let mut next_kind = 0usize;
    let mut index_gone = false;
    for name in names {
        if !rng.gen_bool(rate) {
            continue;
        }
        let mut kind = CacheFaultKind::ALL[next_kind % CacheFaultKind::ALL.len()];
        next_kind += 1;
        if kind == CacheFaultKind::MissingIndex {
            if !index_gone && fs::remove_file(dir.join(crate::store::INDEX_NAME)).is_ok() {
                index_gone = true;
                injected.push(InjectedCacheFault {
                    entry: crate::store::INDEX_NAME.to_string(),
                    kind,
                });
            }
            // The selected entry still gets damaged so the rate holds.
            kind = CacheFaultKind::ALL[next_kind % CacheFaultKind::ALL.len()];
            next_kind += 1;
        }
        if damage(&dir.join(&name), kind, &mut rng).is_ok() {
            injected.push(InjectedCacheFault { entry: name, kind });
        }
    }
    injected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{file_key, ArtifactCache, ArtifactLookup};
    use seldon_propgraph::{build_source, BuildOptions, FileId};

    #[test]
    fn injection_is_deterministic_and_every_fault_is_contained() {
        let dir = std::env::temp_dir().join(format!("seldon-inject-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let sources: Vec<String> = (0..40)
            .map(|i| format!("import os\nx_{i} = 1\nos.system('cmd {i}')\n"))
            .collect();
        let (cache, _) = ArtifactCache::open(&dir).unwrap();
        for src in &sources {
            let graph = build_source(src, FileId(0), &BuildOptions::default()).unwrap().graph;
            cache.store_artifact(file_key(src, 0, 0), &graph, 0);
        }
        let a = inject_cache_faults(&dir, 0.5, 42);
        assert!(!a.is_empty(), "rate 0.5 over 40 entries injects something");
        // Re-populate and re-inject: the same plan comes out.
        fs::remove_dir_all(&dir).unwrap();
        let (cache, _) = ArtifactCache::open(&dir).unwrap();
        for src in &sources {
            let graph = build_source(src, FileId(0), &BuildOptions::default()).unwrap().graph;
            cache.store_artifact(file_key(src, 0, 0), &graph, 0);
        }
        let b = inject_cache_faults(&dir, 0.5, 42);
        assert_eq!(a, b, "same seed, same damage plan");

        // Every damaged entry must now read back as Miss or Fault — never
        // as a wrong Hit, and never a panic/error.
        let (cache, _) = ArtifactCache::open(&dir).unwrap();
        for (i, src) in sources.iter().enumerate() {
            let key = file_key(src, 0, 0);
            let damaged = b.iter().any(|f| f.entry == format!("{key:016x}.entry"));
            match cache.load_artifact(key, FileId(0)) {
                ArtifactLookup::Hit(graph, _) => {
                    let fresh =
                        build_source(src, FileId(0), &BuildOptions::default()).unwrap().graph;
                    assert_eq!(
                        graph.event_count(),
                        fresh.event_count(),
                        "surviving entry {i} decodes to the true graph"
                    );
                }
                ArtifactLookup::Miss | ArtifactLookup::Fault(_) => {
                    assert!(damaged, "undamaged entry {i} must hit");
                }
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
