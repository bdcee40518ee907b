//! A sweep-wide concurrent memo table for admission verdicts.
//!
//! Lattice sweeps and batch checks re-decide the same question many
//! times: the same (history, model) pair shows up under processor,
//! location, and value renamings, and `check_matrix` revisits identical
//! histories across models. [`MemoCache`] caches *decided* verdicts keyed
//! by `(`[`HistoryKey`]`, model parameter key)` — the canonical form of
//! the history ([`crate::canon`]) and a hash of the model's parameter
//! point ([`crate::spec::ModelSpec::param_key`]) — so every member of a
//! symmetry class is decided once per model.
//!
//! * `Allowed` entries store their witness in *canonical* coordinates,
//!   shared behind an `Arc`; a hit ([`MemoCache::recall`]) copies the
//!   pointer under the shard lock and translates the witness through the
//!   querying history's own permutation maps outside it, so it verifies
//!   against that history.
//! * Entries can come from memo files, which are untrusted: an entry
//!   whose witness does not fit the querying history (an index out of
//!   range) reads as a miss, and the check's own verdict replaces it.
//! * `Exhausted` verdicts are never cached: they depend on the budget
//!   the particular check ran under, not on the question.
//! * `Unsupported` verdicts are never cached: they are cheap to
//!   recompute and their messages embed the model's display name, which
//!   is not part of the parameter key.
//!
//! The table is sharded: 16 shards, each a `Mutex<HashMap>` with FIFO
//! eviction at a fixed per-shard capacity, so concurrent workers rarely
//! contend and the table's memory is bounded. Hit/miss/insert/eviction
//! counters are atomic and surface through `smc corpus --stats`/`--json`.

use crate::binfmt::{write_u32, Reader};
use crate::canon::{Canon, HistoryKey};
use crate::checker::{Verdict, Witness};
use smc_history::OpId;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

const NUM_SHARDS: usize = 16;

/// Default total capacity (entries across all shards).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// A stored verdict: the canonical-coordinate witness of an `Allowed`,
/// or `None` for `Disallowed`.
type Entry = Option<Arc<Witness>>;

#[derive(Default)]
struct Shard {
    map: HashMap<(u128, u64), Entry>,
    order: VecDeque<(u128, u64)>,
}

/// Concurrent sharded cache of decided verdicts, keyed by
/// `(canonical history, model parameters)`.
pub struct MemoCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

/// A snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups that found a cached verdict.
    pub hits: u64,
    /// Lookups that found nothing, or an entry that did not fit.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Entries evicted (FIFO, at capacity).
    pub evictions: u64,
}

impl std::fmt::Debug for MemoCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("MemoCache")
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("inserts", &s.inserts)
            .field("evictions", &s.evictions)
            .finish()
    }
}

impl Default for MemoCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    match shard.lock() {
        Ok(s) => s,
        Err(p) => p.into_inner(),
    }
}

impl MemoCache {
    /// A cache bounded to roughly `capacity` entries (rounded up to a
    /// multiple of the shard count).
    pub fn with_capacity(capacity: usize) -> Self {
        MemoCache {
            shards: (0..NUM_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_capacity: capacity.div_ceil(NUM_SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: HistoryKey, model: u64) -> &Mutex<Shard> {
        let mix = (key.0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_right(17)
            ^ model;
        &self.shards[(mix as usize) % NUM_SHARDS]
    }

    /// The stored entry for `(key, model)`; an `Allowed` witness is
    /// shared, not copied.
    fn get(&self, key: HistoryKey, model: u64) -> Option<Entry> {
        lock(self.shard_of(key, model))
            .map
            .get(&(key.0, model))
            .cloned()
    }

    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The cached verdict for the history `canon` was computed from under
    /// `model`, with any witness translated into that history's
    /// coordinates; counts the hit or miss. An entry whose witness does
    /// not fit the history (see [`Canon::try_witness_from_canon`]) counts
    /// as a miss: the caller checks, and [`MemoCache::record`] replaces
    /// the entry.
    pub fn recall(&self, canon: &Canon, model: u64) -> Option<Verdict> {
        let verdict = self.get(canon.key, model).and_then(|e| match e {
            Some(w) => canon
                .try_witness_from_canon(&w)
                .map(|w| Verdict::Allowed(Box::new(w))),
            None => Some(Verdict::Disallowed),
        });
        self.count(verdict.is_some());
        verdict
    }

    /// Store `entry` for `(key, model)`, evicting the oldest entry of the
    /// shard if it is at capacity. Re-inserting an existing key replaces
    /// the value in place.
    fn insert_entry(&self, key: HistoryKey, model: u64, entry: Entry) {
        let mut shard = lock(self.shard_of(key, model));
        let k = (key.0, model);
        if shard.map.insert(k, entry).is_none() {
            shard.order.push_back(k);
            self.inserts.fetch_add(1, Ordering::Relaxed);
            while shard.map.len() > self.shard_capacity {
                if let Some(old) = shard.order.pop_front() {
                    shard.map.remove(&old);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                } else {
                    break;
                }
            }
        }
    }

    /// Record a checker verdict if it is cacheable (decided), translating
    /// any witness into canonical coordinates first.
    pub fn record(&self, canon: &Canon, model: u64, verdict: &Verdict) {
        match verdict {
            Verdict::Allowed(w) => {
                self.insert_entry(canon.key, model, Some(Arc::new(canon.witness_to_canon(w))))
            }
            Verdict::Disallowed => self.insert_entry(canon.key, model, None),
            Verdict::Exhausted | Verdict::Unsupported(_) => {}
        }
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// `true` if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the hit/miss/insert/eviction counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Write every cached entry to `path` in the versioned binary format
    /// described at [`MAGIC`]. Returns the number of entries written.
    ///
    /// Entries are written in each shard's insertion (FIFO) order, so a
    /// later [`MemoCache::load`] into a same-capacity cache evicts the
    /// same entries a live cache would have.
    pub fn save(&self, path: &Path) -> std::io::Result<usize> {
        let mut entries: Vec<((u128, u64), Entry)> = Vec::new();
        for shard in &self.shards {
            let shard = lock(shard);
            for k in &shard.order {
                if let Some(v) = shard.map.get(k) {
                    entries.push((*k, v.clone()));
                }
            }
        }
        // Param-key table: verdicts reference their model by index, so the
        // common case (thousands of histories, a handful of models) pays
        // 4 bytes per record instead of 8.
        let mut models: Vec<u64> = Vec::new();
        for ((_, m), _) in &entries {
            if !models.contains(m) {
                models.push(*m);
            }
        }

        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(MAGIC);
        write_u32(&mut buf, models.len() as u32);
        for m in &models {
            buf.extend_from_slice(&m.to_le_bytes());
        }
        write_u32(&mut buf, entries.len() as u32);
        for ((key, model), verdict) in &entries {
            buf.extend_from_slice(&key.to_le_bytes());
            let idx = models.iter().position(|m| m == model).unwrap_or(0);
            write_u32(&mut buf, idx as u32);
            match verdict {
                None => buf.push(0),
                Some(w) => {
                    buf.push(1);
                    write_witness(&mut buf, w);
                }
            }
        }
        crate::binfmt::write_file(path, &buf)?;
        Ok(entries.len())
    }

    /// Load entries saved by [`MemoCache::save`] into this cache (on top
    /// of whatever it already holds). Returns the number of entries
    /// loaded, or a description of why the file was rejected — callers
    /// are expected to warn and continue with a cold cache, never panic.
    pub fn load(&self, path: &Path) -> Result<usize, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut r = Reader::new(&bytes);
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(format!(
                "{}: not a memo file (bad magic or version)",
                path.display()
            ));
        }
        let num_models = r.u32()? as usize;
        let mut models = Vec::new();
        for _ in 0..num_models {
            models.push(r.u64()?);
        }
        let num_entries = r.u32()? as usize;
        let mut loaded = 0usize;
        for _ in 0..num_entries {
            let key = r.u128()?;
            let pos = r.pos();
            let idx = r.u32()? as usize;
            let model = *models
                .get(idx)
                .ok_or_else(|| format!("model index {idx} out of range at byte {pos}"))?;
            let pos = r.pos();
            let entry = match r.u8()? {
                0 => None,
                1 => Some(Arc::new(read_witness(&mut r)?)),
                t => return Err(format!("unknown verdict tag {t} at byte {pos}")),
            };
            self.insert_entry(HistoryKey(key), model, entry);
            loaded += 1;
        }
        Ok(loaded)
    }
}

/// File magic for [`MemoCache::save`]: `SMCMEMO` plus a format version
/// byte. The payload is little-endian throughout: a `u32` count of model
/// parameter keys followed by those keys as `u64`s, then a `u32` record
/// count, then records of `(HistoryKey as u128, model index u32, tag u8,
/// witness if tag = 1)`. Witnesses are length-prefixed vectors of `u32`
/// operation ids in canonical coordinates.
pub const MAGIC: &[u8; 8] = b"SMCMEMO\x01";

fn write_ids(buf: &mut Vec<u8>, ids: &[OpId]) {
    write_u32(buf, ids.len() as u32);
    for id in ids {
        write_u32(buf, id.0);
    }
}

fn write_opt_ids(buf: &mut Vec<u8>, ids: Option<&Vec<OpId>>) {
    match ids {
        None => buf.push(0),
        Some(ids) => {
            buf.push(1);
            write_ids(buf, ids);
        }
    }
}

fn write_witness(buf: &mut Vec<u8>, w: &Witness) {
    write_u32(buf, w.views.len() as u32);
    for view in &w.views {
        write_ids(buf, view);
    }
    write_opt_ids(buf, w.store_order.as_ref());
    match &w.coherence {
        None => buf.push(0),
        Some(orders) => {
            buf.push(1);
            write_u32(buf, orders.len() as u32);
            for o in orders {
                write_ids(buf, o);
            }
        }
    }
    write_opt_ids(buf, w.labeled_order.as_ref());
    match &w.reads_from {
        None => buf.push(0),
        Some(rf) => {
            buf.push(1);
            write_u32(buf, rf.len() as u32);
            for src in rf {
                match src {
                    None => buf.push(0),
                    Some(id) => {
                        buf.push(1);
                        write_u32(buf, id.0);
                    }
                }
            }
        }
    }
}

fn read_ids(r: &mut Reader<'_>) -> Result<Vec<OpId>, String> {
    let n = r.len_prefix(4)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(OpId(r.u32()?));
    }
    Ok(v)
}

fn read_opt_ids(r: &mut Reader<'_>) -> Result<Option<Vec<OpId>>, String> {
    let pos = r.pos();
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(read_ids(r)?)),
        t => Err(format!("unknown option tag {t} at byte {pos}")),
    }
}

fn read_witness(r: &mut Reader<'_>) -> Result<Witness, String> {
    let num_views = r.len_prefix(4)?;
    let mut views = Vec::with_capacity(num_views);
    for _ in 0..num_views {
        views.push(read_ids(r)?);
    }
    let store_order = read_opt_ids(r)?;
    let pos = r.pos();
    let coherence = match r.u8()? {
        0 => None,
        1 => {
            let n = r.len_prefix(4)?;
            let mut orders = Vec::with_capacity(n);
            for _ in 0..n {
                orders.push(read_ids(r)?);
            }
            Some(orders)
        }
        t => return Err(format!("unknown option tag {t} at byte {pos}")),
    };
    let labeled_order = read_opt_ids(r)?;
    let pos = r.pos();
    let reads_from = match r.u8()? {
        0 => None,
        1 => {
            let n = r.len_prefix(1)?;
            let mut rf = Vec::with_capacity(n);
            for _ in 0..n {
                let pos = r.pos();
                rf.push(match r.u8()? {
                    0 => None,
                    1 => Some(OpId(r.u32()?)),
                    t => return Err(format!("unknown reads-from tag {t} at byte {pos}")),
                });
            }
            Some(rf)
        }
        t => return Err(format!("unknown option tag {t} at byte {pos}")),
    };
    Ok(Witness {
        views,
        store_order,
        coherence,
        labeled_order,
        reads_from,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::canonicalize;
    use smc_history::litmus::parse_history;

    fn key(n: u128) -> HistoryKey {
        HistoryKey(n)
    }

    /// The canonical form of `p: w(x)1 … w(x)n`: one distinct key per `n`.
    fn writes(n: usize) -> Canon {
        let ops: String = (1..=n).map(|v| format!(" w(x){v}")).collect();
        canonicalize(&parse_history(&format!("p:{ops}")).unwrap())
    }

    #[test]
    fn hit_after_insert() {
        let cache = MemoCache::with_capacity(64);
        let canon = writes(1);
        assert!(cache.recall(&canon, 7).is_none());
        cache.insert_entry(canon.key, 7, None);
        assert_eq!(cache.recall(&canon, 7), Some(Verdict::Disallowed));
        // Same history, different model: distinct entry.
        assert!(cache.recall(&canon, 8).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 2, 1));
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let cache = MemoCache::with_capacity(NUM_SHARDS); // 1 entry per shard
        for i in 0..1000u64 {
            cache.insert_entry(key(i as u128), 0, None);
        }
        assert!(cache.len() <= NUM_SHARDS);
        assert!(cache.stats().evictions > 0);
    }

    fn sample_witness() -> Witness {
        Witness {
            views: vec![vec![OpId(0), OpId(2)], vec![OpId(1)]],
            store_order: Some(vec![OpId(0), OpId(1)]),
            coherence: Some(vec![vec![OpId(0)], vec![OpId(1)]]),
            labeled_order: None,
            reads_from: Some(vec![None, Some(OpId(0)), None]),
        }
    }

    #[test]
    fn save_load_round_trips() {
        let dir = std::env::temp_dir().join("smc-memo-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.smcmemo");
        let cache = MemoCache::with_capacity(64);
        cache.insert_entry(key(10), 3, None);
        cache.insert_entry(key(11), 3, Some(Arc::new(sample_witness())));
        cache.insert_entry(key(11), 9, None);
        assert_eq!(cache.save(&path).unwrap(), 3);

        let fresh = MemoCache::with_capacity(64);
        assert_eq!(fresh.load(&path).unwrap(), 3);
        assert_eq!(fresh.len(), 3);
        assert_eq!(fresh.get(key(10), 3), Some(None));
        match fresh.get(key(11), 3) {
            Some(Some(w)) => assert_eq!(*w, sample_witness()),
            other => panic!("expected Allowed, got {other:?}"),
        }
        assert_eq!(fresh.get(key(11), 9), Some(None));
        assert!(fresh.get(key(12), 3).is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_and_truncated_files_are_rejected_not_panicked() {
        let dir = std::env::temp_dir().join("smc-memo-corrupt");
        std::fs::create_dir_all(&dir).unwrap();

        // Wrong magic.
        let bad = dir.join("bad.smcmemo");
        std::fs::write(&bad, b"NOTMEMO\x01garbage").unwrap();
        assert!(MemoCache::default().load(&bad).is_err());

        // Wrong version byte.
        let ver = dir.join("ver.smcmemo");
        std::fs::write(&ver, b"SMCMEMO\x7f").unwrap();
        assert!(MemoCache::default().load(&ver).is_err());

        // Every truncation of a valid file must fail cleanly (or load a
        // prefix of the records), never panic or over-allocate.
        let good = dir.join("good.smcmemo");
        let cache = MemoCache::with_capacity(64);
        cache.insert_entry(key(1), 5, Some(Arc::new(sample_witness())));
        cache.insert_entry(key(2), 5, None);
        cache.save(&good).unwrap();
        let bytes = std::fs::read(&good).unwrap();
        let trunc = dir.join("trunc.smcmemo");
        for cut in 0..bytes.len() {
            std::fs::write(&trunc, &bytes[..cut]).unwrap();
            assert!(MemoCache::default().load(&trunc).is_err(), "cut at {cut}");
        }

        // Flipping the declared record count far past the payload must be
        // caught by bounds checks.
        let mut huge = bytes.clone();
        let counts_at = MAGIC.len() + 4 + 8; // one model key in the table
        huge[counts_at..counts_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&trunc, &huge).unwrap();
        assert!(MemoCache::default().load(&trunc).is_err());

        // A bad structural tag is reported with the byte offset of the
        // offending byte, so a warning can point into the file.
        let mut tagged = bytes.clone();
        let first_record = MAGIC.len() + 4 + 8 + 4; // model table + entry count
        let tag_at = first_record + 16 + 4; // key + model index
        tagged[tag_at] = 0x7e;
        std::fs::write(&trunc, &tagged).unwrap();
        let e = MemoCache::default().load(&trunc).unwrap_err();
        assert!(
            e.contains(&format!("at byte {tag_at}")),
            "error should name byte {tag_at}: {e}"
        );

        for f in [bad, ver, good, trunc] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn concurrent_use_is_safe() {
        let cache = MemoCache::with_capacity(1024);
        let canons: Vec<Canon> = (1..=64).map(writes).collect();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (cache, canons) = (&cache, &canons);
                s.spawn(move || {
                    for i in 0..500usize {
                        let canon = &canons[i % 64];
                        cache.insert_entry(canon.key, t, None);
                        let _ = cache.recall(canon, t);
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 2000);
        assert!(!cache.is_empty());
    }

    /// Write a one-record memo file holding an `Allowed` entry with
    /// `views` (and no other witness component) for `(key, model)`.
    fn write_one_record(path: &Path, key: HistoryKey, model: u64, views: &[Vec<u32>]) {
        let mut buf = MAGIC.to_vec();
        write_u32(&mut buf, 1);
        buf.extend_from_slice(&model.to_le_bytes());
        write_u32(&mut buf, 1);
        buf.extend_from_slice(&key.0.to_le_bytes());
        write_u32(&mut buf, 0);
        buf.push(1);
        write_u32(&mut buf, views.len() as u32);
        for view in views {
            write_u32(&mut buf, view.len() as u32);
            for &id in view {
                write_u32(&mut buf, id);
            }
        }
        // No store order, coherence, labeled order or reads-from.
        buf.extend_from_slice(&[0, 0, 0, 0]);
        std::fs::write(path, &buf).unwrap();
    }

    #[test]
    fn an_entry_that_does_not_fit_the_history_is_a_miss() {
        use crate::checker::{check_with_config, CheckConfig};
        let h = smc_history::litmus::parse_history("p: w(x)1\nq: r(x)1").unwrap();
        let sc = crate::models::sc();
        let key = crate::canon::canonicalize(&h).key;
        let dir = std::env::temp_dir().join("smc-memo-misfit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("misfit.smcmemo");
        // One view for a two-processor history; an op id past the end.
        for views in [vec![vec![0, 1]], vec![vec![0, 1], vec![0, 65535]]] {
            write_one_record(&path, key, sc.param_key(), &views);
            let cfg = CheckConfig::default().with_memo();
            let memo = cfg.memo.clone().unwrap();
            assert_eq!(memo.load(&path), Ok(1));
            match check_with_config(&h, &sc, &cfg) {
                Verdict::Allowed(w) => crate::verify::verify_witness(&h, &sc, &w)
                    .unwrap_or_else(|e| panic!("{views:?}: {e}")),
                other => panic!("{views:?}: expected Allowed, got {other:?}"),
            }
            let s = memo.stats();
            assert_eq!((s.hits, s.misses), (0, 1), "{views:?}");
            // The check's own verdict replaced the entry, so the parallel
            // entry point now hits it.
            match crate::batch::check_parallel(&h, &sc, &cfg, 2).0 {
                Verdict::Allowed(w) => crate::verify::verify_witness(&h, &sc, &w).unwrap(),
                other => panic!("{views:?}: expected Allowed, got {other:?}"),
            }
            assert_eq!(memo.stats().hits, 1, "{views:?}");
        }
        let _ = std::fs::remove_file(&path);
    }
}
