//! Durable, replicated, versioned checkpoint store.
//!
//! Every rung of the recovery ladder bottoms out in "read the last
//! snapshot" — which is only as trustworthy as the bytes on disk. This
//! module makes that trust *earned*: a [`CkptStore`] holds N versions of
//! a serialized [`TrainState`], each published atomically (write into a
//! temp directory, fsync, rename — a crash at any point leaves either
//! the whole version or none of it), each described by a manifest
//! protected by an FNV-1a 64 checksum, and each split into per-rank byte shards with configurable
//! redundancy so a *permanently lost* shard is reconstructable instead
//! of fatal.
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/
//!   v00000001/
//!     manifest.bin          # FGMANI02: lengths + FNV-1a checksums of everything below
//!     shard_000.bin         # byte-range shard of the FGCKPT05 payload
//!     shard_000.r1.bin      # replica of shard 0 (Redundancy::Replicas)
//!     parity_000.bin        # XOR parity over a shard group (Redundancy::Parity)
//!   v00000002/ ...
//!   .tmp.v00000003.17/      # a commit that crashed before rename: invisible, swept
//! ```
//!
//! The payload is the ordinary [`save_train_state`] stream (FGCKPT05),
//! chunked into one contiguous byte shard per rank of the writing world —
//! shard *i* is "rank *i*'s slab" of the checkpoint, the piece that
//! dies with rank *i*'s local storage on a machine where each rank
//! writes its own file. Redundancy is byte-level and therefore format
//! oblivious:
//!
//! * [`Redundancy::Replicas`]`(k)` — shard *i* is also written as
//!   `shard_i.r1..rk`, notionally placed on the k ring-neighbor peers
//!   `(i+1)%W .. (i+k)%W` (one filesystem here, so placement is a
//!   naming convention; the failure model — lose any one primary — is
//!   the same).
//! * [`Redundancy::Parity`]`{ group }` — shards are grouped in runs of
//!   `group`; each group gets one XOR parity file, so any **one** lost
//!   or corrupt shard per group is reconstructable at `1/group` space
//!   overhead.
//!
//! ## Verification and fallback
//!
//! Loads verify everything they touch: manifest checksum, per-shard
//! length (a short file is a *torn write*, [`CheckpointError::Torn`])
//! and checksum ([`CheckpointError::Corrupt`]), reassembled-payload
//! checksum. A shard that fails is rebuilt from a replica or its parity
//! group; a version that cannot be repaired is rejected with the typed
//! error, and [`CkptStore::load_latest`] falls back to the next older
//! version — recovery always resumes from the **newest verifiable**
//! version, never panics, and never resumes stale state *silently*.
//! Reconstructions and fallbacks are counted in [`StoreCounters`];
//! [`CkptStore::load_version`] gives a passed-over version's typed
//! reason. That walk is the only way to the newest state, and the state
//! it returns loads into any world.
//!
//! ## Storage chaos
//!
//! [`StorageFaultPlan`] injects the failure modes this design exists
//! for — torn writes at seeded random offsets, single-bit flips,
//! deleted shard files, and crash-before-rename — deterministically
//! (seeded, like `fg-comm`'s `FaultPlan`), at the byte layer *below*
//! every checksum, so the chaos tests exercise exactly the recovery
//! machinery a real storage failure would.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::params_io::{load_train_state, save_train_state, CheckpointError, TrainState};

/// Magic of a version manifest.
const MANIFEST_MAGIC: &[u8; 8] = b"FGMANI02";
/// Manifest file name within a version directory.
const MANIFEST_NAME: &str = "manifest.bin";

/// How a version's shards are made redundant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redundancy {
    /// No redundancy: any lost shard loses the version.
    None,
    /// Each shard is copied to its `k` ring-neighbor peers (space
    /// overhead `k×`; survives any `k` lost primaries, and up to `k`
    /// failures per shard).
    Replicas(usize),
    /// One XOR parity file per run of `group` shards (space overhead
    /// `1/group`; survives one lost shard per group).
    Parity {
        /// Shards per parity group (≥ 2).
        group: usize,
    },
}

impl Redundancy {
    fn tag(&self) -> (u8, u64) {
        match self {
            Redundancy::None => (0, 0),
            Redundancy::Replicas(k) => (1, *k as u64),
            Redundancy::Parity { group } => (2, *group as u64),
        }
    }

    fn from_tag(tag: u8, param: u64) -> Option<Redundancy> {
        match tag {
            0 => Some(Redundancy::None),
            1 => Some(Redundancy::Replicas(param as usize)),
            2 => Some(Redundancy::Parity { group: (param as usize).max(2) }),
            _ => None,
        }
    }
}

/// Configuration of a [`CkptStore`]: [`StoreConfig::at`], then the
/// builder methods.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Root directory; created if absent.
    dir: PathBuf,
    /// Redundancy applied to every stored version.
    redundancy: Redundancy,
    /// Keep the newest `retention` versions (≥ 1); older ones are
    /// pruned after each successful publish.
    retention: usize,
    /// Seeded storage-fault injection; `None` writes faithfully.
    faults: Option<StorageFaultPlan>,
}

impl StoreConfig {
    /// A store at `dir` with the defaults: one ring replica per shard,
    /// four retained versions, no injected faults.
    pub fn at(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            redundancy: Redundancy::Replicas(1),
            retention: 4,
            faults: None,
        }
    }

    /// Set the redundancy mode (a parity group is clamped to ≥ 2).
    pub fn redundancy(mut self, r: Redundancy) -> StoreConfig {
        self.redundancy = match r {
            Redundancy::Parity { group } => Redundancy::Parity { group: group.max(2) },
            r => r,
        };
        self
    }

    /// Set the retention depth (clamped to ≥ 1).
    pub fn retention(mut self, n: usize) -> StoreConfig {
        self.retention = n.max(1);
        self
    }

    /// Attach a storage-fault plan.
    pub fn faults(mut self, plan: StorageFaultPlan) -> StoreConfig {
        self.faults = Some(plan);
        self
    }
}

/// Seeded, deterministic storage-fault injection: which write gets
/// torn, which file gets a bit flipped, which shard disappears, and
/// which commit "crashes" before its publishing rename. Draws are keyed
/// on `(seed, store-call index, file role)` so a schedule replays
/// identically regardless of timing — the property every pinned-seed
/// chaos test relies on.
#[derive(Debug, Clone, Default)]
pub struct StorageFaultPlan {
    seed: u64,
    /// Probability a written file is truncated at a random offset.
    torn_rate: f64,
    /// Probability a written file gets one random bit flipped.
    flip_rate: f64,
    /// Probability a published shard file is deleted after commit.
    delete_rate: f64,
    /// Targeted: tear the write of shard `.1` on store call `.0`.
    torn_at: Vec<(u64, usize)>,
    /// Targeted: flip a bit in shard `.1` on store call `.0`.
    flip_at: Vec<(u64, usize)>,
    /// Targeted: delete shard `.1` after the commit of store call `.0`.
    delete_at: Vec<(u64, usize)>,
    /// Targeted: crash store call `n` before its rename.
    crash_at: Vec<u64>,
}

/// File roles a fault draw can target, mixed into the PRNG key so each
/// file of a commit faults independently.
#[derive(Debug, Clone, Copy)]
enum FileRole {
    Shard(usize),
    Parity(usize),
    Replica(usize, usize),
    Manifest,
}

impl FileRole {
    fn code(&self) -> u64 {
        match self {
            FileRole::Shard(i) => 1 + ((*i as u64) << 3),
            FileRole::Parity(j) => 2 + ((*j as u64) << 3),
            FileRole::Replica(i, m) => 3 + ((*i as u64) << 3) + ((*m as u64) << 34),
            FileRole::Manifest => 4,
        }
    }
}

impl StorageFaultPlan {
    /// A transparent plan with the given seed; add faults with the
    /// builder methods.
    pub fn new(seed: u64) -> StorageFaultPlan {
        StorageFaultPlan { seed, ..Default::default() }
    }

    /// Tear (truncate at a seeded random offset) each written file with
    /// probability `rate`.
    pub fn torn_write_rate(mut self, rate: f64) -> StorageFaultPlan {
        self.torn_rate = rate;
        self
    }

    /// Flip one seeded random bit in each written file with probability
    /// `rate`.
    pub fn bit_flip_rate(mut self, rate: f64) -> StorageFaultPlan {
        self.flip_rate = rate;
        self
    }

    /// Delete each published shard file with probability `rate`.
    pub fn delete_rate(mut self, rate: f64) -> StorageFaultPlan {
        self.delete_rate = rate;
        self
    }

    /// Tear the write of shard `shard` on the `nth` store call
    /// (0-based).
    pub fn torn_write_at(mut self, nth: u64, shard: usize) -> StorageFaultPlan {
        self.torn_at.push((nth, shard));
        self
    }

    /// Flip a bit in shard `shard` on the `nth` store call.
    pub fn bit_flip_at(mut self, nth: u64, shard: usize) -> StorageFaultPlan {
        self.flip_at.push((nth, shard));
        self
    }

    /// Delete the primary file of shard `shard` right after the `nth`
    /// store call publishes.
    pub fn delete_shard_at(mut self, nth: u64, shard: usize) -> StorageFaultPlan {
        self.delete_at.push((nth, shard));
        self
    }

    /// "Crash" the `nth` store call before its publishing rename,
    /// leaving only the invisible temp directory.
    pub fn crash_before_rename_at(mut self, nth: u64) -> StorageFaultPlan {
        self.crash_at.push(nth);
        self
    }

    /// True when the plan can never fire.
    pub fn is_transparent(&self) -> bool {
        self.torn_rate == 0.0
            && self.flip_rate == 0.0
            && self.delete_rate == 0.0
            && self.torn_at.is_empty()
            && self.flip_at.is_empty()
            && self.delete_at.is_empty()
            && self.crash_at.is_empty()
    }

    fn draw(&self, call: u64, role_code: u64, salt: u64) -> u64 {
        splitmix64(
            self.seed ^ call.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ role_code.rotate_left(17) ^ salt,
        )
    }

    fn unit(&self, call: u64, role_code: u64, salt: u64) -> f64 {
        (self.draw(call, role_code, salt) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// What (if anything) happens to the bytes of `role` on store call
    /// `call` before they hit disk.
    fn write_fault(&self, call: u64, role: FileRole, len: usize) -> Option<WriteFault> {
        if len == 0 {
            return None;
        }
        let shard = match role {
            FileRole::Shard(i) => Some(i),
            _ => None,
        };
        let targeted_torn = shard.is_some_and(|s| self.torn_at.contains(&(call, s)));
        let targeted_flip = shard.is_some_and(|s| self.flip_at.contains(&(call, s)));
        let code = role.code();
        if targeted_torn || self.unit(call, code, 1) < self.torn_rate {
            // Tear strictly inside the file so the truncation is real.
            return Some(WriteFault::Torn(self.draw(call, code, 2) as usize % len));
        }
        if targeted_flip || self.unit(call, code, 3) < self.flip_rate {
            return Some(WriteFault::BitFlip(self.draw(call, code, 4) as usize % (len * 8)));
        }
        None
    }

    fn delete_fault(&self, call: u64, shard: usize) -> bool {
        self.delete_at.contains(&(call, shard))
            || self.unit(call, FileRole::Shard(shard).code(), 5) < self.delete_rate
    }

    fn crash_fault(&self, call: u64) -> bool {
        self.crash_at.contains(&call)
    }
}

#[derive(Debug, Clone, Copy)]
enum WriteFault {
    /// Truncate the file at this byte offset.
    Torn(usize),
    /// Flip this bit index.
    BitFlip(usize),
}

/// SplitMix64 — the same tiny deterministic generator the comm fault
/// plan uses for its rate draws.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a byte slice — the store's integrity checksum (same
/// family as the comm layer's envelope checksums).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A version's manifest: what must exist and what it must hash to.
#[derive(Debug, Clone)]
struct Manifest {
    version: u64,
    step: u64,
    redundancy: Redundancy,
    payload_len: u64,
    payload_checksum: u64,
    /// Per-shard (length, checksum).
    shards: Vec<(u64, u64)>,
    /// Per-parity-file (length, checksum); empty unless parity mode.
    parity: Vec<(u64, u64)>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(MANIFEST_MAGIC);
        // Placeholder for total_len, patched below.
        body.extend_from_slice(&0u64.to_le_bytes());
        for v in [self.version, self.step] {
            body.extend_from_slice(&v.to_le_bytes());
        }
        let (tag, param) = self.redundancy.tag();
        body.push(tag);
        body.extend_from_slice(&param.to_le_bytes());
        body.extend_from_slice(&(self.shards.len() as u64).to_le_bytes());
        body.extend_from_slice(&self.payload_len.to_le_bytes());
        body.extend_from_slice(&self.payload_checksum.to_le_bytes());
        for &(len, sum) in &self.shards {
            body.extend_from_slice(&len.to_le_bytes());
            body.extend_from_slice(&sum.to_le_bytes());
        }
        body.extend_from_slice(&(self.parity.len() as u64).to_le_bytes());
        for &(len, sum) in &self.parity {
            body.extend_from_slice(&len.to_le_bytes());
            body.extend_from_slice(&sum.to_le_bytes());
        }
        let total = (body.len() + 8) as u64;
        body[8..16].copy_from_slice(&total.to_le_bytes());
        let checksum = fnv1a64(&body);
        body.extend_from_slice(&checksum.to_le_bytes());
        body
    }

    /// Decode and verify a manifest file's bytes. `version` and `path`
    /// feed the typed errors.
    fn decode(bytes: &[u8], version: u64, path: &Path) -> Result<Manifest, CheckpointError> {
        let torn = |expected: u64| CheckpointError::Torn {
            path: path.to_path_buf(),
            version,
            shard: None,
            expected,
            actual: bytes.len() as u64,
        };
        let corrupt =
            || CheckpointError::Corrupt { path: path.to_path_buf(), version, shard: None };
        if bytes.len() < 16 {
            return Err(torn(16));
        }
        if &bytes[..8] != MANIFEST_MAGIC {
            return Err(corrupt());
        }
        let total = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        match (bytes.len() as u64).cmp(&total) {
            std::cmp::Ordering::Less => return Err(torn(total)),
            std::cmp::Ordering::Greater => return Err(corrupt()),
            std::cmp::Ordering::Equal => {}
        }
        let (body, checksum_bytes) = bytes.split_at(bytes.len() - 8);
        let checksum = u64::from_le_bytes(checksum_bytes.try_into().expect("8 bytes"));
        if fnv1a64(body) != checksum {
            return Err(corrupt());
        }
        // Past the checksum the structure is trustworthy; decode plainly.
        let mut r = &body[16..];
        let u = |r: &mut &[u8]| -> u64 {
            let (head, tail) = r.split_at(8);
            *r = tail;
            u64::from_le_bytes(head.try_into().expect("8 bytes"))
        };
        let v = u(&mut r);
        let step = u(&mut r);
        let (tag, rest) = r.split_first().expect("redundancy tag");
        r = rest;
        let param = u(&mut r);
        let redundancy = Redundancy::from_tag(*tag, param).ok_or_else(corrupt)?;
        let n_shards = u(&mut r) as usize;
        let payload_len = u(&mut r);
        let payload_checksum = u(&mut r);
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            shards.push((u(&mut r), u(&mut r)));
        }
        let n_parity = u(&mut r) as usize;
        let mut parity = Vec::with_capacity(n_parity);
        for _ in 0..n_parity {
            parity.push((u(&mut r), u(&mut r)));
        }
        Ok(Manifest { version: v, step, redundancy, payload_len, payload_checksum, shards, parity })
    }
}

/// A successfully loaded checkpoint.
#[derive(Debug, Clone)]
pub struct LoadedCkpt {
    /// The verified, reassembled training state.
    pub state: TrainState,
    /// The store version it came from.
    pub version: u64,
}

/// Cumulative telemetry of a store's lifetime: the store's one report.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCounters {
    /// Successful (published) store calls.
    pub versions_written: u64,
    /// Commits that "crashed" before their rename (fault injection).
    pub crashed_commits: u64,
    /// Total bytes written (payload + redundancy + manifests).
    pub bytes_written: u64,
    /// Payload bytes of the most recent store call.
    pub last_payload_bytes: u64,
    /// Wall time spent in store calls.
    pub store_nanos: u64,
    /// Wall time spent in load calls.
    pub restore_nanos: u64,
    /// Shards served from a replica or rebuilt from parity.
    pub shards_reconstructed: u64,
    /// Versions skipped by fallback during loads.
    pub version_fallbacks: u64,
    /// Versions pruned by retention.
    pub pruned_versions: u64,
}

/// The durable checkpoint store. Single-writer (the driver), many
/// readers; all methods take `&mut self` because counters and the fault
/// clock advance on every call.
#[derive(Debug)]
pub struct CkptStore {
    cfg: StoreConfig,
    next_version: u64,
    /// Store-call clock for fault draws (counts every call, crashed or
    /// not, so targeted faults address calls deterministically).
    calls: u64,
    counters: StoreCounters,
}

impl CkptStore {
    /// Create (or re-open) the store rooted at `cfg.dir`, sweeping any
    /// temp directories a crashed commit left behind. The durable state
    /// is self-describing — each manifest records its own redundancy —
    /// so reads never depend on the opener's config.
    pub fn create(cfg: StoreConfig) -> Result<CkptStore, CheckpointError> {
        fs::create_dir_all(&cfg.dir).map_err(|e| CheckpointError::io_at(&cfg.dir, e))?;
        let mut store = CkptStore { cfg, next_version: 1, calls: 0, counters: Default::default() };
        store.sweep_tmp();
        store.next_version = store.versions().last().copied().unwrap_or(0) + 1;
        Ok(store)
    }

    /// Lifetime telemetry.
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// Published versions, ascending.
    pub fn versions(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let Ok(rd) = fs::read_dir(&self.cfg.dir) else { return out };
        for entry in rd.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name.strip_prefix('v') {
                if let Ok(v) = num.parse::<u64>() {
                    out.push(v);
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn version_dir(&self, version: u64) -> PathBuf {
        self.cfg.dir.join(format!("v{version:08}"))
    }

    fn sweep_tmp(&self) {
        if let Ok(rd) = fs::read_dir(&self.cfg.dir) {
            for entry in rd.flatten() {
                if entry.file_name().to_string_lossy().starts_with(".tmp.") {
                    let _ = fs::remove_dir_all(entry.path());
                }
            }
        }
    }

    /// Serialize and durably publish `state` as a new version: one
    /// shard per rank of the `ranks`-rank world that wrote it, plus
    /// redundancy and the manifest, written into a temp directory,
    /// fsynced, then atomically renamed into place; retention pruning
    /// follows.
    /// Returns the version assigned (monotonic; never reused by this
    /// handle, even after a crashed commit). Injected storage faults
    /// corrupt the bytes *silently* (the damage is discovered by
    /// verification at load time, as on a real machine) — an `Err` here
    /// is a genuine I/O failure.
    pub fn store(&mut self, state: &TrainState, ranks: usize) -> Result<u64, CheckpointError> {
        let t0 = std::time::Instant::now();
        let call = self.calls;
        self.calls += 1;
        let version = self.next_version;
        self.next_version += 1;

        let mut payload = Vec::new();
        save_train_state(&mut payload, state).map_err(CheckpointError::from)?;
        let world = ranks.max(1);
        let chunk = payload.len().div_ceil(world).max(1);
        let shards: Vec<&[u8]> = (0..world)
            .map(|i| {
                let lo = (i * chunk).min(payload.len());
                let hi = ((i + 1) * chunk).min(payload.len());
                &payload[lo..hi]
            })
            .collect();

        let tmp = self.cfg.dir.join(format!(".tmp.v{version:08}.{call}"));
        fs::create_dir_all(&tmp).map_err(|e| CheckpointError::io_at(&tmp, e))?;
        let mut bytes_written = 0u64;
        let mut write =
            |name: String, bytes: &[u8], role: FileRole| -> Result<(), CheckpointError> {
                let path = tmp.join(name);
                let fault =
                    self.cfg.faults.as_ref().and_then(|p| p.write_fault(call, role, bytes.len()));
                bytes_written += write_faulty(&path, bytes, fault)?;
                Ok(())
            };

        let mut manifest = Manifest {
            version,
            step: state.step,
            redundancy: self.cfg.redundancy,
            payload_len: payload.len() as u64,
            payload_checksum: fnv1a64(&payload),
            shards: shards.iter().map(|s| (s.len() as u64, fnv1a64(s))).collect(),
            parity: Vec::new(),
        };
        for (i, shard) in shards.iter().enumerate() {
            write(shard_name(i, 0), shard, FileRole::Shard(i))?;
        }
        match self.cfg.redundancy {
            Redundancy::None => {}
            Redundancy::Replicas(k) => {
                for (i, shard) in shards.iter().enumerate() {
                    for m in 1..=k {
                        write(shard_name(i, m), shard, FileRole::Replica(i, m))?;
                    }
                }
            }
            Redundancy::Parity { group } => {
                for (j, run) in shards.chunks(group).enumerate() {
                    let p = xor_parity(run);
                    manifest.parity.push((p.len() as u64, fnv1a64(&p)));
                    write(parity_name(j), &p, FileRole::Parity(j))?;
                }
            }
        }
        let mbytes = manifest.encode();
        write(MANIFEST_NAME.to_string(), &mbytes, FileRole::Manifest)?;
        sync_dir(&tmp)?;

        if self.cfg.faults.as_ref().is_some_and(|p| p.crash_fault(call)) {
            // Crash window: everything was written but the version was
            // never published. The caller does not learn this — a real
            // crash would have taken the process with it.
            self.counters.crashed_commits += 1;
            self.counters.store_nanos += t0.elapsed().as_nanos() as u64;
            return Ok(version);
        }

        let final_dir = self.version_dir(version);
        fs::rename(&tmp, &final_dir).map_err(|e| CheckpointError::io_at(&final_dir, e))?;
        sync_dir(&self.cfg.dir)?;

        // Post-publish deletions (a shard lost after a healthy write —
        // the "rank's local disk died" model).
        if let Some(plan) = self.cfg.faults.clone() {
            for i in 0..world {
                if plan.delete_fault(call, i) {
                    let _ = fs::remove_file(final_dir.join(shard_name(i, 0)));
                }
            }
        }

        // Retention: drop the oldest beyond the configured depth.
        let versions = self.versions();
        if versions.len() > self.cfg.retention {
            for &old in &versions[..versions.len() - self.cfg.retention] {
                if fs::remove_dir_all(self.version_dir(old)).is_ok() {
                    self.counters.pruned_versions += 1;
                }
            }
        }

        self.counters.versions_written += 1;
        self.counters.bytes_written += bytes_written;
        self.counters.last_payload_bytes = payload.len() as u64;
        self.counters.store_nanos += t0.elapsed().as_nanos() as u64;
        Ok(version)
    }

    /// Load and fully verify one version, reconstructing damaged shards
    /// from redundancy where possible. An unverifiable version's error
    /// is the typed reason `load_latest` passed it over.
    pub fn load_version(&mut self, version: u64) -> Result<LoadedCkpt, CheckpointError> {
        let t0 = std::time::Instant::now();
        let result = self.read_version(version);
        self.counters.restore_nanos += t0.elapsed().as_nanos() as u64;
        let (state, reconstructed) = result?;
        self.counters.shards_reconstructed += reconstructed;
        Ok(LoadedCkpt { state, version })
    }

    /// Read `version`'s manifest, obtain verified bytes for every shard
    /// (primary, then replicas, then parity), check the reassembled
    /// payload and decode it. Also returns how many shards redundancy
    /// supplied.
    fn read_version(&self, version: u64) -> Result<(TrainState, u64), CheckpointError> {
        let dir = self.version_dir(version);
        let mpath = dir.join(MANIFEST_NAME);
        let mbytes = read_file(&mpath, version, None)?;
        let manifest = Manifest::decode(&mbytes, version, &mpath)?;
        let mut reconstructed = 0;
        let mut shards: Vec<Vec<u8>> = Vec::with_capacity(manifest.shards.len());
        let mut pending: Vec<usize> = Vec::new();
        for i in 0..manifest.shards.len() {
            match self.read_shard(&dir, &manifest, i, &mut reconstructed) {
                Ok(bytes) => shards.push(bytes),
                Err(_) if matches!(manifest.redundancy, Redundancy::Parity { .. }) => {
                    pending.push(i);
                    shards.push(Vec::new());
                }
                Err(e) => return Err(e),
            }
        }
        if !pending.is_empty() {
            self.parity_reconstruct(&dir, &manifest, &mut shards, &pending)?;
            reconstructed += pending.len() as u64;
        }
        let payload: Vec<u8> = shards.concat();
        if payload.len() as u64 != manifest.payload_len
            || fnv1a64(&payload) != manifest.payload_checksum
        {
            return Err(CheckpointError::Corrupt { path: mpath, version, shard: None });
        }
        let state = load_train_state(&mut payload.as_slice())?;
        Ok((state, reconstructed))
    }

    /// Shard `i` via primary, then replicas, counting a replica served
    /// in `reconstructed`. The returned error is the *primary's* failure
    /// (the most actionable one).
    fn read_shard(
        &self,
        dir: &Path,
        manifest: &Manifest,
        i: usize,
        reconstructed: &mut u64,
    ) -> Result<Vec<u8>, CheckpointError> {
        let (want_len, want_sum) = manifest.shards[i];
        let verify = |bytes: &[u8]| bytes.len() as u64 == want_len && fnv1a64(bytes) == want_sum;
        let ppath = dir.join(shard_name(i, 0));
        let primary_err = match read_file(&ppath, manifest.version, Some(i)) {
            Ok(bytes) if verify(&bytes) => return Ok(bytes),
            Ok(bytes) => {
                if (bytes.len() as u64) < want_len {
                    CheckpointError::Torn {
                        path: ppath,
                        version: manifest.version,
                        shard: Some(i),
                        expected: want_len,
                        actual: bytes.len() as u64,
                    }
                } else {
                    CheckpointError::Corrupt {
                        path: ppath,
                        version: manifest.version,
                        shard: Some(i),
                    }
                }
            }
            Err(e) => e,
        };
        if let Redundancy::Replicas(k) = manifest.redundancy {
            for m in 1..=k {
                if let Ok(bytes) = read_file(&dir.join(shard_name(i, m)), manifest.version, Some(i))
                {
                    if verify(&bytes) {
                        *reconstructed += 1;
                        return Ok(bytes);
                    }
                }
            }
        }
        Err(primary_err)
    }

    /// Rebuild the `pending` shards by XOR-ing each one's parity file
    /// with its group's surviving shards.
    fn parity_reconstruct(
        &self,
        dir: &Path,
        manifest: &Manifest,
        shards: &mut [Vec<u8>],
        pending: &[usize],
    ) -> Result<(), CheckpointError> {
        let Redundancy::Parity { group } = manifest.redundancy else {
            unreachable!("parity reconstruction outside parity mode");
        };
        for &i in pending {
            let j = i / group;
            let lo = j * group;
            let hi = (lo + group).min(manifest.shards.len());
            // One loss per group is the budget.
            if pending.iter().filter(|&&p| p / group == j).count() > 1 {
                return Err(CheckpointError::Missing {
                    path: dir.join(shard_name(i, 0)),
                    version: manifest.version,
                    shard: Some(i),
                });
            }
            let (plen, psum) = *manifest.parity.get(j).ok_or(CheckpointError::Corrupt {
                path: dir.join(MANIFEST_NAME),
                version: manifest.version,
                shard: None,
            })?;
            let ppath = dir.join(parity_name(j));
            let pbytes = read_file(&ppath, manifest.version, Some(i))?;
            if pbytes.len() as u64 != plen || fnv1a64(&pbytes) != psum {
                return Err(CheckpointError::Corrupt {
                    path: ppath,
                    version: manifest.version,
                    shard: Some(i),
                });
            }
            let mut acc = pbytes;
            for (other, shard) in shards.iter().enumerate().take(hi).skip(lo) {
                if other == i {
                    continue;
                }
                for (a, b) in acc.iter_mut().zip(shard.iter()) {
                    *a ^= b;
                }
            }
            let (want_len, want_sum) = manifest.shards[i];
            acc.truncate(want_len as usize);
            if fnv1a64(&acc) != want_sum {
                return Err(CheckpointError::Corrupt {
                    path: dir.join(shard_name(i, 0)),
                    version: manifest.version,
                    shard: Some(i),
                });
            }
            shards[i] = acc;
        }
        Ok(())
    }

    /// Load the **newest verifiable** version: walk versions newest →
    /// oldest, counting every rejected one in
    /// [`StoreCounters::version_fallbacks`]. The store's whole reason to
    /// exist: this never panics and never silently hands back damaged or
    /// unverified state.
    pub fn load_latest(&mut self) -> Result<LoadedCkpt, CheckpointError> {
        let versions = self.versions();
        for &v in versions.iter().rev() {
            match self.load_version(v) {
                Ok(loaded) => return Ok(loaded),
                Err(_) => self.counters.version_fallbacks += 1,
            }
        }
        Err(CheckpointError::NoVerifiableVersion {
            dir: self.cfg.dir.clone(),
            tried: versions.len(),
        })
    }
}

fn shard_name(i: usize, replica: usize) -> String {
    if replica == 0 {
        format!("shard_{i:03}.bin")
    } else {
        format!("shard_{i:03}.r{replica}.bin")
    }
}

fn parity_name(j: usize) -> String {
    format!("parity_{j:03}.bin")
}

/// XOR of `run`'s shards, zero-padded to the longest.
fn xor_parity(run: &[&[u8]]) -> Vec<u8> {
    let len = run.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut out = vec![0u8; len];
    for s in run {
        for (o, b) in out.iter_mut().zip(*s) {
            *o ^= b;
        }
    }
    out
}

/// Write `bytes` to `path` (applying an injected fault to the bytes
/// that actually land) with a durability fsync. Returns bytes written.
fn write_faulty(
    path: &Path,
    bytes: &[u8],
    fault: Option<WriteFault>,
) -> Result<u64, CheckpointError> {
    let mut landed = bytes.to_vec();
    match fault {
        Some(WriteFault::Torn(offset)) => landed.truncate(offset),
        Some(WriteFault::BitFlip(bit)) => landed[bit / 8] ^= 1 << (bit % 8),
        None => {}
    }
    // Atomic within the version directory: a crash mid-write leaves
    // `.partial`, never a half-old half-new final file. (Commit-level
    // atomicity — all files or none — comes from the version-directory
    // rename above this.)
    let partial = path.with_extension("partial");
    let mut f = File::create(&partial).map_err(|e| CheckpointError::io_at(&partial, e))?;
    f.write_all(&landed).map_err(|e| CheckpointError::io_at(&partial, e))?;
    f.sync_all().map_err(|e| CheckpointError::io_at(&partial, e))?;
    fs::rename(&partial, path).map_err(|e| CheckpointError::io_at(path, e))?;
    Ok(landed.len() as u64)
}

/// fsync a directory so renames/creates within it are durable.
fn sync_dir(dir: &Path) -> Result<(), CheckpointError> {
    let f = File::open(dir).map_err(|e| CheckpointError::io_at(dir, e))?;
    f.sync_all().map_err(|e| CheckpointError::io_at(dir, e))
}

/// Read a whole file, mapping absence to the typed
/// [`CheckpointError::Missing`].
fn read_file(path: &Path, version: u64, shard: Option<usize>) -> Result<Vec<u8>, CheckpointError> {
    match fs::read(path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            Err(CheckpointError::Missing { path: path.to_path_buf(), version, shard })
        }
        Err(e) => Err(CheckpointError::io_at(path, e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkSpec;
    use crate::layer::LayerParams;
    use crate::network::Network;
    use crate::params_io::GuardState;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fg-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn demo_state(step: u64) -> TrainState {
        let mut spec = NetworkSpec::new();
        let i = spec.input("x", 3, 8, 8);
        let c = spec.conv("c", i, 4, 3, 1, 1);
        let b = spec.batchnorm("b", c);
        let r = spec.relu("r", b);
        let g = spec.global_avg_pool("g", r);
        let f = spec.fc("f", g, 5);
        spec.loss("l", f);
        let net = Network::init(spec, 40 + step);
        let velocity: Vec<LayerParams> = net.params.iter().map(|p| p.zeros_like()).collect();
        TrainState {
            step,
            params: net.params,
            velocity,
            losses: (0..step).map(|s| 2.5 - s as f64 * 0.1).collect(),
            guard: GuardState { ema: 2.0, steps: step },
        }
    }

    /// Primary shard files `version` holds on disk.
    fn primaries(store: &CkptStore, version: u64) -> usize {
        fs::read_dir(store.version_dir(version))
            .unwrap()
            .flatten()
            .filter(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.starts_with("shard_") && !name.contains(".r")
            })
            .count()
    }

    #[test]
    fn store_and_load_round_trips_bitwise_across_reopen() {
        let dir = scratch("roundtrip");
        let state = demo_state(6);
        {
            let mut store = CkptStore::create(StoreConfig::at(&dir)).unwrap();
            assert_eq!(store.store(&state, 4).unwrap(), 1);
            assert_eq!(primaries(&store, 1), 4);
            let c = store.counters();
            assert!(c.bytes_written > c.last_payload_bytes, "replicas add overhead");
        }
        // A "driver restart": reopen from disk alone.
        let mut store = CkptStore::create(StoreConfig::at(&dir)).unwrap();
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.version, 1);
        let c = store.counters();
        assert_eq!((c.shards_reconstructed, c.version_fallbacks), (0, 0));
        assert_eq!(loaded.state.params, state.params);
        assert_eq!(loaded.state.velocity, state.velocity);
        assert_eq!(loaded.state.step, state.step);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_the_newest_n_versions() {
        let dir = scratch("retention");
        let mut store = CkptStore::create(StoreConfig::at(&dir).retention(2)).unwrap();
        for step in 1..=5 {
            store.store(&demo_state(step), 4).unwrap();
        }
        assert_eq!(store.versions(), vec![4, 5]);
        assert_eq!(store.counters().pruned_versions, 3);
        assert_eq!(store.load_latest().unwrap().state.step, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deleted_shard_is_served_from_its_ring_replica() {
        let dir = scratch("replica");
        let mut store = CkptStore::create(
            StoreConfig::at(&dir)
                .redundancy(Redundancy::Replicas(1))
                .faults(StorageFaultPlan::new(7).delete_shard_at(0, 2)),
        )
        .unwrap();
        let state = demo_state(3);
        store.store(&state, 4).unwrap();
        assert!(!store.version_dir(1).join(shard_name(2, 0)).exists(), "fault deleted shard 2");
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.state.params, state.params);
        assert_eq!(store.counters().shards_reconstructed, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deleted_shard_is_rebuilt_from_parity() {
        let dir = scratch("parity");
        let mut store = CkptStore::create(
            StoreConfig::at(&dir)
                .redundancy(Redundancy::Parity { group: 4 })
                .faults(StorageFaultPlan::new(7).delete_shard_at(0, 1)),
        )
        .unwrap();
        let state = demo_state(3);
        store.store(&state, 4).unwrap();
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.state.params, state.params);
        assert_eq!(store.counters().shards_reconstructed, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_falls_back_to_previous_version_with_typed_report() {
        let dir = scratch("torn");
        // No redundancy, so a torn shard write makes version 2
        // unverifiable; version 1 must serve, the fallback counted and
        // its reason typed.
        let mut store = CkptStore::create(
            StoreConfig::at(&dir)
                .redundancy(Redundancy::None)
                .faults(StorageFaultPlan::new(3).torn_write_at(1, 0)),
        )
        .unwrap();
        store.store(&demo_state(2), 4).unwrap();
        store.store(&demo_state(4), 4).unwrap();
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.version, 1);
        assert_eq!(loaded.state.step, 2);
        assert_eq!(store.counters().version_fallbacks, 1);
        let err = store.load_version(2).unwrap_err();
        assert!(matches!(err, CheckpointError::Torn { version: 2, shard: Some(0), .. }), "{err}");
        let detail = err.to_string();
        assert!(detail.contains("shard 0") && detail.contains("torn"), "{detail}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_caught_and_version_falls_back() {
        let dir = scratch("flip");
        let mut store = CkptStore::create(
            StoreConfig::at(&dir)
                .redundancy(Redundancy::None)
                .faults(StorageFaultPlan::new(11).bit_flip_at(1, 3)),
        )
        .unwrap();
        store.store(&demo_state(2), 4).unwrap();
        store.store(&demo_state(4), 4).unwrap();
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.version, 1);
        assert_eq!(store.counters().version_fallbacks, 1);
        let err = store.load_version(2).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { version: 2, .. }), "{err}");
        // Version 3 verifies, then its manifest is rewritten as a store
        // before FGMANI02 left it: a `1×1×2×2` grid after the step, under
        // its own length and checksum. It is typed damage, never a panic,
        // and the walk passes it for version 1 again.
        store.store(&demo_state(6), 4).unwrap();
        let path = store.version_dir(3).join(MANIFEST_NAME);
        let current = fs::read(&path).unwrap();
        let mut old = b"FGMANI01".to_vec();
        old.extend_from_slice(&[0; 8]);
        old.extend_from_slice(&current[16..32]);
        [1u64, 1, 2, 2].iter().for_each(|d| old.extend_from_slice(&d.to_le_bytes()));
        old.extend_from_slice(&current[32..current.len() - 8]);
        let total = (old.len() + 8) as u64;
        old[8..16].copy_from_slice(&total.to_le_bytes());
        let checksum = fnv1a64(&old);
        old.extend_from_slice(&checksum.to_le_bytes());
        fs::write(&path, &old).unwrap();
        let err = store.load_version(3).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { version: 3, shard: None, .. }), "{err}");
        assert_eq!(store.load_latest().unwrap().version, 1);
        assert_eq!(store.counters().version_fallbacks, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_rename_never_publishes_a_partial_version() {
        let dir = scratch("crash");
        let mut store = CkptStore::create(
            StoreConfig::at(&dir).faults(StorageFaultPlan::new(5).crash_before_rename_at(1)),
        )
        .unwrap();
        store.store(&demo_state(2), 4).unwrap();
        store.store(&demo_state(4), 4).unwrap(); // crashes silently
        assert_eq!(store.versions(), vec![1], "the crashed commit must be invisible");
        assert_eq!(store.counters().crashed_commits, 1);
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.state.step, 2);
        assert_eq!(
            store.counters().version_fallbacks,
            0,
            "an unpublished version is not a fallback"
        );
        // Reopening sweeps the temp wreckage.
        let store2 = CkptStore::create(StoreConfig::at(&dir)).unwrap();
        assert_eq!(store2.versions(), vec![1]);
        assert!(
            !fs::read_dir(&dir)
                .unwrap()
                .flatten()
                .any(|e| e.file_name().to_string_lossy().starts_with(".tmp.")),
            "stale temp dirs must be swept on open"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unrecoverable_version_yields_no_verifiable_version_error() {
        let dir = scratch("unrecoverable");
        let mut store =
            CkptStore::create(StoreConfig::at(&dir).redundancy(Redundancy::None)).unwrap();
        store.store(&demo_state(2), 4).unwrap();
        fs::remove_file(store.version_dir(1).join(shard_name(0, 0))).unwrap();
        match store.load_latest().unwrap_err() {
            CheckpointError::NoVerifiableVersion { tried, .. } => assert_eq!(tried, 1),
            other => panic!("expected NoVerifiableVersion, got {other}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_newest_version_falls_back_on_every_restore() {
        let dir = scratch("poisoned");
        let mut store = CkptStore::create(StoreConfig::at(&dir)).unwrap();
        store.store(&demo_state(2), 4).unwrap();
        // Version 2 verifies byte for byte but records a run that had
        // already diverged: the walk must pass it like any damaged one.
        let mut poisoned = demo_state(4);
        poisoned.losses[3] = f64::NAN;
        store.store(&poisoned, 4).unwrap();
        let loaded = store.load_latest().unwrap();
        assert_eq!((loaded.version, loaded.state.step), (1, 2));
        assert_eq!(store.counters().version_fallbacks, 1);
        let err = store.load_version(2).unwrap_err();
        assert!(matches!(err, CheckpointError::PoisonedLoss { step: 3, .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_plan_is_deterministic_for_a_seed() {
        let plan = StorageFaultPlan::new(42).torn_write_rate(0.3).bit_flip_rate(0.3);
        for call in 0..8u64 {
            for shard in 0..6usize {
                let a = plan.write_fault(call, FileRole::Shard(shard), 1000);
                let b = plan.write_fault(call, FileRole::Shard(shard), 1000);
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
        }
        assert!(StorageFaultPlan::new(1).is_transparent());
        assert!(!plan.is_transparent());
    }

    #[test]
    fn single_writer_state_stores_as_a_single_shard() {
        let dir = scratch("single-writer");
        let mut store = CkptStore::create(StoreConfig::at(&dir)).unwrap();
        let state = demo_state(2);
        store.store(&state, 1).unwrap();
        assert_eq!(primaries(&store, 1), 1);
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.state.params, state.params);
        let _ = fs::remove_dir_all(&dir);
    }
}
