//! Saving and loading network parameters.
//!
//! A deliberately simple, self-describing binary format (no external
//! serialization dependency): magic, version, per-layer tag + shape +
//! little-endian f32 payload. Checkpointing trained models is table
//! stakes for a training library, and in the distributed setting it
//! composes trivially: parameters are replicated, so any single rank's
//! copy is the checkpoint.
//!
//! Format v3 (`FGCKPT03`) makes the checkpoint *grid-aware*: it records
//! the source [`ProcGrid`] and stores every tensor as per-rank shards
//! blocked over that grid — the layout a parallel file system would see
//! if each rank wrote its own slab. A v3 snapshot loaded unprepared into
//! a different layout fails with the typed
//! [`CheckpointError::GridMismatch`] instead of a shape panic; the
//! prepared path is [`load_train_state_regrid`], which re-lays the
//! shards onto the new grid through [`fg_tensor::RegridPlan`] overlap
//! fragments (gather-free: old shard → new shard, never a global
//! assembly per fragment) and reports how many bytes actually crossed a
//! rank boundary. V2 files (`FGCKPT02`: untagged, replicated payload —
//! what is written when no grid is set) still load, into any layout.
//!
//! Every length and extent in a stream is untrusted: nothing is reserved
//! from one beyond `MAX_RESERVE` elements and products are checked, so
//! a damaged header is an `InvalidData` / `UnexpectedEof` error, never an
//! allocation failure or an overflow.

use std::fmt;
use std::io::{self, Read, Write};

use fg_tensor::{assemble_tensor, shard_tensor, ProcGrid, RegridPlan, Shape4, Tensor, TensorDist};

use crate::layer::LayerParams;

const MAGIC: &[u8; 8] = b"FGPARAM1";
/// Step, losses, the anomaly guard's EMA state (so a rollback-and-replay
/// resumes with a bitwise-identical spike baseline), then replicated
/// params and velocity.
const CKPT_MAGIC_V2: &[u8; 8] = b"FGCKPT02";
/// Current checkpoint format: v2 plus the source [`ProcGrid`] tag, with
/// params and velocity stored *sharded* over that grid.
const CKPT_MAGIC_V3: &[u8; 8] = b"FGCKPT03";
/// Magic of a sharded parameter block inside a v3 checkpoint.
const SHARD_MAGIC: &[u8; 8] = b"FGSHRD01";
/// Most elements reserved up front for a count read from the stream; a
/// longer run grows as its elements actually arrive, so a lying header
/// costs this much before `read_exact` meets the end of the file.
const MAX_RESERVE: usize = 1 << 16;

/// Why a checkpoint could not be loaded.
///
/// Splitting structural problems ([`CheckpointError::Io`]) from semantic
/// poisoning ([`CheckpointError::PoisonedLoss`]) lets a resilient driver
/// distinguish "this file is damaged" from "this file faithfully records
/// a training run that had already diverged" — resuming from the latter
/// would replay the divergence forever. The storage-level variants
/// ([`CheckpointError::Torn`], [`CheckpointError::Corrupt`],
/// [`CheckpointError::Missing`], [`CheckpointError::Stale`],
/// [`CheckpointError::NoVerifiableVersion`]) come from the durable
/// [`crate::ckpt_store`] and always carry the offending path, version,
/// and shard so an operator knows exactly which file to inspect.
#[derive(Debug)]
pub enum CheckpointError {
    /// The stream was unreadable, truncated, or not a checkpoint.
    /// `path` is set when the failing stream came from a known file.
    Io {
        /// File the failed read/write touched, when known.
        path: Option<std::path::PathBuf>,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A file is shorter than its manifest records: the write was torn
    /// (power loss or crash mid-`write`) before `fsync` completed.
    Torn {
        /// The truncated file.
        path: std::path::PathBuf,
        /// Store version the file belongs to.
        version: u64,
        /// Shard index within the version (`None` for the manifest).
        shard: Option<usize>,
        /// Bytes the manifest says the file must hold.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A file's content does not match its recorded checksum: bit rot,
    /// a misdirected write, or a torn write that kept the length.
    Corrupt {
        /// The damaged file.
        path: std::path::PathBuf,
        /// Store version the file belongs to.
        version: u64,
        /// Shard index within the version (`None` for the manifest).
        shard: Option<usize>,
    },
    /// A file the manifest requires is gone and no replica or parity
    /// group could reconstruct it.
    Missing {
        /// The absent file.
        path: std::path::PathBuf,
        /// Store version the file belongs to.
        version: u64,
        /// Shard index within the version (`None` for the manifest).
        shard: Option<usize>,
    },
    /// A strict load demanded the newest written version but only an
    /// older one verified — resuming would be a *stale* resume, which
    /// the caller asked to be told about rather than get silently.
    Stale {
        /// Newest version present in the store.
        newest: u64,
        /// Newest version that actually verifies (`None`: none do).
        verifiable: Option<u64>,
    },
    /// Every version in the store failed verification; there is nothing
    /// safe to resume from.
    NoVerifiableVersion {
        /// The store root that was searched.
        dir: std::path::PathBuf,
        /// How many versions were tried (and rejected).
        tried: usize,
    },
    /// The checkpoint records a non-finite loss at `step`: the state was
    /// poisoned *before* it was saved, and resuming from it cannot
    /// converge. (`f64::NAN` round-trips bitwise through the format, so
    /// without this screen a poisoned snapshot loads silently.)
    PoisonedLoss {
        /// Index into the recorded loss history.
        step: usize,
        /// The offending recorded value (NaN or ±infinity).
        value: f64,
    },
    /// A grid-tagged (v3) checkpoint was loaded *unprepared* into a
    /// different layout. The shards on disk are blocked over `saved`;
    /// consuming them as if they were blocked over `requested` would
    /// scatter elements to the wrong ranks. Re-shard explicitly with
    /// [`load_train_state_regrid`] instead.
    GridMismatch {
        /// The grid the checkpoint was written under.
        saved: ProcGrid,
        /// The grid the caller tried to load it into.
        requested: ProcGrid,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path: Some(p), source } => {
                write!(f, "checkpoint unreadable at {}: {source}", p.display())
            }
            CheckpointError::Io { path: None, source } => {
                write!(f, "checkpoint unreadable: {source}")
            }
            CheckpointError::Torn { path, version, shard, expected, actual } => {
                write!(
                    f,
                    "torn write in version {version}{}: {} holds {actual} of {expected} \
                     expected bytes",
                    shard_label(*shard),
                    path.display()
                )
            }
            CheckpointError::Corrupt { path, version, shard } => {
                write!(
                    f,
                    "checksum mismatch in version {version}{}: {} fails verification",
                    shard_label(*shard),
                    path.display()
                )
            }
            CheckpointError::Missing { path, version, shard } => {
                write!(
                    f,
                    "version {version}{} is missing {} and no replica or parity group \
                     can reconstruct it",
                    shard_label(*shard),
                    path.display()
                )
            }
            CheckpointError::Stale { newest, verifiable: Some(v) } => {
                write!(
                    f,
                    "newest version {newest} fails verification; newest verifiable \
                     version is {v} (stale relative to the last write)"
                )
            }
            CheckpointError::Stale { newest, verifiable: None } => {
                write!(
                    f,
                    "newest version {newest} fails verification and no older version verifies"
                )
            }
            CheckpointError::NoVerifiableVersion { dir, tried } => {
                write!(
                    f,
                    "no verifiable checkpoint version in {} ({tried} version(s) tried, \
                     all rejected)",
                    dir.display()
                )
            }
            CheckpointError::PoisonedLoss { step, value } => {
                write!(f, "checkpoint records non-finite loss {value} at step {step}; refusing to resume from a poisoned state")
            }
            CheckpointError::GridMismatch { saved, requested } => {
                write!(
                    f,
                    "checkpoint was written under grid {saved} (world {}) but loaded unprepared \
                     into grid {requested} (world {}); re-shard it first",
                    saved.size(),
                    requested.size()
                )
            }
        }
    }
}

/// Render a shard index for error messages (`", shard 3"` / `""`).
fn shard_label(shard: Option<usize>) -> String {
    shard.map(|s| format!(", shard {s}")).unwrap_or_default()
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> CheckpointError {
        CheckpointError::Io { path: None, source: e }
    }
}

impl CheckpointError {
    /// An I/O failure pinned to the file it happened on, so the
    /// operator-facing message names a path instead of just an errno.
    pub fn io_at(path: impl Into<std::path::PathBuf>, source: io::Error) -> CheckpointError {
        CheckpointError::Io { path: Some(path.into()), source }
    }
}

/// The numerical-anomaly guard's serializable state: the EMA loss
/// baseline that spike detection compares against. Stored in the
/// checkpoint (format v2) so a rollback-and-replay resumes with the same
/// baseline it had when the snapshot was taken — a prerequisite for
/// bitwise-deterministic replay.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GuardState {
    /// Exponential moving average of the accepted per-step losses.
    pub ema: f64,
    /// Number of accepted steps folded into `ema` (drives warmup).
    pub steps: u64,
}

/// A full training checkpoint: everything needed to resume a momentum-SGD
/// training loop bitwise-identically at step `step`.
///
/// Parameters and optimizer velocity are replicated across ranks in the
/// paper's data-parallel dimension, so any single rank's `TrainState` is
/// a complete checkpoint of the whole world.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Number of optimizer steps already applied.
    pub step: u64,
    /// Network parameters after `step` steps.
    pub params: Vec<LayerParams>,
    /// Optimizer velocity buffers after `step` steps.
    pub velocity: Vec<LayerParams>,
    /// Per-step losses recorded so far (`losses.len() == step`).
    pub losses: Vec<f64>,
    /// Anomaly-guard EMA state at `step` (fresh when the checkpoint was
    /// written by a guard-less run).
    pub guard: GuardState,
    /// The [`ProcGrid`] the snapshot's sharded payload was blocked over
    /// (v3); `None` for the untagged, replicated v2 format, which loads
    /// into any layout.
    pub grid: Option<ProcGrid>,
}

/// What a re-shard actually did, in bytes — the recovery-cost numbers a
/// degradation report needs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReshardStats {
    /// Tensors re-laid-out (conv/FC weights plus every 1-D vector).
    pub tensors: usize,
    /// Bytes whose owning rank id changed — the data that would cross
    /// the network on a machine (survivors keep their rank ids).
    pub moved_bytes: u64,
    /// Total checkpoint payload bytes covered by the re-shard.
    pub total_bytes: u64,
}

/// Serialize a [`TrainState`] checkpoint to `w`: format v3 (grid tag +
/// sharded payload) when [`TrainState::grid`] is set, format v2
/// (replicated payload) when it is not.
pub fn save_train_state<W: Write>(w: &mut W, state: &TrainState) -> io::Result<()> {
    match state.grid {
        Some(grid) => {
            w.write_all(CKPT_MAGIC_V3)?;
            for d in grid.dims() {
                write_u64(w, d as u64)?;
            }
            write_scalars(w, state)?;
            save_sharded_params(w, &state.params, grid)?;
            save_sharded_params(w, &state.velocity, grid)
        }
        None => {
            w.write_all(CKPT_MAGIC_V2)?;
            write_scalars(w, state)?;
            save_params(w, &state.params)?;
            save_params(w, &state.velocity)
        }
    }
}

/// The step/loss/guard block shared by every checkpoint version.
fn write_scalars<W: Write>(w: &mut W, state: &TrainState) -> io::Result<()> {
    write_u64(w, state.step)?;
    write_u64(w, state.losses.len() as u64)?;
    for l in &state.losses {
        w.write_all(&l.to_le_bytes())?;
    }
    w.write_all(&state.guard.ema.to_le_bytes())?;
    write_u64(w, state.guard.steps)
}

/// Read a checkpoint written by [`save_train_state`] — either format
/// version — refusing snapshots whose recorded loss history contains a
/// non-finite value ([`CheckpointError::PoisonedLoss`]). V3 shards are
/// reassembled into full tensors; the source grid is reported in
/// [`TrainState::grid`]. This loader does not check the *caller's*
/// layout — use [`load_train_state_for`] when resuming into a specific
/// grid.
pub fn load_train_state<R: Read>(r: &mut R) -> Result<TrainState, CheckpointError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    let tagged = match &magic {
        m if m == CKPT_MAGIC_V2 => false,
        m if m == CKPT_MAGIC_V3 => true,
        m => {
            // The original format (no guard block); nothing writes it.
            let what = if m == b"FGCKPT01" {
                "FGCKPT01 is a retired checkpoint format; this build reads FGCKPT02 and FGCKPT03"
            } else {
                "not an fg-nn checkpoint"
            };
            return Err(io::Error::new(io::ErrorKind::InvalidData, what).into());
        }
    };
    let grid = if tagged {
        let ([n, c, h, w], ranks) = read_dims(r)?;
        if ranks == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "checkpoint grid has a zero extent",
            )
            .into());
        }
        Some(ProcGrid::new(n, c, h, w))
    } else {
        None
    };
    let step = read_u64(r)?;
    let n_losses = read_u64(r)? as usize;
    let mut losses = Vec::with_capacity(n_losses.min(MAX_RESERVE));
    let mut b = [0u8; 8];
    for _ in 0..n_losses {
        r.read_exact(&mut b)?;
        losses.push(f64::from_le_bytes(b));
    }
    if let Some(step) = losses.iter().position(|l| !l.is_finite()) {
        return Err(CheckpointError::PoisonedLoss { step, value: losses[step] });
    }
    r.read_exact(&mut b)?;
    let ema = f64::from_le_bytes(b);
    if !ema.is_finite() {
        return Err(CheckpointError::PoisonedLoss { step: losses.len(), value: ema });
    }
    let guard = GuardState { ema, steps: read_u64(r)? };
    let (params, velocity) = match grid {
        Some(g) => (load_sharded_params(r, g)?, load_sharded_params(r, g)?),
        None => (load_params(r)?, load_params(r)?),
    };
    Ok(TrainState { step, params, velocity, losses, guard, grid })
}

/// Load a checkpoint for consumption under `grid`, failing with the
/// typed [`CheckpointError::GridMismatch`] when a grid-tagged snapshot
/// was written under a different layout. Untagged v2 snapshots are
/// replicated and load into any layout (they are retagged with `grid`).
pub fn load_train_state_for<R: Read>(
    r: &mut R,
    grid: ProcGrid,
) -> Result<TrainState, CheckpointError> {
    let mut state = load_train_state(r)?;
    match state.grid {
        Some(saved) if saved != grid => {
            Err(CheckpointError::GridMismatch { saved, requested: grid })
        }
        _ => {
            state.grid = Some(grid);
            Ok(state)
        }
    }
}

/// The *prepared* cross-layout load: read a checkpoint and re-shard its
/// params and optimizer velocity from the grid it was written under onto
/// `new_grid` (old world → new world, any sizes), returning the re-laid
/// state (tagged with `new_grid`) and the movement accounting. Untagged
/// v2 snapshots re-shard from the trivial single-writer layout
/// `(1,1,1,1)` — everything starts at rank 0.
pub fn load_train_state_regrid<R: Read>(
    r: &mut R,
    new_grid: ProcGrid,
) -> Result<(TrainState, ReshardStats), CheckpointError> {
    let state = load_train_state(r)?;
    Ok(reshard_train_state(&state, new_grid))
}

/// Re-shard a [`TrainState`]'s params and velocity onto `new_grid` via
/// [`RegridPlan`] overlap fragments, fragment-by-fragment from the old
/// shard layout to the new (gather-free), and retag the state. The
/// values are bitwise-preserved — only the blocking changes — which is
/// what makes post-degradation trajectories bitwise-deterministic.
pub fn reshard_train_state(state: &TrainState, new_grid: ProcGrid) -> (TrainState, ReshardStats) {
    let old_grid = state.grid.unwrap_or(ProcGrid::new(1, 1, 1, 1));
    let mut stats = ReshardStats::default();
    let params = reshard_params(&state.params, old_grid, new_grid, &mut stats);
    let velocity = reshard_params(&state.velocity, old_grid, new_grid, &mut stats);
    let new_state = TrainState {
        step: state.step,
        params,
        velocity,
        losses: state.losses.clone(),
        guard: state.guard,
        grid: Some(new_grid),
    };
    (new_state, stats)
}

fn reshard_params(
    params: &[LayerParams],
    old: ProcGrid,
    new: ProcGrid,
    stats: &mut ReshardStats,
) -> Vec<LayerParams> {
    fn t(tensor: &Tensor, old: ProcGrid, new: ProcGrid, stats: &mut ReshardStats) -> Tensor {
        reshard_tensor(tensor, old, new, stats)
    }
    fn v(vec: &[f32], old: ProcGrid, new: ProcGrid, stats: &mut ReshardStats) -> Vec<f32> {
        let as_tensor = Tensor::from_vec(Shape4::new(vec.len(), 1, 1, 1), vec.to_vec());
        reshard_tensor(&as_tensor, old, new, stats).as_slice().to_vec()
    }
    params
        .iter()
        .map(|p| match p {
            LayerParams::None => LayerParams::None,
            LayerParams::Conv { w, b } => LayerParams::Conv {
                w: t(w, old, new, stats),
                b: b.as_ref().map(|b| v(b, old, new, stats)),
            },
            LayerParams::Bn { gamma, beta } => {
                LayerParams::Bn { gamma: v(gamma, old, new, stats), beta: v(beta, old, new, stats) }
            }
            LayerParams::Fc { w, b } => {
                LayerParams::Fc { w: t(w, old, new, stats), b: v(b, old, new, stats) }
            }
        })
        .collect()
}

/// One tensor's old-grid → new-grid round trip: shard under the old
/// blocking, move overlap fragments, reassemble under the new.
fn reshard_tensor(t: &Tensor, old: ProcGrid, new: ProcGrid, stats: &mut ReshardStats) -> Tensor {
    let plan = RegridPlan::between(t.shape(), old, new);
    stats.tensors += 1;
    stats.moved_bytes += plan.moved_bytes();
    stats.total_bytes += plan.total_bytes();
    let new_shards = plan.execute_local(&shard_tensor(t, plan.src()));
    assemble_tensor(plan.dst(), &new_shards)
}

/// Write all layer parameters to `w`.
pub fn save_params<W: Write>(w: &mut W, params: &[LayerParams]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u64(w, params.len() as u64)?;
    for p in params {
        match p {
            LayerParams::None => {
                w.write_all(&[0u8])?;
            }
            LayerParams::Conv { w: wt, b } => {
                w.write_all(&[1u8])?;
                write_tensor(w, wt)?;
                match b {
                    Some(b) => {
                        w.write_all(&[1u8])?;
                        write_f32s(w, b)?;
                    }
                    None => w.write_all(&[0u8])?,
                }
            }
            LayerParams::Bn { gamma, beta } => {
                w.write_all(&[2u8])?;
                write_f32s(w, gamma)?;
                write_f32s(w, beta)?;
            }
            LayerParams::Fc { w: wt, b } => {
                w.write_all(&[3u8])?;
                write_tensor(w, wt)?;
                write_f32s(w, b)?;
            }
        }
    }
    Ok(())
}

/// Read parameters written by [`save_params`].
pub fn load_params<R: Read>(r: &mut R) -> io::Result<Vec<LayerParams>> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not an fg-nn parameter file"));
    }
    let count = read_u64(r)? as usize;
    let mut out = Vec::with_capacity(count.min(MAX_RESERVE));
    for _ in 0..count {
        let tag = read_u8(r)?;
        out.push(match tag {
            0 => LayerParams::None,
            1 => {
                let w = read_tensor(r)?;
                let has_bias = read_u8(r)? == 1;
                let b = if has_bias { Some(read_f32s(r)?) } else { None };
                LayerParams::Conv { w, b }
            }
            2 => LayerParams::Bn { gamma: read_f32s(r)?, beta: read_f32s(r)? },
            3 => LayerParams::Fc { w: read_tensor(r)?, b: read_f32s(r)? },
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown parameter tag {other}"),
                ))
            }
        });
    }
    Ok(out)
}

/// Serialize parameters *sharded* over `grid`: the same per-layer tag
/// scheme as [`save_params`], but every tensor (and every 1-D vector,
/// framed as a `(len, 1, 1, 1)` tensor) is written as `grid.size()`
/// per-rank runs blocked by the tensor's [`TensorDist`] under `grid`.
/// This is the v3 checkpoint payload.
fn save_sharded_params<W: Write>(
    w: &mut W,
    params: &[LayerParams],
    grid: ProcGrid,
) -> io::Result<()> {
    w.write_all(SHARD_MAGIC)?;
    write_u64(w, params.len() as u64)?;
    for p in params {
        match p {
            LayerParams::None => {
                w.write_all(&[0u8])?;
            }
            LayerParams::Conv { w: wt, b } => {
                w.write_all(&[1u8])?;
                write_sharded_tensor(w, wt, grid)?;
                match b {
                    Some(b) => {
                        w.write_all(&[1u8])?;
                        write_sharded_f32s(w, b, grid)?;
                    }
                    None => w.write_all(&[0u8])?,
                }
            }
            LayerParams::Bn { gamma, beta } => {
                w.write_all(&[2u8])?;
                write_sharded_f32s(w, gamma, grid)?;
                write_sharded_f32s(w, beta, grid)?;
            }
            LayerParams::Fc { w: wt, b } => {
                w.write_all(&[3u8])?;
                write_sharded_tensor(w, wt, grid)?;
                write_sharded_f32s(w, b, grid)?;
            }
        }
    }
    Ok(())
}

/// Read parameters written by [`save_sharded_params`] under `grid`,
/// reassembling each tensor's shards into the full (replicated) value.
fn load_sharded_params<R: Read>(r: &mut R, grid: ProcGrid) -> io::Result<Vec<LayerParams>> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != SHARD_MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not an fg-nn sharded block"));
    }
    let count = read_u64(r)? as usize;
    let mut out = Vec::with_capacity(count.min(MAX_RESERVE));
    for _ in 0..count {
        let tag = read_u8(r)?;
        out.push(match tag {
            0 => LayerParams::None,
            1 => {
                let w = read_sharded_tensor(r, grid)?;
                let has_bias = read_u8(r)? == 1;
                let b = if has_bias { Some(read_sharded_f32s(r, grid)?) } else { None };
                LayerParams::Conv { w, b }
            }
            2 => LayerParams::Bn {
                gamma: read_sharded_f32s(r, grid)?,
                beta: read_sharded_f32s(r, grid)?,
            },
            3 => {
                LayerParams::Fc { w: read_sharded_tensor(r, grid)?, b: read_sharded_f32s(r, grid)? }
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown parameter tag {other}"),
                ))
            }
        });
    }
    Ok(out)
}

fn write_sharded_tensor<W: Write>(w: &mut W, t: &Tensor, grid: ProcGrid) -> io::Result<()> {
    let s = t.shape();
    for d in [s.n, s.c, s.h, s.w] {
        write_u64(w, d as u64)?;
    }
    let dist = TensorDist::new(s, grid);
    for shard in shard_tensor(t, &dist) {
        write_f32s(w, shard.as_slice())?;
    }
    Ok(())
}

fn read_sharded_tensor<R: Read>(r: &mut R, grid: ProcGrid) -> io::Result<Tensor> {
    let ([n, c, h, w], _) = read_dims(r)?;
    let dist = TensorDist::new(Shape4::new(n, c, h, w), grid);
    let mut shards = Vec::with_capacity(grid.size().min(MAX_RESERVE));
    for rank in 0..grid.size() {
        let data = read_f32s(r)?;
        let local = dist.local_shape(rank);
        if data.len() != local.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shard payload for rank {rank} has wrong length"),
            ));
        }
        shards.push(Tensor::from_vec(local, data));
    }
    Ok(assemble_tensor(&dist, &shards))
}

fn write_sharded_f32s<W: Write>(w: &mut W, v: &[f32], grid: ProcGrid) -> io::Result<()> {
    let t = Tensor::from_vec(Shape4::new(v.len(), 1, 1, 1), v.to_vec());
    write_sharded_tensor(w, &t, grid)
}

fn read_sharded_f32s<R: Read>(r: &mut R, grid: ProcGrid) -> io::Result<Vec<f32>> {
    Ok(read_sharded_tensor(r, grid)?.as_slice().to_vec())
}

/// Save to a file path.
pub fn save_params_file(path: &std::path::Path, params: &[LayerParams]) -> io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    save_params(&mut f, params)
}

/// Load from a file path.
pub fn load_params_file(path: &std::path::Path) -> io::Result<Vec<LayerParams>> {
    let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
    load_params(&mut f)
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn write_f32s<W: Write>(w: &mut W, v: &[f32]) -> io::Result<()> {
    write_u64(w, v.len() as u64)?;
    for x in v {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

/// Four extents — a tensor shape or a grid — and their product.
fn read_dims<R: Read>(r: &mut R) -> io::Result<([usize; 4], usize)> {
    let mut dims = [0usize; 4];
    for d in &mut dims {
        *d = read_u64(r)? as usize;
    }
    let len = dims
        .iter()
        .try_fold(1usize, |len, &d| len.checked_mul(d))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "extents overflow"))?;
    Ok((dims, len))
}

fn read_f32s<R: Read>(r: &mut R) -> io::Result<Vec<f32>> {
    let len = read_u64(r)? as usize;
    let mut out = Vec::with_capacity(len.min(MAX_RESERVE));
    let mut b = [0u8; 4];
    for _ in 0..len {
        r.read_exact(&mut b)?;
        out.push(f32::from_le_bytes(b));
    }
    Ok(out)
}

fn write_tensor<W: Write>(w: &mut W, t: &Tensor) -> io::Result<()> {
    let s = t.shape();
    for d in [s.n, s.c, s.h, s.w] {
        write_u64(w, d as u64)?;
    }
    write_f32s(w, t.as_slice())
}

fn read_tensor<R: Read>(r: &mut R) -> io::Result<Tensor> {
    let ([n, c, h, w], len) = read_dims(r)?;
    let data = read_f32s(r)?;
    let shape = Shape4::new(n, c, h, w);
    if data.len() != len {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "tensor payload length mismatch"));
    }
    Ok(Tensor::from_vec(shape, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkSpec;
    use crate::network::Network;

    fn demo_net() -> Network {
        let mut spec = NetworkSpec::new();
        let i = spec.input("x", 3, 8, 8);
        let c = spec.conv("c", i, 4, 3, 1, 1);
        let cb = spec.conv_bias("cb", c, 4, 1, 1, 0);
        let b = spec.batchnorm("b", cb);
        let r = spec.relu("r", b);
        let g = spec.global_avg_pool("g", r);
        let f = spec.fc("f", g, 5);
        spec.loss("l", f);
        Network::init(spec, 99)
    }

    #[test]
    fn round_trip_preserves_every_parameter_bitwise() {
        let net = demo_net();
        let mut buf = Vec::new();
        save_params(&mut buf, &net.params).unwrap();
        let loaded = load_params(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded, net.params);
    }

    #[test]
    fn file_round_trip() {
        let net = demo_net();
        let path = std::env::temp_dir().join("fg_params_io_test.bin");
        save_params_file(&path, &net.params).unwrap();
        let loaded = load_params_file(&path).unwrap();
        assert_eq!(loaded, net.params);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        save_params(&mut buf, &demo_net().params).unwrap();
        buf[0] = b'X';
        let err = load_params(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// `load` returns an error: it neither panics nor succeeds.
    fn assert_rejected<T, E>(
        what: &str,
        load: impl FnOnce() -> Result<T, E> + std::panic::UnwindSafe,
    ) {
        assert!(matches!(std::panic::catch_unwind(load), Ok(Err(_))), "{what} must be an Err");
    }

    /// `magic`, then `words` as little-endian u64s.
    fn header(magic: &[u8], words: &[u64]) -> Vec<u8> {
        let mut buf = magic.to_vec();
        words.iter().for_each(|w| buf.extend_from_slice(&w.to_le_bytes()));
        buf
    }

    #[test]
    fn truncated_file_is_rejected() {
        let mut buf = Vec::new();
        save_params(&mut buf, &demo_net().params).unwrap();
        buf.truncate(buf.len() / 2);
        assert_rejected("half a file", || load_params(&mut buf.as_slice()));
        // Headers that promise more than the stream holds: the lengths
        // are read from the file, so nothing may be reserved from them.
        assert_rejected("2^60 layers", || load_params(&mut header(MAGIC, &[1 << 60]).as_slice()));
        assert_rejected("2^40 layers", || load_params(&mut header(MAGIC, &[1 << 40]).as_slice()));
        let mut bn = header(MAGIC, &[1]);
        bn.push(2);
        bn.extend_from_slice(&(1u64 << 61).to_le_bytes());
        assert_rejected("a 2^61-element BN vector", || load_params(&mut bn.as_slice()));
        let mut conv = header(MAGIC, &[1]);
        conv.push(1);
        conv.extend_from_slice(&header(&[], &[1 << 32, 1 << 32, 3, 3, 0]));
        assert_rejected("a conv shape whose product overflows", || {
            load_params(&mut conv.as_slice())
        });
    }

    fn demo_state() -> TrainState {
        let net = demo_net();
        let velocity: Vec<LayerParams> = net.params.iter().map(|p| p.zeros_like()).collect();
        TrainState {
            step: 17,
            params: net.params,
            velocity,
            losses: vec![2.5, 2.25, 2.125],
            guard: GuardState { ema: 2.375, steps: 3 },
            grid: None,
        }
    }

    #[test]
    fn train_state_round_trips_bitwise() {
        let state = demo_state();
        let mut buf = Vec::new();
        save_train_state(&mut buf, &state).unwrap();
        assert_eq!(&buf[..8], CKPT_MAGIC_V2);
        let loaded = load_train_state(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.step, 17);
        assert_eq!(loaded.params, state.params);
        assert_eq!(loaded.velocity, state.velocity);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&loaded.losses), bits(&state.losses));
        assert_eq!(loaded.guard.ema.to_bits(), state.guard.ema.to_bits());
        assert_eq!(loaded.guard.steps, 3);
    }

    #[test]
    fn v1_checkpoints_are_refused_by_name() {
        let mut buf = Vec::new();
        save_train_state(&mut buf, &demo_state()).unwrap();
        buf[..8].copy_from_slice(b"FGCKPT01");
        let err = load_train_state(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }), "{err}");
        assert!(err.to_string().contains("FGCKPT01 is a retired"), "{err}");
    }

    #[test]
    fn v3_grid_tagged_checkpoint_round_trips_bitwise() {
        let grid = ProcGrid::spatial(2, 2);
        let state = TrainState { grid: Some(grid), ..demo_state() };
        let mut buf = Vec::new();
        save_train_state(&mut buf, &state).unwrap();
        assert_eq!(&buf[..8], CKPT_MAGIC_V3);
        let loaded = load_train_state(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.grid, Some(grid));
        assert_eq!(loaded.step, state.step);
        assert_eq!(loaded.params, state.params);
        assert_eq!(loaded.velocity, state.velocity);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&loaded.losses), bits(&state.losses));
        assert_eq!(loaded.guard, state.guard);
    }

    #[test]
    fn grid_mismatch_is_a_typed_error_not_a_panic() {
        let saved = ProcGrid::spatial(2, 2);
        let state = TrainState { grid: Some(saved), ..demo_state() };
        let mut buf = Vec::new();
        save_train_state(&mut buf, &state).unwrap();
        // Matching grid loads fine.
        let ok = load_train_state_for(&mut buf.as_slice(), saved).unwrap();
        assert_eq!(ok.params, state.params);
        // A different layout is refused with a descriptive typed error.
        let requested = ProcGrid::spatial(1, 3);
        match load_train_state_for(&mut buf.as_slice(), requested).unwrap_err() {
            CheckpointError::GridMismatch { saved: s, requested: r } => {
                assert_eq!(s, saved);
                assert_eq!(r, requested);
                let msg = CheckpointError::GridMismatch { saved: s, requested: r }.to_string();
                assert!(msg.contains("re-shard"), "unhelpful message: {msg}");
                assert!(msg.contains("world 4") && msg.contains("world 3"), "msg: {msg}");
            }
            other => panic!("expected GridMismatch, got {other}"),
        }
    }

    #[test]
    fn untagged_v2_checkpoints_load_into_any_grid() {
        let state = demo_state();
        let mut buf = Vec::new();
        save_train_state(&mut buf, &state).unwrap();
        let loaded = load_train_state_for(&mut buf.as_slice(), ProcGrid::spatial(2, 2)).unwrap();
        assert_eq!(loaded.params, state.params);
        assert_eq!(loaded.grid, Some(ProcGrid::spatial(2, 2)));
    }

    #[test]
    fn reshard_preserves_params_and_velocity_bitwise() {
        let old = ProcGrid::spatial(2, 2);
        let new = ProcGrid::spatial(1, 3);
        let mut state = demo_state();
        // Give the velocity non-trivial values so the test can tell the
        // two blocks apart.
        state.velocity = state.params.to_vec();
        state.grid = Some(old);
        let (resharded, stats) = reshard_train_state(&state, new);
        assert_eq!(resharded.grid, Some(new));
        assert_eq!(resharded.params, state.params);
        assert_eq!(resharded.velocity, state.velocity);
        assert_eq!(resharded.step, state.step);
        assert!(stats.tensors > 0);
        assert!(stats.total_bytes > 0);
        assert!(stats.moved_bytes <= stats.total_bytes);
        // The 4→3 regrid genuinely moves data.
        assert!(stats.moved_bytes > 0, "expected a cross-rank move in a 4-to-3 regrid");
    }

    #[test]
    fn load_train_state_regrid_is_the_prepared_cross_layout_path() {
        let old = ProcGrid::spatial(2, 2);
        let new = ProcGrid::spatial(1, 3);
        let state = TrainState { grid: Some(old), ..demo_state() };
        let mut buf = Vec::new();
        save_train_state(&mut buf, &state).unwrap();
        // The unprepared load refuses...
        assert!(matches!(
            load_train_state_for(&mut buf.as_slice(), new),
            Err(CheckpointError::GridMismatch { .. })
        ));
        // ...the prepared one re-shards.
        let (loaded, stats) = load_train_state_regrid(&mut buf.as_slice(), new).unwrap();
        assert_eq!(loaded.grid, Some(new));
        assert_eq!(loaded.params, state.params);
        assert_eq!(loaded.velocity, state.velocity);
        assert!(stats.total_bytes > 0);
    }

    #[test]
    fn regrid_load_equals_reshard_then_load_bitwise() {
        // The prepared path must be exactly load-then-reshard: same
        // params, velocity, stats, and tag, bit for bit — so callers can
        // use whichever composition fits without a numerical contract
        // change.
        let old = ProcGrid::spatial(2, 2);
        let new = ProcGrid::hybrid(3, 1, 1);
        let mut state = demo_state();
        state.velocity = state.params.to_vec();
        state.grid = Some(old);
        let mut buf = Vec::new();
        save_train_state(&mut buf, &state).unwrap();
        let (via_regrid, regrid_stats) = load_train_state_regrid(&mut buf.as_slice(), new).unwrap();
        let loaded = load_train_state(&mut buf.as_slice()).unwrap();
        let (via_reshard, reshard_stats) = reshard_train_state(&loaded, new);
        assert_eq!(via_regrid.params, via_reshard.params);
        assert_eq!(via_regrid.velocity, via_reshard.velocity);
        assert_eq!(via_regrid.grid, via_reshard.grid);
        assert_eq!(via_regrid.step, via_reshard.step);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&via_regrid.losses), bits(&via_reshard.losses));
        assert_eq!(regrid_stats, reshard_stats);
    }

    #[test]
    fn train_state_rejects_params_file() {
        // A parameter file is not a checkpoint: the magics differ.
        let mut buf = Vec::new();
        save_params(&mut buf, &demo_net().params).unwrap();
        match load_train_state(&mut buf.as_slice()).unwrap_err() {
            CheckpointError::Io { source, .. } => {
                assert_eq!(source.kind(), io::ErrorKind::InvalidData)
            }
            other => panic!("expected Io error, got {other}"),
        }
        // Nor is a checkpoint magic in front of lengths the stream
        // cannot back.
        assert_rejected("2^60 losses", || {
            load_train_state(&mut header(CKPT_MAGIC_V2, &[17, 1 << 60]).as_slice())
        });
        assert_rejected("2^40 losses", || {
            load_train_state(&mut header(CKPT_MAGIC_V2, &[17, 1 << 40]).as_slice())
        });
        let grid = [1 << 32, 1 << 32, 1, 1];
        assert_rejected("a grid that overflows", || {
            load_train_state(&mut header(CKPT_MAGIC_V3, &grid).as_slice())
        });
        // 2^40 ranks, no losses, EMA 0.0 after 0 steps, 1 layer: a conv.
        let mut sharded = header(CKPT_MAGIC_V3, &[1 << 20, 1 << 20, 1, 1, 17, 0, 0, 0]);
        sharded.extend_from_slice(&header(SHARD_MAGIC, &[1]));
        sharded.push(1);
        sharded.extend_from_slice(&header(&[], &[4, 3, 3, 3]));
        assert_rejected("shards for 2^40 ranks", || load_train_state(&mut sharded.as_slice()));
    }

    #[test]
    fn poisoned_loss_history_is_rejected_with_a_typed_error() {
        // A NaN loss round-trips bitwise through the wire format; the
        // loader must refuse it instead of resuming a poisoned run.
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut state = demo_state();
            state.losses[1] = poison;
            let mut buf = Vec::new();
            save_train_state(&mut buf, &state).unwrap();
            match load_train_state(&mut buf.as_slice()).unwrap_err() {
                CheckpointError::PoisonedLoss { step, value } => {
                    assert_eq!(step, 1);
                    assert_eq!(value.to_bits(), poison.to_bits());
                }
                other => panic!("expected PoisonedLoss, got {other}"),
            }
        }
        // A poisoned guard EMA is just as fatal.
        let mut state = demo_state();
        state.guard.ema = f64::NAN;
        let mut buf = Vec::new();
        save_train_state(&mut buf, &state).unwrap();
        assert!(matches!(
            load_train_state(&mut buf.as_slice()),
            Err(CheckpointError::PoisonedLoss { .. })
        ));
    }

    #[test]
    fn checkpoint_error_display_names_the_poison() {
        let e = CheckpointError::PoisonedLoss { step: 4, value: f64::INFINITY };
        assert_eq!(
            e.to_string(),
            "checkpoint records non-finite loss inf at step 4; refusing to resume from a \
             poisoned state"
        );
        let io_e = CheckpointError::from(io::Error::new(io::ErrorKind::InvalidData, "bad"));
        assert!(io_e.to_string().contains("checkpoint unreadable"));
    }

    #[test]
    fn storage_errors_name_the_path_version_and_shard() {
        // Every storage-level variant must give an operator something to
        // act on: the file, the version, and (where applicable) the
        // shard index.
        let p = std::path::PathBuf::from("/store/v00000007/shard_003.bin");
        let e =
            CheckpointError::io_at(&p, io::Error::new(io::ErrorKind::PermissionDenied, "eperm"));
        assert!(e.to_string().contains("/store/v00000007/shard_003.bin"), "{e}");
        let e = CheckpointError::Torn {
            path: p.clone(),
            version: 7,
            shard: Some(3),
            expected: 4096,
            actual: 1000,
        };
        for needle in ["version 7", "shard 3", "1000", "4096", "shard_003.bin"] {
            assert!(e.to_string().contains(needle), "missing {needle:?} in {e}");
        }
        let e = CheckpointError::Corrupt { path: p.clone(), version: 7, shard: Some(3) };
        assert!(e.to_string().contains("version 7") && e.to_string().contains("shard 3"), "{e}");
        let e = CheckpointError::Missing { path: p.clone(), version: 7, shard: None };
        assert!(e.to_string().contains("version 7") && !e.to_string().contains("shard 3"), "{e}");
        let e = CheckpointError::Stale { newest: 9, verifiable: Some(8) };
        assert!(e.to_string().contains('9') && e.to_string().contains('8'), "{e}");
        let e = CheckpointError::NoVerifiableVersion { dir: "/store".into(), tried: 2 };
        assert!(e.to_string().contains("/store") && e.to_string().contains('2'), "{e}");
    }

    #[test]
    fn loaded_params_drive_identical_inference() {
        use fg_kernels::loss::Labels;
        use fg_tensor::{Shape4, Tensor};
        let net = demo_net();
        let mut buf = Vec::new();
        save_params(&mut buf, &net.params).unwrap();
        let mut net2 = demo_net();
        net2.params = load_params(&mut buf.as_slice()).unwrap();
        let x = Tensor::from_fn(Shape4::new(2, 3, 8, 8), |n, c, h, w| (n + c + h + w) as f32 * 0.1);
        let labels = Labels::per_sample(vec![0, 1]);
        let (l1, _) = net.loss_and_grads(&x, &labels);
        let (l2, _) = net2.loss_and_grads(&x, &labels);
        assert_eq!(l1, l2);
    }
}
