//! Saving and loading training checkpoints.
//!
//! A deliberately simple, self-describing binary format (no external
//! serialization dependency): magic, step/loss/guard block, then
//! per-layer tag + shape + little-endian f32 payload. In the
//! distributed setting it composes trivially: parameters and momentum
//! are replicated (§III-A splits activations, never weights), so any
//! single rank's [`TrainState`] is the checkpoint.
//!
//! There is one format, `FGCKPT05`. It stores every tensor once, whole:
//! its shape, then its elements. Nothing in it names a world, so the same
//! state writes the same bytes whoever writes it and loads into any
//! world; the durable store cuts the stream into one byte shard per rank
//! of the writing world. The retired `FGCKPT01`–`04` magics are refused
//! by name.
//!
//! Every length and extent in a stream is untrusted: nothing is reserved
//! from one beyond `MAX_RESERVE` elements and products are checked, so
//! a damaged header is an `InvalidData` / `UnexpectedEof` error, never an
//! allocation failure or an overflow.

use std::fmt;
use std::io::{self, Read, Write};

use fg_tensor::{Shape4, Tensor};

use crate::layer::LayerParams;

/// The checkpoint format: step, losses and the anomaly guard's EMA
/// state (so a rollback-and-replay resumes with a bitwise-identical
/// spike baseline), then params and velocity, each tensor whole.
const CKPT_MAGIC: &[u8; 8] = b"FGCKPT05";
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
/// [`CheckpointError::Missing`],
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
/// checkpoint so a rollback-and-replay resumes with the same
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
}

/// Serialize a [`TrainState`] checkpoint to `w`: step/loss/guard block,
/// then params and velocity.
pub fn save_train_state<W: Write>(w: &mut W, state: &TrainState) -> io::Result<()> {
    w.write_all(CKPT_MAGIC)?;
    write_u64(w, state.step)?;
    write_u64(w, state.losses.len() as u64)?;
    for l in &state.losses {
        w.write_all(&l.to_le_bytes())?;
    }
    w.write_all(&state.guard.ema.to_le_bytes())?;
    write_u64(w, state.guard.steps)?;
    save_params(w, &state.params)?;
    save_params(w, &state.velocity)
}

/// Read a checkpoint written by [`save_train_state`], refusing
/// snapshots whose recorded loss history contains a non-finite value
/// ([`CheckpointError::PoisonedLoss`]). The state loads into any
/// world.
pub fn load_train_state<R: Read>(r: &mut R) -> Result<TrainState, CheckpointError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != CKPT_MAGIC {
        // The retired formats (01: no guard block; 02: untagged; 03:
        // every tensor blocked over the grid; 04: a grid tag); nothing
        // writes them.
        let what = match &magic {
            b"FGCKPT01" | b"FGCKPT02" | b"FGCKPT03" | b"FGCKPT04" => format!(
                "{} is a retired checkpoint format; this build reads FGCKPT05",
                String::from_utf8_lossy(&magic)
            ),
            _ => "not an fg-nn checkpoint".to_string(),
        };
        return Err(io::Error::new(io::ErrorKind::InvalidData, what).into());
    }
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
    let params = load_params(r)?;
    let velocity = load_params(r)?;
    Ok(TrainState { step, params, velocity, losses, guard })
}

/// Every tensor `p` holds, in stream order, with its shape; a 1-D
/// vector is framed as a `(len, 1, 1, 1)` tensor.
fn tensors(p: &LayerParams) -> Vec<(Shape4, &[f32])> {
    fn vec(v: &[f32]) -> (Shape4, &[f32]) {
        (Shape4::new(v.len(), 1, 1, 1), v)
    }
    match p {
        LayerParams::None => Vec::new(),
        LayerParams::Conv { w } => vec![(w.shape(), w.as_slice())],
        LayerParams::Bn { gamma, beta } => vec![vec(gamma), vec(beta)],
        LayerParams::Fc { w, b } => vec![(w.shape(), w.as_slice()), vec(b)],
    }
}

/// Serialize parameters: a layer count, then per layer a kind tag
/// (a convolution's followed by its has-bias flag, always 0: the byte
/// keeps the layer framing, and no convolution has a bias) and its
/// [`tensors`], each as its shape and then its elements.
fn save_params<W: Write>(w: &mut W, params: &[LayerParams]) -> io::Result<()> {
    write_u64(w, params.len() as u64)?;
    for p in params {
        match p {
            LayerParams::None => w.write_all(&[0])?,
            LayerParams::Conv { .. } => w.write_all(&[1, 0])?,
            LayerParams::Bn { .. } => w.write_all(&[2])?,
            LayerParams::Fc { .. } => w.write_all(&[3])?,
        }
        for (shape, data) in tensors(p) {
            for d in shape.dims() {
                write_u64(w, d as u64)?;
            }
            for x in data {
                w.write_all(&x.to_le_bytes())?;
            }
        }
    }
    Ok(())
}

/// Read parameters written by [`save_params`].
fn load_params<R: Read>(r: &mut R) -> io::Result<Vec<LayerParams>> {
    let count = read_u64(r)? as usize;
    let mut out = Vec::with_capacity(count.min(MAX_RESERVE));
    let vec = |r: &mut R| Ok::<_, io::Error>(read_tensor(r)?.into_vec());
    for _ in 0..count {
        out.push(match read_u8(r)? {
            0 => LayerParams::None,
            1 => match read_u8(r)? {
                0 => LayerParams::Conv { w: read_tensor(r)? },
                flag => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("convolution has-bias flag {flag}: a convolution has no bias"),
                    ))
                }
            },
            2 => LayerParams::Bn { gamma: vec(r)?, beta: vec(r)? },
            3 => LayerParams::Fc { w: read_tensor(r)?, b: vec(r)? },
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

/// One tensor: its shape, then its elements.
fn read_tensor<R: Read>(r: &mut R) -> io::Result<Tensor> {
    let ([n, c, h, w], len) = read_dims(r)?;
    let mut data = Vec::with_capacity(len.min(MAX_RESERVE));
    let mut b = [0u8; 4];
    for _ in 0..len {
        r.read_exact(&mut b)?;
        data.push(f32::from_le_bytes(b));
    }
    Ok(Tensor::from_vec(Shape4::new(n, c, h, w), data))
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

/// A tensor shape's four extents and their product.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkSpec;
    use crate::network::Network;

    fn demo_net() -> Network {
        let mut spec = NetworkSpec::new();
        let i = spec.input("x", 3, 8, 8);
        let c = spec.conv("c", i, 4, 3, 1, 1);
        let c2 = spec.conv("c2", c, 4, 1, 1, 0);
        let b = spec.batchnorm("b", c2);
        let r = spec.relu("r", b);
        let g = spec.global_avg_pool("g", r);
        let f = spec.fc("f", g, 5);
        spec.loss("l", f);
        Network::init(spec, 99)
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
        }
    }

    /// `demo_state()`'s stream: the one every untrusted-input test below
    /// damages.
    fn demo_stream() -> Vec<u8> {
        let mut buf = Vec::new();
        save_train_state(&mut buf, &demo_state()).unwrap();
        buf
    }

    /// Loading `bytes` ends in `InvalidData` or `UnexpectedEof`: it
    /// neither panics, nor succeeds, nor reports anything else.
    fn assert_rejected(what: &str, bytes: &[u8]) {
        match std::panic::catch_unwind(|| load_train_state(&mut &*bytes)) {
            Ok(Err(CheckpointError::Io { source, .. })) => assert!(
                matches!(source.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
                "{what}: {source}"
            ),
            Ok(Err(other)) => panic!("{what}: expected an Io error, got {other}"),
            Ok(Ok(_)) => panic!("{what} loaded"),
            Err(_) => panic!("{what} panicked the loader"),
        }
    }

    /// `magic`, then `words` as little-endian u64s.
    fn header(magic: &[u8], words: &[u64]) -> Vec<u8> {
        let mut buf = magic.to_vec();
        words.iter().for_each(|w| buf.extend_from_slice(&w.to_le_bytes()));
        buf
    }

    /// A checkpoint up to and including the first parameter block's
    /// layer count: step 17, no losses, EMA 0.0 after 0 steps.
    fn up_to_layers(layers: u64) -> Vec<u8> {
        header(CKPT_MAGIC, &[17, 0, 0, 0, layers])
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = demo_stream();
        buf[0] = b'X';
        assert_rejected("a damaged checkpoint magic", &buf);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let buf = demo_stream();
        for len in 0..buf.len() {
            assert_rejected(&format!("a {len}-byte prefix"), &buf[..len]);
        }
        // Headers that promise more than the stream holds: the lengths
        // are read from the file, so nothing may be reserved from them.
        assert_rejected("2^60 losses", &header(CKPT_MAGIC, &[17, 1 << 60]));
        assert_rejected("2^40 losses", &header(CKPT_MAGIC, &[17, 1 << 40]));
        assert_rejected("2^60 layers", &up_to_layers(1 << 60));
        assert_rejected("2^40 layers", &up_to_layers(1 << 40));
        // A BN layer whose gamma claims 2^61 elements.
        let mut bn = up_to_layers(1);
        bn.push(2);
        bn.extend_from_slice(&header(&[], &[1 << 61, 1, 1, 1]));
        assert_rejected("a 2^61-element tensor", &bn);
        // A conv whose weights' shape overflows.
        let mut conv = up_to_layers(1);
        conv.extend_from_slice(&[1, 0]);
        conv.extend_from_slice(&header(&[], &[1 << 32, 1 << 32, 3, 3]));
        assert_rejected("a conv shape whose product overflows", &conv);
    }

    #[test]
    fn a_biased_conv_is_refused_as_invalid_data() {
        let mut buf = demo_stream();
        // Magic, then eight words (step, three losses behind their count,
        // the guard, the layer count), then layer 0's tag: layer 1 is the
        // first convolution, its tag followed by the flag.
        let tag = 8 + 8 * 8 + 1;
        assert_eq!(buf[tag..tag + 2], [1, 0], "layer 1 is a conv without bias");
        buf[tag + 1] = 1;
        match std::panic::catch_unwind(|| load_train_state(&mut buf.as_slice())) {
            Ok(Err(CheckpointError::Io { source, .. })) => {
                assert_eq!(source.kind(), io::ErrorKind::InvalidData, "{source}");
                assert!(source.to_string().contains("has no bias"), "{source}");
            }
            Ok(Err(other)) => panic!("expected an Io error, got {other}"),
            Ok(Ok(_)) => panic!("a biased conv loaded"),
            Err(_) => panic!("a biased conv panicked the loader"),
        }
    }

    #[test]
    fn train_state_round_trips_bitwise() {
        let state = demo_state();
        let mut buf = Vec::new();
        save_train_state(&mut buf, &state).unwrap();
        assert_eq!(&buf[..8], CKPT_MAGIC);
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
    fn retired_formats_are_refused_by_name() {
        for magic in ["FGCKPT01", "FGCKPT02", "FGCKPT03", "FGCKPT04"] {
            let mut buf = demo_stream();
            buf[..8].copy_from_slice(magic.as_bytes());
            let err = load_train_state(&mut buf.as_slice()).unwrap_err();
            assert!(matches!(err, CheckpointError::Io { .. }), "{err}");
            assert!(err.to_string().contains(&format!("{magic} is a retired")), "{err}");
        }
    }

    /// Length and checksum of this exact stream as first written: a
    /// change to the byte layout is a new format, not an edit here. The
    /// values are FGCKPT04's recorded stream of the same state (written
    /// under `spatial(2, 2)`) with its 32-byte grid tag, bytes 8..40, cut
    /// and its magic replaced.
    #[test]
    fn fgckpt05_bytes_are_the_recorded_ones() {
        let buf = demo_stream();
        assert_eq!(buf.len(), 1740);
        assert_eq!(crate::ckpt_store::fnv1a64(&buf), 0xad0c_d0cf_d296_e991);
    }

    /// Deterministic pseudo-random tensor: every element derived from the
    /// seed, so misplaced elements cannot alias.
    fn filled(seed: u64, shape: Shape4) -> Tensor {
        Tensor::from_fn(shape, |n, c, h, w| {
            let i = ((n * 31 + c * 17 + h * 7 + w) as u64).wrapping_mul(seed | 1);
            (i % 8191) as f32 * 0.013 - 50.0
        })
    }

    fn filled_vec(seed: u64, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as u64 + 3).wrapping_mul(seed | 1) % 4093) as f32 * 0.021 - 40.0)
            .collect()
    }

    /// A parameter set holding every `LayerParams` variant.
    fn random_params(
        seed: u64,
        oc: usize,
        ic: usize,
        k: usize,
        features: usize,
    ) -> Vec<LayerParams> {
        vec![
            LayerParams::None,
            LayerParams::Conv { w: filled(seed, Shape4::new(oc, ic, k, k)) },
            LayerParams::Bn { gamma: filled_vec(seed ^ 2, oc), beta: filled_vec(seed ^ 3, oc) },
            LayerParams::Fc {
                w: filled(seed ^ 4, Shape4::new(features, oc, 1, 1)),
                b: filled_vec(seed ^ 5, features),
            },
        ]
    }

    fn bits_of(params: &[LayerParams]) -> Vec<Vec<u32>> {
        params
            .iter()
            .map(|p| tensors(p).iter().flat_map(|(_, d)| d.iter().map(|x| x.to_bits())).collect())
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Save → load keeps every parameter and SGD velocity element
        /// bitwise, over random shapes of all four `LayerParams` variants.
        #[test]
        fn random_states_round_trip_bitwise(
            seed in 1u64..u32::MAX as u64,
            oc in 2usize..=5, ic in 1usize..=3, k in 1usize..=3, features in 1usize..=4,
        ) {
            let params = random_params(seed, oc, ic, k, features);
            let velocity = random_params(seed.rotate_left(17), oc, ic, k, features);
            let state = TrainState {
                step: 12,
                params: params.clone(),
                velocity: velocity.clone(),
                losses: vec![1.5, 1.25],
                guard: GuardState::default(),
            };
            let mut buf = Vec::new();
            save_train_state(&mut buf, &state).unwrap();
            let loaded = load_train_state(&mut buf.as_slice()).unwrap();
            proptest::prop_assert_eq!(bits_of(&loaded.params), bits_of(&params));
            proptest::prop_assert_eq!(bits_of(&loaded.velocity), bits_of(&velocity));
        }
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
        let e = CheckpointError::NoVerifiableVersion { dir: "/store".into(), tried: 2 };
        assert!(e.to_string().contains("/store") && e.to_string().contains('2'), "{e}");
    }

    #[test]
    fn loaded_params_drive_identical_inference() {
        use fg_kernels::loss::Labels;
        use fg_tensor::{Shape4, Tensor};
        let net = demo_net();
        let mut net2 = demo_net();
        net2.params = load_train_state(&mut demo_stream().as_slice()).unwrap().params;
        let x = Tensor::from_fn(Shape4::new(2, 3, 8, 8), |n, c, h, w| (n + c + h + w) as f32 * 0.1);
        let labels = Labels::per_sample(vec![0, 1]);
        let (l1, _) = net.loss_and_grads(&x, &labels);
        let (l2, _) = net2.loss_and_grads(&x, &labels);
        assert_eq!(l1, l2);
    }
}
