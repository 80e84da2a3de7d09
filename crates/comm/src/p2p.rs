//! Point-to-point messaging primitives and the [`Communicator`] trait.
//!
//! Semantics mirror MPI two-sided communication:
//!
//! * messages between a fixed (source, destination) pair are delivered in
//!   send order (per-pair FIFO, one unbounded channel per ordered pair);
//! * receives match on `(source, tag)`; non-matching messages are stashed
//!   and re-examined by later receives, so out-of-order tag consumption
//!   works exactly as with MPI message envelopes;
//! * sends never block (the channel is unbounded), which models eager /
//!   buffered MPI sends and makes `sendrecv` cycles deadlock-free.

use std::any::{Any, TypeId};
use std::collections::VecDeque;

use crate::stats::OpClass;

/// Message tag. User tags must be below `RESERVED_TAG_BASE` (2^62);
/// the collective implementations draw tags from the reserved space.
pub type Tag = u64;

/// First tag value reserved for internal (collective) protocol use.
const RESERVED_TAG_BASE: Tag = 1 << 62;

/// The tag a world-scope collective draws for per-rank counter value
/// `counter` — the single source of the formula `WorldComm` uses, shared
/// with the static schedule verifier's tag simulation
/// ([`crate::trace::TraceRecorder`]).
pub const fn world_collective_tag(counter: u64) -> Tag {
    RESERVED_TAG_BASE + counter
}

/// The tag a sub-communicator collective draws: salted by the group id
/// (bit 61 separates the sub-communicator tag space from the world's)
/// with a per-bind counter in the low bits. Single source of the formula
/// `SubComm` uses, shared with the verifier's tag simulation.
pub const fn sub_collective_tag(tag_salt: u64, counter: u64) -> Tag {
    RESERVED_TAG_BASE | (1 << 61) | (tag_salt << 32) | counter
}

/// The group salt a [`sub_collective_tag`] carries (bits 32..61) — how a
/// replay of recorded tags re-binds the group that drew them.
pub(crate) const fn sub_collective_salt(tag: Tag) -> u64 {
    (tag >> 32) & ((1 << 29) - 1)
}

/// Scalar element types that can travel through the communicator.
///
/// The bound is deliberately broad: payloads are moved as boxed `Vec<T>`
/// within the process, so no serialization is involved and any `'static`
/// `Copy` type qualifies. `WIDTH` is the wire width in bytes used for
/// traffic accounting (and hence for α–β time modeling).
///
/// **Adding a scalar type:** do not write an `impl` by hand — add one
/// line to `for_each_comm_scalar!` below. The macro generates this
/// impl, the [`ScalarType`] tables, and the exhaustiveness test in one
/// stroke, so the trace/simulator wire types can never silently lag
/// behind the set of scalars that travel.
pub trait CommScalar: Copy + Send + 'static {
    /// Bytes per element on the modeled wire.
    const WIDTH: usize = std::mem::size_of::<Self>();

    /// Deterministically flip bits of `self` under a nonzero `mask` —
    /// the payload-corruption primitive of the fault model
    /// ([`crate::fault::FaultPlan`]). Must return a value different from
    /// `self` for every mask, so injected corruption is always
    /// observable.
    fn corrupt(self, mask: u64) -> Self;

    /// The value's bit pattern as a `u64`, fed into the end-to-end
    /// payload checksum ([`crate::integrity`]). Must be injective on the
    /// bits `corrupt` can touch, so every injected corruption changes
    /// the checksum.
    fn checksum_bits(self) -> u64;
}

/// The single authoritative list of wire scalar types. Invokes the
/// callback macro once per scalar with `(type, ScalarType variant,
/// corruption expression, checksum-bits expression)`. Everything that
/// must stay in sync with the set of [`CommScalar`] impls — the impls
/// themselves, the [`ScalarType`] tables, and the exhaustiveness test —
/// is generated from this list; extending it is the only supported way
/// to add a scalar.
macro_rules! for_each_comm_scalar {
    ($m:ident) => {
        $m!(f32, F32, |x: f32, m: u64| f32::from_bits(x.to_bits() ^ ((m as u32) | 1)), |x: f32| x
            .to_bits()
            as u64);
        $m!(f64, F64, |x: f64, m: u64| f64::from_bits(x.to_bits() ^ (m | 1)), |x: f64| x.to_bits());
        $m!(u8, U8, |x: u8, m: u64| x ^ ((m as u8) | 1), |x: u8| x as u64);
        $m!(u32, U32, |x: u32, m: u64| x ^ ((m as u32) | 1), |x: u32| x as u64);
        $m!(u64, U64, |x: u64, m: u64| x ^ (m | 1), |x: u64| x);
        $m!(i32, I32, |x: i32, m: u64| x ^ ((m as i32) | 1), |x: i32| x as u32 as u64);
        $m!(i64, I64, |x: i64, m: u64| x ^ ((m as i64) | 1), |x: i64| x as u64);
        $m!(usize, Usize, |x: usize, m: u64| x ^ ((m as usize) | 1), |x: usize| x as u64);
        $m!(
            (usize, usize),
            UsizePair,
            |x: (usize, usize), m: u64| (x.0 ^ ((m as usize) | 1), x.1),
            |x: (usize, usize)| (x.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (x.1 as u64)
        );
    };
}

macro_rules! impl_comm_scalar {
    ($t:ty, $v:ident, $corrupt:expr, $bits:expr) => {
        impl CommScalar for $t {
            fn corrupt(self, mask: u64) -> Self {
                #[allow(clippy::redundant_closure_call)]
                ($corrupt)(self, mask)
            }

            fn checksum_bits(self) -> u64 {
                #[allow(clippy::redundant_closure_call)]
                ($bits)(self)
            }
        }
    };
}
for_each_comm_scalar!(impl_comm_scalar);
/// The checksum's own test walks the same list.
#[cfg(test)]
pub(crate) use for_each_comm_scalar;

/// The closed set of scalar types a recorded trace can name — exactly
/// the [`CommScalar`] impls generated by `for_each_comm_scalar!`. `of`
/// and `width` are generated from the macro and the registration test
/// pins `ALL` to it, so a variant without a macro entry (or vice versa)
/// is caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarType {
    F32,
    F64,
    U8,
    U32,
    U64,
    I32,
    I64,
    Usize,
    UsizePair,
}

impl ScalarType {
    /// Every wire type, in declaration order. The count is pinned to the
    /// `for_each_comm_scalar!` list by a test.
    pub const ALL: [ScalarType; 9] = [
        ScalarType::F32,
        ScalarType::F64,
        ScalarType::U8,
        ScalarType::U32,
        ScalarType::U64,
        ScalarType::I32,
        ScalarType::I64,
        ScalarType::Usize,
        ScalarType::UsizePair,
    ];

    /// The wire-type tag for `T`.
    ///
    /// # Panics
    /// Panics, naming the fix, if `T` is a [`CommScalar`] impl that was
    /// written by hand instead of through `for_each_comm_scalar!` — the
    /// macro is the only supported way to register a scalar.
    pub fn of<T: CommScalar>() -> ScalarType {
        let id = TypeId::of::<T>();
        macro_rules! of_arm {
            ($t:ty, $v:ident, $c:expr, $b:expr) => {
                if id == TypeId::of::<$t>() {
                    return ScalarType::$v;
                }
            };
        }
        for_each_comm_scalar!(of_arm);
        panic!(
            "CommScalar impl for `{}` is not registered as a wire type: add it to \
             for_each_comm_scalar! in comm/src/p2p.rs (which also generates the ScalarType \
             tables and their exhaustiveness test)",
            std::any::type_name::<T>()
        );
    }

    /// Wire width of one element in bytes — the same accounting as
    /// [`CommScalar::WIDTH`], generated from the same scalar list so the
    /// two can never diverge. The schedule verifier uses it to total the
    /// bytes a traced plan moves.
    pub fn width(self) -> usize {
        macro_rules! width_arm {
            ($t:ty, $v:ident, $c:expr, $b:expr) => {
                if let ScalarType::$v = self {
                    return <$t as CommScalar>::WIDTH;
                }
            };
        }
        for_each_comm_scalar!(width_arm);
        unreachable!("for_each_comm_scalar! covers every ScalarType variant")
    }
}

/// The integrity envelope riding on a message: a per-(link, tag) stream
/// sequence number and an end-to-end payload checksum, both assigned by
/// the sender *before* anything (fault injection, a real NIC) can touch
/// the payload. See [`crate::integrity`] for the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WireHeader {
    /// Position of this message in its `(src, dst, tag)` stream, from 0.
    pub seq: u64,
    /// FNV-1a over `(tag, seq, len, element bits)` of the pristine
    /// payload; see `integrity::checksum_payload`.
    pub checksum: u64,
}

/// A message in flight: tag, payload (a boxed `Vec<T>`), its modeled
/// wire size in bytes, and its virtual-time arrival stamp.
pub(crate) struct Envelope {
    pub tag: Tag,
    pub payload: Box<dyn Any + Send>,
    /// Modeled wire size; accounted on the send side (MPI convention),
    /// carried for debugging.
    #[allow(dead_code)]
    pub bytes: usize,
    /// Virtual time at which the message arrives at the receiver
    /// (sender clock at send + modeled link time); 0 when the world is
    /// not running under a virtual clock.
    pub arrival: f64,
    /// Integrity envelope (sequence number + checksum); `None` when the
    /// sender did not run the integrity layer.
    pub header: Option<WireHeader>,
}

/// Per-source stash of messages received ahead of a matching `recv`.
#[derive(Default)]
pub(crate) struct Stash {
    pending: VecDeque<Envelope>,
}

impl Stash {
    /// Remove and return the first stashed envelope with `tag`, if any.
    pub fn take(&mut self, tag: Tag) -> Option<Envelope> {
        let idx = self.pending.iter().position(|e| e.tag == tag)?;
        self.pending.remove(idx)
    }

    /// Stash an envelope that did not match the current receive.
    pub fn put(&mut self, env: Envelope) {
        self.pending.push_back(env);
    }

    /// Number of stashed messages (used by shutdown assertions in tests).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.pending.len()
    }
}

/// Two-sided message passing within a group of ranks.
///
/// Implemented by [`crate::WorldComm`] (the whole world) and
/// [`crate::SubComm`] (an `MPI_Comm_split`-style subgroup), and by
/// nothing else: integrity envelopes and fault injection are stages
/// inside the world's `send`/`recv`, not wrappers around it. All
/// collective operations ([`crate::Collectives`]) are provided
/// generically on top of this trait, so they work identically on worlds
/// and subgroups. Telemetry (traffic stats, busy time, straggler notes)
/// lives on [`crate::WorldComm`] itself.
pub trait Communicator {
    /// This rank's index within the communicator, in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the communicator.
    fn size(&self) -> usize;

    /// Send `data` to `dst` with `tag`. Never blocks.
    fn send<T: CommScalar>(&self, dst: usize, tag: Tag, data: Vec<T>);

    /// Blockingly receive a message from `src` carrying `tag`.
    ///
    /// # Panics
    /// Panics if the matching message's element type is not `T`; that is
    /// a protocol bug on the caller's side.
    fn recv<T: CommScalar>(&self, src: usize, tag: Tag) -> Vec<T>;

    /// Combined send + receive, deadlock-free because sends are eager.
    ///
    /// Sends `data` to `dst` and receives one message from `src`, both
    /// under `tag`. This is the workhorse of halo exchanges and the ring
    /// and recursive-doubling collectives.
    fn sendrecv<T: CommScalar>(&self, dst: usize, src: usize, tag: Tag, data: Vec<T>) -> Vec<T> {
        self.send(dst, tag, data);
        self.recv(src, tag)
    }

    /// Allocate a fresh tag in the reserved space for one collective call.
    ///
    /// All ranks of a communicator must invoke collectives in the same
    /// order (the usual MPI requirement), so per-rank counters agree.
    fn next_collective_tag(&self) -> Tag;

    /// Run `f` with sends attributed to `class` in the traffic stats:
    /// the world keeps the scope, sub-communicators delegate to their
    /// parent.
    fn with_class<R>(&self, class: OpClass, f: impl FnOnce() -> R) -> R;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_collective_salt_inverts_the_tag_layout() {
        for salt in [0, 1, (1 << 29) - 1] {
            for counter in [0, 1, 77, u64::from(u32::MAX)] {
                assert_eq!(sub_collective_salt(sub_collective_tag(salt, counter)), salt);
            }
        }
    }

    #[test]
    fn corruption_always_changes_the_value() {
        // The `| 1` in every corruption expression guarantees an
        // observable change even for mask 0.
        for mask in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_ne!(1.5f32.corrupt(mask).to_bits(), 1.5f32.to_bits());
            assert_ne!(2.5f64.corrupt(mask).to_bits(), 2.5f64.to_bits());
            assert_ne!(7u8.corrupt(mask), 7);
            assert_ne!(7u32.corrupt(mask), 7);
            assert_ne!(7u64.corrupt(mask), 7);
            assert_ne!((-7i32).corrupt(mask), -7);
            assert_ne!((-7i64).corrupt(mask), -7);
            assert_ne!(7usize.corrupt(mask), 7);
            assert_ne!((1usize, 2usize).corrupt(mask), (1, 2));
        }
    }

    #[test]
    fn corruption_is_deterministic() {
        assert_eq!(3.25f32.corrupt(42).to_bits(), 3.25f32.corrupt(42).to_bits());
        assert_eq!(99u64.corrupt(7), 99u64.corrupt(7));
    }

    #[test]
    fn checksum_bits_differ_after_corruption() {
        // The checksum feed must see every injected corruption: for each
        // scalar, corrupting changes `checksum_bits`.
        for mask in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_ne!(1.5f32.corrupt(mask).checksum_bits(), 1.5f32.checksum_bits());
            assert_ne!(2.5f64.corrupt(mask).checksum_bits(), 2.5f64.checksum_bits());
            assert_ne!(7u8.corrupt(mask).checksum_bits(), 7u8.checksum_bits());
            assert_ne!(7u32.corrupt(mask).checksum_bits(), 7u32.checksum_bits());
            assert_ne!(7u64.corrupt(mask).checksum_bits(), 7u64.checksum_bits());
            assert_ne!((-7i32).corrupt(mask).checksum_bits(), (-7i32).checksum_bits());
            assert_ne!((-7i64).corrupt(mask).checksum_bits(), (-7i64).checksum_bits());
            assert_ne!(7usize.corrupt(mask).checksum_bits(), 7usize.checksum_bits());
            assert_ne!((1usize, 2usize).corrupt(mask).checksum_bits(), (1, 2).checksum_bits());
        }
    }

    /// Generated from the same `for_each_comm_scalar!` list that
    /// generates the [`CommScalar`] impls. Adding a scalar through the
    /// macro extends this test automatically; adding a [`ScalarType`]
    /// variant without a macro entry breaks the `ALL`-count assertion,
    /// so the tables can never silently fall out of sync.
    #[test]
    fn every_comm_scalar_is_registered_as_a_wire_type() {
        let mut covered: Vec<ScalarType> = Vec::new();
        macro_rules! check_one {
            ($t:ty, $v:ident, $c:expr, $b:expr) => {
                assert_eq!(
                    ScalarType::of::<$t>(),
                    ScalarType::$v,
                    "ScalarType::of::<{}>() must map to {:?}",
                    std::any::type_name::<$t>(),
                    ScalarType::$v,
                );
                assert_eq!(ScalarType::$v.width(), <$t as CommScalar>::WIDTH);
                covered.push(ScalarType::$v);
            };
        }
        for_each_comm_scalar!(check_one);
        assert_eq!(
            covered.len(),
            ScalarType::ALL.len(),
            "for_each_comm_scalar! and ScalarType::ALL list different scalar counts: \
             extend both in lockstep (comm/src/p2p.rs)"
        );
        for ty in ScalarType::ALL {
            assert!(
                covered.contains(&ty),
                "{ty:?} is listed in ScalarType::ALL but has no for_each_comm_scalar! entry"
            );
        }
    }

    fn plain(tag: Tag, payload: Vec<f32>) -> Envelope {
        Envelope { tag, payload: Box::new(payload), bytes: 4, arrival: 0.0, header: None }
    }

    #[test]
    fn stash_matches_by_tag_in_fifo_order() {
        let mut s = Stash::default();
        s.put(plain(7, vec![1f32]));
        s.put(plain(9, vec![2f32]));
        s.put(plain(7, vec![3f32]));
        let first = s.take(7).expect("tag 7 present");
        assert_eq!(*first.payload.downcast::<Vec<f32>>().unwrap(), vec![1f32]);
        let nine = s.take(9).expect("tag 9 present");
        assert_eq!(*nine.payload.downcast::<Vec<f32>>().unwrap(), vec![2f32]);
        let second = s.take(7).expect("second tag 7 present");
        assert_eq!(*second.payload.downcast::<Vec<f32>>().unwrap(), vec![3f32]);
        assert!(s.take(7).is_none());
        assert_eq!(s.len(), 0);
    }
}
