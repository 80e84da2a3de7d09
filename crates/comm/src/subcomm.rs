//! `MPI_Comm_split`-style sub-communicators.
//!
//! The distributed convolution algorithms constantly operate on rank
//! subgroups: the spatial group that shares one sample (halo exchanges),
//! the sample group that shares a filter shard (gradient allreduce across
//! `P(p)(D(C), D(F))`, paper §V-A), or channel groups. [`SubComm`] carries
//! an ordered list of parent ranks and translates group-local ranks to
//! parent ranks, so every [`crate::Collectives`] algorithm runs unchanged
//! inside the group.

use std::borrow::Cow;
use std::cell::Cell;

use crate::error::CommError;
use crate::p2p::{sub_collective_tag, CommScalar, Communicator, Tag};
use crate::stats::OpClass;
use crate::Collectives;

/// The pure-geometry half of a [`SubComm`]: the ordered member list, the
/// tag salt, and this rank's position — with no parent communicator
/// borrowed.
///
/// Compiled communication plans cache layouts and [`SubCommLayout::bind`]
/// them to a live communicator on every step; binding is O(1) and
/// allocation-free, whereas [`SubComm::new`] re-validates and re-searches
/// the member list on each call. A freshly bound group starts its
/// collective-tag counter at zero, exactly like a freshly constructed
/// `SubComm`, so bound groups are drop-in bitwise-identical replacements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubCommLayout {
    /// Parent ranks of the members, indexed by group rank.
    members: Vec<usize>,
    /// Tag salt; see [`SubComm::new`].
    group_id: u64,
    /// Position of the owning rank within `members`.
    my_index: usize,
}

impl SubCommLayout {
    /// Plan a group layout for rank `me` (a parent rank that must appear
    /// in `members`). Pure geometry: no communication, no parent borrow.
    pub fn new(members: Vec<usize>, group_id: u64, me: usize) -> Result<Self, CommError> {
        if members.is_empty() {
            return Err(CommError::EmptyWorld);
        }
        let my_index =
            members.iter().position(|&m| m == me).ok_or(CommError::InvalidGroup { rank: me })?;
        Ok(SubCommLayout { members, group_id, my_index })
    }

    /// The ordered member list (parent ranks).
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The tag salt binding will use — the schedule verifier simulates
    /// collective tags from it ([`crate::trace::TraceRecorder`]).
    pub fn group_id(&self) -> u64 {
        self.group_id
    }

    /// Bind the layout to a live parent communicator for one use.
    ///
    /// # Panics
    /// Debug-asserts that `parent.rank()` is the rank the layout was
    /// planned for and that all members fit in the parent world.
    pub fn bind<'a, C: Communicator>(&'a self, parent: &'a C) -> SubComm<'a, C> {
        debug_assert_eq!(
            self.members[self.my_index],
            parent.rank(),
            "sub-communicator layout bound on a rank it was not planned for"
        );
        debug_assert!(self.members.iter().all(|&m| m < parent.size()));
        SubComm {
            parent,
            members: Cow::Borrowed(&self.members),
            my_index: self.my_index,
            tag_salt: self.group_id,
            counter: Cell::new(0),
        }
    }
}

/// A communicator over an ordered subset of a parent communicator's ranks.
pub struct SubComm<'a, C: Communicator> {
    parent: &'a C,
    /// Parent ranks of the members, indexed by group rank. Owned when the
    /// group is built ad hoc, borrowed when bound from a cached
    /// [`SubCommLayout`].
    members: Cow<'a, [usize]>,
    /// This rank's position within `members`.
    my_index: usize,
    /// Distinguishes tags of different sub-communicators built over the
    /// same parent, so concurrent collectives in sibling groups never
    /// cross-match.
    tag_salt: u64,
    counter: Cell<u64>,
}

impl<'a, C: Communicator> SubComm<'a, C> {
    /// Build a sub-communicator from an explicit, ordered member list.
    ///
    /// Every member must call this **collectively in the same program
    /// order** with an identical `members` list containing its own parent
    /// rank. Ranks not in `members` must not call it (they get no handle).
    ///
    /// The `group_id` must be identical across members and unique among
    /// sub-communicators that are in flight simultaneously; the
    /// deterministic layouts used by `fg-tensor` derive it from the group's
    /// position in the process grid.
    pub fn new(parent: &'a C, members: Vec<usize>, group_id: u64) -> Result<Self, CommError> {
        if members.is_empty() {
            return Err(CommError::EmptyWorld);
        }
        for &m in &members {
            if m >= parent.size() {
                return Err(CommError::RankOutOfRange { rank: m, size: parent.size() });
            }
        }
        let my_index = members
            .iter()
            .position(|&m| m == parent.rank())
            .ok_or(CommError::InvalidGroup { rank: parent.rank() })?;
        Ok(SubComm {
            parent,
            members: Cow::Owned(members),
            my_index,
            tag_salt: group_id,
            counter: Cell::new(0),
        })
    }

    /// Split the parent by `(color, key)`, like `MPI_Comm_split`: ranks
    /// with equal `color` form a group, ordered by `(key, parent rank)`.
    /// Collective over the parent.
    pub fn split(parent: &'a C, color: u64, key: u64) -> Self {
        let triples = parent.allgatherv(vec![color, key, parent.rank() as u64]);
        let mut mine: Vec<(u64, u64)> = Vec::new();
        for t in &triples {
            if t[0] == color {
                mine.push((t[1], t[2]));
            }
        }
        mine.sort_unstable();
        let members: Vec<usize> = mine.iter().map(|&(_, r)| r as usize).collect();
        // Color is agreed by all members, so it doubles as the tag salt.
        SubComm::new(parent, members, color).expect("split produced a valid group")
    }

    /// The ordered member list (parent ranks).
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Borrow the parent communicator.
    pub fn parent(&self) -> &C {
        self.parent
    }
}

impl<C: Communicator> Communicator for SubComm<'_, C> {
    fn rank(&self) -> usize {
        self.my_index
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    fn send<T: CommScalar>(&self, dst: usize, tag: Tag, data: Vec<T>) {
        self.parent.send(self.members[dst], tag, data);
    }

    fn recv<T: CommScalar>(&self, src: usize, tag: Tag) -> Vec<T> {
        self.parent.recv(self.members[src], tag)
    }

    fn next_collective_tag(&self) -> Tag {
        let c = self.counter.get();
        self.counter.set(c + 1);
        // Disjoint from both user tags and the parent's collective tags:
        // bit 61 marks subgroup traffic, the salt separates sibling groups.
        sub_collective_tag(self.tag_salt, c)
    }

    fn with_class<R>(&self, class: OpClass, f: impl FnOnce() -> R) -> R {
        self.parent.with_class(class, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::ReduceOp;
    use crate::runtime::run_ranks;

    #[test]
    fn new_rejects_bad_groups() {
        run_ranks(2, |comm| {
            assert_eq!(SubComm::new(comm, vec![], 0).err(), Some(CommError::EmptyWorld));
            assert_eq!(
                SubComm::new(comm, vec![0, 5], 0).err(),
                Some(CommError::RankOutOfRange { rank: 5, size: 2 })
            );
            if comm.rank() == 0 {
                assert_eq!(
                    SubComm::new(comm, vec![1], 0).err(),
                    Some(CommError::InvalidGroup { rank: 0 })
                );
            }
        });
    }

    #[test]
    fn split_groups_by_color_and_orders_by_key() {
        let out = run_ranks(6, |comm| {
            // Colors: {0,2,4} and {1,3,5}; key reverses order within group.
            let color = (comm.rank() % 2) as u64;
            let key = (10 - comm.rank()) as u64;
            let sub = SubComm::split(comm, color, key);
            (sub.members().to_vec(), sub.rank())
        });
        assert_eq!(out[0].0, vec![4, 2, 0]);
        assert_eq!(out[0].1, 2);
        assert_eq!(out[4].1, 0);
        assert_eq!(out[1].0, vec![5, 3, 1]);
    }

    #[test]
    fn collectives_work_within_groups() {
        let out = run_ranks(8, |comm| {
            // Two groups of four; sum ranks within each.
            let color = (comm.rank() / 4) as u64;
            let sub = SubComm::split(comm, color, comm.rank() as u64);
            sub.allreduce(&[comm.rank() as f64], ReduceOp::Sum)[0]
        });
        assert_eq!(&out[..4], &[6.0; 4]);
        assert_eq!(&out[4..], &[22.0; 4]);
    }

    #[test]
    fn sibling_groups_do_not_cross_talk() {
        // Different collectives run concurrently in sibling groups with
        // overlapping message schedules; salts keep tags distinct.
        let out = run_ranks(4, |comm| {
            let color = (comm.rank() % 2) as u64;
            let sub = SubComm::split(comm, color, 0);
            let a = sub.allreduce(&[1.0f32], ReduceOp::Sum)[0];
            let b = sub.allreduce(&[comm.rank() as f32], ReduceOp::Max)[0];
            (a, b)
        });
        assert_eq!(out[0], (2.0, 2.0));
        assert_eq!(out[1], (2.0, 3.0));
        assert_eq!(out[2], (2.0, 2.0));
        assert_eq!(out[3], (2.0, 3.0));
    }

    #[test]
    fn nested_subcomms() {
        let out = run_ranks(8, |comm| {
            let half = SubComm::split(comm, (comm.rank() / 4) as u64, comm.rank() as u64);
            let quarter = SubComm::split(&half, (half.rank() / 2) as u64, half.rank() as u64);
            quarter.allreduce(&[comm.rank() as u64], ReduceOp::Sum)[0]
        });
        assert_eq!(out, vec![1, 1, 5, 5, 9, 9, 13, 13]);
    }

    #[test]
    fn bound_layout_matches_fresh_subcomm() {
        // A cached layout bound each "step" must behave exactly like a
        // SubComm constructed from scratch each step.
        let out = run_ranks(4, |comm| {
            let members: Vec<usize> = if comm.rank() % 2 == 0 { vec![0, 2] } else { vec![1, 3] };
            let layout =
                SubCommLayout::new(members.clone(), (comm.rank() % 2) as u64, comm.rank()).unwrap();
            let mut bound_sums = Vec::new();
            let mut fresh_sums = Vec::new();
            for step in 0..3 {
                let sub = layout.bind(comm);
                bound_sums.push(sub.allreduce(&[(comm.rank() + step) as f64], ReduceOp::Sum)[0]);
                let fresh = SubComm::new(comm, members.clone(), (comm.rank() % 2) as u64).unwrap();
                fresh_sums.push(fresh.allreduce(&[(comm.rank() + step) as f64], ReduceOp::Sum)[0]);
            }
            (bound_sums, fresh_sums)
        });
        for (bound, fresh) in &out {
            assert_eq!(bound, fresh);
        }
    }

    #[test]
    fn layout_rejects_nonmember_rank() {
        assert_eq!(
            SubCommLayout::new(vec![0, 2], 0, 1).err(),
            Some(CommError::InvalidGroup { rank: 1 })
        );
        assert_eq!(SubCommLayout::new(vec![], 0, 0).err(), Some(CommError::EmptyWorld));
    }

    #[test]
    fn p2p_rank_translation() {
        let out = run_ranks(4, |comm| {
            // Group of the two odd ranks: {1, 3}.
            if comm.rank() % 2 == 1 {
                let sub = SubComm::new(comm, vec![1, 3], 7).unwrap();
                if sub.rank() == 0 {
                    sub.send(1, 5, vec![99u32]);
                    0
                } else {
                    sub.recv::<u32>(0, 5)[0]
                }
            } else {
                0
            }
        });
        assert_eq!(out[3], 99);
    }
}
