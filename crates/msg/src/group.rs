//! Sub-communicators: MPI's `MPI_Comm_split`.
//!
//! NPB FT's transpose and HPL's panel broadcasts operate on rows and
//! columns of a process grid; a [`Group`] gives them the same collectives
//! as the world, over a subset of ranks, with an isolated tag namespace
//! (group id + per-group sequence number) so group and world collectives
//! cannot cross-talk even when different groups run different numbers of
//! operations.

use crate::comm::{Comm, Tag};
use crate::payload::Payload;

const GROUP_BIT: Tag = 1 << 60;

/// A sub-communicator over the ranks that passed the same `color`.
pub struct Group {
    /// Global ranks of the members, sorted ascending.
    members: Vec<usize>,
    /// This rank's index within `members`.
    index: usize,
    color: u16,
    seq: u64,
}

impl Group {
    /// Collective over the world: every rank passes a `color`; ranks with
    /// equal colors form a group, ordered by global rank.
    pub fn split(comm: &mut Comm, color: u16) -> Group {
        let colors = comm.allgather(color as u64);
        let members: Vec<usize> = colors
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == color as u64)
            .map(|(r, _)| r)
            .collect();
        let index = members
            .iter()
            .position(|&r| r == comm.rank())
            .expect("rank missing from its own group");
        Group {
            members,
            index,
            color,
            seq: 0,
        }
    }

    pub fn rank(&self) -> usize {
        self.index
    }

    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Global rank of group member `i`.
    pub fn global(&self, i: usize) -> usize {
        self.members[i]
    }

    fn tag(&mut self) -> Tag {
        self.seq += 1;
        GROUP_BIT | ((self.color as Tag) << 40) | (self.seq << 16)
    }

    /// Barrier over the group (dissemination).
    pub fn barrier(&mut self, comm: &mut Comm) {
        let tag = self.tag();
        let size = self.size();
        let mut k = 1usize;
        let mut round: Tag = 0;
        while k < size {
            let to = self.members[(self.index + k) % size];
            let from = self.members[(self.index + size - k) % size];
            comm.send(to, tag | round, ());
            let _ = comm.recv::<()>(Some(from), tag | round);
            k <<= 1;
            round += 1;
        }
    }

    /// Broadcast from group-rank `root`.
    pub fn bcast<T: Payload + Clone>(
        &mut self,
        comm: &mut Comm,
        root: usize,
        value: Option<T>,
    ) -> T {
        let tag = self.tag();
        let size = self.size();
        let vrank = (self.index + size - root) % size;
        let mut have: Option<T> = if vrank == 0 {
            Some(value.expect("group root must supply a value"))
        } else {
            None
        };
        if vrank != 0 {
            let lowbit = vrank & vrank.wrapping_neg();
            let parent = self.members[(vrank - lowbit + root) % size];
            let (_, v) = comm.recv::<T>(Some(parent), tag);
            have = Some(v);
        }
        let mut mask = 1usize;
        while mask < size {
            mask <<= 1;
        }
        let lowbit = if vrank == 0 {
            mask
        } else {
            vrank & vrank.wrapping_neg()
        };
        let mut bit = 1usize;
        while bit < lowbit && bit < size {
            let child = vrank + bit;
            if child < size {
                let dst = self.members[(child + root) % size];
                comm.send(dst, tag, have.clone().unwrap());
            }
            bit <<= 1;
        }
        have.unwrap()
    }

    /// Allreduce over the group (binomial reduce to member 0 + bcast).
    pub fn allreduce<T, F>(&mut self, comm: &mut Comm, value: T, op: F) -> T
    where
        T: Payload + Clone,
        F: Fn(&T, &T) -> T,
    {
        let tag = self.tag();
        let size = self.size();
        let vrank = self.index;
        let mut acc = Some(value);
        let mut bit = 1usize;
        while bit < size {
            if vrank & bit != 0 {
                let parent = self.members[vrank - bit];
                comm.send(parent, tag, acc.take().unwrap());
                break;
            }
            let child = vrank + bit;
            if child < size {
                let src = self.members[child];
                let (_, v) = comm.recv::<T>(Some(src), tag);
                acc = Some(op(acc.as_ref().unwrap(), &v));
            }
            bit <<= 1;
        }
        self.bcast(comm, 0, acc)
    }

    /// Personalized all-to-all within the group: `data[i]` goes to group
    /// member `i`; `result[j]` came from group member `j`.
    pub fn alltoallv<T>(&mut self, comm: &mut Comm, mut data: Vec<Vec<T>>) -> Vec<Vec<T>>
    where
        T: Send + 'static,
        Vec<T>: Payload,
    {
        let tag = self.tag();
        let size = self.size();
        assert_eq!(data.len(), size, "need one bucket per group member");
        let mut result: Vec<Option<Vec<T>>> = (0..size).map(|_| None).collect();
        result[self.index] = Some(std::mem::take(&mut data[self.index]));
        for k in 1..size {
            let dst = (self.index + k) % size;
            comm.send(self.members[dst], tag, std::mem::take(&mut data[dst]));
        }
        for _ in 1..size {
            let (src_global, v) = comm.recv::<Vec<T>>(None, tag);
            let src = self
                .members
                .iter()
                .position(|&r| r == src_global)
                .expect("message from non-member");
            assert!(result[src].is_none(), "duplicate from {src_global}");
            result[src] = Some(v);
        }
        result.into_iter().map(Option::unwrap).collect()
    }

    /// Allgather over the group (ring).
    pub fn allgather<T: Payload + Clone>(&mut self, comm: &mut Comm, value: T) -> Vec<T> {
        let tag = self.tag();
        let size = self.size();
        let mut slots: Vec<Option<T>> = (0..size).map(|_| None).collect();
        slots[self.index] = Some(value.clone());
        let right = self.members[(self.index + 1) % size];
        let left = self.members[(self.index + size - 1) % size];
        let mut carry = value;
        for step in 0..size.saturating_sub(1) {
            comm.send(right, tag, carry);
            let (_, v) = comm.recv::<T>(Some(left), tag);
            let origin = (self.index + size - 1 - step) % size;
            slots[origin] = Some(v.clone());
            carry = v;
        }
        slots.into_iter().map(Option::unwrap).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

    #[test]
    fn split_into_even_and_odd() {
        run(6, |c| {
            let color = (c.rank() % 2) as u16;
            let g = Group::split(c, color);
            assert_eq!(g.size(), 3);
            assert_eq!(g.rank(), c.rank() / 2);
            assert_eq!(g.global(g.rank()), c.rank());
        });
    }

    #[test]
    fn group_allreduce_is_local_to_the_group() {
        let out = run(6, |c| {
            let color = (c.rank() % 2) as u16;
            let mut g = Group::split(c, color);
            g.allreduce(c, c.rank() as u64, |a, b| a + b)
        });
        // Evens: 0+2+4 = 6; odds: 1+3+5 = 9.
        for (r, v) in out.iter().enumerate() {
            let expect = if r % 2 == 0 { 6 } else { 9 };
            assert_eq!(*v, expect, "rank {r}");
        }
    }

    #[test]
    fn group_bcast_from_each_member() {
        run(4, |c| {
            let color = (c.rank() / 2) as u16; // {0,1}, {2,3}
            let mut g = Group::split(c, color);
            for root in 0..g.size() {
                let v = if g.rank() == root {
                    Some((c.rank() * 100) as u64)
                } else {
                    None
                };
                let got = g.bcast(c, root, v);
                assert_eq!(got, (g.global(root) * 100) as u64);
            }
        });
    }

    #[test]
    fn group_alltoallv_transposes_within_groups() {
        run(4, |c| {
            let color = (c.rank() % 2) as u16;
            let mut g = Group::split(c, color);
            let data: Vec<Vec<u64>> = (0..g.size())
                .map(|d| vec![(c.rank() * 10 + d) as u64])
                .collect();
            let got = g.alltoallv(c, data);
            for (s, v) in got.iter().enumerate() {
                assert_eq!(v[0], (g.global(s) * 10 + g.rank()) as u64);
            }
        });
    }

    #[test]
    fn different_groups_can_do_different_numbers_of_collectives() {
        // Group 0 does 5 allreduces, group 1 does 2, then the world
        // barriers: tags must not collide.
        run(4, |c| {
            let color = (c.rank() % 2) as u16;
            let mut g = Group::split(c, color);
            let n = if color == 0 { 5 } else { 2 };
            for _ in 0..n {
                let _ = g.allreduce(c, 1u64, |a, b| a + b);
            }
            c.barrier();
            let total = c.allreduce(1u64, |a, b| a + b);
            assert_eq!(total, 4);
        });
    }

    #[test]
    fn group_allgather_collects_in_group_order() {
        let out = run(6, |c| {
            let color = (c.rank() % 3) as u16;
            let mut g = Group::split(c, color);
            g.allgather(c, c.rank() as u64)
        });
        // Group 0 = ranks {0, 3}, group 1 = {1, 4}, group 2 = {2, 5}.
        assert_eq!(out[0], vec![0, 3]);
        assert_eq!(out[4], vec![1, 4]);
    }

    #[test]
    fn singleton_group_works() {
        run(3, |c| {
            let mut g = Group::split(c, c.rank() as u16);
            assert_eq!(g.size(), 1);
            g.barrier(c);
            assert_eq!(g.allreduce(c, 7u64, |a, b| a + b), 7);
            assert_eq!(g.allgather(c, 1u32), vec![1]);
        });
    }
}
