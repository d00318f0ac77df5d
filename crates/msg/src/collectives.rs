//! Collective operations built on point-to-point messaging.
//!
//! Collectives use the algorithm families MPICH and LAM used on the Space
//! Simulator: logarithmic trees (binomial, dissemination, recursive
//! doubling) where the dependency chain matters, and direct exchanges
//! where overlapped small messages beat extra rounds (allgather,
//! alltoallv). Every rank must call collectives in the same order; a
//! per-`Comm` sequence number keeps consecutive collectives from
//! interfering.

use crate::comm::{Comm, Tag};
use crate::payload::Payload;

/// Top bit marks library-internal tags.
const COLL_BIT: Tag = 1 << 63;

impl Comm {
    /// A fresh tag for one collective invocation; `step` distinguishes
    /// rounds inside the collective.
    fn coll_tag(&mut self) -> Tag {
        self.coll_seq += 1;
        // Low 16 bits are left free for per-round sub-tags.
        COLL_BIT | (self.coll_seq << 16)
    }

    /// Synchronize all ranks (dissemination barrier, ⌈log₂ P⌉ rounds).
    pub fn barrier(&mut self) {
        self.with_span("coll.barrier", |c| c.barrier_inner())
    }

    fn barrier_inner(&mut self) {
        let tag = self.coll_tag();
        let (rank, size) = (self.rank(), self.size());
        let mut k = 1usize;
        let mut round: Tag = 0;
        while k < size {
            let to = (rank + k) % size;
            let from = (rank + size - k) % size;
            self.send(to, tag | round, ());
            let _ = self.recv::<()>(Some(from), tag | round);
            k <<= 1;
            round += 1;
        }
    }

    /// Broadcast `value` from `root` (binomial tree). Non-root ranks pass
    /// `None`; every rank returns the broadcast value.
    pub fn bcast<T: Payload + Clone>(&mut self, root: usize, value: Option<T>) -> T {
        self.with_span("coll.bcast", |c| c.bcast_inner(root, value))
    }

    fn bcast_inner<T: Payload + Clone>(&mut self, root: usize, value: Option<T>) -> T {
        let tag = self.coll_tag();
        let (rank, size) = (self.rank(), self.size());
        let vrank = (rank + size - root) % size; // root-relative rank
        let mut have: Option<T> = if vrank == 0 {
            Some(value.expect("root must supply a value to bcast"))
        } else {
            None
        };
        // Highest power of two <= size.
        let mut mask = 1usize;
        while mask < size {
            mask <<= 1;
        }
        mask >>= 1;
        // Receive phase: find the bit that brings the value to us.
        if vrank != 0 {
            let lowbit = vrank & vrank.wrapping_neg();
            let parent = (vrank - lowbit + root) % size;
            let (_, v) = self.recv::<T>(Some(parent), tag);
            have = Some(v);
        }
        // Send phase: forward to children.
        let lowbit = if vrank == 0 {
            mask << 1
        } else {
            vrank & vrank.wrapping_neg()
        };
        let mut bit = 1usize;
        while bit < lowbit && bit < size {
            let child = vrank + bit;
            if child < size {
                let dst = (child + root) % size;
                self.send(dst, tag, have.clone().unwrap());
            }
            bit <<= 1;
        }
        have.unwrap()
    }

    /// Reduce all ranks' `value`s to `root` with `op` (binomial tree).
    /// Returns `Some(result)` on the root, `None` elsewhere. `op` must be
    /// associative; it is applied in rank order within the tree.
    pub fn reduce<T, F>(&mut self, root: usize, value: T, op: F) -> Option<T>
    where
        T: Payload + Clone,
        F: Fn(&T, &T) -> T,
    {
        self.with_span("coll.reduce", |c| c.reduce_inner(root, value, op))
    }

    fn reduce_inner<T, F>(&mut self, root: usize, value: T, op: F) -> Option<T>
    where
        T: Payload + Clone,
        F: Fn(&T, &T) -> T,
    {
        let tag = self.coll_tag();
        let (rank, size) = (self.rank(), self.size());
        let vrank = (rank + size - root) % size;
        let mut acc = value;
        let mut bit = 1usize;
        while bit < size {
            if vrank & bit != 0 {
                // Send accumulated value to the partner and exit.
                let parent = (vrank - bit + root) % size;
                self.send(parent, tag, acc);
                return None;
            }
            let child = vrank + bit;
            if child < size {
                let src = (child + root) % size;
                let (_, v) = self.recv::<T>(Some(src), tag);
                acc = op(&acc, &v);
            }
            bit <<= 1;
        }
        Some(acc)
    }

    /// Reduce to rank 0 then broadcast: every rank gets the result.
    pub fn allreduce<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Payload + Clone,
        F: Fn(&T, &T) -> T,
    {
        self.with_span("coll.allreduce", |c| {
            let reduced = c.reduce(0, value, op);
            c.bcast(0, reduced)
        })
    }

    /// Gather every rank's value to `root`, in rank order.
    pub fn gather<T: Payload>(&mut self, root: usize, value: T) -> Option<Vec<T>> {
        self.with_span("coll.gather", |c| c.gather_inner(root, value))
    }

    fn gather_inner<T: Payload>(&mut self, root: usize, value: T) -> Option<Vec<T>> {
        let tag = self.coll_tag();
        let (rank, size) = (self.rank(), self.size());
        if rank != root {
            self.send(root, tag, value);
            return None;
        }
        let mut slots: Vec<Option<T>> = (0..size).map(|_| None).collect();
        slots[rank] = Some(value);
        for _ in 0..size - 1 {
            let (src, v) = self.recv::<T>(None, tag);
            assert!(slots[src].is_none(), "duplicate gather message from {src}");
            slots[src] = Some(v);
        }
        Some(slots.into_iter().map(Option::unwrap).collect())
    }

    /// Every rank gets every rank's value, in rank order (staggered direct
    /// exchange).
    ///
    /// For the small per-rank contributions a treecode exchanges (a few
    /// hundred bytes) the ring algorithm is a poor fit: its critical path
    /// is `P-1` *serialized* hops of one-way latency each, ~1.2 ms at
    /// P = 16 on the 79 µs gigabit fabric. Sends here are asynchronous, so
    /// posting all `P-1` copies up front and then receiving from each peer
    /// costs one latency plus `P-1` serialization/overhead terms — the
    /// round-trips all overlap. The wire message count per rank is the
    /// same as the ring's (`P-1` sends); only the dependency chain changes.
    /// Destinations are staggered (`rank+1, rank+2, …`) so no receiver's
    /// NIC sees all senders at the same instant.
    pub fn allgather<T: Payload + Clone>(&mut self, value: T) -> Vec<T> {
        self.with_span("coll.allgather", |c| c.allgather_inner(value))
    }

    fn allgather_inner<T: Payload + Clone>(&mut self, value: T) -> Vec<T> {
        let tag = self.coll_tag();
        let (rank, size) = (self.rank(), self.size());
        let mut slots: Vec<Option<T>> = (0..size).map(|_| None).collect();
        slots[rank] = Some(value.clone());
        for k in 1..size {
            let dst = (rank + k) % size;
            self.send(dst, tag, value.clone());
        }
        for k in 1..size {
            let src = (rank + k) % size;
            let (_, v) = self.recv::<T>(Some(src), tag);
            slots[src] = Some(v);
        }
        slots.into_iter().map(Option::unwrap).collect()
    }

    /// Personalized all-to-all: `data[d]` goes to rank `d`; returns the
    /// vector received from each rank (`result[s]` came from rank `s`).
    pub fn alltoallv<T>(&mut self, data: Vec<Vec<T>>) -> Vec<Vec<T>>
    where
        T: Send + 'static,
        Vec<T>: Payload,
    {
        self.with_span("coll.alltoallv", |c| c.alltoallv_inner(data))
    }

    fn alltoallv_inner<T>(&mut self, mut data: Vec<Vec<T>>) -> Vec<Vec<T>>
    where
        T: Send + 'static,
        Vec<T>: Payload,
    {
        let tag = self.coll_tag();
        let (rank, size) = (self.rank(), self.size());
        assert_eq!(data.len(), size, "alltoallv needs one bucket per rank");
        let mut result: Vec<Option<Vec<T>>> = (0..size).map(|_| None).collect();
        result[rank] = Some(std::mem::take(&mut data[rank]));
        // Staggered send order avoids every rank hammering rank 0 first.
        for k in 1..size {
            let dst = (rank + k) % size;
            self.send(dst, tag, std::mem::take(&mut data[dst]));
        }
        for _ in 1..size {
            let (src, v) = self.recv::<Vec<T>>(None, tag);
            assert!(result[src].is_none(), "duplicate alltoallv from {src}");
            result[src] = Some(v);
        }
        result.into_iter().map(Option::unwrap).collect()
    }

    /// Exclusive prefix "sum" with `op`: rank r returns
    /// `op(v₀, …, v_{r-1})`, and rank 0 returns `None`.
    pub fn exscan<T, F>(&mut self, value: T, op: F) -> Option<T>
    where
        T: Payload + Clone,
        F: Fn(&T, &T) -> T,
    {
        self.with_span("coll.exscan", |c| c.exscan_inner(value, op))
    }

    fn exscan_inner<T, F>(&mut self, value: T, op: F) -> Option<T>
    where
        T: Payload + Clone,
        F: Fn(&T, &T) -> T,
    {
        let tag = self.coll_tag();
        let (rank, size) = (self.rank(), self.size());
        // Hillis–Steele: after round d, `incl` holds the inclusive prefix
        // over the 2^(d+1) ranks ending at us.
        let mut incl = value;
        let mut excl: Option<T> = None;
        let mut d = 1usize;
        while d < size {
            if rank + d < size {
                self.send(rank + d, tag | (d as Tag), incl.clone());
            }
            if rank >= d {
                let (_, v) = self.recv::<T>(Some(rank - d), tag | (d as Tag));
                excl = Some(match &excl {
                    None => v.clone(),
                    Some(e) => op(&v, e),
                });
                incl = op(&v, &incl);
            }
            d <<= 1;
        }
        excl
    }
}

#[cfg(test)]
mod tests {
    use crate::run;

    #[test]
    fn barrier_completes_at_odd_sizes() {
        for size in [1usize, 2, 3, 5, 8, 13] {
            run(size, |c| {
                c.barrier();
                c.barrier();
            });
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for size in [1usize, 2, 3, 4, 7] {
            for root in 0..size {
                let got = run(size, |c| {
                    let v = if c.rank() == root { Some(99u64) } else { None };
                    c.bcast(root, v)
                });
                assert!(got.iter().all(|&v| v == 99), "size {size} root {root}");
            }
        }
    }

    #[test]
    fn reduce_sums_ranks() {
        for size in [1usize, 2, 5, 9] {
            let out = run(size, |c| c.reduce(0, c.rank() as u64, |a, b| a + b));
            let expect = (size * (size - 1) / 2) as u64;
            assert_eq!(out[0], Some(expect));
            for v in &out[1..] {
                assert_eq!(*v, None);
            }
        }
    }

    #[test]
    fn reduce_to_nonzero_root() {
        let out = run(6, |c| c.reduce(4, 1u64, |a, b| a + b));
        assert_eq!(out[4], Some(6));
    }

    #[test]
    fn allreduce_max_and_sum() {
        let out = run(7, |c| {
            let sum = c.allreduce(c.rank() as f64, |a, b| a + b);
            let max = c.allreduce(c.rank() as u64, |a, b| *a.max(b));
            (sum, max)
        });
        for (sum, max) in out {
            assert_eq!(sum, 21.0);
            assert_eq!(max, 6);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = run(5, |c| c.gather(2, (c.rank() * 10) as u64));
        assert_eq!(out[2], Some(vec![0, 10, 20, 30, 40]));
        assert_eq!(out[0], None);
    }

    #[test]
    fn allgather_everywhere() {
        for size in [1usize, 2, 3, 6] {
            let out = run(size, |c| c.allgather(c.rank() as u64));
            let expect: Vec<u64> = (0..size as u64).collect();
            for v in out {
                assert_eq!(v, expect);
            }
        }
    }

    #[test]
    fn alltoallv_transposes() {
        let size = 4;
        let out = run(size, |c| {
            // data[d] = [rank*10 + d]
            let data: Vec<Vec<u64>> = (0..size)
                .map(|d| vec![(c.rank() * 10 + d) as u64])
                .collect();
            c.alltoallv(data)
        });
        for (r, received) in out.iter().enumerate() {
            for (s, v) in received.iter().enumerate() {
                assert_eq!(v, &vec![(s * 10 + r) as u64]);
            }
        }
    }

    #[test]
    fn alltoallv_with_empty_buckets() {
        let out = run(3, |c| {
            let mut data: Vec<Vec<u64>> = vec![Vec::new(); 3];
            if c.rank() == 0 {
                data[2] = vec![1, 2, 3];
            }
            c.alltoallv(data)
        });
        assert_eq!(out[2][0], vec![1, 2, 3]);
        assert!(out[1].iter().all(Vec::is_empty));
    }

    #[test]
    fn exscan_prefix_sums() {
        for size in [1usize, 2, 3, 8, 11] {
            let out = run(size, |c| c.exscan((c.rank() + 1) as u64, |a, b| a + b));
            assert_eq!(out[0], None);
            for (r, v) in out.iter().enumerate().skip(1) {
                let expect: u64 = (1..=r as u64).sum();
                assert_eq!(*v, Some(expect), "rank {r}");
            }
        }
    }

    #[test]
    fn collectives_compose_without_crosstalk() {
        let out = run(4, |c| {
            let a = c.allreduce(1u64, |x, y| x + y);
            c.barrier();
            let b = c.allgather(a);

            c.bcast(3, Some(b.len() as u64))
        });
        assert!(out.iter().all(|&v| v == 4));
    }

    #[test]
    fn barrier_synchronizes_virtual_clocks() {
        let times = run(4, |c| {
            if c.rank() == 0 {
                c.compute(10.0e9, 0.0); // rank 0 is slow
            }
            c.barrier();
            c.time()
        });
        let t0 = times[0];
        for t in &times {
            // After a barrier everyone's clock is at least rank 0's
            // pre-barrier time.
            assert!(*t >= t0 * 0.9, "{times:?}");
        }
    }
}

#[cfg(test)]
mod reference_tests {
    //! Exhaustive cross-checks of every collective against a naive
    //! single-process reference, over world sizes 1..=17 — past both
    //! power-of-two boundaries (8, 16) where the binomial / dissemination
    //! algorithms change shape — and over *every* root.

    use crate::run;

    /// The value rank `r` contributes — distinct per rank so ordering
    /// bugs cannot cancel.
    fn contrib(r: usize) -> u64 {
        (r as u64 + 1) * 0x1_0001
    }

    /// Concatenation is associative but *not* commutative, so it pins the
    /// order a reduction applies `op` in: vrank order (root, root+1, …,
    /// wrapping), the order the binomial tree folds its subtrees.
    #[allow(clippy::ptr_arg)]
    fn concat(a: &Vec<u64>, b: &Vec<u64>) -> Vec<u64> {
        let mut out = a.clone();
        out.extend_from_slice(b);
        out
    }

    fn vrank_order(size: usize, root: usize) -> Vec<u64> {
        (0..size).map(|v| contrib((root + v) % size)).collect()
    }

    #[test]
    fn bcast_exhaustive_sizes_and_roots() {
        for size in 1..=17usize {
            for root in 0..size {
                let got = run(size, move |c| {
                    let v = (c.rank() == root).then(|| contrib(root));
                    c.bcast(root, v)
                });
                assert!(
                    got.iter().all(|&v| v == contrib(root)),
                    "size {size} root {root}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn reduce_applies_op_in_vrank_order() {
        for size in 1..=17usize {
            for root in 0..size {
                let out = run(size, move |c| {
                    c.reduce(root, vec![contrib(c.rank())], concat)
                });
                for (r, v) in out.iter().enumerate() {
                    if r == root {
                        assert_eq!(
                            v.as_ref(),
                            Some(&vrank_order(size, root)),
                            "size {size} root {root}"
                        );
                    } else {
                        assert!(v.is_none(), "size {size}: non-root {r} returned Some");
                    }
                }
            }
        }
    }

    #[test]
    fn gather_exhaustive_sizes_and_roots() {
        for size in 1..=17usize {
            for root in 0..size {
                let out = run(size, move |c| c.gather(root, contrib(c.rank())));
                let expect: Vec<u64> = (0..size).map(contrib).collect();
                for (r, v) in out.iter().enumerate() {
                    if r == root {
                        assert_eq!(v.as_ref(), Some(&expect), "size {size} root {root}");
                    } else {
                        assert!(v.is_none(), "size {size}: non-root {r} returned Some");
                    }
                }
            }
        }
    }

    #[test]
    fn allgather_and_allreduce_all_sizes() {
        for size in 1..=17usize {
            let out = run(size, move |c| {
                let g = c.allgather(contrib(c.rank()));
                // Reduce-to-0 + bcast: vrank order at root 0 IS rank order.
                let a = c.allreduce(vec![contrib(c.rank())], concat);
                (g, a)
            });
            let expect: Vec<u64> = (0..size).map(contrib).collect();
            for (g, a) in out {
                assert_eq!(g, expect, "allgather size {size}");
                assert_eq!(a, expect, "allreduce size {size}");
            }
        }
    }

    #[test]
    fn exscan_all_sizes_vs_prefix_reference() {
        for size in 1..=17usize {
            let out = run(size, move |c| c.exscan(vec![contrib(c.rank())], concat));
            assert_eq!(out[0], None, "size {size}");
            for (r, v) in out.iter().enumerate().skip(1) {
                let expect: Vec<u64> = (0..r).map(contrib).collect();
                assert_eq!(v.as_ref(), Some(&expect), "size {size} rank {r}");
            }
        }
    }

    #[test]
    fn alltoallv_all_sizes_vs_transpose_reference() {
        for size in 1..=17usize {
            let out = run(size, move |c| {
                // Ragged buckets: rank r sends r % 3 elements to each peer.
                let data: Vec<Vec<u64>> = (0..size)
                    .map(|d| {
                        (0..c.rank() % 3)
                            .map(|i| (c.rank() * 100 + d * 10 + i) as u64)
                            .collect()
                    })
                    .collect();
                c.alltoallv(data)
            });
            for (r, received) in out.iter().enumerate() {
                for (s, v) in received.iter().enumerate() {
                    let expect: Vec<u64> =
                        (0..s % 3).map(|i| (s * 100 + r * 10 + i) as u64).collect();
                    assert_eq!(v, &expect, "size {size} receiver {r} sender {s}");
                }
            }
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use crate::run;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prop_allreduce_sum_any_world_size(size in 1usize..10, offset in 0u64..100) {
            let out = run(size, move |c| {
                c.allreduce(c.rank() as u64 + offset, |a, b| a + b)
            });
            let expect: u64 = (0..size as u64).map(|r| r + offset).sum();
            for v in out {
                prop_assert_eq!(v, expect);
            }
        }

        #[test]
        fn prop_allgather_and_alltoallv_consistent(size in 1usize..8) {
            let out = run(size, move |c| {
                let gathered = c.allgather(c.rank() as u64);
                let data: Vec<Vec<u64>> = (0..c.size())
                    .map(|d| vec![(c.rank() + d) as u64])
                    .collect();
                let exchanged = c.alltoallv(data);
                (gathered, exchanged)
            });
            for (r, (gathered, exchanged)) in out.iter().enumerate() {
                let expect: Vec<u64> = (0..size as u64).collect();
                prop_assert_eq!(gathered, &expect);
                for (s, v) in exchanged.iter().enumerate() {
                    prop_assert_eq!(v[0], (s + r) as u64);
                }
            }
        }

        #[test]
        fn prop_reduce_concat_matches_vrank_reference(
            size in 1usize..=17,
            root_pick in 0usize..17,
            salt in 0u64..1000,
        ) {
            let root = root_pick % size;
            let out = run(size, move |c| {
                c.reduce(root, vec![c.rank() as u64 ^ salt], |a, b| {
                    let mut o = a.clone();
                    o.extend_from_slice(b);
                    o
                })
            });
            let expect: Vec<u64> = (0..size)
                .map(|v| ((root + v) % size) as u64 ^ salt)
                .collect();
            for (r, v) in out.into_iter().enumerate() {
                if r == root {
                    prop_assert_eq!(v, Some(expect.clone()));
                } else {
                    prop_assert_eq!(v, None);
                }
            }
        }

        #[test]
        fn prop_exscan_matches_prefix(size in 1usize..10) {
            let out = run(size, |c| c.exscan(c.rank() as u64 * 2 + 1, |a, b| a + b));
            prop_assert_eq!(out[0], None);
            for (r, v) in out.iter().enumerate().skip(1) {
                let expect: u64 = (0..r as u64).map(|x| x * 2 + 1).sum();
                prop_assert_eq!(*v, Some(expect));
            }
        }
    }
}
