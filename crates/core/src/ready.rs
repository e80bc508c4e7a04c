//! Buffer-level admission queues and the ready set that picks among
//! them.
//!
//! Every session owns a FIFO of buffer indices not yet admitted into
//! the shared pipeline. The *ready set* holds, in index order, exactly
//! the sessions whose FIFO is non-empty, so a pick walks only sessions
//! with work instead of scanning all `n` queues: round-robin and
//! session order are one `BTreeSet` range lookup (O(log n)), and an
//! idle pump returns without touching any queue. Every
//! [`AdmissionPolicy`] picks exactly the session the cyclic scan over
//! `0..n` would pick; the tests below hold the scan as the reference.

use std::collections::{BTreeSet, VecDeque};

use crate::engine::AdmissionPolicy;

/// Per-session buffer queues plus the fairness state of the policy.
pub(crate) struct ReadyQueues {
    /// Per-session queue of buffer indices not yet admitted.
    queues: Vec<VecDeque<usize>>,
    /// The sessions whose queue is non-empty.
    ready: BTreeSet<usize>,
    weights: Vec<u32>,
    /// Remaining `Weighted` quantum per session.
    credits: Vec<u32>,
    /// Where the cyclic search for the next session starts.
    cursor: usize,
    policy: AdmissionPolicy,
}

impl ReadyQueues {
    /// Empty queues for sessions of the given weights.
    pub(crate) fn new(weights: Vec<u32>, policy: AdmissionPolicy) -> Self {
        ReadyQueues {
            queues: vec![VecDeque::new(); weights.len()],
            ready: BTreeSet::new(),
            credits: weights.iter().map(|&w| w.max(1)).collect(),
            weights,
            cursor: 0,
            policy,
        }
    }

    /// Makes buffers `0..nbuf` of session `sid` schedulable, replacing
    /// whatever the session still had queued.
    pub(crate) fn enqueue(&mut self, sid: usize, nbuf: usize) {
        self.queues[sid] = (0..nbuf).collect();
        if nbuf > 0 {
            self.ready.insert(sid);
        } else {
            self.ready.remove(&sid);
        }
    }

    /// Takes the next `(session, buffer)` to admit under the policy, or
    /// `None` when no session has a queued buffer.
    pub(crate) fn pop(&mut self) -> Option<(usize, usize)> {
        let sid = self.choose()?;
        let queue = &mut self.queues[sid];
        // `choose` only returns ready sessions, whose queues are non-empty.
        let bidx = queue.pop_front()?;
        if queue.is_empty() {
            self.ready.remove(&sid);
        }
        Some((sid, bidx))
    }

    /// The ready sessions in cyclic order starting at `cursor`.
    fn cyclic(&self) -> impl Iterator<Item = usize> + '_ {
        self.ready
            .range(self.cursor..)
            .chain(self.ready.range(..self.cursor))
            .copied()
    }

    /// Picks the session to admit from and updates the fairness state.
    fn choose(&mut self) -> Option<usize> {
        let n = self.queues.len();
        match self.policy {
            AdmissionPolicy::SessionOrder => self.ready.first().copied(),
            AdmissionPolicy::RoundRobin => {
                let found = self.cyclic().next()?;
                self.cursor = (found + 1) % n;
                Some(found)
            }
            AdmissionPolicy::Weighted => {
                let mut found = self.cyclic().find(|&s| self.credits[s] > 0);
                if found.is_none() {
                    // Quantum exhausted everywhere: refill pending
                    // sessions for the next round.
                    for &s in &self.ready {
                        self.credits[s] = self.weights[s].max(1);
                    }
                    found = self.cyclic().next();
                }
                let s = found?;
                self.credits[s] -= 1;
                if self.credits[s] == 0 {
                    self.cursor = (s + 1) % n;
                }
                Some(s)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The cyclic scan over every queue that [`ReadyQueues::choose`]
    /// replaces: the reference its picks must equal.
    fn choose_by_scan(q: &mut ReadyQueues) -> Option<usize> {
        let n = q.queues.len();
        match q.policy {
            AdmissionPolicy::SessionOrder => (0..n).find(|&s| !q.queues[s].is_empty()),
            AdmissionPolicy::RoundRobin => {
                let found = (0..n)
                    .map(|k| (q.cursor + k) % n)
                    .find(|&s| !q.queues[s].is_empty());
                if let Some(s) = found {
                    q.cursor = (s + 1) % n;
                }
                found
            }
            AdmissionPolicy::Weighted => {
                let mut found = None;
                for pass in 0..2 {
                    found = (0..n)
                        .map(|k| (q.cursor + k) % n)
                        .find(|&s| !q.queues[s].is_empty() && q.credits[s] > 0);
                    if found.is_some() || pass == 1 {
                        break;
                    }
                    for s in 0..n {
                        if !q.queues[s].is_empty() {
                            q.credits[s] = q.weights[s].max(1);
                        }
                    }
                }
                if let Some(s) = found {
                    q.credits[s] -= 1;
                    if q.credits[s] == 0 {
                        q.cursor = (s + 1) % n;
                    }
                }
                found
            }
        }
    }

    fn pop_by_scan(q: &mut ReadyQueues) -> Option<(usize, usize)> {
        let sid = choose_by_scan(q)?;
        Some((sid, q.queues[sid].pop_front()?))
    }

    const POLICIES: [AdmissionPolicy; 3] = [
        AdmissionPolicy::RoundRobin,
        AdmissionPolicy::Weighted,
        AdmissionPolicy::SessionOrder,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn ready_set_picks_equal_the_cyclic_scan(
            policy in 0usize..3,
            weights in proptest::collection::vec(0u32..4, 1..12),
            ops in proptest::collection::vec(any::<u64>(), 0..160),
        ) {
            let policy = POLICIES[policy];
            let n = weights.len();
            let mut fast = ReadyQueues::new(weights.clone(), policy);
            let mut scan = ReadyQueues::new(weights, policy);
            // One op in three enqueues 0..=4 buffers (0 empties the
            // session); the rest pop.
            for op in ops {
                if op % 3 == 0 {
                    let (sid, nbuf) = ((op >> 8) as usize % n, (op >> 16) as usize % 5);
                    fast.enqueue(sid, nbuf);
                    scan.enqueue(sid, nbuf);
                } else {
                    prop_assert_eq!(fast.pop(), pop_by_scan(&mut scan));
                }
                prop_assert_eq!(fast.cursor, scan.cursor);
                prop_assert_eq!(&fast.credits, &scan.credits);
                prop_assert_eq!(&fast.queues, &scan.queues);
                let ready: Vec<usize> = (0..scan.queues.len())
                    .filter(|&s| !scan.queues[s].is_empty())
                    .collect();
                prop_assert_eq!(fast.ready.iter().copied().collect::<Vec<_>>(), ready);
            }
        }
    }
}
