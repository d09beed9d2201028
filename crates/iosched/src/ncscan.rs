//! N-step CSCAN — the fair scheduler of §5.3.
//!
//! The schedule for the sweep in progress is frozen: requests that arrive
//! while a sweep is being serviced are collected in a staging list and only
//! become eligible when the current sweep completes, at which point they are
//! sorted into the next sweep. "In effect, it is always planning the
//! schedule for the next scan" (Deitel, via the paper). The expected latency
//! of each request is bounded by the length of one sweep, which makes the
//! completion-time distribution of Figure 3 nearly flat — at roughly half
//! the elevator's aggregate throughput.

use std::collections::BTreeMap;

use diskmodel::Lba;

use crate::{IoScheduler, QueuedRequest};

/// N-step CSCAN: sweeps are planned a batch at a time.
#[derive(Debug, Default)]
pub struct NCscan {
    /// The frozen, currently-serviced sweep (ascending LBA).
    current: BTreeMap<(Lba, u64), QueuedRequest>,
    /// Arrivals staged for the next sweep.
    next: BTreeMap<(Lba, u64), QueuedRequest>,
}

impl NCscan {
    /// Creates an empty queue.
    pub fn new() -> Self {
        NCscan::default()
    }
}

impl IoScheduler for NCscan {
    fn enqueue(&mut self, qr: QueuedRequest) {
        self.next.insert((qr.req.lba, qr.seq), qr);
    }

    fn requeue(&mut self, qr: QueuedRequest) {
        // An error retry already waited out one sweep; admitting it to the
        // frozen sweep keeps retry latency bounded by a single pass instead
        // of compounding a full rotation of the queue per attempt.
        self.current.insert((qr.req.lba, qr.seq), qr);
    }

    fn dispatch(&mut self, _head: Lba) -> Option<QueuedRequest> {
        if self.current.is_empty() {
            std::mem::swap(&mut self.current, &mut self.next);
        }
        let key = self.current.keys().next().copied()?;
        self.current.remove(&key)
    }

    fn len(&self) -> usize {
        self.current.len() + self.next.len()
    }

    fn drain(&mut self) -> Vec<QueuedRequest> {
        let mut out: Vec<QueuedRequest> = self.current.values().copied().collect();
        out.extend(self.next.values().copied());
        self.current.clear();
        self.next.clear();
        out
    }

    fn name(&self) -> &'static str {
        "n-cscan"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qr;

    #[test]
    fn sweep_services_in_ascending_lba() {
        let mut s = NCscan::new();
        s.enqueue(qr(300, 0));
        s.enqueue(qr(100, 1));
        s.enqueue(qr(200, 2));
        let order: Vec<Lba> = std::iter::from_fn(|| s.dispatch(0).map(|q| q.req.lba)).collect();
        assert_eq!(order, vec![100, 200, 300]);
    }

    #[test]
    fn arrivals_do_not_join_current_sweep() {
        // The defining property: a sequential reader cannot cut the line.
        let mut s = NCscan::new();
        s.enqueue(qr(100, 0)); // process A
        s.enqueue(qr(9_000, 1)); // process B
                                 // Start the sweep.
        let first = s.dispatch(0).unwrap();
        assert_eq!(first.req.lba, 100);
        // A's follow-up arrives ahead of B in LBA terms...
        s.enqueue(qr(116, 2));
        // ...but B is served first because the sweep was frozen.
        assert_eq!(s.dispatch(first.req.end()).unwrap().req.lba, 9_000);
        assert_eq!(s.dispatch(0).unwrap().req.lba, 116);
    }

    #[test]
    fn every_waiter_served_once_per_sweep() {
        let mut s = NCscan::new();
        // 8 processes, one request each.
        for i in 0..8u64 {
            s.enqueue(qr(i * 1_000, i));
        }
        // Each dispatch triggers a sequential follow-up from that process.
        let mut served_first_sweep = Vec::new();
        for _ in 0..8 {
            let q = s.dispatch(0).unwrap();
            served_first_sweep.push(q.seq);
            s.enqueue(qr(q.req.end(), 100 + q.seq));
        }
        let mut sorted = served_first_sweep.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "all 8 in one sweep");
        // Second sweep serves all 8 follow-ups.
        let mut second = Vec::new();
        for _ in 0..8 {
            second.push(s.dispatch(0).unwrap().seq);
        }
        assert!(second.iter().all(|&x| x >= 100));
    }

    #[test]
    fn requeue_joins_current_sweep() {
        let mut s = NCscan::new();
        s.enqueue(qr(100, 0));
        s.enqueue(qr(9_000, 1));
        let first = s.dispatch(0).unwrap(); // Freeze the sweep.
        assert_eq!(first.req.lba, 100);
        // The dispatched request errors and comes back; unlike a fresh
        // arrival it goes ahead of the staged next sweep.
        s.enqueue(qr(200, 2)); // fresh arrival → next sweep
        s.requeue(qr(100, 3)); // retry → current sweep
        assert_eq!(s.dispatch(0).unwrap().seq, 3);
        assert_eq!(s.dispatch(0).unwrap().seq, 1);
        assert_eq!(s.dispatch(0).unwrap().seq, 2);
    }

    #[test]
    fn empty_dispatch_is_none() {
        let mut s = NCscan::new();
        assert!(s.dispatch(0).is_none());
    }

    #[test]
    fn len_counts_both_sweeps() {
        let mut s = NCscan::new();
        s.enqueue(qr(10, 0));
        let _ = s.dispatch(0);
        s.enqueue(qr(20, 1));
        s.enqueue(qr(30, 2));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn drain_returns_both_sweeps() {
        let mut s = NCscan::new();
        s.enqueue(qr(10, 0));
        s.enqueue(qr(20, 1));
        let _ = s.dispatch(0); // Freeze a sweep containing seq 1.
        s.enqueue(qr(30, 2));
        let drained = s.drain();
        assert_eq!(drained.len(), 2);
        assert!(s.is_empty());
    }
}
