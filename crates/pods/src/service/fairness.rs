//! Per-client fair scheduling: client identities, weights, and the
//! deficit-round-robin admission queue.
//!
//! Jobs are queued in per-client lanes. The dispatcher drains lanes in
//! round-robin order, serving up to `weight` jobs from a lane per visit
//! (deficit round robin with a credit of one job per weight unit), so a
//! burst from one client cannot starve the others and weights express
//! proportional priorities: a weight-2 client gets ~2x the dispatch rate of
//! a weight-1 client whenever both have jobs waiting.

use super::queue::QueuedJob;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Identifies the submitting client of a job, for per-client fair
/// scheduling on a shared [`crate::Runtime`].
///
/// Client ids are caller-assigned opaque numbers: tag submissions with
/// `Runtime::submit_for` or `Runtime::submit_within` and configure
/// per-client weights with `RuntimeBuilder::client_weight`. Submissions
/// through the plain `Runtime::submit` are attributed to
/// [`ClientId::ANONYMOUS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u64);

impl ClientId {
    /// The client that jobs submitted without an explicit id are
    /// attributed to.
    pub const ANONYMOUS: ClientId = ClientId(0);
}

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client{}", self.0)
    }
}

/// One client's backlog of admitted-but-not-yet-dispatched jobs.
struct Lane {
    client: ClientId,
    jobs: VecDeque<QueuedJob>,
}

/// The admission queue: per-client lanes drained deficit-round-robin.
///
/// Lanes are created on first push from a client and removed when drained,
/// so an idle client costs nothing. The cursor/credit pair persists across
/// `pop` calls: the dispatcher may drain one job at a time and still serve
/// clients in weighted proportion.
pub(crate) struct FairQueue {
    lanes: Vec<Lane>,
    /// Emptied job buffers of drained lanes, for the next lanes created. A
    /// buffer keeps the capacity its lane grew to, so a lane as deep as an
    /// earlier one allocates nothing; there are never more than the most
    /// lanes ever live at once.
    spare: Vec<VecDeque<QueuedJob>>,
    /// Configured jobs-per-visit weights; absent clients weigh 1.
    weights: HashMap<ClientId, u32>,
    /// Lane index currently being served.
    cursor: usize,
    /// Jobs the cursor lane may still dispatch in this visit.
    credit: u32,
    /// Total queued jobs across all lanes.
    len: usize,
}

impl FairQueue {
    pub(crate) fn new(weights: HashMap<ClientId, u32>) -> FairQueue {
        FairQueue {
            lanes: Vec::new(),
            spare: Vec::new(),
            weights,
            cursor: 0,
            credit: 0,
            len: 0,
        }
    }

    fn weight_of(&self, client: ClientId) -> u32 {
        self.weights.get(&client).copied().unwrap_or(1).max(1)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a job to its client's lane (created on demand at the end of
    /// the round-robin order, on a spare buffer when there is one).
    pub(crate) fn push(&mut self, job: QueuedJob) {
        let client = job.ticket.client;
        match self.lanes.iter_mut().find(|l| l.client == client) {
            Some(lane) => lane.jobs.push_back(job),
            None => {
                let mut jobs = self.spare.pop().unwrap_or_default();
                jobs.push_back(job);
                self.lanes.push(Lane { client, jobs });
            }
        }
        self.len += 1;
    }

    /// Removes the drained lane under the cursor, keeping its buffer.
    fn retire_cursor_lane(&mut self) {
        let lane = self.lanes.remove(self.cursor);
        self.spare.push(lane.jobs);
        self.credit = 0;
    }

    /// Pops the next job in deficit-round-robin order, or `None` when the
    /// queue is empty.
    pub(crate) fn pop(&mut self) -> Option<QueuedJob> {
        loop {
            if self.len == 0 {
                return None;
            }
            if self.cursor >= self.lanes.len() {
                self.cursor = 0;
            }
            if self.lanes[self.cursor].jobs.is_empty() {
                // A lane drained by `purge`: retire it without spending the
                // visit (the next lane shifts into the cursor slot).
                self.retire_cursor_lane();
                continue;
            }
            if self.credit == 0 {
                self.credit = self.weight_of(self.lanes[self.cursor].client);
            }
            let job = self.lanes[self.cursor]
                .jobs
                .pop_front()
                .expect("lane emptiness checked above");
            self.len -= 1;
            self.credit -= 1;
            if self.lanes[self.cursor].jobs.is_empty() {
                self.retire_cursor_lane();
            } else if self.credit == 0 {
                self.cursor += 1;
            }
            return Some(job);
        }
    }

    /// Removes and returns every queued job matching `pred` (cancellation
    /// and shutdown paths). Emptied lanes are cleaned up lazily by `pop`.
    pub(crate) fn purge<F: FnMut(&QueuedJob) -> bool>(&mut self, mut pred: F) -> Vec<QueuedJob> {
        let mut removed = Vec::new();
        for lane in &mut self.lanes {
            let mut kept = VecDeque::with_capacity(lane.jobs.len());
            for job in lane.jobs.drain(..) {
                if pred(&job) {
                    removed.push(job);
                } else {
                    kept.push_back(job);
                }
            }
            lane.jobs = kept;
        }
        self.len -= removed.len();
        removed
    }

    /// The earliest deadline among queued jobs (for the dispatcher's
    /// watchdog sleep).
    pub(crate) fn min_deadline(&self) -> Option<Instant> {
        self.lanes
            .iter()
            .flat_map(|l| l.jobs.iter())
            .filter_map(|j| j.ticket.deadline)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::super::queue::Ticket;
    use super::*;
    use std::sync::Arc;

    fn job(client: ClientId) -> QueuedJob {
        let program = crate::pipeline::compile("def main() { return 1; }").unwrap();
        let runtime = crate::Runtime::builder(crate::EngineKind::Seq).build();
        QueuedJob {
            ticket: Arc::new(Ticket::new(client, None, 0, std::sync::Weak::new())),
            prepared: runtime.prepare(&program),
            args: Vec::new(),
        }
    }

    #[test]
    fn drr_serves_clients_in_weighted_proportion() {
        let a = ClientId(1);
        let b = ClientId(2);
        let mut q = FairQueue::new(HashMap::from([(a, 2), (b, 1)]));
        for _ in 0..6 {
            q.push(job(a));
        }
        for _ in 0..3 {
            q.push(job(b));
        }
        assert_eq!(q.len(), 9);
        let order: Vec<ClientId> = std::iter::from_fn(|| q.pop())
            .map(|j| j.ticket.client)
            .collect();
        assert_eq!(
            order,
            vec![a, a, b, a, a, b, a, a, b],
            "weight 2:1 must interleave two A per B"
        );
        assert!(q.is_empty());
    }

    #[test]
    fn unweighted_clients_alternate_evenly() {
        let a = ClientId(10);
        let b = ClientId(20);
        let mut q = FairQueue::new(HashMap::new());
        for _ in 0..3 {
            q.push(job(a));
            q.push(job(b));
        }
        let order: Vec<ClientId> = std::iter::from_fn(|| q.pop())
            .map(|j| j.ticket.client)
            .collect();
        assert_eq!(order, vec![a, b, a, b, a, b]);
    }

    #[test]
    fn purge_removes_matching_jobs_and_keeps_order() {
        let a = ClientId(1);
        let mut q = FairQueue::new(HashMap::new());
        let keep = job(a);
        let drop_me = job(a);
        let victim = Arc::clone(&drop_me.ticket);
        q.push(keep);
        q.push(drop_me);
        let removed = q.purge(|j| Arc::ptr_eq(&j.ticket, &victim));
        assert_eq!(removed.len(), 1);
        assert_eq!(q.len(), 1);
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }
}
