//! The Menos task scheduler — Algorithm 2 of the paper.
//!
//! Event-driven FCFS + backfilling (adapted from EASY backfilling
//! [Mu'alem & Feitelson 2001]) over GPU *memory* at operation
//! granularity. The scheduler is a pure data structure: the DES runtime
//! feeds it arrival and completion events and executes the decisions it
//! returns. Purity keeps decisions microsecond-fast (the paper reports
//! <0.1 ms) and unit-testable.

use std::collections::{HashMap, VecDeque};

use menos_split::ClientId;

/// Which server operation a request asks to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// The first forward pass (input data: client activations `x_c`).
    Forward,
    /// The (re-)forward + backward pass (input data: gradients `g_c`).
    Backward,
}

/// A pending request in the waiting list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Requesting client's serving process.
    pub client: ClientId,
    /// Operation kind.
    pub kind: OpKind,
    /// Bytes of GPU memory the operation needs (from profiling,
    /// filtered through the memory policy).
    pub demand: u64,
}

/// A scheduling decision: run this request now with `granted` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The admitted request.
    pub request: Request,
    /// Whether it was admitted out of FCFS order (backfilled).
    pub backfilled: bool,
}

/// FCFS + backfilling memory scheduler (Algorithm 2).
///
/// # Examples
///
/// ```
/// use menos_core::{OpKind, Request, Scheduler};
/// use menos_split::ClientId;
///
/// let mut s = Scheduler::new(100, true);
/// // A big backward blocks the head...
/// let d = s.data_arrived(Request { client: ClientId(0), kind: OpKind::Backward, demand: 120 });
/// assert!(d.is_empty());
/// // ...but a small forward backfills around it.
/// let d = s.data_arrived(Request { client: ClientId(1), kind: OpKind::Forward, demand: 30 });
/// assert_eq!(d.len(), 1);
/// assert!(d[0].backfilled);
/// ```
#[derive(Debug)]
pub struct Scheduler {
    m_avail: u64,
    waiting: VecDeque<Request>,
    allocation: HashMap<ClientId, u64>,
    backfilling: bool,
    decisions: u64,
    backfills: u64,
}

impl Scheduler {
    /// Creates a scheduler over `m_avail` bytes of schedulable memory.
    /// `backfilling = false` gives the pure-FCFS ablation.
    pub fn new(m_avail: u64, backfilling: bool) -> Self {
        Scheduler {
            m_avail,
            waiting: VecDeque::new(),
            allocation: HashMap::new(),
            backfilling,
            decisions: 0,
            backfills: 0,
        }
    }

    /// Bytes currently grantable.
    pub fn available(&self) -> u64 {
        self.m_avail
    }

    /// Pending requests.
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Bytes currently granted to `client`.
    pub fn allocated_to(&self, client: ClientId) -> u64 {
        self.allocation.get(&client).copied().unwrap_or(0)
    }

    /// Lifetime `(decisions, backfills)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.decisions, self.backfills)
    }

    /// Permanently reserves memory outside the scheduling pool (e.g. a
    /// client's persistent `A + O`, or a resident base-model copy in
    /// the vanilla baseline). Returns `false` without change if the
    /// pool is too small.
    pub fn reserve_persistent(&mut self, bytes: u64) -> bool {
        if bytes > self.m_avail {
            return false;
        }
        self.m_avail -= bytes;
        true
    }

    /// Returns previously reserved memory to the pool and re-runs the
    /// scheduling pass.
    pub fn release_persistent(&mut self, bytes: u64) -> Vec<Decision> {
        self.m_avail += bytes;
        self.schedule()
    }

    /// Event: data arrived from a client (Alg. 2 lines 7-9). Appends to
    /// the waiting list and runs a scheduling pass.
    ///
    /// Zero-demand requests (a backward whose memory is already held
    /// under a preserving policy) are granted immediately without
    /// queueing: they need no admission, and parking them behind a
    /// blocked head would deadlock — the head waits for memory that
    /// only the zero-demand request's completion can release.
    pub fn data_arrived(&mut self, request: Request) -> Vec<Decision> {
        if request.demand == 0 {
            self.decisions += 1;
            return vec![Decision {
                request,
                backfilled: false,
            }];
        }
        self.waiting.push_back(request);
        self.schedule()
    }

    /// Event: a client's computation finished and released its memory
    /// (Alg. 2 lines 10-13). Reclaims the allocation and reschedules.
    pub fn task_completed(&mut self, client: ClientId) -> Vec<Decision> {
        if let Some(bytes) = self.allocation.remove(&client) {
            self.m_avail += bytes;
        }
        self.schedule()
    }

    /// Event: a client's connection was lost (deadline eviction or
    /// crash). The Alg. 2 counterpart of session quarantine: the dead
    /// client must not hold memory *or a queue position* while its
    /// session is parked, so any waiting requests are purged, its live
    /// allocation is reclaimed, and the freed capacity reschedules
    /// immediately. A later `Resume` re-enters through `data_arrived`
    /// like any other request.
    pub fn client_evicted(&mut self, client: ClientId) -> Vec<Decision> {
        self.waiting.retain(|r| r.client != client);
        if let Some(bytes) = self.allocation.remove(&client) {
            self.m_avail += bytes;
        }
        self.schedule()
    }

    /// The scheduling procedure (Alg. 2 lines 14-24).
    fn schedule(&mut self) -> Vec<Decision> {
        let mut out = Vec::new();
        // FCFS: admit from the head while it fits. This both prevents
        // starvation of memory-hungry backward requests and admits
        // bursts when memory is plentiful.
        while let Some(head) = self.waiting.front() {
            if head.demand > self.m_avail {
                break;
            }
            let req = self.waiting.pop_front().expect("head exists");
            self.grant(req);
            out.push(Decision {
                request: req,
                backfilled: false,
            });
        }
        // Backfilling: the head is blocked; admit later requests that
        // fit in the remaining memory.
        if self.backfilling && !self.waiting.is_empty() {
            let mut i = 1; // index 0 is the blocked head
            while i < self.waiting.len() {
                if self.waiting[i].demand <= self.m_avail {
                    let req = self.waiting.remove(i).expect("index checked");
                    self.grant(req);
                    self.backfills += 1;
                    out.push(Decision {
                        request: req,
                        backfilled: true,
                    });
                } else {
                    i += 1;
                }
            }
        }
        out
    }

    fn grant(&mut self, req: Request) {
        debug_assert!(req.demand <= self.m_avail);
        self.m_avail -= req.demand;
        *self.allocation.entry(req.client).or_insert(0) += req.demand;
        self.decisions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(client: u64, kind: OpKind, demand: u64) -> Request {
        Request {
            client: ClientId(client),
            kind,
            demand,
        }
    }

    #[test]
    fn grants_immediately_when_memory_free() {
        let mut s = Scheduler::new(100, true);
        let d = s.data_arrived(req(0, OpKind::Forward, 40));
        assert_eq!(d.len(), 1);
        assert!(!d[0].backfilled);
        assert_eq!(s.available(), 60);
        assert_eq!(s.allocated_to(ClientId(0)), 40);
    }

    #[test]
    fn eviction_purges_queue_slots_and_reclaims_memory() {
        let mut s = Scheduler::new(100, true);
        s.data_arrived(req(0, OpKind::Backward, 80)); // running
        assert!(s.data_arrived(req(1, OpKind::Backward, 60)).is_empty()); // blocked head
        assert!(s.data_arrived(req(2, OpKind::Backward, 70)).is_empty()); // queued behind it
        assert_eq!(s.waiting_len(), 2);

        // Client 1 dies while queued: its slot vanishes and the freed
        // head lets nothing through yet (client 0 still holds 80)...
        assert!(s.client_evicted(ClientId(1)).is_empty());
        assert_eq!(s.waiting_len(), 1);

        // ...then client 0 dies holding memory: the reclaim admits the
        // surviving head immediately.
        let d = s.client_evicted(ClientId(0));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].request.client, ClientId(2));
        assert_eq!(s.allocated_to(ClientId(0)), 0);
        assert_eq!(s.available(), 30);

        // Evicting a client the scheduler never saw is a no-op.
        assert!(s.client_evicted(ClientId(9)).is_empty());
    }

    #[test]
    fn fcfs_prevents_starvation_of_big_requests() {
        let mut s = Scheduler::new(100, true);
        s.data_arrived(req(0, OpKind::Backward, 80)); // running
        assert!(s.data_arrived(req(1, OpKind::Backward, 80)).is_empty()); // head, blocked
                                                                          // A stream of small forwards that WOULD fit must not starve the
                                                                          // blocked backward forever: they backfill now, but when client 0
                                                                          // completes, the backward head is admitted first.
        let d = s.data_arrived(req(2, OpKind::Forward, 10));
        assert_eq!(d.len(), 1);
        assert!(d[0].backfilled);
        let d = s.task_completed(ClientId(0));
        // 80 + 10 in flight, 10 free... completing frees 80 → 90 free,
        // head needs 80 → admitted ahead of everything else.
        assert_eq!(d[0].request.client, ClientId(1));
        assert!(!d[0].backfilled);
    }

    #[test]
    fn backfilling_uses_leftover_memory() {
        let mut s = Scheduler::new(100, true);
        s.data_arrived(req(0, OpKind::Backward, 70));
        s.data_arrived(req(1, OpKind::Backward, 70)); // blocked head
        let d = s.data_arrived(req(2, OpKind::Forward, 20));
        assert_eq!(d.len(), 1, "forward backfills around blocked backward");
        assert_eq!(d[0].request.client, ClientId(2));
        assert_eq!(s.available(), 10);
        assert_eq!(s.stats().1, 1);
    }

    #[test]
    fn fcfs_only_mode_never_backfills() {
        let mut s = Scheduler::new(100, false);
        s.data_arrived(req(0, OpKind::Backward, 70));
        s.data_arrived(req(1, OpKind::Backward, 70));
        let d = s.data_arrived(req(2, OpKind::Forward, 20));
        assert!(d.is_empty(), "FCFS-only holds order strictly");
        assert_eq!(s.waiting_len(), 2);
    }

    #[test]
    fn completion_reclaims_and_reschedules() {
        let mut s = Scheduler::new(100, true);
        s.data_arrived(req(0, OpKind::Backward, 100));
        assert!(s.data_arrived(req(1, OpKind::Backward, 60)).is_empty());
        let d = s.task_completed(ClientId(0));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].request.client, ClientId(1));
        assert_eq!(s.available(), 40);
        assert_eq!(s.allocated_to(ClientId(0)), 0);
    }

    #[test]
    fn zero_demand_requests_flow_through() {
        // Preserve policies produce zero-demand backward requests.
        let mut s = Scheduler::new(10, true);
        s.data_arrived(req(0, OpKind::Forward, 10));
        let d = s.data_arrived(req(0, OpKind::Backward, 0));
        assert_eq!(d.len(), 1);
        assert_eq!(s.allocated_to(ClientId(0)), 10);
    }

    #[test]
    fn multiple_decisions_in_one_pass() {
        let mut s = Scheduler::new(100, true);
        s.data_arrived(req(0, OpKind::Backward, 100));
        s.data_arrived(req(1, OpKind::Forward, 30));
        s.data_arrived(req(2, OpKind::Forward, 30));
        s.data_arrived(req(3, OpKind::Backward, 50));
        let d = s.task_completed(ClientId(0));
        // Head (1) and (2) admitted FCFS, (3) admitted FCFS too (30+30+50 > 100?
        // 100 free: 30 -> 70, 30 -> 40, 50 > 40 blocked head; no backfill left).
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|x| !x.backfilled));
        assert_eq!(s.waiting_len(), 1);
    }

    #[test]
    fn persistent_reservations_shrink_pool() {
        let mut s = Scheduler::new(100, true);
        assert!(s.reserve_persistent(60));
        assert!(!s.reserve_persistent(60));
        assert!(s.data_arrived(req(0, OpKind::Backward, 50)).is_empty());
        let d = s.release_persistent(60);
        assert_eq!(d.len(), 1, "released reservation unblocks the head");
    }

    #[test]
    fn backfill_preserves_relative_order_of_unschedulable() {
        let mut s = Scheduler::new(100, true);
        s.data_arrived(req(0, OpKind::Backward, 90));
        s.data_arrived(req(1, OpKind::Backward, 50)); // blocked head
        s.data_arrived(req(2, OpKind::Backward, 50)); // blocked
        s.data_arrived(req(3, OpKind::Forward, 10)); // backfills
        assert_eq!(s.waiting_len(), 2);
        let d = s.task_completed(ClientId(0));
        // 90 freed, 10 still held by the backfilled forward: only the
        // first head fits; order is respected.
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].request.client, ClientId(1));
        let d = s.task_completed(ClientId(3));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].request.client, ClientId(2));
    }
}
