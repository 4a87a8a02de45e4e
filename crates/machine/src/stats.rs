//! Simulation statistics: per-unit busy times, utilizations, and event
//! counters — the raw material for Figures 8, 9, and 10 of the paper.

/// The functional units of a PE (Figure 7 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// Execution Unit (the conventional ALU running SP code).
    Execution,
    /// Matching Unit (incoming-token dispatch).
    Matching,
    /// Memory Manager (loading/releasing SP frames).
    MemoryManager,
    /// Array Manager (I-structure accesses, page traffic).
    ArrayManager,
    /// Routing Unit (outgoing messages).
    Routing,
}

impl Unit {
    /// All units, in display order.
    pub const ALL: [Unit; 5] = [
        Unit::Execution,
        Unit::Matching,
        Unit::MemoryManager,
        Unit::ArrayManager,
        Unit::Routing,
    ];

    /// Short label used in reports ("EU", "MU", ...).
    pub fn label(self) -> &'static str {
        match self {
            Unit::Execution => "EU",
            Unit::Matching => "MU",
            Unit::MemoryManager => "MM",
            Unit::ArrayManager => "AM",
            Unit::Routing => "RU",
        }
    }
}

impl std::fmt::Display for Unit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The kinds of inter-PE message, for attributing Routing-Unit traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// A data token for an instance slot (returns, woken deferred reads).
    Token,
    /// A remote spawn (the remote half of an `LD`).
    Spawn,
    /// The broadcast half of a distributing allocate.
    RemoteAlloc,
    /// A request for a remote element's page.
    ReadRequest,
    /// A page copy answering a [`MessageKind::ReadRequest`].
    PageReply,
    /// A write forwarded to the element's owner.
    WriteForward,
    /// The owner's notice that it deferred a page request: the element will
    /// come later as a token, and no page will follow.
    ReadDeferred,
}

impl MessageKind {
    /// Number of message kinds.
    pub const COUNT: usize = 7;

    /// All kinds, in display order (and [`PeStats`] array index order).
    pub const ALL: [MessageKind; MessageKind::COUNT] = [
        MessageKind::Token,
        MessageKind::Spawn,
        MessageKind::RemoteAlloc,
        MessageKind::ReadRequest,
        MessageKind::PageReply,
        MessageKind::WriteForward,
        MessageKind::ReadDeferred,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            MessageKind::Token => "token",
            MessageKind::Spawn => "spawn",
            MessageKind::RemoteAlloc => "alloc",
            MessageKind::ReadRequest => "read req",
            MessageKind::PageReply => "page reply",
            MessageKind::WriteForward => "write fwd",
            MessageKind::ReadDeferred => "deferred",
        }
    }

    /// Index of this kind in the per-kind arrays of [`PeStats`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Busy time and next-free time of one functional unit on one PE.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UnitState {
    /// Accumulated busy time (microseconds).
    pub busy: f64,
    /// Time at which the unit finishes its current backlog.
    pub next_free: f64,
}

impl UnitState {
    /// Schedules `service` microseconds of work arriving at `now`; returns
    /// the completion time. The unit is a single FIFO server.
    pub fn schedule(&mut self, now: f64, service: f64) -> f64 {
        let start = self.next_free.max(now);
        let finish = start + service;
        self.busy += service;
        self.next_free = finish;
        finish
    }
}

/// Per-PE counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PeStats {
    /// Busy time per unit.
    pub unit_busy: [f64; 5],
    /// Instructions executed by the Execution Unit.
    pub instructions: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// SP instances created on this PE.
    pub instances_created: u64,
    /// Tokens received from other PEs (through the Matching Unit).
    pub tokens_received: u64,
    /// Messages sent to other PEs (through the Routing Unit).
    pub messages_sent: u64,
    /// Local array reads that found the element present.
    pub local_reads: u64,
    /// Reads satisfied from the remote-page cache.
    pub cache_hit_reads: u64,
    /// Reads that missed the remote-page cache:
    /// `cold_misses + in_flight_misses + stale_misses`.
    pub remote_reads: u64,
    /// Misses on a page this PE had neither cached nor requested (with the
    /// cache off, every miss).
    pub cold_misses: u64,
    /// Misses on a page this PE had already requested and not yet received:
    /// they join that request instead of sending their own.
    pub in_flight_misses: u64,
    /// Misses on a cached page whose copy lacked the element (it was still
    /// empty when the page was copied).
    pub stale_misses: u64,
    /// Messages sent, per [`MessageKind`] (indexed by [`MessageKind::index`]).
    pub messages_by_kind: [u64; MessageKind::COUNT],
    /// Routing-Unit busy time per [`MessageKind`] (µs); sums to the RU
    /// entry of `unit_busy`.
    pub route_busy_by_kind: [f64; MessageKind::COUNT],
    /// Reads deferred on an absent element.
    pub deferred_reads: u64,
    /// Array element writes performed (locally owned).
    pub local_writes: u64,
    /// Array element writes forwarded to the owning PE.
    pub remote_writes: u64,
}

/// Statistics of a complete simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimulationStats {
    /// Total simulated time in microseconds.
    pub elapsed_us: f64,
    /// Number of discrete events processed.
    pub events_processed: u64,
    /// Per-PE counters.
    pub per_pe: Vec<PeStats>,
}

impl SimulationStats {
    /// Creates zeroed statistics for `num_pes` PEs.
    pub fn new(num_pes: usize) -> Self {
        SimulationStats {
            elapsed_us: 0.0,
            events_processed: 0,
            per_pe: vec![PeStats::default(); num_pes],
        }
    }

    /// Number of PEs.
    pub fn num_pes(&self) -> usize {
        self.per_pe.len()
    }

    /// Average utilization of a unit across all PEs, in `[0, 1]`.
    pub fn utilization(&self, unit: Unit) -> f64 {
        if self.elapsed_us <= 0.0 || self.per_pe.is_empty() {
            return 0.0;
        }
        let idx = Unit::ALL.iter().position(|u| *u == unit).expect("unit");
        let total: f64 = self.per_pe.iter().map(|p| p.unit_busy[idx]).sum();
        (total / (self.elapsed_us * self.per_pe.len() as f64)).min(1.0)
    }

    /// Utilization of every unit, in [`Unit::ALL`] order.
    pub fn all_utilizations(&self) -> Vec<(Unit, f64)> {
        Unit::ALL
            .iter()
            .map(|u| (*u, self.utilization(*u)))
            .collect()
    }

    /// Total instructions executed across PEs.
    pub fn total_instructions(&self) -> u64 {
        self.per_pe.iter().map(|p| p.instructions).sum()
    }

    /// Total context switches across PEs.
    pub fn total_context_switches(&self) -> u64 {
        self.per_pe.iter().map(|p| p.context_switches).sum()
    }

    /// Total inter-PE messages sent.
    pub fn total_messages(&self) -> u64 {
        self.per_pe.iter().map(|p| p.messages_sent).sum()
    }

    /// Total remote reads (cache misses that crossed the network).
    pub fn total_remote_reads(&self) -> u64 {
        self.per_pe.iter().map(|p| p.remote_reads).sum()
    }

    /// Total reads served by the remote-page cache.
    pub fn total_cache_hits(&self) -> u64 {
        self.per_pe.iter().map(|p| p.cache_hit_reads).sum()
    }

    /// Sums any per-PE counter, e.g. `stats.total(|p| p.stale_misses)`.
    pub fn total(&self, counter: impl Fn(&PeStats) -> u64) -> u64 {
        self.per_pe.iter().map(counter).sum()
    }

    /// Total messages of one kind sent across PEs.
    pub fn total_messages_of(&self, kind: MessageKind) -> u64 {
        self.total(|p| p.messages_by_kind[kind.index()])
    }

    /// Total Routing-Unit busy time spent on one kind of message (µs).
    pub fn route_busy_of(&self, kind: MessageKind) -> f64 {
        self.per_pe
            .iter()
            .map(|p| p.route_busy_by_kind[kind.index()])
            .sum()
    }

    /// Elapsed time in seconds.
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed_us / 1.0e6
    }

    /// A compact human-readable summary table.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "elapsed: {:.3} ms over {} PEs ({} events)",
            self.elapsed_us / 1000.0,
            self.num_pes(),
            self.events_processed
        );
        for (unit, util) in self.all_utilizations() {
            let _ = writeln!(out, "  {:>2} utilization: {:5.1}%", unit, util * 100.0);
        }
        let _ = writeln!(
            out,
            "  instructions: {}  ctx-switches: {}  messages: {}  remote reads: {}  cache hits: {}",
            self.total_instructions(),
            self.total_context_switches(),
            self.total_messages(),
            self.total_remote_reads(),
            self.total_cache_hits()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_state_is_a_fifo_server() {
        let mut u = UnitState::default();
        assert_eq!(u.schedule(0.0, 10.0), 10.0);
        // Arriving while busy queues behind the previous work.
        assert_eq!(u.schedule(5.0, 10.0), 20.0);
        // Arriving after the backlog starts immediately.
        assert_eq!(u.schedule(50.0, 5.0), 55.0);
        assert_eq!(u.busy, 25.0);
    }

    #[test]
    fn utilization_is_averaged_across_pes() {
        let mut s = SimulationStats::new(2);
        s.elapsed_us = 100.0;
        s.per_pe[0].unit_busy[0] = 100.0;
        s.per_pe[1].unit_busy[0] = 0.0;
        assert!((s.utilization(Unit::Execution) - 0.5).abs() < 1e-9);
        assert_eq!(s.utilization(Unit::Routing), 0.0);
        assert_eq!(s.all_utilizations().len(), 5);
    }

    #[test]
    fn zero_elapsed_time_gives_zero_utilization() {
        let s = SimulationStats::new(1);
        assert_eq!(s.utilization(Unit::Execution), 0.0);
    }

    #[test]
    fn totals_sum_over_pes() {
        let mut s = SimulationStats::new(2);
        s.per_pe[0].instructions = 10;
        s.per_pe[1].instructions = 20;
        s.per_pe[0].messages_sent = 3;
        s.per_pe[1].context_switches = 4;
        assert_eq!(s.total_instructions(), 30);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_context_switches(), 4);
        assert!(s.summary().contains("utilization"));
    }

    #[test]
    fn message_kinds_index_the_per_kind_arrays_in_display_order() {
        for (i, kind) in MessageKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        let mut s = SimulationStats::new(2);
        s.per_pe[0].messages_by_kind[MessageKind::PageReply.index()] = 3;
        s.per_pe[1].messages_by_kind[MessageKind::PageReply.index()] = 4;
        s.per_pe[1].route_busy_by_kind[MessageKind::Token.index()] = 19.5;
        s.per_pe[0].stale_misses = 2;
        assert_eq!(s.total_messages_of(MessageKind::PageReply), 7);
        assert_eq!(s.route_busy_of(MessageKind::Token), 19.5);
        assert_eq!(s.total(|p| p.stale_misses), 2);
    }

    #[test]
    fn unit_labels() {
        assert_eq!(Unit::Execution.label(), "EU");
        assert_eq!(Unit::ArrayManager.to_string(), "AM");
        assert_eq!(Unit::ALL.len(), 5);
    }
}
