//! The PODS machine simulator: a discrete-event, instruction-level model of
//! a distributed-memory multiprocessor executing Subcompact Processes.
//!
//! Each PE has the five functional units of Figure 7 of the paper —
//! Execution Unit, Matching Unit, Memory Manager, Array Manager, and Routing
//! Unit — modelled as FIFO servers whose service times come from the §5.1
//! timing model. The Execution Unit runs the current SP instance until it
//! terminates or blocks on an absent operand (no preemption); array accesses
//! are split-phase; remote reads go through the software page cache; and
//! inter-PE traffic (tokens, spawn requests, page transfers, forwarded
//! writes, allocation broadcasts) flows through the Routing Units and the
//! network model.
//!
//! # Remote reads
//!
//! A read that misses the page cache sends a `ReadRequest` to the element's
//! owner, which answers with a `PageReply` carrying the whole page once the
//! element is present. With the cache on, each PE keeps an **in-flight
//! table** keyed by `(array, page)`, so it has at most one outstanding
//! request per remote page:
//!
//! * the read whose request is on the wire is the entry's *lead*; a later
//!   miss on the same page sends nothing and queues as a *follower*, charged
//!   the Array Manager's `enqueue_read` (§5.1's "push an early read onto the
//!   queue", the split-phase mechanism the owner uses for early reads);
//! * when the page reply installs, each follower whose element is in the
//!   copy is delivered (`memory_read + unit_signal` on the AM); a follower
//!   whose element was still empty when the page was copied becomes a fresh
//!   miss — the first becomes the new lead, the rest follow it;
//! * when the owner *defers* the lead's read (the element is unwritten), it
//!   will answer the lead with a token and never with a page, so it also
//!   sends a token-sized `ReadDeferred` notice. The requester then re-issues
//!   the entry's followers the same way. Without the notice the followers
//!   would wait for a page that never comes — possibly on a producer that
//!   needs their values — and a ready instance would be lost.
//!
//! With the cache off the table is not used: every miss sends its own
//! request and no notice is sent.

use crate::instance::{Instance, InstanceId, InstanceStatus, Waiter};
use crate::result::{ArraySnapshot, SimulationResult};
use crate::stats::{MessageKind, PeStats, SimulationStats, UnitState};
use crate::timing::{MachineConfig, TimingModel};
use pods_istructure::{
    ArrayHeader, ArrayId, ArrayMemory, ArrayShape, PageCopy, Partitioning, PeId, ReadOutcome,
    ReadResult, Value, WriteOutcome,
};
use pods_sp::exec::{self, ArrayOps, Cost, ExecCtx, Loaded, ReadSlots, RunExit, TraceSink};
use pods_sp::{Operand, SlotId, SpId, SpProgram};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

const EU: usize = 0;
const MU: usize = 1;
const MM: usize = 2;
const AM: usize = 3;
const RU: usize = 4;

/// Errors terminating a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimulationError {
    /// All events were drained but some SP instances are still blocked: the
    /// program deadlocked (e.g. an array element that is read but never
    /// written).
    Deadlock {
        /// Number of instances still alive.
        stuck_instances: usize,
        /// Human-readable detail about one stuck instance.
        detail: String,
    },
    /// A run-time error (single-assignment violation, out-of-bounds access,
    /// arithmetic on non-numeric values, ...).
    Runtime(String),
    /// The configured event limit was exceeded.
    EventLimitExceeded {
        /// The limit that was hit.
        limit: u64,
    },
}

impl std::fmt::Display for SimulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimulationError::Deadlock {
                stuck_instances,
                detail,
            } => write!(
                f,
                "deadlock: {stuck_instances} SP instances stuck ({detail})"
            ),
            SimulationError::Runtime(msg) => write!(f, "runtime error: {msg}"),
            SimulationError::EventLimitExceeded { limit } => {
                write!(f, "event limit of {limit} exceeded")
            }
        }
    }
}

impl std::error::Error for SimulationError {}

/// An inter-PE message.
#[derive(Debug, Clone)]
enum Message {
    /// A data token destined for a specific instance slot.
    Token {
        instance: InstanceId,
        slot: SlotId,
        value: Value,
    },
    /// Spawn an instance of a template (the remote half of an `LD`).
    Spawn {
        template: SpId,
        args: Vec<Value>,
        return_to: Option<Waiter>,
    },
    /// Broadcast half of the distributing allocate.
    RemoteAlloc {
        array: ArrayId,
        name: String,
        dims: Vec<usize>,
        distributed: bool,
        origin: usize,
    },
    /// Request for a remote element; the owner replies with the whole page.
    ReadRequest {
        array: ArrayId,
        offset: usize,
        waiter: Waiter,
    },
    /// Page copy plus the requested element value.
    PageReply {
        copy: PageCopy,
        value: Value,
        waiter: Waiter,
    },
    /// A write forwarded to the owning PE.
    WriteForward {
        array: ArrayId,
        offset: usize,
        value: Value,
    },
    /// The owner deferred `waiter`'s request for `page`: the element will
    /// come as a token, and no page will follow.
    ReadDeferred {
        array: ArrayId,
        page: usize,
        waiter: Waiter,
    },
}

impl Message {
    fn kind(&self) -> MessageKind {
        match self {
            Message::Token { .. } => MessageKind::Token,
            Message::Spawn { .. } => MessageKind::Spawn,
            Message::RemoteAlloc { .. } => MessageKind::RemoteAlloc,
            Message::ReadRequest { .. } => MessageKind::ReadRequest,
            Message::PageReply { .. } => MessageKind::PageReply,
            Message::WriteForward { .. } => MessageKind::WriteForward,
            Message::ReadDeferred { .. } => MessageKind::ReadDeferred,
        }
    }
}

/// One outstanding page request of a PE: an in-flight table entry.
struct InFlight {
    /// The page's owner.
    owner: usize,
    /// The read whose `ReadRequest` is on the wire.
    lead: Waiter,
    /// Reads of the same page issued since, with their element offsets.
    followers: Vec<(usize, Waiter)>,
}

#[derive(Debug, Clone)]
enum EventKind {
    /// Try to run a ready SP on the PE's Execution Unit.
    EuRun { pe: usize },
    /// Deliver a value into an instance slot on the same PE.
    Deliver {
        pe: usize,
        instance: InstanceId,
        slot: SlotId,
        value: Value,
    },
    /// A message arrives at a PE from the network.
    NetArrive { pe: usize, msg: Message },
}

#[derive(Debug, Clone)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Per-PE mutable state.
struct PeState {
    units: [UnitState; 5],
    memory: ArrayMemory<Waiter>,
    instances: HashMap<InstanceId, Instance>,
    ready: VecDeque<InstanceId>,
    eu_event_pending: bool,
    stats: PeStats,
    /// Remote requests that arrived before the array's allocation broadcast.
    pending_remote: HashMap<ArrayId, Vec<Message>>,
    /// This PE's outstanding page requests, keyed by `(array, page)` (used
    /// only with the page cache on).
    in_flight: HashMap<(ArrayId, usize), InFlight>,
}

impl PeState {
    fn new(pe: usize) -> Self {
        PeState {
            units: [UnitState::default(); 5],
            memory: ArrayMemory::new(PeId(pe)),
            instances: HashMap::new(),
            ready: VecDeque::new(),
            eu_event_pending: false,
            stats: PeStats::default(),
            pending_remote: HashMap::new(),
            in_flight: HashMap::new(),
        }
    }
}

/// The machine simulator.
///
/// Construct one with [`Simulation::new`] and call [`Simulation::run`]; or
/// use the convenience function [`simulate`].
pub struct Simulation {
    config: MachineConfig,
    program: Rc<SpProgram>,
    /// Precomputed per-template read-slot tables for the shared core's
    /// firing-rule check (no per-instruction allocation).
    read_slots: Rc<ReadSlots>,
    pes: Vec<PeState>,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    horizon: f64,
    events_processed: u64,
    next_instance: u64,
    next_array: usize,
    arrays: Vec<(ArrayId, String, ArrayShape)>,
    entry_instance: InstanceId,
    result: Option<Value>,
    error: Option<SimulationError>,
    /// Optional flight-recorder sink: the shared exec core's suspension /
    /// deferred-load / chunk events are reported here, attributed to the
    /// simulated PE that produced them.
    sink: Option<Box<dyn TraceSink>>,
}

/// Runs `program` with the given `main` arguments on the configured machine.
///
/// # Errors
///
/// Returns a [`SimulationError`] on deadlock, run-time errors, or when the
/// configured event limit is exceeded.
pub fn simulate(
    program: &SpProgram,
    main_args: &[Value],
    config: &MachineConfig,
) -> Result<SimulationResult, SimulationError> {
    Simulation::new(program.clone(), config.clone()).run(main_args)
}

/// [`simulate`] with a flight-recorder sink attached (see
/// [`Simulation::with_trace_sink`]).
///
/// # Errors
///
/// Same as [`simulate`].
pub fn simulate_with_sink(
    program: &SpProgram,
    main_args: &[Value],
    config: &MachineConfig,
    sink: Box<dyn TraceSink>,
) -> Result<SimulationResult, SimulationError> {
    Simulation::new(program.clone(), config.clone())
        .with_trace_sink(sink)
        .run(main_args)
}

impl Simulation {
    /// Creates a simulation of `program` on the configured machine.
    pub fn new(program: SpProgram, config: MachineConfig) -> Self {
        let num_pes = config.num_pes.max(1);
        let read_slots = Rc::new(exec::build_read_slots(&program));
        Simulation {
            config,
            program: Rc::new(program),
            read_slots,
            pes: (0..num_pes).map(PeState::new).collect(),
            events: BinaryHeap::new(),
            seq: 0,
            horizon: 0.0,
            events_processed: 0,
            next_instance: 0,
            next_array: 0,
            arrays: Vec::new(),
            entry_instance: InstanceId(0),
            result: None,
            error: None,
            sink: None,
        }
    }

    /// Attaches a trace sink: the shared exec core's events (firing-rule
    /// suspensions, deferred array loads, chunk advances) are reported to
    /// it, tagged with the simulated PE index.
    pub fn with_trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Returns a [`SimulationError`] on deadlock, run-time errors, or when
    /// the configured event limit is exceeded.
    pub fn run(mut self, main_args: &[Value]) -> Result<SimulationResult, SimulationError> {
        let entry = self.program.entry();
        self.entry_instance = InstanceId(self.next_instance);
        self.create_instance(0, entry, main_args.to_vec(), None, 0.0);

        while let Some(Reverse(event)) = self.events.pop() {
            self.events_processed += 1;
            if self.config.max_events > 0 && self.events_processed > self.config.max_events {
                return Err(SimulationError::EventLimitExceeded {
                    limit: self.config.max_events,
                });
            }
            self.horizon = self.horizon.max(event.time);
            match event.kind {
                EventKind::EuRun { pe } => self.process_eu_run(pe, event.time),
                EventKind::Deliver {
                    pe,
                    instance,
                    slot,
                    value,
                } => self.deliver_value(pe, instance, slot, value, event.time),
                EventKind::NetArrive { pe, msg } => self.process_net_arrive(pe, msg, event.time),
            }
            if let Some(err) = self.error.take() {
                return Err(err);
            }
        }

        let stuck: usize = self.pes.iter().map(|p| p.instances.len()).sum();
        if stuck > 0 {
            // Name the oldest stuck instance, so the detail does not depend
            // on hash-map iteration order.
            let detail = self
                .pes
                .iter()
                .flat_map(|p| p.instances.values())
                .min_by_key(|inst| inst.id)
                .map(|inst| {
                    let template = self.program.template(inst.template);
                    format!(
                        "{} of {} blocked at pc {} ({:?})",
                        inst.id, template.name, inst.pc, inst.status
                    )
                })
                .unwrap_or_default();
            return Err(SimulationError::Deadlock {
                stuck_instances: stuck,
                detail,
            });
        }

        Ok(self.finish())
    }

    fn finish(mut self) -> SimulationResult {
        let mut stats = SimulationStats::new(self.pes.len());
        stats.elapsed_us = self.horizon;
        stats.events_processed = self.events_processed;
        for (i, pe) in self.pes.iter_mut().enumerate() {
            for u in 0..5 {
                pe.stats.unit_busy[u] = pe.units[u].busy;
            }
            stats.per_pe[i] = pe.stats.clone();
        }

        let mut arrays = Vec::new();
        for (id, name, shape) in &self.arrays {
            let mut values = vec![None; shape.len()];
            for pe in &self.pes {
                for (offset, v) in pe.memory.local_written(*id) {
                    if offset < values.len() {
                        values[offset] = Some(v);
                    }
                }
            }
            arrays.push(ArraySnapshot {
                id: *id,
                name: name.clone(),
                shape: shape.clone(),
                values,
            });
        }

        SimulationResult {
            return_value: self.result,
            arrays,
            stats,
        }
    }

    // ----- event plumbing -----

    fn push_event(&mut self, time: f64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.horizon = self.horizon.max(time);
        self.events.push(Reverse(Event { time, seq, kind }));
    }

    fn schedule_unit(&mut self, pe: usize, unit: usize, now: f64, service: f64) -> f64 {
        let finish = self.pes[pe].units[unit].schedule(now, service);
        self.horizon = self.horizon.max(finish);
        finish
    }

    fn kick_eu(&mut self, pe: usize, time: f64) {
        if !self.pes[pe].eu_event_pending && !self.pes[pe].ready.is_empty() {
            self.pes[pe].eu_event_pending = true;
            let at = self.pes[pe].units[EU].next_free.max(time);
            self.push_event(at, EventKind::EuRun { pe });
        }
    }

    fn fail(&mut self, msg: impl Into<String>) {
        if self.error.is_none() {
            self.error = Some(SimulationError::Runtime(msg.into()));
        }
    }

    // ----- instance management -----

    fn create_instance(
        &mut self,
        pe: usize,
        template_id: SpId,
        args: Vec<Value>,
        return_to: Option<Waiter>,
        now: f64,
    ) {
        let template = self.program.template(template_id);
        let num_slots = template.num_slots;
        let id = InstanceId(self.next_instance);
        self.next_instance += 1;
        // The Memory Manager loads the SP into execution memory and builds
        // its frame (two free-list operations).
        let mm_time = 2.0 * self.config.timing.memory_manager_op;
        let ready_at = self.schedule_unit(pe, MM, now, mm_time);
        let instance = Instance::new(id, template_id, num_slots, &args, return_to);
        self.pes[pe].instances.insert(id, instance);
        self.pes[pe].ready.push_back(id);
        self.pes[pe].stats.instances_created += 1;
        self.kick_eu(pe, ready_at);
    }

    fn deliver_value(
        &mut self,
        pe: usize,
        instance: InstanceId,
        slot: SlotId,
        value: Value,
        time: f64,
    ) {
        let mut wake = false;
        if let Some(inst) = self.pes[pe].instances.get_mut(&instance) {
            inst.set_slot(slot, value);
            if inst.status == InstanceStatus::Blocked(slot) {
                inst.status = InstanceStatus::Ready;
                wake = true;
            }
        }
        if wake {
            self.pes[pe].ready.push_back(instance);
            self.kick_eu(pe, time);
        }
    }

    /// Sends a value to a waiter which may live on another PE.
    fn send_to_waiter(&mut self, from_pe: usize, waiter: Waiter, value: Value, now: f64) {
        if waiter.pe == from_pe {
            self.push_event(
                now,
                EventKind::Deliver {
                    pe: from_pe,
                    instance: waiter.instance,
                    slot: waiter.slot,
                    value,
                },
            );
        } else {
            self.send_message(
                from_pe,
                waiter.pe,
                Message::Token {
                    instance: waiter.instance,
                    slot: waiter.slot,
                    value,
                },
                now,
            );
        }
    }

    // ----- messaging -----

    fn message_route_cost(&self, msg: &Message) -> f64 {
        let t = &self.config.timing;
        match msg {
            Message::Token { .. } => t.token_route,
            Message::Spawn { args, .. } => t.token_route * (1 + args.len()) as f64,
            Message::RemoteAlloc { .. } => t.token_route * 2.0,
            Message::ReadRequest { .. } => t.token_route,
            Message::PageReply { copy, .. } => t.page_message_time(copy.len()),
            Message::WriteForward { .. } => t.token_route,
            Message::ReadDeferred { .. } => t.token_route,
        }
    }

    fn send_message(&mut self, from_pe: usize, to_pe: usize, msg: Message, now: f64) {
        let cost = self.message_route_cost(&msg);
        let finish = self.schedule_unit(from_pe, RU, now, cost);
        let stats = &mut self.pes[from_pe].stats;
        stats.messages_sent += 1;
        stats.messages_by_kind[msg.kind().index()] += 1;
        stats.route_busy_by_kind[msg.kind().index()] += cost;
        let arrive = finish + self.config.timing.network_hop;
        self.push_event(arrive, EventKind::NetArrive { pe: to_pe, msg });
    }

    fn process_net_arrive(&mut self, pe: usize, msg: Message, time: f64) {
        let t = self.config.timing.clone();
        match msg {
            Message::Token {
                instance,
                slot,
                value,
            } => {
                self.pes[pe].stats.tokens_received += 1;
                let finish = self.schedule_unit(pe, MU, time, t.matching_unit);
                self.push_event(
                    finish,
                    EventKind::Deliver {
                        pe,
                        instance,
                        slot,
                        value,
                    },
                );
            }
            Message::Spawn {
                template,
                args,
                return_to,
            } => {
                self.pes[pe].stats.tokens_received += 1;
                let finish = self.schedule_unit(pe, MU, time, t.matching_unit);
                self.create_instance(pe, template, args, return_to, finish);
            }
            Message::RemoteAlloc {
                array,
                name,
                dims,
                distributed,
                origin,
            } => {
                let finish = self.schedule_unit(pe, AM, time, t.array_allocate);
                self.register_array(pe, array, &name, &dims, distributed, origin);
                // Serve any remote requests that raced ahead of the
                // allocation broadcast.
                if let Some(pending) = self.pes[pe].pending_remote.remove(&array) {
                    for msg in pending {
                        self.push_event(finish, EventKind::NetArrive { pe, msg });
                    }
                }
            }
            Message::ReadRequest {
                array,
                offset,
                waiter,
            } => {
                if self.pes[pe].memory.header(array).is_none() {
                    self.pes[pe].pending_remote.entry(array).or_default().push(
                        Message::ReadRequest {
                            array,
                            offset,
                            waiter,
                        },
                    );
                    return;
                }
                let page = self.pes[pe]
                    .memory
                    .header(array)
                    .map(|h| h.partitioning().page_of(offset))
                    .unwrap_or(0);
                match self.pes[pe].memory.read_as_owner(array, offset, waiter) {
                    Ok(ReadResult::Present(value)) => {
                        match self.pes[pe].memory.extract_page(array, page) {
                            Ok(copy) => {
                                let service = t.send_page(copy.len());
                                let finish = self.schedule_unit(pe, AM, time, service);
                                self.send_message(
                                    pe,
                                    waiter.pe,
                                    Message::PageReply {
                                        copy,
                                        value,
                                        waiter,
                                    },
                                    finish,
                                );
                            }
                            Err(e) => self.fail(e.to_string()),
                        }
                    }
                    Ok(ReadResult::Deferred) => {
                        let finish = self.schedule_unit(pe, AM, time, t.enqueue_read);
                        // The requester may have followers waiting on this
                        // request's page; tell it none is coming.
                        if self.config.remote_page_cache {
                            self.send_message(
                                pe,
                                waiter.pe,
                                Message::ReadDeferred {
                                    array,
                                    page,
                                    waiter,
                                },
                                finish,
                            );
                        }
                    }
                    Err(e) => self.fail(e.to_string()),
                }
            }
            Message::PageReply {
                copy,
                value,
                waiter,
            } => {
                let service = t.receive_page(copy.len());
                let finish = self.schedule_unit(pe, AM, time, service);
                self.push_event(
                    finish,
                    EventKind::Deliver {
                        pe,
                        instance: waiter.instance,
                        slot: waiter.slot,
                        value,
                    },
                );
                if self.config.remote_page_cache {
                    let key = (copy.array, copy.page);
                    if let Some(entry) = self.take_in_flight(pe, key, waiter) {
                        // Serve the followers the copy can; the rest missed
                        // on a stale copy and ask again.
                        let mut missing = Vec::new();
                        for (offset, follower) in entry.followers {
                            match copy.get(offset) {
                                Some(v) => {
                                    let served = self.schedule_unit(
                                        pe,
                                        AM,
                                        finish,
                                        t.memory_read + t.unit_signal,
                                    );
                                    self.push_event(
                                        served,
                                        EventKind::Deliver {
                                            pe,
                                            instance: follower.instance,
                                            slot: follower.slot,
                                            value: v,
                                        },
                                    );
                                }
                                None => missing.push((offset, follower)),
                            }
                        }
                        self.reissue(pe, key, entry.owner, missing, finish);
                    }
                    self.pes[pe].memory.install_page(copy);
                }
            }
            Message::ReadDeferred {
                array,
                page,
                waiter,
            } => {
                let finish = self.schedule_unit(pe, MU, time, t.matching_unit);
                let key = (array, page);
                if let Some(entry) = self.take_in_flight(pe, key, waiter) {
                    self.reissue(pe, key, entry.owner, entry.followers, finish);
                }
            }
            Message::WriteForward {
                array,
                offset,
                value,
            } => {
                if self.pes[pe].memory.header(array).is_none() {
                    self.pes[pe].pending_remote.entry(array).or_default().push(
                        Message::WriteForward {
                            array,
                            offset,
                            value,
                        },
                    );
                    return;
                }
                match self.pes[pe].memory.write(array, offset, value) {
                    Ok(WriteOutcome::Local { woken }) => {
                        self.pes[pe].stats.local_writes += 1;
                        let service = t.memory_write + woken.len() as f64 * t.unit_signal;
                        let finish = self.schedule_unit(pe, AM, time, service);
                        for waiter in woken {
                            self.send_to_waiter(pe, waiter, value, finish);
                        }
                    }
                    Ok(WriteOutcome::Remote { owner }) => {
                        // Ownership disagreement should be impossible; route
                        // onwards to stay safe.
                        self.send_message(
                            pe,
                            owner.index(),
                            Message::WriteForward {
                                array,
                                offset,
                                value,
                            },
                            time,
                        );
                    }
                    Err(e) => self.fail(e.to_string()),
                }
            }
        }
    }

    // ----- remote reads: the in-flight table -----

    /// Issues a remote read of element `offset` of page `key`, owned by
    /// `owner`. With the page cache on, a read of a page already requested
    /// joins that request as a follower (charged `enqueue_read`, no
    /// message); otherwise the read sends a `ReadRequest` and, with the cache
    /// on, becomes the page's lead.
    fn request_element(
        &mut self,
        pe: usize,
        key: (ArrayId, usize),
        offset: usize,
        owner: usize,
        waiter: Waiter,
        now: f64,
    ) {
        let t = &self.config.timing;
        let (enqueue, issue) = (t.enqueue_read, t.memory_read + t.unit_signal);
        if self.config.remote_page_cache {
            match self.pes[pe].in_flight.entry(key) {
                Entry::Occupied(mut e) => {
                    e.get_mut().followers.push((offset, waiter));
                    self.schedule_unit(pe, AM, now, enqueue);
                    return;
                }
                Entry::Vacant(e) => {
                    e.insert(InFlight {
                        owner,
                        lead: waiter,
                        followers: Vec::new(),
                    });
                }
            }
        }
        let finish = self.schedule_unit(pe, AM, now, issue);
        self.send_message(
            pe,
            owner,
            Message::ReadRequest {
                array: key.0,
                offset,
                waiter,
            },
            finish,
        );
    }

    /// Removes the in-flight entry of `key` if `lead` is still its lead (the
    /// reply or deferral notice is for the current request).
    fn take_in_flight(
        &mut self,
        pe: usize,
        key: (ArrayId, usize),
        lead: Waiter,
    ) -> Option<InFlight> {
        match self.pes[pe].in_flight.entry(key) {
            Entry::Occupied(e) if e.get().lead == lead => Some(e.remove()),
            _ => None,
        }
    }

    /// Re-issues reads that an answered request could not serve: the first
    /// becomes the new lead of `key`'s page and the rest follow it.
    fn reissue(
        &mut self,
        pe: usize,
        key: (ArrayId, usize),
        owner: usize,
        reads: Vec<(usize, Waiter)>,
        now: f64,
    ) {
        for (offset, waiter) in reads {
            self.request_element(pe, key, offset, owner, waiter, now);
        }
    }

    fn register_array(
        &mut self,
        pe: usize,
        id: ArrayId,
        name: &str,
        dims: &[usize],
        distributed: bool,
        origin: usize,
    ) {
        let shape = ArrayShape::new(dims.to_vec());
        let partitioning = if distributed {
            Partitioning::new(shape.len(), self.config.page_size, self.pes.len())
        } else {
            Partitioning::single_owner(
                shape.len(),
                self.config.page_size,
                self.pes.len(),
                PeId(origin),
            )
        };
        if let Err(e) = self.pes[pe].memory.allocate(id, name, shape, partitioning) {
            self.fail(e.to_string());
        }
    }

    // ----- Execution Unit -----

    fn process_eu_run(&mut self, pe: usize, time: f64) {
        self.pes[pe].eu_event_pending = false;
        let Some(id) = self.pes[pe].ready.pop_front() else {
            return;
        };
        let Some(mut inst) = self.pes[pe].instances.remove(&id) else {
            // The instance terminated while queued (should not happen).
            self.kick_eu(pe, time);
            return;
        };
        inst.status = InstanceStatus::Running;
        let start = self.pes[pe].units[EU].next_free.max(time);
        let mut t = start;
        let program = Rc::clone(&self.program);
        let template = program.template(inst.template);
        let read_slots = Rc::clone(&self.read_slots);
        let slot_table = &read_slots[inst.template.index()];
        let timing = self.config.timing.clone();

        // Run the instance on the shared instruction core; this simulator
        // contributes only the event-queue suspension strategy, the timing
        // model (via `charge`), and the Array-Manager message mechanics.
        let exit = {
            let mut cx = SimCtx {
                sim: self,
                pe,
                inst: &mut inst,
                t: &mut t,
                timing: &timing,
            };
            exec::run_instance(
                &mut cx,
                &template.code,
                slot_table,
                template.chunk_meta.as_ref(),
                template.plan.as_ref(),
            )
        };

        let eu = &mut self.pes[pe].units[EU];
        eu.busy += t - start;
        eu.next_free = t;
        match exit {
            Ok(RunExit::Finished(value)) => {
                self.finish_instance(pe, &inst, value, t);
                // Frame released by the Memory Manager.
                self.schedule_unit(pe, MM, t, timing.memory_manager_op);
                self.kick_eu(pe, t);
            }
            Ok(RunExit::Blocked(slot)) => {
                // Event-queue suspension: the instance stays in the PE's
                // table marked blocked; the delivery of the missing token
                // re-queues it (`deliver_value`).
                inst.status = InstanceStatus::Blocked(slot);
                self.pes[pe].instances.insert(id, inst);
                self.kick_eu(pe, t);
            }
            Ok(RunExit::Stopped) => {
                // An error was recorded elsewhere; park the instance so the
                // main loop can surface the error.
                self.pes[pe].instances.insert(id, inst);
            }
            Err(msg) => {
                self.fail(msg);
                self.pes[pe].instances.insert(id, inst);
            }
        }
    }

    fn finish_instance(&mut self, pe: usize, inst: &Instance, value: Option<Value>, now: f64) {
        if inst.id == self.entry_instance {
            self.result = value;
            return;
        }
        if let (Some(waiter), Some(v)) = (inst.return_to, value) {
            self.send_to_waiter(pe, waiter, v, now + self.config.timing.unit_signal);
        }
    }
}

/// The simulator's execution context for the shared instruction core
/// (`pods_sp::exec`): one EU slice of one instance on one PE. The semantics
/// live in the core; this adapter supplies the simulator's *mechanics* —
/// the §5.1 timing model (`charge`), the per-PE [`ArrayMemory`] with page
/// caching and remote messages ([`ArrayOps`]), asynchronous Array-Manager
/// deliveries, and inter-PE spawn routing.
struct SimCtx<'a> {
    sim: &'a mut Simulation,
    pe: usize,
    inst: &'a mut Instance,
    /// The EU-local clock, advanced by `charge` and read by the hooks when
    /// scheduling unit service and message departures.
    t: &'a mut f64,
    timing: &'a TimingModel,
}

impl ArrayOps for SimCtx<'_> {
    fn alloc_array(
        &mut self,
        dst: SlotId,
        name: &Arc<str>,
        dims: Vec<usize>,
        distributed: bool,
    ) -> Result<(), String> {
        let pe = self.pe;
        // The array ID token is produced asynchronously by the Array
        // Manager: clear the slot and deliver the reference by event.
        self.inst.clear_slot(dst);
        let id = ArrayId(self.sim.next_array);
        self.sim.next_array += 1;
        self.sim
            .arrays
            .push((id, name.to_string(), ArrayShape::new(dims.clone())));
        self.sim
            .register_array(pe, id, name, &dims, distributed, pe);
        let finish = self
            .sim
            .schedule_unit(pe, AM, *self.t, self.timing.array_allocate);
        self.sim.push_event(
            finish,
            EventKind::Deliver {
                pe,
                instance: self.inst.id,
                slot: dst,
                value: Value::ArrayRef(id),
            },
        );
        // Distributing allocate: broadcast the request to all PEs.
        if distributed {
            for q in 0..self.sim.pes.len() {
                if q != pe {
                    self.sim.send_message(
                        pe,
                        q,
                        Message::RemoteAlloc {
                            array: id,
                            name: name.to_string(),
                            dims: dims.clone(),
                            distributed: true,
                            origin: pe,
                        },
                        finish,
                    );
                }
            }
        }
        Ok(())
    }

    fn with_header<R>(
        &mut self,
        id: ArrayId,
        f: impl FnOnce(&ArrayHeader) -> R,
    ) -> Result<R, String> {
        let pe = self.pe;
        match self.sim.pes[pe].memory.header(id) {
            Some(header) => Ok(f(header)),
            None => Err(format!("array {id} has no header on PE{pe}")),
        }
    }

    fn load_element(&mut self, id: ArrayId, offset: usize, dst: SlotId) -> Result<Loaded, String> {
        let pe = self.pe;
        let waiter = Waiter {
            pe,
            instance: self.inst.id,
            slot: dst,
        };
        match self.sim.pes[pe].memory.read(id, offset, waiter) {
            Ok(ReadOutcome::LocalPresent(v)) => {
                self.sim.pes[pe].stats.local_reads += 1;
                Ok(Loaded::Ready(v))
            }
            Ok(ReadOutcome::CacheHit(v)) => {
                self.sim.pes[pe].stats.cache_hit_reads += 1;
                Ok(Loaded::Ready(v))
            }
            Ok(ReadOutcome::LocalDeferred) => {
                self.sim.pes[pe].stats.deferred_reads += 1;
                self.sim
                    .schedule_unit(pe, AM, *self.t, self.timing.enqueue_read);
                Ok(Loaded::Deferred)
            }
            Ok(ReadOutcome::RemoteMiss {
                owner,
                page,
                cached,
            }) => {
                let sim = &mut *self.sim;
                let key = (id, page);
                let in_flight = sim.pes[pe].in_flight.contains_key(&key);
                let stats = &mut sim.pes[pe].stats;
                stats.remote_reads += 1;
                if in_flight {
                    stats.in_flight_misses += 1;
                } else if cached {
                    stats.stale_misses += 1;
                } else {
                    stats.cold_misses += 1;
                }
                sim.request_element(pe, key, offset, owner.index(), waiter, *self.t);
                Ok(Loaded::Deferred)
            }
            Err(e) => Err(e.to_string()),
        }
    }

    fn store_element(&mut self, id: ArrayId, offset: usize, value: Value) -> Result<(), String> {
        let pe = self.pe;
        match self.sim.pes[pe].memory.write(id, offset, value) {
            Ok(WriteOutcome::Local { woken }) => {
                self.sim.pes[pe].stats.local_writes += 1;
                let service =
                    self.timing.memory_write + woken.len() as f64 * self.timing.unit_signal;
                let finish = self.sim.schedule_unit(pe, AM, *self.t, service);
                for waiter in woken {
                    self.sim.send_to_waiter(pe, waiter, value, finish);
                }
                Ok(())
            }
            Ok(WriteOutcome::Remote { owner }) => {
                self.sim.pes[pe].stats.remote_writes += 1;
                let finish = self.sim.schedule_unit(
                    pe,
                    AM,
                    *self.t,
                    self.timing.memory_write + self.timing.unit_signal,
                );
                self.sim.send_message(
                    pe,
                    owner.index(),
                    Message::WriteForward {
                        array: id,
                        offset,
                        value,
                    },
                    finish,
                );
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        }
    }
}

impl ExecCtx for SimCtx<'_> {
    fn pc(&self) -> usize {
        self.inst.pc
    }

    fn set_pc(&mut self, pc: usize) {
        self.inst.pc = pc;
    }

    fn slot(&self, slot: SlotId) -> Option<Value> {
        self.inst.slot(slot)
    }

    fn set_slot(&mut self, slot: SlotId, value: Value) {
        self.inst.set_slot(slot, value);
    }

    fn clear_slot(&mut self, slot: SlotId) {
        self.inst.clear_slot(slot);
    }

    fn pe(&self) -> usize {
        self.pe
    }

    fn charge(&mut self, cost: Cost) {
        let us = match cost {
            Cost::Binary { op, float } => self.timing.binary_op(op, float),
            Cost::Unary { op, float } => self.timing.unary_op(op, float),
            Cost::Move => self.timing.memory_write,
            Cost::Control => self.timing.int_alu,
            Cost::ArrayAlloc => self.timing.unit_signal,
            Cost::ArrayAccess => self.timing.local_array_access,
            Cost::RangeFilter => 5.0 * self.timing.memory_read,
            Cost::Spawn => self.timing.unit_signal,
            Cost::Return => self.timing.int_alu,
            Cost::ContextSwitch => {
                self.sim.pes[self.pe].stats.context_switches += 1;
                *self.t += self.timing.context_switch;
                return;
            }
        };
        self.sim.pes[self.pe].stats.instructions += 1;
        *self.t += us;
    }

    fn should_stop(&self) -> bool {
        self.sim.error.is_some()
    }

    fn trace_sink(&mut self) -> Option<&mut dyn TraceSink> {
        self.sim
            .sink
            .as_mut()
            .map(|s| s.as_mut() as &mut dyn TraceSink)
    }

    fn spawn(
        &mut self,
        target: SpId,
        args: &[Operand],
        distributed: bool,
        return_to: Option<SlotId>,
    ) -> Result<(), String> {
        let arg_values: Vec<Value> = args.iter().map(|a| self.operand(a)).collect();
        let pe = self.pe;
        let return_to = return_to.map(|slot| Waiter {
            pe,
            instance: self.inst.id,
            slot,
        });
        if distributed {
            for q in 0..self.sim.pes.len() {
                if q == pe {
                    self.sim
                        .create_instance(pe, target, arg_values.clone(), return_to, *self.t);
                } else {
                    self.sim.send_message(
                        pe,
                        q,
                        Message::Spawn {
                            template: target,
                            args: arg_values.clone(),
                            return_to: None,
                        },
                        *self.t,
                    );
                }
            }
        } else {
            self.sim
                .create_instance(pe, target, arg_values, return_to, *self.t);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Unit;
    use pods_partition::{partition, PartitionConfig};

    fn compile_and_partition(src: &str) -> SpProgram {
        let hir = pods_idlang::compile(src).unwrap();
        let loops = pods_dataflow::analyze_loops(&hir);
        let mut program = pods_sp::translate(&hir).unwrap();
        partition(&mut program, &loops, &PartitionConfig::default());
        program
    }

    fn run(src: &str, args: &[Value], pes: usize) -> SimulationResult {
        let program = compile_and_partition(src);
        simulate(&program, args, &MachineConfig::with_pes(pes)).unwrap()
    }

    #[test]
    fn scalar_program_returns_a_value() {
        let result = run("def main(n) { return n * 3 + 1; }", &[Value::Int(4)], 1);
        assert_eq!(result.return_value, Some(Value::Int(13)));
        assert!(result.stats.elapsed_us > 0.0);
    }

    #[test]
    fn function_calls_return_through_tokens() {
        let result = run(
            "def main(n) { x = double(n); return x + 1; } def double(v) { return v * 2; }",
            &[Value::Int(10)],
            1,
        );
        assert_eq!(result.return_value, Some(Value::Int(21)));
    }

    #[test]
    fn simple_loop_fills_an_array_on_one_pe() {
        let result = run(
            "def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i * i; } return a; }",
            &[Value::Int(8)],
            1,
        );
        let a = result.returned_array().expect("array result");
        assert!(a.is_complete());
        assert_eq!(a.get(&[5]), Some(Value::Int(25)));
    }

    #[test]
    fn distributed_nested_loop_produces_identical_results_on_any_pe_count() {
        let src = r#"
            def main(n) {
                a = matrix(n, n);
                for i = 0 to n - 1 {
                    for j = 0 to n - 1 {
                        a[i, j] = i * n + j;
                    }
                }
                return a;
            }
        "#;
        let reference = run(src, &[Value::Int(8)], 1);
        let ref_values = reference.returned_array().unwrap().to_f64(-1.0);
        for pes in [2, 4, 8] {
            let result = run(src, &[Value::Int(8)], pes);
            let a = result.returned_array().unwrap();
            assert!(a.is_complete(), "incomplete array on {pes} PEs");
            assert_eq!(a.to_f64(-1.0), ref_values, "wrong values on {pes} PEs");
        }
    }

    #[test]
    fn multi_pe_runs_are_faster_for_parallel_work() {
        let src = r#"
            def main(n) {
                a = matrix(n, n);
                for i = 0 to n - 1 {
                    for j = 0 to n - 1 {
                        a[i, j] = sqrt(i * 1.0) * sqrt(j * 1.0) + 2.5;
                    }
                }
                return a;
            }
        "#;
        let one = run(src, &[Value::Int(16)], 1);
        let four = run(src, &[Value::Int(16)], 4);
        assert!(four.returned_array().unwrap().is_complete());
        assert!(
            four.elapsed_us() < one.elapsed_us(),
            "4 PEs ({}) not faster than 1 PE ({})",
            four.elapsed_us(),
            one.elapsed_us()
        );
    }

    #[test]
    fn consumer_blocks_until_producer_writes() {
        // main reads elements produced by the distributed loop; I-structure
        // semantics must synchronise the read with the write.
        let src = r#"
            def main(n) {
                a = array(n);
                for i = 0 to n - 1 { a[i] = i * 2; }
                s = a[n - 1] + a[0];
                return s;
            }
        "#;
        let result = run(src, &[Value::Int(10)], 4);
        assert_eq!(result.return_value, Some(Value::Int(18)));
        // Reads of remote or pending elements force context switches.
        assert!(result.stats.total_context_switches() > 0);
    }

    #[test]
    fn single_assignment_violation_is_a_runtime_error() {
        let src = r#"
            def main(n) {
                a = array(n);
                for i = 0 to n - 1 { a[0] = i; }
                return a;
            }
        "#;
        let program = compile_and_partition(src);
        let err = simulate(&program, &[Value::Int(4)], &MachineConfig::with_pes(1)).unwrap_err();
        assert!(matches!(err, SimulationError::Runtime(_)), "{err}");
    }

    #[test]
    fn reading_a_never_written_element_deadlocks() {
        let src = r#"
            def main(n) {
                a = array(n);
                a[0] = 1;
                return a[1];
            }
        "#;
        let program = compile_and_partition(src);
        let err = simulate(&program, &[Value::Int(4)], &MachineConfig::with_pes(1)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "deadlock: 1 SP instances stuck (inst0 of main blocked at pc 3 (Blocked(SlotId(2))))"
        );
        // With several instances stuck on several PEs, the detail names the
        // oldest one, whatever the order of the PEs' instance tables.
        let src = r#"
            def main(n) {
                a = array(n);
                b = array(n);
                for i = 0 to n - 1 { b[i] = a[i] + 1; }
                return b;
            }
        "#;
        let program = compile_and_partition(src);
        let err = simulate(&program, &[Value::Int(64)], &MachineConfig::with_pes(4)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "deadlock: 2 SP instances stuck (inst1 of main.loop0.i blocked at pc 7 (Blocked(SlotId(7))))"
        );
    }

    #[test]
    fn out_of_bounds_access_is_reported() {
        let src = "def main(n) { a = array(n); a[n + 5] = 1; return 0; }";
        let program = compile_and_partition(src);
        let err = simulate(&program, &[Value::Int(4)], &MachineConfig::with_pes(1)).unwrap_err();
        assert!(matches!(err, SimulationError::Runtime(_)));
    }

    #[test]
    fn event_limit_aborts_runaway_simulations() {
        let src = r#"
            def main(n) {
                a = matrix(n, n);
                for i = 0 to n - 1 { for j = 0 to n - 1 { a[i, j] = i + j; } }
                return a;
            }
        "#;
        let program = compile_and_partition(src);
        let config = MachineConfig {
            num_pes: 4,
            max_events: 10,
            ..MachineConfig::default()
        };
        let err = simulate(&program, &[Value::Int(8)], &config).unwrap_err();
        assert!(matches!(err, SimulationError::EventLimitExceeded { .. }));
    }

    #[test]
    fn descending_loops_execute_correctly_distributed() {
        let src = r#"
            def main(n) {
                a = array(n);
                for i = n - 1 downto 0 { a[i] = i + 100; }
                return a;
            }
        "#;
        let result = run(src, &[Value::Int(20)], 4);
        let a = result.returned_array().unwrap();
        assert!(a.is_complete());
        assert_eq!(a.get(&[3]), Some(Value::Int(103)));
    }

    #[test]
    fn remote_reads_use_the_page_cache() {
        // A second loop reads elements written by the first with an offset
        // shifted by one row, forcing some remote reads; the cache should
        // absorb repeated accesses to the same page.
        let src = r#"
            def main(n) {
                a = matrix(n, n);
                b = matrix(n, n);
                for i = 0 to n - 1 {
                    for j = 0 to n - 1 { a[i, j] = i * n + j; }
                }
                for i = 1 to n - 1 {
                    for j = 0 to n - 1 { b[i, j] = a[i - 1, j] * 2; }
                }
                return b;
            }
        "#;
        let result = run(src, &[Value::Int(16)], 4);
        assert!(result.array("b").unwrap().get(&[1, 0]).is_some());
        let stats = &result.stats;
        assert!(
            stats.total_remote_reads() > 0,
            "expected some remote traffic"
        );
        assert!(
            stats.total_cache_hits() > 0,
            "expected the page cache to serve repeated reads"
        );
    }

    #[test]
    fn routing_time_by_message_kind_adds_up_to_the_routing_unit() {
        let src = r#"
            def main(n) {
                a = array(n);
                for i = 0 to n - 1 { a[i] = i * 2; }
                b = array(n);
                for i = 1 to n - 1 { b[i] = a[i - 1] + a[n - i]; }
                return b;
            }
        "#;
        let result = run(src, &[Value::Int(64)], 4);
        for (pe, stats) in result.stats.per_pe.iter().enumerate() {
            let by_kind: f64 = stats.route_busy_by_kind.iter().sum();
            let ru = stats.unit_busy[RU];
            assert!((by_kind - ru).abs() < 1e-6, "PE{pe}: {by_kind} vs {ru}");
            assert_eq!(
                stats.messages_by_kind.iter().sum::<u64>(),
                stats.messages_sent
            );
            assert_eq!(
                stats.remote_reads,
                stats.cold_misses + stats.in_flight_misses + stats.stale_misses
            );
        }
        assert!(result.stats.total_remote_reads() > 0);
    }

    #[test]
    fn utilization_report_shows_eu_as_the_busiest_unit() {
        // The second nest reads the row above, so rows at segment edges
        // come from another PE: the Routing Unit carries page traffic.
        let src = r#"
            def main(n) {
                a = matrix(n, n);
                for i = 0 to n - 1 {
                    for j = 0 to n - 1 { a[i, j] = sqrt(i * 1.0 + j) * 3.0; }
                }
                b = matrix(n, n);
                for i = 1 to n - 1 {
                    for j = 0 to n - 1 { b[i, j] = sqrt(a[i - 1, j]) + a[i, j]; }
                }
                return b;
            }
        "#;
        let result = run(src, &[Value::Int(16)], 4);
        assert!(result.stats.total_remote_reads() > 0, "no remote reads");
        assert!(result.stats.total_messages_of(MessageKind::PageReply) > 0);
        let eu = result.stats.utilization(Unit::Execution);
        for unit in [Unit::Matching, Unit::MemoryManager, Unit::Routing] {
            assert!(
                eu >= result.stats.utilization(unit),
                "EU ({eu}) should dominate {unit}"
            );
        }
        assert!(eu > 0.0 && eu <= 1.0);
    }
}
