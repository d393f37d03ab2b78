//! The ARMOR runtime: an [`ree_os::Process`] hosting a set of elements
//! with reliable messaging, microcheckpointing, assertions, and recovery.
//!
//! One runtime serves every ARMOR kind in the SIFT environment — FTM,
//! daemons, Heartbeat ARMOR, Execution ARMORs — differing only in their
//! element composition ("this modular, event-driven architecture permits
//! the ARMOR's functionality and fault tolerance services to be customized
//! by choosing the particular set of elements", §3.1) and in their
//! gateway/restore configuration.

use crate::comm::{Inbound, ReliableComm};
use crate::element::{Element, ElementOutcome};
use crate::event::{ArmorEvent, ArmorId, WirePacket};
use crate::microcheckpoint::CheckpointBuffer;
use crate::value::{Fields, Value};
use ree_os::{
    FieldKind, HeapHit, HeapTarget, Message, Payload, Pid, ProcCtx, Process, Signal, TraceDetail,
};
use ree_sim::{SimDuration, SimRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// Page alignment that "valid" structural pointers satisfy; a bit-flipped
/// pointer is almost always misaligned and crashes on first dereference.
const PTR_ALIGN: u64 = 4096;

/// Creates a valid structural pointer value for element state.
pub fn valid_ptr(slot: u64) -> Value {
    Value::Ptr(slot * PTR_ALIGN)
}

/// When a recovered ARMOR restores its state from the checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestorePolicy {
    /// Restore autonomously during startup (daemon-driven recovery of
    /// subordinate ARMORs).
    OnStart,
    /// Wait for an explicit `__restore-state` instruction — the
    /// Heartbeat-ARMOR-driven two-step FTM recovery of §6.1, whose
    /// missing second step leaves the FTM unrecovered under receive
    /// omissions.
    OnInstruction,
}

/// How outbound wire packets leave this ARMOR.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gateway {
    /// Send everything to the local daemon process for routing (normal
    /// ARMORs; "daemons are the gateways for ARMOR-to-ARMOR
    /// communication", §3.1).
    Daemon(Pid),
    /// Route directly from an internal table (the daemon ARMOR itself).
    SelfRouting,
}

/// Comm retransmission tick period.
const TICK_PERIOD: SimDuration = SimDuration::from_millis(500);
/// Unacked messages are retransmitted after this long.
const RETRANSMIT_AFTER: SimDuration = SimDuration::from_secs(2);
/// Delay between process start and readiness (checkpoint restore,
/// element wiring) — part of the ~0.5 s recovery time.
const READY_DELAY: SimDuration = SimDuration::from_millis(200);

const TIMER_TICK: u64 = 0;
const TIMER_READY: u64 = 1;
const TIMER_RESTORE_FALLBACK: u64 = 2;
const TIMER_USER_BASE: u64 = 3;

/// A [`WirePacket`] still in the box it travelled in. Most packets a
/// daemon sees are not for it: they are routed on in the same box, and
/// only the final receiver unboxes.
#[derive(Clone)]
struct BoxedPacket(Box<dyn Payload>);

impl BoxedPacket {
    /// Accepts the payload of an `armor-wire` message if it is a packet.
    fn from_message(msg: Message) -> Option<Self> {
        msg.peek::<WirePacket>().is_some().then_some(BoxedPacket(msg.payload))
    }

    fn packet(&self) -> &WirePacket {
        (*self.0).as_any().downcast_ref().expect("checked in from_message")
    }

    fn unbox(self) -> WirePacket {
        *Payload::into_any(self.0).downcast().expect("checked in from_message")
    }
}

/// Result of processing a batch of events.
enum Processing {
    Completed,
    Crash(String),
    AbortThread(String),
    Assertion(String),
}

/// Everything in the ARMOR other than the elements and their states
/// (a handler borrows its behaviour, its state and the core at once).
#[derive(Clone)]
pub(crate) struct ArmorCore {
    id: ArmorId,
    name: Arc<str>,
    comm: ReliableComm,
    ckpt: CheckpointBuffer,
    restore: RestorePolicy,
    gateway: Gateway,
    /// ARMOR-id → pid routes, sorted by id. A self-routing process knows
    /// a handful of peers, so a sorted small vec (binary search) beats a
    /// `HashMap` — transmit is on the per-message hot path.
    route_table: Vec<(ArmorId, Pid)>,
    raised: Vec<ArmorEvent>,
    poison_next_send: bool,
    /// Pending timer-raised events, sorted by tag (tags are allocated
    /// monotonically, so insertion is a push).
    timer_events: Vec<(u64, ArmorEvent)>,
    next_timer_tag: u64,
    ckpt_key: Arc<str>,
}

impl ArmorCore {
    fn transmit(&mut self, packet: WirePacket, os: &mut ProcCtx<'_>) {
        self.transmit_boxed(BoxedPacket(Box::new(packet)), os);
    }

    fn transmit_boxed(&mut self, boxed: BoxedPacket, os: &mut ProcCtx<'_>) {
        let packet = boxed.packet();
        let (dst, size) = (packet.destination(), packet.wire_size());
        let next_hop = match self.gateway {
            Gateway::Daemon(daemon) => daemon,
            Gateway::SelfRouting => match self.route(dst) {
                Some(pid) => pid,
                None => {
                    os.trace(format!("route miss for armor{}; packet dropped", dst.0));
                    return;
                }
            },
        };
        os.send_boxed(next_hop, "armor-wire", size, boxed.0);
    }

    /// One-shot outgoing-message corruption: a silently corrupted ARMOR
    /// poisons the next message it builds (§6.1: corrupted termination
    /// notifications / heartbeat messages crash their receiver). The
    /// poison rides the message — a *reliable* poisoned message is
    /// retransmitted verbatim, re-crashing the receiver in a loop; an
    /// *unreliable* one strikes once.
    fn apply_transient_poison(&mut self, events: &mut [ArmorEvent]) {
        if self.poison_next_send {
            self.poison_next_send = false;
            if let Some(first) = events.first_mut() {
                first.fields.set("__hdr", Value::Ptr(PTR_ALIGN + 1));
            }
        }
    }

    fn commit_checkpoint(&mut self, os: &mut ProcCtx<'_>) {
        // The RAM disk stores the very image the buffer keeps: a commit
        // with nothing dirty is two refcount bumps.
        let image = self.ckpt.encode();
        if os.ramdisk().write(&self.ckpt_key, image).is_err() {
            os.trace("checkpoint commit failed: ram disk full");
        }
    }

    /// Looks up the pid routed for `id` (binary search, no hashing).
    fn route(&self, id: ArmorId) -> Option<Pid> {
        self.route_table.binary_search_by_key(&id, |(a, _)| *a).ok().map(|i| self.route_table[i].1)
    }

    /// Installs (or replaces) a route.
    fn install_route(&mut self, id: ArmorId, pid: Pid) {
        match self.route_table.binary_search_by_key(&id, |(a, _)| *a) {
            Ok(i) => self.route_table[i].1 = pid,
            Err(i) => self.route_table.insert(i, (id, pid)),
        }
    }
}

/// Per-event context handed to elements.
pub struct ElementCtx<'a, 'b> {
    core: &'a mut ArmorCore,
    /// Raw OS access (spawning application processes, killing hung
    /// processes, storage, traces). Elements use this sparingly.
    pub os: &'a mut ProcCtx<'b>,
}

impl ElementCtx<'_, '_> {
    /// This ARMOR's identity.
    pub fn armor_id(&self) -> ArmorId {
        self.core.id
    }

    /// Current virtual time.
    pub fn now(&self) -> ree_sim::SimTime {
        self.os.now()
    }

    /// Sends events to another ARMOR reliably. Each transmission commits
    /// the checkpoint buffer to stable storage (§3.4).
    pub fn send(&mut self, dst: ArmorId, mut events: Vec<ArmorEvent>) {
        self.core.apply_transient_poison(&mut events);
        let now = self.os.now();
        let packet = self.core.comm.send(now, dst, events);
        self.core.transmit(packet, self.os);
        self.core.commit_checkpoint(self.os);
    }

    /// Sends events fire-and-forget (heartbeat pings and replies): no
    /// retransmission, no delivery guarantee.
    pub fn send_unreliable(&mut self, dst: ArmorId, mut events: Vec<ArmorEvent>) {
        self.core.apply_transient_poison(&mut events);
        let packet = self.core.comm.send_unreliable(dst, events);
        self.core.transmit(packet, self.os);
        self.core.commit_checkpoint(self.os);
    }

    /// Raises an event for local elements, processed after the current
    /// event within the same message context.
    pub fn raise(&mut self, ev: ArmorEvent) {
        self.core.raised.push(ev);
    }

    /// Schedules an event to be raised locally after `delay`.
    pub fn set_timer_event(&mut self, delay: SimDuration, ev: ArmorEvent) {
        let tag = self.core.next_timer_tag;
        self.core.next_timer_tag += 1;
        // Tags are allocated monotonically, so pushing keeps the vec
        // sorted for the binary-search removal in `on_timer`.
        debug_assert!(self.core.timer_events.last().is_none_or(|(t, _)| *t < tag));
        self.core.timer_events.push((tag, ev));
        self.os.set_timer(delay, tag);
    }

    /// Installs a route (daemons and installers).
    pub fn install_route(&mut self, id: ArmorId, pid: Pid) {
        self.core.install_route(id, pid);
    }

    /// Appends to the cluster trace.
    pub fn trace(&mut self, detail: impl Into<TraceDetail>) {
        self.os.trace(detail);
    }

    /// Appends to the cluster trace with a typed event for O(1)
    /// classification queries.
    pub fn trace_event(&mut self, event: ree_os::TraceEvent, detail: impl Into<TraceDetail>) {
        self.os.trace_event(event, detail);
    }
}

/// Order of the subscriber table: by length, then bytes, so a lookup
/// mostly compares integers and reads tag bytes only among tags of the
/// event's own length.
fn tag_order(a: &str, b: &str) -> std::cmp::Ordering {
    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
}

/// The ARMOR process: element container + runtime services.
#[derive(Clone)]
pub struct ArmorProcess {
    core: ArmorCore,
    /// The behaviours in composition order, shared by every fork.
    elements: Arc<[Box<dyn Element>]>,
    /// Element `i`'s private state, checkpointed into region `i`. With
    /// `core` this is all of the ARMOR's protocol state.
    states: Vec<Fields>,
    /// Event tag → positions of the subscribed elements in delivery
    /// order, sorted by [`tag_order`]; built once from `subscriptions()`
    /// and shared by every fork.
    subscribers: Arc<[(&'static str, Vec<usize>)]>,
    ready: bool,
    /// For [`RestorePolicy::OnInstruction`]: protocol traffic is held
    /// until the restore instruction arrives — a cold process must not
    /// acknowledge (and thereby consume) messages its restored self
    /// needs (§6.1 two-step recovery).
    awaiting_restore: bool,
    buffered: VecDeque<BoxedPacket>,
    restored_from_checkpoint: bool,
}

impl ArmorProcess {
    /// Builds an ARMOR from its element composition; `restore` says when
    /// a recovered incarnation reloads its checkpoint.
    pub fn new(
        id: ArmorId,
        name: impl Into<String>,
        elements: Vec<Box<dyn Element>>,
        gateway: Gateway,
        restore: RestorePolicy,
    ) -> Self {
        let name: Arc<str> = name.into().into();
        let mut states: Vec<Fields> = elements.iter().map(|e| e.initial_state()).collect();
        let ckpt = CheckpointBuffer::new(elements.iter().map(|e| e.name()).zip(&states));
        // Element `i` checkpoints into region `i`: dirty-gated
        // microcheckpoints pair one state with one region.
        debug_assert!(
            elements.iter().enumerate().all(|(i, e)| ckpt.region_index(e.name()) == Some(i)),
            "ARMOR {name}: element names must be unique"
        );
        // The buffer now holds every element's state: nothing is dirty.
        for state in &mut states {
            state.take_dirty();
        }
        let mut subscribers: Vec<(&'static str, Vec<usize>)> = Vec::new();
        for (i, elem) in elements.iter().enumerate() {
            for &tag in elem.subscriptions() {
                match subscribers.binary_search_by(|(t, _)| tag_order(t, tag)) {
                    Ok(at) if subscribers[at].1.last() == Some(&i) => {}
                    Ok(at) => subscribers[at].1.push(i),
                    Err(at) => subscribers.insert(at, (tag, vec![i])),
                }
            }
        }
        ArmorProcess {
            core: ArmorCore {
                id,
                comm: ReliableComm::new(id, RETRANSMIT_AFTER),
                ckpt,
                gateway,
                route_table: Vec::new(),
                raised: Vec::new(),
                poison_next_send: false,
                timer_events: Vec::new(),
                next_timer_tag: TIMER_USER_BASE,
                ckpt_key: format!("ckpt/{name}").into(),
                name,
                restore,
            },
            elements: elements.into(),
            states,
            subscribers: subscribers.into(),
            ready: false,
            awaiting_restore: false,
            buffered: VecDeque::new(),
            restored_from_checkpoint: false,
        }
    }

    fn try_restore(&mut self, ctx: &mut ProcCtx<'_>) {
        let Some(decoded) = ctx.ramdisk().read(&self.core.ckpt_key).map(CheckpointBuffer::decode)
        else {
            return;
        };
        match decoded {
            Ok(decoded) => {
                for (name, fields) in decoded {
                    if let Some(i) = self.core.ckpt.region_index(&name) {
                        // A whole new map is born dirty: this always
                        // re-encodes the region.
                        self.states[i] = fields;
                        self.core.ckpt.microcheckpoint(i, &mut self.states[i]);
                    }
                }
                self.restored_from_checkpoint = true;
                ctx.trace(format!("{} restored state from checkpoint", self.core.name));
            }
            Err(e) => {
                ctx.trace_recovery(format!(
                    "{} checkpoint unusable ({e}); cold start",
                    self.core.name
                ));
            }
        }
    }

    /// Delivers `events` in order, then whatever elements raised while
    /// handling them (in raise order). The delivered slice is walked in
    /// place — it is usually a message's shared slice — and only raised
    /// events are queued.
    fn process_events(&mut self, events: &[ArmorEvent], ctx: &mut ProcCtx<'_>) -> Processing {
        let mut raised: VecDeque<ArmorEvent> = VecDeque::new();
        for ev in events {
            if let Some(stop) = self.deliver(ev, &mut raised, ctx) {
                return stop;
            }
        }
        while let Some(ev) = raised.pop_front() {
            if let Some(stop) = self.deliver(&ev, &mut raised, ctx) {
                return stop;
            }
        }
        Processing::Completed
    }

    /// Hands one event to every subscribed element; `Some` stops the
    /// batch.
    fn deliver(
        &mut self,
        ev: &ArmorEvent,
        raised: &mut VecDeque<ArmorEvent>,
        ctx: &mut ProcCtx<'_>,
    ) -> Option<Processing> {
        // Runtime-reserved events.
        if ev.tag == "__restore-state" {
            self.try_restore(ctx);
            self.awaiting_restore = false;
            if self.restored_from_checkpoint {
                ctx.trace_recovery_event(
                    ree_os::TraceEvent::RecoveryCompleted,
                    format!("recovered {}", self.core.name),
                );
                // Let elements re-derive in-flight intentions (timers
                // died with the previous incarnation).
                raised.push_back(ArmorEvent::new("armor-restored"));
            }
            return None;
        }
        // A poisoned pointer in the message payload crashes the
        // receiver as it unmarshals (§6.1 propagation).
        if ev.fields.has_misaligned_ptr(PTR_ALIGN) {
            return Some(Processing::Crash("dereferenced corrupted pointer in message".into()));
        }
        if let Ok(at) = self.subscribers.binary_search_by(|(t, _)| tag_order(t, ev.tag)) {
            for &i in &self.subscribers[at].1 {
                let (elem, state) = (&*self.elements[i], &mut self.states[i]);
                let stop = Self::handle_one(elem, state, i, &mut self.core, ev, ctx);
                if stop.is_some() {
                    // What the stopped thread raised dies with it.
                    self.core.raised.clear();
                    return stop;
                }
            }
        }
        // Events raised by elements run after the current one.
        raised.extend(self.core.raised.drain(..));
        None
    }

    /// One element's turn at one event: pointer-fault check, handler,
    /// assertions, microcheckpoint — in that order.
    fn handle_one(
        elem: &dyn Element,
        state: &mut Fields,
        region: usize,
        core: &mut ArmorCore,
        ev: &ArmorEvent,
        ctx: &mut ProcCtx<'_>,
    ) -> Option<Processing> {
        // Touching state with a corrupted structural pointer segfaults
        // before any logic runs. The verdict is cached in the state and
        // dropped by any mutation, a heap flip included.
        if state.ptr_fault(PTR_ALIGN) {
            return Some(Processing::Crash("dereferenced corrupted element pointer".into()));
        }
        match elem.handle(state, ev, &mut ElementCtx { core, os: ctx }) {
            ElementOutcome::Ok => {
                // Assertion check *before* the microcheckpoint so
                // detected corruption never reaches the buffer
                // (Table 9 scenario 3).
                if let Err(e) = elem.check(state) {
                    return Some(Processing::Assertion(e));
                }
                // Only the handling element is snapshotted, and only if
                // its state was touched since its last snapshot.
                core.ckpt.microcheckpoint(region, state);
                None
            }
            ElementOutcome::Crash(r) => Some(Processing::Crash(r)),
            ElementOutcome::AbortThread(r) => Some(Processing::AbortThread(r)),
        }
    }

    fn finish_local(&mut self, result: Processing, ctx: &mut ProcCtx<'_>) {
        match result {
            Processing::Completed => {}
            Processing::Crash(r) => {
                ctx.trace(format!("{} crash: {r}", self.core.name));
                ctx.crash(Signal::Segv);
            }
            Processing::Assertion(e) => {
                ctx.trace_event(
                    ree_os::TraceEvent::AssertionFired,
                    format!("{} assertion fired: {e}", self.core.name),
                );
                ctx.abort(e);
            }
            Processing::AbortThread(r) => {
                ctx.trace(format!("{} handling thread aborted: {r}", self.core.name));
            }
        }
    }

    /// Handles the packets held back while not ready or awaiting the
    /// restore instruction, in arrival order.
    fn drain_buffered(&mut self, ctx: &mut ProcCtx<'_>) {
        while let Some(boxed) = self.buffered.pop_front() {
            self.handle_wire(boxed, ctx);
        }
    }

    fn handle_wire(&mut self, boxed: BoxedPacket, ctx: &mut ProcCtx<'_>) {
        if boxed.packet().destination() != self.core.id {
            // Routing duty (daemon ARMORs only).
            if self.core.gateway == Gateway::SelfRouting {
                self.core.transmit_boxed(boxed, ctx);
            } else {
                ctx.trace(format!("{}: misrouted packet dropped", self.core.name));
            }
            return;
        }
        match self.core.comm.on_packet(boxed.unbox()) {
            Inbound::Deliver(msg) => {
                match self.process_events(msg.events(), ctx) {
                    Processing::Completed => {
                        let ack = self.core.comm.acknowledge(&msg);
                        self.core.transmit(ack, ctx);
                        // Every transmission commits the checkpoint.
                        self.core.commit_checkpoint(ctx);
                    }
                    Processing::AbortThread(r) => {
                        // Seen but unacked: the Figure 10 mechanism.
                        self.core.comm.mark_seen_unacked(&msg);
                        ctx.trace(format!("{} thread abort: {r}", self.core.name));
                    }
                    // A crash or a fired assertion ends the process the
                    // same way wherever the event came from.
                    fatal => self.finish_local(fatal, ctx),
                }
            }
            Inbound::DuplicateReAck(ack) => {
                self.core.transmit(ack, ctx);
            }
            Inbound::AckConsumed | Inbound::AckIgnored => {}
        }
    }
}

/// Control operations outside the ARMOR reliable-messaging plane (used
/// by the trusted SCC and by the SIFT application interface).
#[derive(Debug, Clone)]
pub enum ControlOp {
    /// Adds a routing entry.
    AddRoute(ArmorId, Pid),
    /// Raises a local event (e.g. progress indicators from the SIFT
    /// client library, install instructions from the SCC).
    Raise(ArmorEvent),
}

impl Process for ArmorProcess {
    fn kind(&self) -> &'static str {
        "armor"
    }

    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        // Fresh incarnations must use fresh sequence numbers (peers'
        // dedup sets survived our predecessor's crash).
        self.core.comm.rebase(ctx.pid().0.wrapping_mul(1_000_000));
        match self.core.restore {
            RestorePolicy::OnStart => {
                self.try_restore(ctx);
            }
            RestorePolicy::OnInstruction => {
                // Hold protocol traffic until the recovery coordinator
                // instructs the restore — but only if a checkpoint
                // actually exists (a first install proceeds cold).
                if ctx.ramdisk().exists(&self.core.ckpt_key) {
                    self.awaiting_restore = true;
                    // Safety valve: if the coordinator never follows up
                    // (e.g. it is failing too), proceed cold rather than
                    // deadlock.
                    ctx.set_timer(SimDuration::from_secs(30), TIMER_RESTORE_FALLBACK);
                }
            }
        }
        ctx.set_timer(TICK_PERIOD, TIMER_TICK);
        ctx.set_timer(READY_DELAY, TIMER_READY);
    }

    fn on_message(&mut self, msg: Message, ctx: &mut ProcCtx<'_>) {
        match msg.label {
            "armor-wire" => match BoxedPacket::from_message(msg) {
                Some(boxed) => {
                    let restore_instruction = matches!(
                        boxed.packet(),
                        WirePacket::Data(m)
                            if m.events().iter().any(|e| e.tag == "__restore-state")
                    );
                    if self.ready && (!self.awaiting_restore || restore_instruction) {
                        self.handle_wire(boxed, ctx);
                        if restore_instruction && !self.awaiting_restore {
                            self.drain_buffered(ctx);
                        }
                    } else {
                        self.buffered.push_back(boxed);
                    }
                }
                None => ctx.trace("malformed armor-wire payload"),
            },
            "armor-control" => match msg.take::<ControlOp>() {
                Ok(ControlOp::AddRoute(id, pid)) => {
                    self.core.install_route(id, pid);
                }
                Ok(ControlOp::Raise(ev)) => {
                    let result = self.process_events(&[ev], ctx);
                    self.finish_local(result, ctx);
                }
                Err(_) => ctx.trace("malformed armor-control payload"),
            },
            other => {
                ctx.trace(format!("{}: unknown message label {other}", self.core.name));
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut ProcCtx<'_>) {
        match tag {
            TIMER_TICK => {
                let now = ctx.now();
                for packet in self.core.comm.tick(now) {
                    self.core.transmit(packet, ctx);
                }
                ctx.set_timer(TICK_PERIOD, TIMER_TICK);
            }
            TIMER_RESTORE_FALLBACK => {
                if self.awaiting_restore {
                    ctx.trace(format!(
                        "{}: no restore instruction; proceeding from checkpoint",
                        self.core.name
                    ));
                    self.try_restore(ctx);
                    self.awaiting_restore = false;
                    let result = self.process_events(&[ArmorEvent::new("armor-restored")], ctx);
                    self.finish_local(result, ctx);
                    self.drain_buffered(ctx);
                }
            }
            TIMER_READY => {
                self.ready = true;
                // Elements learn they are live via the armor-start event;
                // recovered ARMORs additionally get armor-restored so
                // they can re-derive in-flight intentions.
                let mut events = vec![ArmorEvent::new("armor-start")];
                if self.restored_from_checkpoint {
                    ctx.trace_recovery_event(
                        ree_os::TraceEvent::RecoveryCompleted,
                        format!("recovered {}", self.core.name),
                    );
                    events.push(ArmorEvent::new("armor-restored"));
                }
                let result = self.process_events(&events, ctx);
                self.finish_local(result, ctx);
                self.drain_buffered(ctx);
            }
            user => {
                let fired = self
                    .core
                    .timer_events
                    .binary_search_by_key(&user, |(t, _)| *t)
                    .ok()
                    .map(|i| self.core.timer_events.remove(i).1);
                if let Some(ev) = fired {
                    let result = self.process_events(&[ev], ctx);
                    self.finish_local(result, ctx);
                }
            }
        }
    }

    fn on_child_exit(&mut self, child: Pid, status: ree_os::ExitStatus, ctx: &mut ProcCtx<'_>) {
        // waitpid-based crash detection (§3.2/§3.3): surface as an event.
        let ev = ArmorEvent::new("os-child-exit")
            .with("child", Value::U64(child.0))
            .with("abnormal", Value::Bool(status.is_abnormal()))
            .with("status", Value::Str(status.to_string()));
        let result = self.process_events(&[ev], ctx);
        self.finish_local(result, ctx);
    }

    fn flip_heap_bit(&mut self, rng: &mut SimRng, target: &HeapTarget) -> Option<HeapHit> {
        let want = match target {
            HeapTarget::Any => None,
            HeapTarget::DataOnly | HeapTarget::Region(_) => Some(FieldKind::Data),
        };
        let region_filter: Option<&str> = match target {
            HeapTarget::Region(name) => Some(name.as_str()),
            _ => None,
        };
        // Collect candidate element indices (with at least one matching leaf).
        let mut candidates = Vec::new();
        for (i, elem) in self.elements.iter().enumerate() {
            if region_filter.is_none_or(|filter| elem.name() == filter)
                && self.states[i].has_leaf(want)
            {
                candidates.push(i);
            }
        }
        if candidates.is_empty() {
            return None;
        }
        let i = candidates[rng.index(candidates.len())];
        let (path, kind) = self.states[i].flip_random_leaf(rng, want)?;
        Some(HeapHit { region: self.elements[i].name().to_owned(), field: path, kind })
    }

    fn silent_corruption(&mut self, rng: &mut SimRng) {
        // 60%: persistent bit flip in some element's state; 40%: one-shot
        // corruption of the next outgoing message (§6.1 scenarios).
        if rng.chance(0.6) {
            let _ = self.flip_heap_bit(rng, &HeapTarget::Any);
        } else {
            self.core.poison_next_send = true;
        }
    }
}

impl ArmorProcess {
    /// Testing/experiment hook: force the next outgoing message to carry
    /// corrupted header data.
    pub fn poison_next_send(&mut self) {
        self.core.poison_next_send = true;
    }
}

impl std::fmt::Debug for ArmorProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArmorProcess")
            .field("id", &self.core.id)
            .field("name", &self.core.name)
            .field("elements", &self.elements.len())
            .field("ready", &self.ready)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ree_os::{Cluster, ClusterConfig, NodeId, SpawnSpec};
    use ree_sim::SimTime;

    /// Counts the events it subscribes to.
    struct Counter(&'static str, &'static [&'static str]);

    impl Element for Counter {
        fn name(&self) -> &'static str {
            self.0
        }
        fn subscriptions(&self) -> &'static [&'static str] {
            self.1
        }
        fn initial_state(&self) -> Fields {
            let mut state = Fields::new();
            state.set("seen", Value::U64(0));
            state
        }
        fn handle(
            &self,
            state: &mut Fields,
            _: &ArmorEvent,
            _: &mut ElementCtx<'_, '_>,
        ) -> ElementOutcome {
            state.bump("seen");
            ElementOutcome::Ok
        }
    }

    /// Raises one `ping` in an ARMOR when it starts.
    #[derive(Clone)]
    struct Pinger(Pid);

    impl Process for Pinger {
        fn kind(&self) -> &'static str {
            "pinger"
        }
        fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
            ctx.send(self.0, "armor-control", 64, ControlOp::Raise(ArmorEvent::new("ping")));
        }
        fn on_message(&mut self, _: Message, _: &mut ProcCtx<'_>) {}
    }

    #[test]
    fn a_fork_copies_only_the_states_its_deliveries_write() {
        let elements: Vec<Box<dyn Element>> = vec![
            Box::new(Counter("first", &["ping"])),
            Box::new(Counter("second", &["pong"])),
            Box::new(Counter("third", &["ping"])),
        ];
        let armor = ArmorProcess::new(
            ArmorId(2),
            "armor",
            elements,
            Gateway::SelfRouting,
            RestorePolicy::OnStart,
        );
        let mut cluster = Cluster::new(ClusterConfig::ree_testbed(1));
        let pid = cluster.spawn(SpawnSpec::new("armor", NodeId(0), Box::new(armor)));
        cluster.run_until(SimTime::from_secs(1));
        let states = |c: &Cluster| c.behavior::<ArmorProcess>(pid).expect("running").states.clone();
        let shared = |a: &Cluster, b: &Cluster| -> Vec<bool> {
            states(a).iter().zip(&states(b)).map(|(x, y)| x.shares_entries_with(y)).collect()
        };
        let seen =
            |c: &Cluster| -> Vec<Option<u64>> { states(c).iter().map(|s| s.u64("seen")).collect() };

        let mut fork = cluster.clone();
        assert_eq!(shared(&cluster, &fork), [true; 3], "a fork copies no state");
        fork.spawn(SpawnSpec::new("pinger", NodeId(0), Box::new(Pinger(pid))));
        fork.run_until(SimTime::from_secs(2));
        assert_eq!(seen(&fork), [Some(1), Some(0), Some(1)]);
        assert_eq!(shared(&cluster, &fork), [false, true, false], "only the handlers' states copy");
        assert_eq!(seen(&cluster), [Some(0); 3], "the original is untouched");
    }
}
