//! The ARMOR runtime's rarely-logged sentences, asserted where the
//! runtime emits them.
//!
//! `ree-inject`'s `trace_grid` pins every line a grid of injection runs
//! renders, but no run in that grid aborts a handling thread, misroutes a
//! packet, sends an unknown label, or finds its checkpoint truncated or
//! its restore instruction missing. Each of those six sentences is
//! provoked here on a one-ARMOR cluster and compared with the text the
//! typed `TraceDetail` variant used to render.
//!
//! The same one-ARMOR cluster shows two contracts of the runtime that no
//! sentence pins: an aborted handling thread takes the events it raised
//! with it, and the first checkpoint an ARMOR commits holds every
//! element's initial state.

use ree_armor::{
    ArmorEvent, ArmorId, ArmorProcess, CheckpointBuffer, ControlOp, Element, ElementCtx,
    ElementOutcome, Fields, Gateway, ReliableComm, RestorePolicy, Value,
};
use ree_os::{
    Cluster, ClusterConfig, Message, NodeId, Payload, Pid, ProcCtx, Process, SpawnSpec, TraceKind,
};
use ree_sim::{SimDuration, SimTime};

const WORKER: ArmorId = ArmorId(2);

/// Raises `echo` on every `go`.
struct Raiser;

impl Element for Raiser {
    fn name(&self) -> &'static str {
        "raiser"
    }
    fn subscriptions(&self) -> &'static [&'static str] {
        &["go"]
    }
    fn initial_state(&self) -> Fields {
        Fields::new()
    }
    fn handle(
        &self,
        _state: &mut Fields,
        _ev: &ArmorEvent,
        ctx: &mut ElementCtx<'_, '_>,
    ) -> ElementOutcome {
        ctx.raise(ArmorEvent::new("echo"));
        ElementOutcome::Ok
    }
}

/// Refuses every `refuse` event — and every `go`, after [`Raiser`] has
/// had its turn — by aborting the handling thread.
struct Refuser;

impl Element for Refuser {
    fn name(&self) -> &'static str {
        "refuser"
    }
    fn subscriptions(&self) -> &'static [&'static str] {
        &["refuse", "go"]
    }
    fn initial_state(&self) -> Fields {
        let mut state = Fields::new();
        state.set("refused", Value::U64(0));
        state
    }
    fn handle(
        &self,
        _state: &mut Fields,
        _ev: &ArmorEvent,
        _ctx: &mut ElementCtx<'_, '_>,
    ) -> ElementOutcome {
        ElementOutcome::AbortThread("refusing this one".into())
    }
}

/// Counts and traces every `echo` it is handed.
struct Echo;

impl Element for Echo {
    fn name(&self) -> &'static str {
        "echo"
    }
    fn subscriptions(&self) -> &'static [&'static str] {
        &["echo"]
    }
    fn initial_state(&self) -> Fields {
        let mut state = Fields::new();
        state.set("echoes", Value::U64(0));
        state
    }
    fn handle(
        &self,
        state: &mut Fields,
        _ev: &ArmorEvent,
        ctx: &mut ElementCtx<'_, '_>,
    ) -> ElementOutcome {
        state.bump("echoes");
        ctx.trace("echo delivered");
        ElementOutcome::Ok
    }
}

/// Sends its scripted messages on start and ignores everything else.
#[derive(Clone)]
struct Driver {
    script: Vec<(Pid, &'static str, Box<dyn Payload>)>,
}

impl Process for Driver {
    fn kind(&self) -> &'static str {
        "driver"
    }
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        for (to, label, payload) in self.script.drain(..) {
            ctx.send_boxed(to, label, 64, payload);
        }
    }
    fn on_message(&mut self, _msg: Message, _ctx: &mut ProcCtx<'_>) {}
}

fn spawn_worker(cluster: &mut Cluster, gateway: Gateway, restore: RestorePolicy) -> Pid {
    let worker = ArmorProcess::new(
        WORKER,
        "worker",
        vec![Box::new(Raiser), Box::new(Refuser), Box::new(Echo)],
        gateway,
        restore,
    );
    cluster.spawn(SpawnSpec::new("worker", NodeId(0), Box::new(worker)))
}

/// Boots a worker ARMOR, hands it `messages` in order from a driver
/// process, runs one second and returns the cluster with the worker's
/// pid.
fn deliver_all(
    gateway: Gateway,
    messages: Vec<(&'static str, Box<dyn Payload>)>,
) -> (Cluster, Pid) {
    let mut cluster = Cluster::new(ClusterConfig::ree_testbed(3));
    let worker = spawn_worker(&mut cluster, gateway, RestorePolicy::OnStart);
    let script = messages.into_iter().map(|(label, payload)| (worker, label, payload)).collect();
    cluster.spawn(SpawnSpec::new("driver", NodeId(0), Box::new(Driver { script })));
    cluster.run_until(SimTime::from_secs(1));
    (cluster, worker)
}

fn deliver(gateway: Gateway, label: &'static str, payload: Box<dyn Payload>) -> (Cluster, Pid) {
    deliver_all(gateway, vec![(label, payload)])
}

/// The one record whose rendered detail contains `needle`, as
/// `(pid, kind, rendered detail)`.
fn record(cluster: &Cluster, needle: &str) -> (Option<Pid>, TraceKind, String) {
    assert_eq!(cluster.trace().count(needle), 1, "{}", cluster.trace().render());
    let r = cluster.trace().find(needle).expect("counted above");
    (r.pid, r.kind, r.detail.to_string())
}

/// A data packet from ARMOR 1 carrying one `tag` event for `dst`.
fn packet(dst: ArmorId, tag: &'static str) -> Box<dyn Payload> {
    let mut comm = ReliableComm::new(ArmorId(1), SimDuration::from_secs(2));
    Box::new(comm.send(SimTime::ZERO, dst, vec![ArmorEvent::new(tag)]))
}

/// A committed checkpoint image of the worker's one element.
fn worker_image() -> Vec<u8> {
    let state = Refuser.initial_state();
    CheckpointBuffer::new([("refuser", &state)]).encode().to_vec()
}

#[test]
fn unknown_message_label() {
    let (cluster, worker) = deliver(Gateway::SelfRouting, "bogus", Box::new(()));
    assert_eq!(
        record(&cluster, "unknown message label"),
        (Some(worker), TraceKind::App, "worker: unknown message label bogus".into())
    );
}

#[test]
fn thread_abort_on_a_locally_raised_event() {
    let raise = ControlOp::Raise(ArmorEvent::new("refuse"));
    let (cluster, worker) = deliver(Gateway::SelfRouting, "armor-control", Box::new(raise));
    assert_eq!(
        record(&cluster, "thread aborted"),
        (Some(worker), TraceKind::App, "worker handling thread aborted: refusing this one".into())
    );
}

#[test]
fn thread_abort_on_a_delivered_message() {
    let (cluster, worker) = deliver(Gateway::SelfRouting, "armor-wire", packet(WORKER, "refuse"));
    assert_eq!(
        record(&cluster, "thread abort:"),
        (Some(worker), TraceKind::App, "worker thread abort: refusing this one".into())
    );
}

#[test]
fn packet_for_another_armor_at_a_non_routing_armor() {
    // The gateway pid only has to make the worker a non-router.
    let (cluster, worker) =
        deliver(Gateway::Daemon(Pid(999)), "armor-wire", packet(ArmorId(9), "refuse"));
    assert_eq!(
        record(&cluster, "misrouted"),
        (Some(worker), TraceKind::App, "worker: misrouted packet dropped".into())
    );
}

#[test]
fn truncated_checkpoint_image_cold_starts() {
    let mut cluster = Cluster::new(ClusterConfig::ree_testbed(3));
    let mut image = worker_image();
    image.truncate(image.len() / 2);
    cluster.ramdisk(NodeId(0)).write("ckpt/worker", image).expect("fits");
    let worker = spawn_worker(&mut cluster, Gateway::SelfRouting, RestorePolicy::OnStart);
    cluster.run_until(SimTime::from_secs(1));
    assert_eq!(
        record(&cluster, "checkpoint unusable"),
        (
            Some(worker),
            TraceKind::Recovery,
            "worker checkpoint unusable (image truncated); cold start".into()
        )
    );
    assert!(!cluster.trace().contains("restored state from checkpoint"));
}

#[test]
fn missing_restore_instruction_falls_back_after_thirty_seconds() {
    let mut cluster = Cluster::new(ClusterConfig::ree_testbed(3));
    cluster.ramdisk(NodeId(0)).write("ckpt/worker", worker_image()).expect("fits");
    let worker = spawn_worker(&mut cluster, Gateway::SelfRouting, RestorePolicy::OnInstruction);
    cluster.run_until(SimTime::from_secs(29));
    assert!(!cluster.trace().contains("no restore instruction"));
    cluster.run_until(SimTime::from_secs(31));
    assert_eq!(
        record(&cluster, "no restore instruction"),
        (
            Some(worker),
            TraceKind::App,
            "worker: no restore instruction; proceeding from checkpoint".into()
        )
    );
    assert_eq!(
        record(&cluster, "restored state").2,
        "worker restored state from checkpoint",
        "the fallback restores from the image it was told to wait for"
    );
}

#[test]
fn an_aborted_thread_takes_what_it_raised_with_it() {
    // `go` reaches the raiser, which raises `echo`, and then the refuser,
    // which aborts: the `echo` must not surface in the next, unrelated
    // event's batch.
    let raise = |tag| ("armor-control", Box::new(ControlOp::Raise(ArmorEvent::new(tag))) as _);
    let (cluster, _) = deliver_all(Gateway::SelfRouting, vec![raise("go"), raise("unrelated")]);
    assert_eq!(cluster.trace().count("handling thread aborted"), 1, "{}", cluster.trace().render());
    assert!(!cluster.trace().contains("echo delivered"), "{}", cluster.trace().render());
}

#[test]
fn the_first_commit_holds_every_initial_state() {
    // An `echo` from ARMOR 1 is handled by one element and acknowledged;
    // the acknowledgement commits the buffer for the first time.
    let (mut cluster, _) = deliver(Gateway::SelfRouting, "armor-wire", packet(WORKER, "echo"));
    assert_eq!(cluster.trace().count("echo delivered"), 1, "{}", cluster.trace().render());
    let image = cluster.ramdisk(NodeId(0)).read("ckpt/worker").expect("the ack committed").to_vec();
    let mut echoed = Echo.initial_state();
    echoed.bump("echoes");
    assert_eq!(
        CheckpointBuffer::decode(&image).expect("well-formed"),
        vec![
            ("raiser".to_owned(), Raiser.initial_state()),
            ("refuser".to_owned(), Refuser.initial_state()),
            ("echo".to_owned(), echoed),
        ],
        "untouched elements are on stable storage as built, the handler as it left its state"
    );
}
