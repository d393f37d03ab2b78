//! Fork independence of the shared ARMOR state: event slices and
//! checkpoint images.
//!
//! A message's events are one `Arc<[ArmorEvent]>` held by the sender's
//! retransmission table, by every in-flight packet and by every fork of
//! either; a committed checkpoint is one `Arc<Vec<u8>>` held by the
//! buffer, by the RAM disk and by every fork of either. This extends
//! the copy-on-write laws of `ree-os`'s `storage_cow` suite to the ARMOR
//! layer (`ree-mc` forks clusters mid-run and explores both sides): a
//! cluster cloned **mid-window** — an unacknowledged message pending and
//! in flight, a checkpoint committed — stays exactly what it was while
//! its fork poisons the next send, takes a heap flip, retransmits and
//! commits.
//!
//! Behaviour state is opaque to the cluster, so independence is shown
//! two ways: at the fork's end the original's visible state (digest,
//! RAM-disk bytes) is what it was at the fork instant, and run onward the
//! original stays byte-identical — trace and stable storage — to a
//! reference cluster that was never forked.

use ree_armor::{
    ArmorEvent, ArmorId, ArmorProcess, ControlOp, Element, ElementCtx, ElementOutcome, Fields,
    Gateway, RestorePolicy, Value,
};
use ree_os::{
    Cluster, ClusterConfig, HeapHit, HeapTarget, Message, NodeId, Pid, ProcCtx, Process, Signal,
    SpawnSpec,
};
use ree_sim::{SimDuration, SimRng, SimTime};

const TALKER: ArmorId = ArmorId(1);
const LISTENER: ArmorId = ArmorId(2);
/// Heap target the test wrapper turns into `poison_next_send`.
const POISON: &str = "poison-next-send";

/// Sends a numbered note to the listener on every `say`.
struct Talker;

impl Element for Talker {
    fn name(&self) -> &'static str {
        "talker"
    }
    fn subscriptions(&self) -> &'static [&'static str] {
        &["say"]
    }
    fn initial_state(&self) -> Fields {
        let mut state = Fields::new();
        state.set("said", Value::U64(0));
        state.set("link", ree_armor::valid_ptr(3));
        state
    }
    fn handle(
        &self,
        state: &mut Fields,
        _ev: &ArmorEvent,
        ctx: &mut ElementCtx<'_, '_>,
    ) -> ElementOutcome {
        let n = state.bump("said").unwrap_or(0);
        let note = ArmorEvent::new("note")
            .with("n", Value::U64(n))
            .with("text", Value::Str(format!("note number {n}")));
        ctx.send(LISTENER, vec![note]);
        ElementOutcome::Ok
    }
}

/// Keeps every note it is handed, so its checkpoint shows exactly which
/// event contents were delivered.
struct Listener;

impl Element for Listener {
    fn name(&self) -> &'static str {
        "listener"
    }
    fn subscriptions(&self) -> &'static [&'static str] {
        &["note"]
    }
    fn initial_state(&self) -> Fields {
        Fields::new()
    }
    fn handle(
        &self,
        state: &mut Fields,
        ev: &ArmorEvent,
        _ctx: &mut ElementCtx<'_, '_>,
    ) -> ElementOutcome {
        let key = format!("note{}", ev.u64("n").unwrap_or(u64::MAX));
        state.set(key, Value::Str(ev.str("text").unwrap_or("?").to_owned()));
        ElementOutcome::Ok
    }
}

/// An [`ArmorProcess`] with one extra heap target, [`POISON`], through
/// which the test reaches `poison_next_send` inside a cluster.
#[derive(Clone)]
struct Hooked(ArmorProcess);

impl Process for Hooked {
    fn kind(&self) -> &'static str {
        self.0.kind()
    }
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        self.0.on_start(ctx);
    }
    fn on_message(&mut self, msg: Message, ctx: &mut ProcCtx<'_>) {
        self.0.on_message(msg, ctx);
    }
    fn on_timer(&mut self, tag: u64, ctx: &mut ProcCtx<'_>) {
        self.0.on_timer(tag, ctx);
    }
    fn flip_heap_bit(&mut self, rng: &mut SimRng, target: &HeapTarget) -> Option<HeapHit> {
        if *target == HeapTarget::Region(POISON.into()) {
            self.0.poison_next_send();
            return None;
        }
        self.0.flip_heap_bit(rng, target)
    }
}

/// Wires the two ARMORs to each other, then raises `say` at 2, 6 and
/// 10 s. A send commits the buffer as of the *previous* event's
/// microcheckpoint, so it takes the third note to put what the second
/// one changed on stable storage.
#[derive(Clone)]
struct Driver {
    talker: Pid,
    listener: Pid,
}

impl Process for Driver {
    fn kind(&self) -> &'static str {
        "driver"
    }
    fn on_start(&mut self, ctx: &mut ProcCtx<'_>) {
        ctx.send(self.talker, "armor-control", 64, ControlOp::AddRoute(LISTENER, self.listener));
        ctx.send(self.listener, "armor-control", 64, ControlOp::AddRoute(TALKER, self.talker));
        ctx.set_timer(SimDuration::from_secs(2), 0);
        ctx.set_timer(SimDuration::from_secs(6), 0);
        ctx.set_timer(SimDuration::from_secs(10), 0);
    }
    fn on_message(&mut self, _msg: Message, _ctx: &mut ProcCtx<'_>) {}
    fn on_timer(&mut self, _tag: u64, ctx: &mut ProcCtx<'_>) {
        ctx.send(self.talker, "armor-control", 64, ControlOp::Raise(ArmorEvent::new("say")));
    }
}

struct World {
    cluster: Cluster,
    talker: Pid,
    listener: Pid,
}

fn armor(id: ArmorId, name: &str, element: Box<dyn Element>) -> Box<dyn Process> {
    let process =
        ArmorProcess::new(id, name, vec![element], Gateway::SelfRouting, RestorePolicy::OnStart);
    Box::new(Hooked(process))
}

/// Boots the world and runs it to `t = 5 s`: the listener was stopped at
/// 1 s, so note 1 (sent at 2 s, retransmitted at 4 s) is pending at the
/// talker and stashed in flight at the listener, and the talker has
/// committed its checkpoint.
fn world_mid_window() -> World {
    let mut cluster = Cluster::new(ClusterConfig::ree_testbed(11));
    let talker = cluster.spawn(SpawnSpec::new(
        "talker",
        NodeId(0),
        armor(TALKER, "talker", Box::new(Talker)),
    ));
    let listener = cluster.spawn(SpawnSpec::new(
        "listener",
        NodeId(1),
        armor(LISTENER, "listener", Box::new(Listener)),
    ));
    cluster.spawn(SpawnSpec::new("driver", NodeId(0), Box::new(Driver { talker, listener })));
    cluster.run_until(SimTime::from_secs(1));
    cluster.send_signal(listener, Signal::Stop);
    cluster.run_until(SimTime::from_secs(5));
    assert!(cluster.ramdisk(NodeId(0)).exists("ckpt/talker"), "the send committed a checkpoint");
    World { cluster, talker, listener }
}

/// Resumes the listener at 9 s and runs to quiescence at 14 s.
fn finish(world: &mut World) {
    world.cluster.run_until(SimTime::from_secs(9));
    world.cluster.send_signal(world.listener, Signal::Cont);
    world.cluster.run_until(SimTime::from_secs(14));
}

/// The state-digest stream itself: equal streams are equal visible state.
fn digest(cluster: &Cluster) -> Vec<u8> {
    let mut stream = Vec::new();
    cluster.write_state_digest(&mut stream);
    stream
}

fn ckpt(cluster: &mut Cluster, node: u16, path: &str) -> Option<Vec<u8>> {
    cluster.ramdisk(NodeId(node)).read(path).map(<[u8]>::to_vec)
}

#[test]
fn a_fork_mid_window_shares_nothing_it_can_change() {
    let mut reference = world_mid_window();
    let mut original = world_mid_window();
    let at_fork = (digest(&original.cluster), ckpt(&mut original.cluster, 0, "ckpt/talker"));

    // The fork: poison the next send, flip a bit of the talker's state,
    // then let it retransmit note 1 (the shared slice), send a poisoned
    // note 2, commit the flipped state with note 3, and let the listener
    // take delivery.
    let mut fork = World {
        cluster: original.cluster.clone(),
        talker: original.talker,
        listener: original.listener,
    };
    assert!(fork.cluster.inject_heap(fork.talker, &HeapTarget::Region(POISON.into())).is_none());
    let hit = fork.cluster.inject_heap(fork.talker, &HeapTarget::DataOnly);
    assert_eq!(hit.map(|h| h.region), Some("talker".to_owned()));
    finish(&mut fork);
    let fork_trace = fork.cluster.trace().render();
    assert!(
        fork_trace.contains("dereferenced corrupted pointer in message"),
        "the fork's poisoned note must crash its listener:\n{fork_trace}"
    );
    let fork_image = ckpt(&mut fork.cluster, 0, "ckpt/talker").expect("committed");
    let fork_state = ree_armor::CheckpointBuffer::decode(&fork_image).expect("well-formed");
    assert_ne!(fork_state[0].1.u64("said"), Some(2), "the fork committed its flipped counter");

    // The original has not moved: same visible state, same image bytes.
    assert_eq!(digest(&original.cluster), at_fork.0);
    assert_eq!(ckpt(&mut original.cluster, 0, "ckpt/talker"), at_fork.1);

    // And it goes on exactly as a cluster that was never forked: the
    // in-flight note, the retransmissions out of `pending`, the second
    // note and every commit carry the unpoisoned, unflipped contents.
    finish(&mut original);
    finish(&mut reference);
    assert_eq!(original.cluster.trace().render(), reference.cluster.trace().render());
    assert_eq!(digest(&original.cluster), digest(&reference.cluster));
    for (node, path) in [(0, "ckpt/talker"), (1, "ckpt/listener")] {
        let image = ckpt(&mut original.cluster, node, path).expect("committed");
        assert_eq!(Some(&image), ckpt(&mut reference.cluster, node, path).as_ref(), "{path}");
        let decoded = ree_armor::CheckpointBuffer::decode(&image).expect("well-formed");
        if path == "ckpt/listener" {
            let notes = &decoded[0].1;
            assert_eq!(notes.get("note1").and_then(Value::as_str), Some("note number 1"));
            assert_eq!(notes.get("note2").and_then(Value::as_str), Some("note number 2"));
        } else {
            assert_eq!(decoded[0].1.u64("said"), Some(2), "as of the second note");
        }
    }
    assert!(!original.cluster.trace().render().contains("corrupted pointer"));
}
