//! Property-based tests on the ARMOR architecture's core invariants.

use proptest::prelude::*;
use ree_armor::{
    decode_fields, encode_fields, ArmorEvent, ArmorId, CheckpointBuffer, Fields, Inbound,
    ReliableComm, Value,
};
use ree_os::FieldKind;
use ree_sim::{SimDuration, SimRng, SimTime};

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::U64),
        "[a-z0-9_/.-]{0,24}".prop_map(Value::Str),
        (0u64..1 << 40).prop_map(|v| Value::Ptr(v * 4096)),
    ];
    leaf.prop_recursive(3, 32, 8, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::List),
            proptest::collection::btree_map("[a-z]{1,6}", inner, 0..6).prop_map(Value::Map),
        ]
    })
}

fn arb_fields() -> impl Strategy<Value = Fields> {
    proptest::collection::btree_map("[a-z_]{1,10}", arb_value(), 0..8).prop_map(|m| {
        let mut f = Fields::new();
        for (k, v) in m {
            f.set(k, v);
        }
        f
    })
}

/// One step against an element's state, as an element handler, the heap
/// injector, a restore or the runtime's microcheckpoint/commit would
/// take it. Keys come from a small universe so steps collide.
#[derive(Clone, Debug)]
enum StateOp {
    Set {
        key: usize,
        value: Value,
    },
    /// A raw pointer value: misaligned unless `raw` happens to be a
    /// multiple of the alignment.
    SetPtr {
        key: usize,
        raw: u64,
    },
    /// `get_mut`, then overwrite what it returned (or only look at it).
    GetMut {
        key: usize,
        write: Option<Value>,
    },
    Bump {
        key: usize,
    },
    Remove {
        key: usize,
    },
    /// `resolve_mut` on the `pick`-th leaf path, then flip a bit of it
    /// (or only look at it).
    ResolveMut {
        pick: usize,
        flip: Option<u64>,
    },
    Flip {
        seed: u64,
        pointers_only: bool,
    },
    /// Whole-state replacement, checkpointed at once.
    Restore(Fields),
    /// Read-only traffic: must leave the state clean.
    Read {
        key: usize,
    },
    Microcheckpoint,
    Commit,
    /// Snapshot fork of the whole ARMOR: every state and the checkpoint
    /// buffer are cloned together, as `ArmorProcess::clone` does.
    Fork,
}

const KEYS: [&str; 5] = ["count", "link", "table", "host", "n"];
const ALIGN: u64 = 4096;

fn arb_state_op() -> BoxedStrategy<StateOp> {
    let key = || 0usize..KEYS.len();
    prop_oneof![
        (key(), arb_value()).prop_map(|(key, value)| StateOp::Set { key, value }),
        (key(), any::<u64>()).prop_map(|(key, raw)| StateOp::SetPtr { key, raw }),
        (key(), arb_value(), any::<bool>())
            .prop_map(|(key, v, write)| StateOp::GetMut { key, write: write.then_some(v) }),
        key().prop_map(|key| StateOp::Bump { key }),
        key().prop_map(|key| StateOp::Remove { key }),
        (0usize..64, any::<u64>(), any::<bool>()).prop_map(|(pick, seed, flip)| {
            StateOp::ResolveMut { pick, flip: flip.then_some(seed) }
        }),
        (any::<u64>(), any::<bool>())
            .prop_map(|(seed, pointers_only)| StateOp::Flip { seed, pointers_only }),
        arb_fields().prop_map(StateOp::Restore),
        key().prop_map(|key| StateOp::Read { key }),
        (0u8..1).prop_map(|_| StateOp::Microcheckpoint),
        (0u8..1).prop_map(|_| StateOp::Microcheckpoint),
        (0u8..1).prop_map(|_| StateOp::Commit),
        (0u8..1).prop_map(|_| StateOp::Fork),
    ]
    .boxed()
}

/// Applies a mutating step to one state; the same code drives the
/// dirty-gated side and the always-update side.
fn mutate(state: &mut Fields, op: &StateOp) {
    match op {
        StateOp::Set { key, value } => state.set(KEYS[*key], value.clone()),
        StateOp::SetPtr { key, raw } => state.set(KEYS[*key], Value::Ptr(*raw)),
        StateOp::GetMut { key, write } => {
            if let (Some(slot), Some(v)) = (state.get_mut(KEYS[*key]), write) {
                *slot = v.clone();
            }
        }
        StateOp::Bump { key } => {
            let _ = state.bump(KEYS[*key]);
        }
        StateOp::Remove { key } => {
            let _ = state.remove(KEYS[*key]);
        }
        StateOp::ResolveMut { pick, flip } => {
            let paths = state.leaf_paths();
            if !paths.is_empty() {
                let path = &paths[pick % paths.len()].0;
                let leaf = state.resolve_mut(path).expect("listed leaf resolves");
                if let Some(seed) = flip {
                    leaf.flip_bit(&mut SimRng::new(*seed));
                }
            }
        }
        StateOp::Flip { seed, pointers_only } => {
            let want = pointers_only.then_some(FieldKind::Pointer);
            let _ = state.flip_random_leaf(&mut SimRng::new(*seed), want);
        }
        StateOp::Read { key } => {
            let _ = state.get(KEYS[*key]);
            let _ = state.u64(KEYS[*key]);
            let _ = state.resolve(KEYS[*key]);
            let _ = state.iter().count() + state.leaf_count() + state.len();
            let _ = state.has_leaf(None);
        }
        StateOp::Restore(_) | StateOp::Microcheckpoint | StateOp::Commit | StateOp::Fork => {
            unreachable!("not a mutation of one state")
        }
    }
}

const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

/// One ARMOR's element states checkpointed two ways: dirty-gated
/// microcheckpoints, as the runtime takes them, and an always-`update`
/// reference.
#[derive(Clone)]
struct Armor {
    gated_states: Vec<Fields>,
    always_states: Vec<Fields>,
    gated: CheckpointBuffer,
    always: CheckpointBuffer,
}

fn counters(buf: &CheckpointBuffer) -> (u64, u64, u64, u64) {
    (buf.updates(), buf.clean_updates(), buf.commits(), buf.patched_commits())
}

impl Armor {
    fn new(initial: Vec<Fields>) -> Self {
        let build = |states: &[Fields]| {
            CheckpointBuffer::new(NAMES.iter().zip(states).map(|(n, s)| (*n, s)))
        };
        let mut armor = Armor {
            gated: build(&initial),
            always: build(&initial),
            gated_states: initial.clone(),
            always_states: initial,
        };
        // As `ArmorProcess::new` does: the buffer holds every state.
        for state in &mut armor.gated_states {
            state.take_dirty();
        }
        armor
    }

    /// Applies `op` to element `elem` on both sides, then checks that
    /// they agree.
    fn apply(&mut self, elem: usize, op: &StateOp) {
        match op {
            StateOp::Microcheckpoint => {
                self.gated.microcheckpoint(elem, &mut self.gated_states[elem]);
                self.always.update(NAMES[elem], &self.always_states[elem]);
            }
            StateOp::Commit => {
                let (g, a) = (self.gated.encode(), self.always.encode());
                prop_assert_eq!(&g, &a, "assembled images diverge");
                let decoded = CheckpointBuffer::decode(&g).expect("commit decodes");
                prop_assert_eq!(decoded.len(), NAMES.len());
            }
            StateOp::Restore(fields) => {
                // `try_restore`: a whole new map is born dirty, so the
                // gate lets it through.
                self.gated_states[elem] = fields.clone();
                self.gated.microcheckpoint(elem, &mut self.gated_states[elem]);
                self.always_states[elem] = fields.clone();
                self.always.update(NAMES[elem], &self.always_states[elem]);
            }
            StateOp::Read { .. } => {
                let was_dirty = self.gated_states[elem].is_dirty();
                mutate(&mut self.gated_states[elem], op);
                prop_assert_eq!(self.gated_states[elem].is_dirty(), was_dirty, "a read dirtied");
            }
            StateOp::Fork => unreachable!("a fork clones the whole ARMOR"),
            mutation => {
                let before = self.gated_states[elem].clone();
                mutate(&mut self.gated_states[elem], mutation);
                mutate(&mut self.always_states[elem], mutation);
                // Marking without changing is allowed (it costs an
                // encode); changing without marking never is.
                prop_assert!(
                    self.gated_states[elem].is_dirty() || self.gated_states[elem] == before,
                    "{mutation:?} changed the state and left it clean"
                );
            }
        }
        prop_assert_eq!(&self.gated_states, &self.always_states);
        for (i, name) in NAMES.iter().enumerate() {
            prop_assert_eq!(
                self.gated.region_image(name),
                self.always.region_image(name),
                "region {}",
                name
            );
            let walked = self.gated_states[i].has_misaligned_ptr(ALIGN);
            prop_assert_eq!(
                self.gated_states[i].ptr_fault(ALIGN),
                walked,
                "stale verdict, {}",
                name
            );
        }
        prop_assert_eq!(counters(&self.gated), counters(&self.always));
    }

    /// True if the gated sides of `self` and `other` hold the same
    /// states, region images and counters.
    fn same_gated(&self, other: &Armor) -> bool {
        self.gated_states == other.gated_states
            && NAMES.iter().all(|n| self.gated.region_image(n) == other.gated.region_image(n))
            && counters(&self.gated) == counters(&other.gated)
    }
}

proptest! {
    /// Dirty-gated microcheckpointing is indistinguishable from
    /// re-encoding on every event: over arbitrary interleavings of every
    /// mutating entry point of `Fields`, restores, microcheckpoints and
    /// commits, the gated buffer and an always-`update` buffer hold
    /// byte-identical region images and assembled images and count the
    /// same updates, clean updates, commits and patched commits. Along
    /// the way the cached structural-pointer verdict always equals a
    /// fresh walk — a stale "clean" verdict would silently weaken crash
    /// detection.
    ///
    /// A fork (the states share their entries with the original's until
    /// written) continues on its own ops and must hold the same law,
    /// while the original stays byte-identical to a run that never
    /// forked.
    #[test]
    fn dirty_gated_checkpoints_match_always_update(
        initial in proptest::collection::vec(arb_fields(), 3..4),
        ops in proptest::collection::vec((0usize..3, arb_state_op(), any::<bool>()), 1..64),
    ) {
        let mut original = Armor::new(initial.clone());
        let mut never_forked = Armor::new(initial);
        let mut fork: Option<Armor> = None;
        for (elem, op, on_fork) in ops {
            match (&op, fork.as_mut()) {
                (StateOp::Fork, _) => fork = Some(original.clone()),
                (_, Some(fork)) if on_fork => fork.apply(elem, &op),
                _ => {
                    original.apply(elem, &op);
                    never_forked.apply(elem, &op);
                }
            }
            prop_assert!(original.same_gated(&never_forked), "a fork disturbed its original");
        }
        for armor in [&mut original, &mut never_forked].into_iter().chain(fork.as_mut()) {
            prop_assert_eq!(armor.gated.encode(), armor.always.encode());
        }
        prop_assert_eq!(original.gated.encode(), never_forked.gated.encode());
    }

    /// Checkpoint wire format round-trips arbitrary element state.
    #[test]
    fn fields_encode_decode_roundtrip(fields in arb_fields()) {
        let bytes = encode_fields(&fields);
        let back = decode_fields(&bytes).expect("well-formed image decodes");
        prop_assert_eq!(fields, back);
    }

    /// Bit flips never make state unreadable: a flipped leaf still
    /// encodes/decodes (semantic corruption, not structural).
    #[test]
    fn flipped_fields_still_encode(fields in arb_fields(), seed in any::<u64>()) {
        let mut fields = fields;
        let mut rng = SimRng::new(seed);
        let _ = fields.flip_random_leaf(&mut rng, None);
        let bytes = encode_fields(&fields);
        prop_assert!(decode_fields(&bytes).is_ok());
    }

    /// The checkpoint buffer's regions are disjoint: updating one element
    /// never perturbs another's stored image.
    #[test]
    fn checkpoint_regions_are_disjoint(
        a in arb_fields(),
        b in arb_fields(),
        a2 in arb_fields(),
    ) {
        let mut buf = CheckpointBuffer::new([("a", &a), ("b", &b)]);
        let b_before = buf.region_image("b").unwrap().to_vec();
        buf.update("a", &a2);
        prop_assert_eq!(buf.region_image("b").unwrap(), b_before.as_slice());
        let decoded = CheckpointBuffer::decode(&buf.encode()).unwrap();
        let restored_a = &decoded.iter().find(|(n, _)| n == "a").unwrap().1;
        prop_assert_eq!(restored_a, &a2);
    }

    /// Reliable messaging delivers every message exactly once under
    /// arbitrary loss and duplication of packets/acks.
    #[test]
    fn comm_exactly_once_under_loss(
        n_msgs in 1usize..12,
        drops in proptest::collection::vec(any::<bool>(), 1..40),
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::new(seed);
        let mut sender = ReliableComm::new(ArmorId(1), SimDuration::from_secs(1));
        let mut receiver = ReliableComm::new(ArmorId(2), SimDuration::from_secs(1));
        let mut delivered: Vec<u64> = Vec::new();
        // Send all messages; the "network" drops per the drops mask.
        let mut in_flight: Vec<ree_armor::WirePacket> = (0..n_msgs)
            .map(|i| {
                sender.send(
                    SimTime::ZERO,
                    ArmorId(2),
                    vec![ArmorEvent::new("m").with("i", Value::U64(i as u64))],
                )
            })
            .collect();
        let mut now = SimTime::ZERO;
        for round in 0..60 {
            let mut acks = Vec::new();
            for (k, pkt) in in_flight.drain(..).enumerate() {
                let dropped = drops[(round + k) % drops.len()] && round < 30;
                if dropped {
                    continue;
                }
                match receiver.on_packet(pkt) {
                    Inbound::Deliver(msg) => {
                        delivered.push(msg.events()[0].u64("i").unwrap());
                        let ack = receiver.acknowledge(&msg);
                        // Acks can also be dropped.
                        if !(drops[(round * 7 + k) % drops.len()] && round < 30) {
                            acks.push(ack);
                        }
                    }
                    Inbound::DuplicateReAck(ack) => acks.push(ack),
                    _ => {}
                }
            }
            for ack in acks {
                let _ = sender.on_packet(ack);
            }
            now += SimDuration::from_secs(2);
            in_flight = sender.tick(now);
            if sender.pending_count() == 0 {
                break;
            }
            let _ = rng.next_u64();
        }
        prop_assert_eq!(sender.pending_count(), 0, "all messages eventually acked");
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), delivered.len(), "no duplicates delivered");
        prop_assert_eq!(delivered.len(), n_msgs, "every message delivered");
    }

    /// Incremental commits are indistinguishable from from-scratch
    /// encoding under arbitrary event sequences: every interleaving of
    /// region updates (including unchanged-state re-updates and
    /// length-changing updates, which exercise the clean-skip and
    /// full-rebuild paths) and commits must produce exactly the image a
    /// freshly built buffer over the same final states produces.
    #[test]
    fn incremental_encode_matches_from_scratch(
        ops in proptest::collection::vec(
            (0usize..3, arb_fields(), any::<bool>(), any::<bool>()),
            1..24,
        ),
    ) {
        let names = ["alpha", "beta", "gamma"];
        let empty = Fields::new();
        let mut live = CheckpointBuffer::new(names.iter().map(|n| (*n, &empty)));
        let mut states: Vec<Fields> = vec![Fields::new(); names.len()];
        let reference = |states: &[Fields]| {
            CheckpointBuffer::new(names.iter().zip(states).map(|(n, s)| (*n, s))).encode()
        };
        for (idx, fields, reuse_current, commit) in ops {
            // `reuse_current` re-checkpoints the unchanged state — the
            // clean-update path that must not dirty the region.
            let next = if reuse_current { states[idx].clone() } else { fields };
            prop_assert!(live.update(names[idx], &next));
            states[idx] = next;
            if commit {
                prop_assert_eq!(live.encode(), reference(&states));
            }
        }
        prop_assert_eq!(live.encode(), reference(&states));
    }

    /// A region whose encoded image changes length mid-sequence (string
    /// growth) keeps later regions' spans correct.
    #[test]
    fn incremental_encode_survives_length_changes(
        grow_by in 1usize..48,
        tail in arb_fields(),
    ) {
        let mut a = Fields::new();
        a.set("s", Value::Str("x".into()));
        let b = Fields::new();
        let mut live = CheckpointBuffer::new([("a", &a), ("b", &b)]);
        let _ = live.encode();
        let mut a2 = Fields::new();
        a2.set("s", Value::Str("x".repeat(1 + grow_by)));
        live.update("a", &a2);
        live.update("b", &tail);
        let incremental = live.encode();
        let reference = CheckpointBuffer::new([("a", &a2), ("b", &tail)]).encode();
        prop_assert_eq!(incremental, reference);
    }

    /// Sequence rebasing preserves monotonicity (reincarnation safety).
    #[test]
    fn rebase_is_monotone(bases in proptest::collection::vec(0u64..1 << 30, 1..10)) {
        let mut comm = ReliableComm::new(ArmorId(1), SimDuration::from_secs(1));
        let mut last_seq = 0;
        for base in bases {
            comm.rebase(base);
            let pkt = comm.send(SimTime::ZERO, ArmorId(2), vec![ArmorEvent::new("x")]);
            if let ree_armor::WirePacket::Data(m) = pkt {
                prop_assert!(m.seq > last_seq);
                prop_assert!(m.seq > base);
                last_seq = m.seq;
            }
        }
    }
}
