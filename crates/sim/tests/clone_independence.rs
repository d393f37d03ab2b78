//! Model-based property test for `EventQueue` clone independence.
//!
//! The model checker's fork-per-branch driver clones a queue mid-run and
//! then mutates both sides along different explorations. That is only
//! sound if (a) a clone is an exact snapshot — identical pop order and
//! `(time, seq)` tie-breaks from the moment of the fork — and (b) the
//! two sides are fully independent afterwards: operations on one never
//! perturb the other, and handles never work across the fork in either
//! direction.

use proptest::prelude::*;
use ree_sim::{EventHandle, EventQueue, SimTime};

/// Sorted-vec reference model of one queue: `(time, seq, id)` entries in
/// pop order, plus the handle book-keeping needed to replay cancels.
struct Model {
    entries: Vec<(u64, u64, u64)>,
    /// Every handle this queue ever minted, with its seq.
    handles: Vec<(EventHandle, u64)>,
}

impl Model {
    fn new() -> Self {
        Model { entries: Vec::new(), handles: Vec::new() }
    }

    /// Forks the model at a clone point. Pending entries carry over;
    /// handle history does NOT — pre-clone handles belong to the
    /// original queue only, so the clone's model starts with an empty
    /// mint history.
    fn fork(&self) -> Self {
        Model { entries: self.entries.clone(), handles: Vec::new() }
    }

    fn schedule(&mut self, q: &mut EventQueue<u64>, time: u64, seq: u64, id: u64) {
        let h = q.schedule(SimTime::from_micros(time), id);
        self.entries.push((time, seq, id));
        self.entries.sort_unstable();
        self.handles.push((h, seq));
    }
}

/// Applies one op to a (queue, model) pair and checks agreement. Returns
/// an error string on divergence so `prop_assert!` can surface it.
fn apply_op(
    q: &mut EventQueue<u64>,
    m: &mut Model,
    op: u8,
    time: u64,
    pick: u64,
    next_seq: &mut u64,
    next_id: &mut u64,
) -> Result<(), String> {
    match op {
        0..=4 => {
            m.schedule(q, time, *next_seq, *next_id);
            *next_seq += 1;
            *next_id += 1;
        }
        5 | 6 => {
            if !m.handles.is_empty() {
                let i = (pick as usize) % m.handles.len();
                let (h, seq) = m.handles[i];
                let in_model = m.entries.iter().any(|(_, s, _)| *s == seq);
                if q.cancel(h) != in_model {
                    return Err(format!("cancel truthfulness for seq {seq}"));
                }
                m.entries.retain(|(_, s, _)| *s != seq);
            }
        }
        _ => match (q.pop(), m.entries.is_empty()) {
            (Some((t, _, id)), false) => {
                let (mt, _, mid) = m.entries.remove(0);
                if t != SimTime::from_micros(mt) || id != mid {
                    return Err(format!("pop mismatch: got ({t:?}, {id}), want ({mt}, {mid})"));
                }
            }
            (None, true) => {}
            (got, _) => {
                return Err(format!("pop mismatch: {:?} vs model {:?}", got, m.entries.first()))
            }
        },
    }
    if q.len() != m.entries.len() {
        return Err(format!("len drift: queue {} vs model {}", q.len(), m.entries.len()));
    }
    let model_head = m.entries.first().map(|(t, _, _)| SimTime::from_micros(*t));
    if q.peek_time() != model_head {
        return Err("peek disagrees with model head".into());
    }
    Ok(())
}

proptest! {
    /// Clone a queue mid-churn, then interleave schedule/cancel/pop on
    /// both sides against two independent sorted-vec models. Each side
    /// must track its own model exactly, cross-side handles must always
    /// be rejected without perturbing anything, and draining both sides
    /// at the end must replay each model verbatim.
    #[test]
    fn cloned_queues_evolve_independently(
        pre_ops in proptest::collection::vec((0u8..10, 0u64..500, any::<u64>()), 1..80),
        post_ops in proptest::collection::vec(
            (any::<bool>(), 0u8..10, 0u64..500, any::<u64>()),
            1..200,
        ),
    ) {
        let mut q = EventQueue::new();
        let mut m = Model::new();
        let mut next_seq: u64 = 0;
        let mut next_id: u64 = 0;
        for (op, time, pick) in pre_ops {
            prop_assert!(
                apply_op(&mut q, &mut m, op, time, pick, &mut next_seq, &mut next_id).is_ok()
            );
        }

        // Fork mid-churn. The clone inherits the pending set but not the
        // original's handle validity.
        let mut q2 = q.clone();
        let mut m2 = m.fork();
        let pre_clone_handles: Vec<EventHandle> = m.handles.iter().map(|(h, _)| *h).collect();
        // Ids stay globally unique so a pop on the wrong side could never
        // masquerade as the right payload; seqs restart per side because
        // only relative order within one queue matters.
        let mut seq1 = next_seq;
        let mut seq2 = next_seq;
        let mut id2 = next_id + 1_000_000;

        for (side, op, time, pick) in post_ops {
            let (qq, mm, sq, id) = if side {
                (&mut q2, &mut m2, &mut seq2, &mut id2)
            } else {
                (&mut q, &mut m, &mut seq1, &mut next_id)
            };
            if let Err(e) = apply_op(qq, mm, op, time, pick, sq, id) {
                prop_assert!(false, "side {} diverged: {}", side as u8, e);
            }
            // Cross-fork probes: pre-clone handles must never act on the
            // clone, and each side's fresh handles must never act on the
            // other. A rejected op must also leave state untouched —
            // verified implicitly because both models keep matching.
            if let Some(h) = pre_clone_handles.get((pick as usize) % pre_clone_handles.len().max(1))
            {
                prop_assert!(!q2.cancel(*h), "pre-clone handle acted on the clone");
            }
            if let Some((h, _)) = m2.handles.last() {
                prop_assert!(!q.cancel(*h), "clone-minted handle acted on the original");
            }
            if let Some((h, _)) = m.handles.iter().find(|(_, s)| *s >= next_seq) {
                prop_assert!(!q2.cancel(*h), "post-clone original handle acted on the clone");
            }
        }

        // Drain both sides: exact model order, on each side independently.
        for (qq, mm) in [(&mut q, &mut m), (&mut q2, &mut m2)] {
            while let Some((t, _, id)) = qq.pop() {
                prop_assert!(!mm.entries.is_empty(), "queue outlived its model");
                let (mt, _, mid) = mm.entries.remove(0);
                prop_assert_eq!(t, SimTime::from_micros(mt));
                prop_assert_eq!(id, mid);
            }
            prop_assert!(mm.entries.is_empty(), "model outlived its queue");
        }
    }
}
