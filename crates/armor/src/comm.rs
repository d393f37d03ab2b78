//! Reliable point-to-point ARMOR messaging.
//!
//! All ARMORs "implement reliable point-to-point message communication"
//! (§3.1): sequence numbers, end-to-end acknowledgements, retransmission,
//! and duplicate suppression. Two protocol details are load-bearing for
//! the paper's failure scenarios and are implemented exactly:
//!
//! * **Acks are sent only after a message is fully processed.** A
//!   receiver that crashes mid-processing never acks, so the sender
//!   retransmits into the recovered process — the §6.1 "corrupted
//!   notification crashes the FTM in a loop" mechanism depends on this.
//! * **Duplicates are dropped before processing** (and re-acked). The
//!   Figure 10 race leaves the Execution ARMOR unrecovered because the
//!   daemon's *resent* failure notification is classified as a duplicate.
//!
//! The comm state is volatile: it is *not* checkpointed, matching the
//! paper (a recovered ARMOR neither remembers which messages it saw nor
//! which sends were outstanding).

use crate::event::{ArmorEvent, ArmorId, ArmorMessage, WirePacket};
use ree_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Outcome of handing an inbound packet to the comm layer.
#[derive(Debug)]
pub enum Inbound {
    /// Fresh data message: process it, then call
    /// [`ReliableComm::acknowledge`] on success.
    Deliver(ArmorMessage),
    /// Duplicate of an already-seen message: re-ack, do not process.
    DuplicateReAck(WirePacket),
    /// An ack consumed a pending transmission.
    AckConsumed,
    /// Stale or unknown ack.
    AckIgnored,
}

#[derive(Debug, Clone)]
struct Pending {
    msg: ArmorMessage,
    last_sent: SimTime,
    retries: u32,
}

/// Per-ARMOR reliable messaging state.
#[derive(Debug, Clone)]
pub struct ReliableComm {
    me: ArmorId,
    next_seq: u64,
    pending: BTreeMap<u64, Pending>,
    /// Duplicate-suppression state: per-peer sets of seen sequence
    /// numbers. An ARMOR talks to a handful of peers and each set is
    /// bounded at `max_seen`, so both levels are sorted small vecs
    /// (binary search, no hashing — this was a measured ~3% of campaign
    /// CPU as a `HashMap<ArmorId, BTreeSet<u64>>`).
    seen: Vec<(ArmorId, Vec<u64>)>,
    retransmit_after: SimDuration,
    max_seen: usize,
    retransmissions: u64,
}

impl ReliableComm {
    /// Creates comm state for the given ARMOR identity.
    pub fn new(me: ArmorId, retransmit_after: SimDuration) -> Self {
        ReliableComm {
            me,
            next_seq: 1,
            pending: BTreeMap::new(),
            seen: Vec::new(),
            retransmit_after,
            max_seen: 256,
            retransmissions: 0,
        }
    }

    /// Rebases the sequence counter to start above `base`.
    ///
    /// A recovered ARMOR must not reuse sequence numbers its previous
    /// incarnation already consumed — surviving peers still hold those
    /// in their duplicate-suppression sets and would silently drop the
    /// new incarnation's messages. Seeding from the (never reused) OS
    /// pid guarantees monotonicity across incarnations.
    pub fn rebase(&mut self, base: u64) {
        if self.next_seq <= base {
            self.next_seq = base + 1;
        }
    }

    /// Builds a data packet for `events`, registering it for
    /// retransmission until acknowledged.
    pub fn send(&mut self, now: SimTime, dst: ArmorId, events: Vec<ArmorEvent>) -> WirePacket {
        let seq = self.next_seq;
        self.next_seq += 1;
        let msg = ArmorMessage::new(self.me, dst, seq, events);
        // The retransmission copy shares the packet's event slice.
        self.pending.insert(seq, Pending { msg: msg.clone(), last_sent: now, retries: 0 });
        WirePacket::Data(msg)
    }

    /// Builds a fire-and-forget data packet: no retransmission state is
    /// kept, so a lost or receiver-crashing message is simply gone.
    /// Heartbeat pings/acks use this — their liveness semantics come from
    /// the next cycle, not from retransmission (and a poisoned ping must
    /// not re-crash its target forever).
    pub(crate) fn send_unreliable(&mut self, dst: ArmorId, events: Vec<ArmorEvent>) -> WirePacket {
        let seq = self.next_seq;
        self.next_seq += 1;
        WirePacket::Data(ArmorMessage::new(self.me, dst, seq, events))
    }

    /// The (sorted) seen-sequence set for `src`, created on first use.
    fn seen_set(&mut self, src: ArmorId) -> &mut Vec<u64> {
        let i = match self.seen.binary_search_by_key(&src, |(id, _)| *id) {
            Ok(i) => i,
            Err(i) => {
                self.seen.insert(i, (src, Vec::new()));
                i
            }
        };
        &mut self.seen[i].1
    }

    /// True if `seq` from `src` was already seen (without allocating a
    /// set for a never-seen peer).
    fn already_seen(&self, src: ArmorId, seq: u64) -> bool {
        self.seen
            .binary_search_by_key(&src, |(id, _)| *id)
            .is_ok_and(|i| self.seen[i].1.binary_search(&seq).is_ok())
    }

    /// Handles an inbound packet addressed to this ARMOR.
    pub fn on_packet(&mut self, packet: WirePacket) -> Inbound {
        match packet {
            WirePacket::Data(msg) => {
                if self.already_seen(msg.src, msg.seq) {
                    Inbound::DuplicateReAck(WirePacket::Ack {
                        src: msg.src,
                        dst: self.me,
                        seq: msg.seq,
                    })
                } else {
                    Inbound::Deliver(msg)
                }
            }
            WirePacket::Ack { seq, .. } => {
                if self.pending.remove(&seq).is_some() {
                    Inbound::AckConsumed
                } else {
                    Inbound::AckIgnored
                }
            }
        }
    }

    /// Marks a delivered message as seen and produces its ack. Call only
    /// after the message was *fully processed* — crashing before this
    /// point leaves the message unacknowledged (§6.1 semantics).
    pub fn acknowledge(&mut self, msg: &ArmorMessage) -> WirePacket {
        let max_seen = self.max_seen;
        let seen = self.seen_set(msg.src);
        if let Err(i) = seen.binary_search(&msg.seq) {
            seen.insert(i, msg.seq);
        }
        while seen.len() > max_seen {
            // Oldest = smallest sequence number (front of the sorted vec).
            seen.remove(0);
        }
        WirePacket::Ack { src: msg.src, dst: self.me, seq: msg.seq }
    }

    /// Marks a message seen *without* acknowledging it — the Figure 10
    /// "handling thread aborted" path: the message counts as processed
    /// for dedup purposes, but the sender never learns.
    pub(crate) fn mark_seen_unacked(&mut self, msg: &ArmorMessage) {
        let seen = self.seen_set(msg.src);
        if let Err(i) = seen.binary_search(&msg.seq) {
            seen.insert(i, msg.seq);
        }
    }

    /// Returns packets due for retransmission at `now`.
    pub fn tick(&mut self, now: SimTime) -> Vec<WirePacket> {
        let mut out = Vec::new();
        for pending in self.pending.values_mut() {
            if now.since(pending.last_sent) >= self.retransmit_after {
                pending.last_sent = now;
                pending.retries += 1;
                self.retransmissions += 1;
                out.push(WirePacket::Data(pending.msg.clone()));
            }
        }
        out
    }

    /// Number of unacknowledged sends.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ReliableComm {
        /// Lifetime retransmission count.
        fn retransmissions(&self) -> u64 {
            self.retransmissions
        }
    }

    fn events() -> Vec<ArmorEvent> {
        vec![ArmorEvent::new("test-event")]
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn send_then_ack_clears_pending() {
        let mut a = ReliableComm::new(ArmorId(1), SimDuration::from_secs(2));
        let mut b = ReliableComm::new(ArmorId(2), SimDuration::from_secs(2));
        let pkt = a.send(t(0), ArmorId(2), events());
        assert_eq!(a.pending_count(), 1);

        let Inbound::Deliver(msg) = b.on_packet(pkt) else { panic!("expected deliver") };
        let ack = b.acknowledge(&msg);
        assert!(matches!(a.on_packet(ack), Inbound::AckConsumed));
        assert_eq!(a.pending_count(), 0);
    }

    #[test]
    fn unacked_messages_retransmit_until_acked() {
        let mut a = ReliableComm::new(ArmorId(1), SimDuration::from_secs(2));
        let _ = a.send(t(0), ArmorId(2), events());
        assert!(a.tick(t(1)).is_empty(), "not due yet");
        assert_eq!(a.tick(t(2)).len(), 1);
        assert_eq!(a.tick(t(2)).len(), 0, "just resent");
        assert_eq!(a.tick(t(4)).len(), 1);
        assert_eq!(a.retransmissions(), 2);
    }

    #[test]
    fn duplicate_is_not_redelivered_but_is_reacked() {
        let mut a = ReliableComm::new(ArmorId(1), SimDuration::from_secs(2));
        let mut b = ReliableComm::new(ArmorId(2), SimDuration::from_secs(2));
        let pkt = a.send(t(0), ArmorId(2), events());
        let copy = pkt.clone();

        let Inbound::Deliver(msg) = b.on_packet(pkt) else { panic!() };
        let _ack = b.acknowledge(&msg);
        // Ack lost; sender retransmits; receiver must re-ack without
        // reprocessing.
        match b.on_packet(copy) {
            Inbound::DuplicateReAck(WirePacket::Ack { seq, .. }) => assert_eq!(seq, msg.seq),
            other => panic!("expected duplicate re-ack, got {other:?}"),
        }
    }

    #[test]
    fn crash_before_ack_means_redelivery_after_recovery() {
        let mut a = ReliableComm::new(ArmorId(1), SimDuration::from_secs(2));
        let pkt = a.send(t(0), ArmorId(2), events());

        // Receiver "crashes" mid-processing: its comm state is rebuilt
        // from scratch (volatile), and it never acked.
        let mut b = ReliableComm::new(ArmorId(2), SimDuration::from_secs(2));
        let Inbound::Deliver(_) = b.on_packet(pkt) else { panic!() };
        drop(b); // crash: seen-set lost, no ack sent

        let mut b2 = ReliableComm::new(ArmorId(2), SimDuration::from_secs(2));
        let retrans = a.tick(t(3));
        assert_eq!(retrans.len(), 1);
        // The recovered receiver treats the retransmission as fresh — the
        // crash loop of §6.1 is possible.
        assert!(matches!(b2.on_packet(retrans.into_iter().next().unwrap()), Inbound::Deliver(_)));
    }

    #[test]
    fn mark_seen_unacked_reproduces_figure_10_loss() {
        let mut daemon = ReliableComm::new(ArmorId(3), SimDuration::from_secs(2));
        let mut ftm = ReliableComm::new(ArmorId(1), SimDuration::from_secs(2));
        let pkt = daemon.send(t(0), ArmorId(1), events());

        // FTM processes the notification but the handling thread aborts:
        // seen, not acked.
        let Inbound::Deliver(msg) = ftm.on_packet(pkt) else { panic!() };
        ftm.mark_seen_unacked(&msg);

        // Daemon times out and resends; FTM drops it as a duplicate. The
        // Execution ARMOR is never recovered.
        let retrans = daemon.tick(t(3)).into_iter().next().unwrap();
        assert!(matches!(ftm.on_packet(retrans), Inbound::DuplicateReAck(_)));
    }

    #[test]
    fn pending_packets_and_forks_share_one_event_slice() {
        let shares = |a: &ArmorMessage, b: &ArmorMessage| {
            std::ptr::eq(a.events().as_ptr(), b.events().as_ptr())
        };
        let mut a = ReliableComm::new(ArmorId(1), SimDuration::from_secs(2));
        let WirePacket::Data(sent) = a.send(t(0), ArmorId(2), events()) else { panic!() };
        assert!(shares(&sent, &a.pending[&sent.seq].msg), "pending shares the packet's slice");

        // A fork retransmits out of the same slice; neither side's
        // pending entry is disturbed by the other's traffic.
        let mut fork = a.clone();
        let before = format!("{:?}", a.pending);
        let retrans = fork.tick(t(3));
        let WirePacket::Data(resent) = &retrans[0] else { panic!() };
        assert!(shares(&sent, resent));
        let ack = WirePacket::Ack { src: ArmorId(1), dst: ArmorId(2), seq: sent.seq };
        assert!(matches!(fork.on_packet(ack), Inbound::AckConsumed));
        assert_eq!(format!("{:?}", a.pending), before);
        assert_eq!(
            sent.events(),
            events().as_slice(),
            "the slice outlives the fork's pending entry"
        );
    }

    #[test]
    fn stale_ack_ignored() {
        let mut a = ReliableComm::new(ArmorId(1), SimDuration::from_secs(2));
        assert!(matches!(
            a.on_packet(WirePacket::Ack { src: ArmorId(1), dst: ArmorId(2), seq: 99 }),
            Inbound::AckIgnored
        ));
    }

    #[test]
    fn seen_set_is_bounded() {
        let mut b = ReliableComm::new(ArmorId(2), SimDuration::from_secs(2));
        let mut a = ReliableComm::new(ArmorId(1), SimDuration::from_secs(2));
        for _ in 0..600 {
            let pkt = a.send(t(0), ArmorId(2), events());
            if let Inbound::Deliver(msg) = b.on_packet(pkt) {
                let _ = b.acknowledge(&msg);
            }
        }
        assert!(b.seen_set(ArmorId(1)).len() <= 256);
    }
}
