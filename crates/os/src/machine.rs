//! Per-process machine-state fault model: register file and text segment.
//!
//! The paper injects single-bit flips into the PowerPC register set and
//! the text segment "until a failure is induced" (Table 2), then
//! classifies the induced failure as a segmentation fault, illegal
//! instruction, hang, or assertion (Table 6). Real in-process register
//! corruption is not possible from safe Rust, so — per the substitution
//! rule — each simulated process carries a [`MachineState`]:
//!
//! * a **register file** whose slots have architectural classes (pointer /
//!   data / control). A corrupted register only matters if a subsequent
//!   instruction *reads* it; registers are also overwritten quickly, which
//!   the paper cites as the reason register errors caused fewer system
//!   failures than text errors (§6);
//! * a **text image** of weighted function sites. A flipped bit lands in
//!   an opcode or an operand; the corruption manifests when the function
//!   is next *executed* and persists until the image is reloaded from
//!   disk. Crucially, a daemon recovering an ARMOR copies **its own**
//!   image (§3.4), so daemon text corruption propagates to recovered
//!   ARMORs.
//!
//! Activation is evaluated every time the process handles an event or
//! executes a work chunk ([`MachineState::activate`]). The consequence
//! distributions per corruption-site class are calibrated so the *shape*
//! of Table 6's failure classification
//! emerges (registers: segfault-dominant; text: more illegal
//! instructions; data sites: silent corruption feeding the heap model).
//!
//! Every process kind shares one model: the register counts, the
//! activation probabilities and the text sites are constants, so a
//! process's machine state is a few words of plain data that a spawn or
//! a fork copies without allocating.

use ree_sim::SimRng;

/// Architectural class of a register slot; determines how corruption
/// manifests when the register is read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegClass {
    /// Holds addresses; corrupt reads dereference wild pointers.
    Pointer,
    /// Holds data values; corrupt reads mostly produce silent corruption.
    Data,
    /// Holds control state (link register, counters, condition codes);
    /// corrupt reads derail control flow.
    Control,
}

/// Where in the text segment a bit flip landed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TextHit {
    /// The flip corrupted an instruction opcode.
    Opcode,
    /// The flip corrupted an operand / immediate / displacement.
    Operand,
}

/// The observable consequence of an activated fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum FaultConsequence {
    /// Access to an unmapped or invalid address (SIGSEGV): crash.
    SegFault,
    /// Invalid opcode executed (SIGILL): crash.
    IllegalInstruction,
    /// The process ceases to make progress.
    Hang,
    /// A value was silently corrupted; the OS routes this into the
    /// process's heap model (and, for ARMORs, assertions may later fire).
    SilentCorruption,
    /// The process stops receiving messages while otherwise running —
    /// the receive-omission failure the paper observed in the Heartbeat
    /// ARMOR after text-segment corruption (§6.1).
    ReceiveOmission,
}

/// Consequences in the order of the activation model's weight tables.
const CONSEQUENCES: [FaultConsequence; 5] = [
    FaultConsequence::SegFault,
    FaultConsequence::IllegalInstruction,
    FaultConsequence::Hang,
    FaultConsequence::SilentCorruption,
    FaultConsequence::ReceiveOmission,
];

/// Register file: 13 pointer, then 11 data, then 8 control registers.
/// A register's class follows from its index.
const POINTER_REGS: usize = 13;
const DATA_REGS: usize = 11;
const REGS: usize = POINTER_REGS + DATA_REGS + 8;
const _: () = assert!(REGS <= u32::BITS as usize, "the corruption mask is a u32");
/// Probability that a corrupted register is *read* during one activation
/// (event handled / work chunk executed).
const REG_TOUCH_PROB: f64 = 0.18;
/// Probability that a corrupted register is overwritten (corruption
/// cleared without effect) per activation: register values have short
/// lifetimes (paper §6).
const REG_OVERWRITE_PROB: f64 = 0.45;
/// Probability that a corrupted function executes during one activation,
/// additionally scaled by the site's weight share.
const TEXT_EXEC_PROB: f64 = 0.35;

/// The hot part of every text image and each function's relative
/// execution frequency. "Only the most frequently used registers and
/// functions in the text segment were targeted for injection" (§4.1).
const SITES: [(&str, f64); 8] = [
    ("msg_dispatch", 3.0),
    ("event_deliver", 2.5),
    ("checkpoint_copy", 1.5),
    ("timer_service", 1.0),
    ("io_service", 1.0),
    ("alloc", 0.8),
    ("compute_kernel", 4.0),
    ("protocol_encode", 1.2),
];

/// Sum of the site weights, added in table order.
const SITE_WEIGHT_TOTAL: f64 = {
    let (mut total, mut i) = (0.0, 0);
    while i < SITES.len() {
        total += SITES[i].1;
        i += 1;
    }
    total
};

fn reg_class(index: usize) -> RegClass {
    match index {
        i if i < POINTER_REGS => RegClass::Pointer,
        i if i < POINTER_REGS + DATA_REGS => RegClass::Data,
        _ => RegClass::Control,
    }
}

/// A process's text image: the executable of process kind `kind`, with
/// any outstanding corruption per site of [`SITES`]. A recovered ARMOR
/// copies its daemon's image, so its sites keep the daemon's names.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TextImage {
    kind: &'static str,
    corruption: [Option<TextHit>; SITES.len()],
}

impl TextImage {
    /// An uncorrupted image of `kind`'s executable.
    pub(crate) fn pristine(kind: &'static str) -> Self {
        TextImage { kind, corruption: [None; SITES.len()] }
    }

    fn corrupted_sites(&self) -> usize {
        self.corruption.iter().filter(|c| c.is_some()).count()
    }
}

/// Report of one injected bit flip (what the injector hit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InjectionSite {
    /// Register `index` of the given class was flipped.
    Register {
        /// Register number.
        index: usize,
        /// Architectural class of the register.
        class: RegClass,
    },
    /// A text-segment site was flipped.
    Text {
        /// Function name.
        function: String,
        /// Opcode or operand.
        hit: TextHit,
    },
}

/// Simulated machine state (registers + text) of one process.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MachineState {
    /// Bit `i` set: register `i` holds a corrupted value.
    regs: u32,
    text: TextImage,
    activations: u64,
    faults_activated: u64,
    /// Count of outstanding corruptions (corrupted registers + corrupted
    /// text sites). Campaign runs spend most of their events with no
    /// fault armed, so [`MachineState::activate`] is O(1) when this is
    /// zero — and since the armed-free path never drew from the RNG in
    /// the first place, the early-out preserves the per-seed RNG stream
    /// exactly (the determinism fixtures stay valid unmodified).
    armed: u32,
}

impl MachineState {
    /// Builds machine state with clean registers around a text image
    /// (possibly a corrupted copy of a daemon's image, §3.4).
    pub(crate) fn new(text: TextImage) -> Self {
        MachineState {
            regs: 0,
            text,
            activations: 0,
            faults_activated: 0,
            armed: text.corrupted_sites() as u32,
        }
    }

    /// Flips a bit in a uniformly chosen register ("bits in the registers
    /// of the target process are periodically flipped", Table 2).
    pub(crate) fn inject_register_bit(&mut self, rng: &mut SimRng) -> InjectionSite {
        let idx = rng.index(REGS);
        if self.regs & (1 << idx) == 0 {
            self.armed += 1;
        }
        self.regs |= 1 << idx;
        InjectionSite::Register { index: idx, class: reg_class(idx) }
    }

    /// Flips a bit at a weight-sampled text site.
    pub(crate) fn inject_text_bit(&mut self, rng: &mut SimRng) -> InjectionSite {
        let idx = rng.weighted_index(&SITES.map(|(_, weight)| weight));
        // Nearly half the targeted instruction bits select opcode fields
        // (hot code paths; §4.1 targets the most-used functions).
        let hit = if rng.chance(0.45) { TextHit::Opcode } else { TextHit::Operand };
        if self.text.corruption[idx].is_none() {
            self.armed += 1;
        }
        self.text.corruption[idx] = Some(hit);
        InjectionSite::Text { function: format!("{}::{}", self.text.kind, SITES[idx].0), hit }
    }

    /// True if any corruption is outstanding.
    pub(crate) fn has_pending_corruption(&self) -> bool {
        debug_assert_eq!(
            self.armed as usize,
            self.regs.count_ones() as usize + self.text.corrupted_sites(),
            "armed counter out of sync"
        );
        self.armed > 0
    }

    /// This machine's *text image* (with any corruption) — the
    /// daemon-recovers-ARMOR-from-its-own-image mechanism of §3.4.
    pub(crate) fn text_image(&self) -> TextImage {
        self.text
    }

    /// Count of corrupted text sites (used to decide image reload).
    pub(crate) fn corrupted_text_sites(&self) -> usize {
        self.text.corrupted_sites()
    }

    /// Runs one activation step: the process executed some instructions
    /// (handling an event or running a work chunk). Samples whether any
    /// outstanding corruption is touched and, if so, with what
    /// consequence. Returns at most one consequence (the first activated).
    pub(crate) fn activate(&mut self, rng: &mut SimRng) -> Option<FaultConsequence> {
        self.activations += 1;
        // Fast path: nothing armed — O(1), and **no RNG draw**. The slow
        // path below never drew from the RNG for clean slots either, so
        // skipping it leaves the per-seed stream byte-identical (this is
        // why the determinism fixtures did not need re-baselining; see
        // docs/bench/PR-4.md, "Determinism decisions").
        if self.armed == 0 {
            return None;
        }
        // Registers first, in index order: short lifetimes mean they
        // either matter quickly or never.
        let mut pending = self.regs;
        while pending != 0 {
            let i = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            if rng.chance(REG_TOUCH_PROB) {
                self.regs &= !(1 << i);
                self.armed -= 1;
                self.faults_activated += 1;
                return Some(Self::register_consequence(reg_class(i), rng));
            }
            if rng.chance(REG_OVERWRITE_PROB) {
                // Overwritten before being read: fault masked.
                self.regs &= !(1 << i);
                self.armed -= 1;
            }
        }
        // Text sites: weight-proportional execution probability.
        for (i, &(_, weight)) in SITES.iter().enumerate() {
            let Some(hit) = self.text.corruption[i] else { continue };
            let share = weight / SITE_WEIGHT_TOTAL;
            if rng.chance(TEXT_EXEC_PROB * share * SITES.len() as f64 / 2.0) {
                self.faults_activated += 1;
                // Text corruption persists (no clearing) — the same error
                // re-manifests after recovery if the image is reused.
                return Some(Self::text_consequence(hit, rng));
            }
        }
        None
    }

    fn register_consequence(class: RegClass, rng: &mut SimRng) -> FaultConsequence {
        // A corrupt register read never causes a receive omission.
        let weights = match class {
            RegClass::Pointer => [0.90, 0.02, 0.05, 0.03],
            RegClass::Data => [0.36, 0.02, 0.22, 0.40],
            RegClass::Control => [0.15, 0.15, 0.63, 0.07],
        };
        CONSEQUENCES[rng.weighted_index(&weights)]
    }

    fn text_consequence(hit: TextHit, rng: &mut SimRng) -> FaultConsequence {
        let weights = match hit {
            TextHit::Opcode => [0.28, 0.50, 0.14, 0.05, 0.03],
            TextHit::Operand => [0.50, 0.11, 0.17, 0.19, 0.03],
        };
        CONSEQUENCES[rng.weighted_index(&weights)]
    }

    /// Total activation steps evaluated.
    pub(crate) fn activations(&self) -> u64 {
        self.activations
    }

    /// Total faults that actually manifested.
    pub(crate) fn faults_activated(&self) -> u64 {
        self.faults_activated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A machine's state is plain data: spawning or forking a process
    // copies it without touching the heap.
    const _: fn() = || {
        fn copy<T: Copy>() {}
        copy::<MachineState>();
    };

    impl MachineState {
        /// Clears all text corruption (reloading the executable from disk).
        fn reload_text_from_disk(&mut self) {
            for site in &mut self.text.corruption {
                if site.take().is_some() {
                    self.armed -= 1;
                }
            }
        }
    }

    fn machine() -> MachineState {
        MachineState::new(TextImage::pristine("test"))
    }

    #[test]
    fn clean_machine_never_faults() {
        let mut m = machine();
        let mut rng = SimRng::new(1);
        for _ in 0..1000 {
            assert_eq!(m.activate(&mut rng), None);
        }
        assert_eq!(m.faults_activated(), 0);
        assert!(!m.has_pending_corruption());
    }

    #[test]
    fn register_injection_eventually_activates_or_masks() {
        let mut rng = SimRng::new(2);
        let mut activated = 0;
        let mut masked = 0;
        for seed in 0..200 {
            let mut m = machine();
            let mut r = SimRng::new(seed);
            m.inject_register_bit(&mut rng);
            let mut outcome = None;
            for _ in 0..50 {
                if let Some(c) = m.activate(&mut r) {
                    outcome = Some(c);
                    break;
                }
                if !m.has_pending_corruption() {
                    break;
                }
            }
            match outcome {
                Some(_) => activated += 1,
                None => masked += 1,
            }
        }
        // Registers decay: a substantial fraction must be masked, and a
        // substantial fraction must activate.
        assert!(activated > 30, "activated={activated}");
        assert!(masked > 30, "masked={masked}");
    }

    #[test]
    fn pointer_registers_mostly_segfault() {
        let mut rng = SimRng::new(3);
        let mut seg = 0;
        let mut total = 0;
        for _ in 0..2000 {
            let c = MachineState::register_consequence(RegClass::Pointer, &mut rng);
            total += 1;
            if c == FaultConsequence::SegFault {
                seg += 1;
            }
        }
        assert!(seg as f64 / total as f64 > 0.8);
    }

    #[test]
    fn opcode_corruption_yields_more_illegal_instructions_than_operand() {
        let mut rng = SimRng::new(4);
        let count_illegal = |hit: TextHit, rng: &mut SimRng| {
            (0..2000)
                .filter(|_| {
                    MachineState::text_consequence(hit, rng) == FaultConsequence::IllegalInstruction
                })
                .count()
        };
        let op = count_illegal(TextHit::Opcode, &mut rng);
        let operand = count_illegal(TextHit::Operand, &mut rng);
        assert!(op > operand * 2, "opcode={op} operand={operand}");
    }

    #[test]
    fn text_corruption_persists_until_reload() {
        let mut rng = SimRng::new(5);
        let mut m = machine();
        m.inject_text_bit(&mut rng);
        assert_eq!(m.corrupted_text_sites(), 1);
        // Activating does not clear text corruption.
        for _ in 0..100 {
            let _ = m.activate(&mut rng);
        }
        assert_eq!(m.corrupted_text_sites(), 1);
        m.reload_text_from_disk();
        assert_eq!(m.corrupted_text_sites(), 0);
        assert!(!m.has_pending_corruption());
    }

    #[test]
    fn copied_image_carries_corruption() {
        let mut rng = SimRng::new(6);
        let mut daemon = machine();
        daemon.inject_text_bit(&mut rng);
        let child = MachineState::new(daemon.text_image());
        assert_eq!(child.corrupted_text_sites(), 1);
    }

    #[test]
    fn text_faults_are_more_persistent_than_register_faults() {
        // Register: one activation either fires or decays it quickly.
        // Text: it can fire many times (crash loop after recovery).
        let mut rng = SimRng::new(7);
        let mut m = machine();
        m.inject_text_bit(&mut rng);
        let mut fired = 0;
        for _ in 0..400 {
            if m.activate(&mut rng).is_some() {
                fired += 1;
            }
        }
        assert!(fired >= 2, "text fault should re-fire, fired={fired}");
    }

    #[test]
    fn clean_activation_never_draws_from_the_rng() {
        // The armed==0 early-out must leave the per-seed RNG stream
        // untouched, or every determinism fixture would shift.
        let mut m = machine();
        let mut used = SimRng::new(99);
        for _ in 0..10_000 {
            assert_eq!(m.activate(&mut used), None);
        }
        let mut fresh = SimRng::new(99);
        for _ in 0..32 {
            assert_eq!(used.range_u64(0, 1 << 40), fresh.range_u64(0, 1 << 40));
        }
        assert_eq!(m.activations(), 10_000);
    }

    #[test]
    fn armed_counter_tracks_inject_activate_reload_cycles() {
        let mut rng = SimRng::new(11);
        let mut m = machine();
        assert!(!m.has_pending_corruption());
        m.inject_register_bit(&mut rng);
        m.inject_register_bit(&mut rng);
        m.inject_text_bit(&mut rng);
        assert!(m.has_pending_corruption());
        // Drive activation until every register fault fires or decays
        // (has_pending_corruption debug-asserts counter consistency on
        // every call).
        for _ in 0..500 {
            let _ = m.activate(&mut rng);
            let _ = m.has_pending_corruption();
        }
        // Text corruption persists until reload.
        assert!(m.has_pending_corruption());
        m.reload_text_from_disk();
        // Registers are gone by now (touch or overwrite within 500
        // activations is overwhelmingly certain with these defaults).
        assert!(!m.has_pending_corruption());
        // Back on the fast path: no further state change.
        assert_eq!(m.activate(&mut rng), None);
    }

    #[test]
    fn copied_corrupt_image_arms_the_new_machine() {
        let mut rng = SimRng::new(12);
        let mut daemon = machine();
        daemon.inject_text_bit(&mut rng);
        let child = MachineState::new(daemon.text_image());
        assert!(child.has_pending_corruption(), "armed count must survive image copy");
    }

    #[test]
    fn injection_sites_report_what_was_hit() {
        let mut rng = SimRng::new(8);
        let mut m = machine();
        match m.inject_register_bit(&mut rng) {
            InjectionSite::Register { index, .. } => assert!(index < 32),
            other => panic!("unexpected site {other:?}"),
        }
        match m.inject_text_bit(&mut rng) {
            InjectionSite::Text { function, .. } => assert!(function.starts_with("test::")),
            other => panic!("unexpected site {other:?}"),
        }
    }

    #[test]
    fn a_copied_image_names_its_source_kind() {
        let mut rng = SimRng::new(13);
        let daemon = MachineState::new(TextImage::pristine("daemon"));
        let mut child = MachineState::new(daemon.text_image());
        match child.inject_text_bit(&mut rng) {
            InjectionSite::Text { function, .. } => {
                assert!(function.starts_with("daemon::"), "{function}");
            }
            other => panic!("unexpected site {other:?}"),
        }
    }
}
