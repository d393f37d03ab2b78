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

/// One register slot.
#[derive(Clone, Copy, Debug)]
struct RegSlot {
    class: RegClass,
    corrupted: bool,
}

/// A function site within the text image.
#[derive(Clone, Debug)]
pub(crate) struct FunctionSite {
    /// Human-readable name (shows up in traces).
    pub name: String,
    /// Relative execution frequency; activation samples sites by weight.
    pub weight: f64,
    /// Outstanding corruption, if any.
    pub corruption: Option<TextHit>,
}

/// Behavioural parameters of the activation model.
///
/// The defaults reproduce the qualitative Table 6 split; tests and
/// ablation benches may override individual probabilities.
#[derive(Clone, Debug)]
pub struct MachineProfile {
    /// Number of pointer-class registers.
    pub pointer_regs: usize,
    /// Number of data-class registers.
    pub data_regs: usize,
    /// Number of control-class registers.
    pub control_regs: usize,
    /// Probability that a given corrupted register is *read* during one
    /// activation (event handled / work chunk executed).
    pub reg_touch_prob: f64,
    /// Probability that a corrupted register is overwritten (corruption
    /// cleared without effect) per activation — register values have
    /// short lifetimes (paper §6).
    pub reg_overwrite_prob: f64,
    /// Probability that the corrupted *function* executes during one
    /// activation, additionally scaled by the site's weight share.
    pub text_exec_prob: f64,
}

impl Default for MachineProfile {
    fn default() -> Self {
        MachineProfile {
            pointer_regs: 13,
            data_regs: 11,
            control_regs: 8,
            reg_touch_prob: 0.18,
            reg_overwrite_prob: 0.45,
            text_exec_prob: 0.35,
        }
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
#[derive(Clone, Debug)]
pub(crate) struct MachineState {
    regs: Vec<RegSlot>,
    text: Vec<FunctionSite>,
    profile: MachineProfile,
    activations: u64,
    faults_activated: u64,
    /// Count of outstanding corruptions (corrupted registers + corrupted
    /// text sites). Campaign runs spend most of their events with no
    /// fault armed, so [`MachineState::activate`] is O(1) when this is
    /// zero — and since the armed-free path never drew from the RNG in
    /// the first place, the early-out preserves the per-seed RNG stream
    /// exactly (the determinism fixtures stay valid unmodified).
    armed: u32,
    /// Sum of all text-site weights, fixed at construction (weights never
    /// change after the image is built/copied).
    text_weight_total: f64,
}

impl MachineState {
    /// Builds machine state from a profile and a text image (possibly a
    /// corrupted copy of a daemon's image, §3.4).
    pub(crate) fn new(profile: MachineProfile, text: Vec<FunctionSite>) -> Self {
        let mut regs = Vec::with_capacity(32);
        for _ in 0..profile.pointer_regs {
            regs.push(RegSlot { class: RegClass::Pointer, corrupted: false });
        }
        for _ in 0..profile.data_regs {
            regs.push(RegSlot { class: RegClass::Data, corrupted: false });
        }
        for _ in 0..profile.control_regs {
            regs.push(RegSlot { class: RegClass::Control, corrupted: false });
        }
        let armed = text.iter().filter(|s| s.corruption.is_some()).count() as u32;
        let text_weight_total = text.iter().map(|s| s.weight).sum();
        MachineState {
            regs,
            text,
            profile,
            activations: 0,
            faults_activated: 0,
            armed,
            text_weight_total,
        }
    }

    /// Builds a generic text image: a frequency-weighted set of function
    /// sites typical of the ARMOR/application processes in the paper.
    pub(crate) fn generic_text_image(process_kind: &str) -> Vec<FunctionSite> {
        // "Only the most frequently used registers and functions in the
        // text segment were targeted for injection" (§4.1) — we model the
        // hot part of the image only.
        let names = [
            ("msg_dispatch", 3.0),
            ("event_deliver", 2.5),
            ("checkpoint_copy", 1.5),
            ("timer_service", 1.0),
            ("io_service", 1.0),
            ("alloc", 0.8),
            ("compute_kernel", 4.0),
            ("protocol_encode", 1.2),
        ];
        names
            .iter()
            .map(|(n, w)| FunctionSite {
                name: format!("{process_kind}::{n}"),
                weight: *w,
                corruption: None,
            })
            .collect()
    }

    /// Flips a bit in a uniformly chosen register ("bits in the registers
    /// of the target process are periodically flipped", Table 2).
    pub(crate) fn inject_register_bit(&mut self, rng: &mut SimRng) -> InjectionSite {
        let idx = rng.index(self.regs.len());
        if !self.regs[idx].corrupted {
            self.armed += 1;
        }
        self.regs[idx].corrupted = true;
        InjectionSite::Register { index: idx, class: self.regs[idx].class }
    }

    /// Flips a bit at a weight-sampled text site.
    pub(crate) fn inject_text_bit(&mut self, rng: &mut SimRng) -> InjectionSite {
        let weights: Vec<f64> = self.text.iter().map(|s| s.weight).collect();
        let idx = rng.weighted_index(&weights);
        // Nearly half the targeted instruction bits select opcode fields
        // (hot code paths; §4.1 targets the most-used functions).
        let hit = if rng.chance(0.45) { TextHit::Opcode } else { TextHit::Operand };
        if self.text[idx].corruption.is_none() {
            self.armed += 1;
        }
        self.text[idx].corruption = Some(hit);
        InjectionSite::Text { function: self.text[idx].name.clone(), hit }
    }

    /// True if any corruption is outstanding.
    pub(crate) fn has_pending_corruption(&self) -> bool {
        debug_assert_eq!(
            self.armed as usize,
            self.regs.iter().filter(|r| r.corrupted).count()
                + self.text.iter().filter(|s| s.corruption.is_some()).count(),
            "armed counter out of sync"
        );
        self.armed > 0
    }

    /// Copies this machine's *text image* (with any corruption) — the
    /// daemon-recovers-ARMOR-from-its-own-image mechanism of §3.4.
    pub(crate) fn copy_text_image(&self) -> Vec<FunctionSite> {
        self.text.clone()
    }

    /// Count of corrupted text sites (used to decide image reload).
    pub(crate) fn corrupted_text_sites(&self) -> usize {
        self.text.iter().filter(|s| s.corruption.is_some()).count()
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
        // docs/PERFORMANCE.md).
        if self.armed == 0 {
            return None;
        }
        // Registers first: short lifetimes mean they either matter
        // quickly or never.
        for i in 0..self.regs.len() {
            if !self.regs[i].corrupted {
                continue;
            }
            if rng.chance(self.profile.reg_touch_prob) {
                self.regs[i].corrupted = false;
                self.armed -= 1;
                self.faults_activated += 1;
                return Some(Self::register_consequence(self.regs[i].class, rng));
            }
            if rng.chance(self.profile.reg_overwrite_prob) {
                // Overwritten before being read: fault masked.
                self.regs[i].corrupted = false;
                self.armed -= 1;
            }
        }
        // Text sites: weight-proportional execution probability.
        let total_weight = self.text_weight_total;
        for i in 0..self.text.len() {
            let Some(hit) = self.text[i].corruption else { continue };
            let share = self.text[i].weight / total_weight.max(1e-12);
            if rng.chance(self.profile.text_exec_prob * share * self.text.len() as f64 / 2.0) {
                self.faults_activated += 1;
                // Text corruption persists (no clearing) — the same error
                // re-manifests after recovery if the image is reused.
                return Some(Self::text_consequence(hit, rng));
            }
        }
        None
    }

    fn register_consequence(class: RegClass, rng: &mut SimRng) -> FaultConsequence {
        let (weights, outcomes) = match class {
            RegClass::Pointer => (
                [0.90, 0.02, 0.05, 0.03],
                [
                    FaultConsequence::SegFault,
                    FaultConsequence::IllegalInstruction,
                    FaultConsequence::Hang,
                    FaultConsequence::SilentCorruption,
                ],
            ),
            RegClass::Data => (
                [0.36, 0.02, 0.22, 0.40],
                [
                    FaultConsequence::SegFault,
                    FaultConsequence::IllegalInstruction,
                    FaultConsequence::Hang,
                    FaultConsequence::SilentCorruption,
                ],
            ),
            RegClass::Control => (
                [0.15, 0.15, 0.63, 0.07],
                [
                    FaultConsequence::SegFault,
                    FaultConsequence::IllegalInstruction,
                    FaultConsequence::Hang,
                    FaultConsequence::SilentCorruption,
                ],
            ),
        };
        outcomes[rng.weighted_index(&weights)]
    }

    fn text_consequence(hit: TextHit, rng: &mut SimRng) -> FaultConsequence {
        let (weights, outcomes) = match hit {
            TextHit::Opcode => (
                [0.28, 0.50, 0.14, 0.05, 0.03],
                [
                    FaultConsequence::SegFault,
                    FaultConsequence::IllegalInstruction,
                    FaultConsequence::Hang,
                    FaultConsequence::SilentCorruption,
                    FaultConsequence::ReceiveOmission,
                ],
            ),
            TextHit::Operand => (
                [0.50, 0.11, 0.17, 0.19, 0.03],
                [
                    FaultConsequence::SegFault,
                    FaultConsequence::IllegalInstruction,
                    FaultConsequence::Hang,
                    FaultConsequence::SilentCorruption,
                    FaultConsequence::ReceiveOmission,
                ],
            ),
        };
        outcomes[rng.weighted_index(&weights)]
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

    impl MachineState {
        /// Clears all text corruption (reloading the executable from disk).
        fn reload_text_from_disk(&mut self) {
            for site in &mut self.text {
                if site.corruption.take().is_some() {
                    self.armed -= 1;
                }
            }
        }
    }

    fn machine() -> MachineState {
        MachineState::new(MachineProfile::default(), MachineState::generic_text_image("test"))
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
        let child = MachineState::new(MachineProfile::default(), daemon.copy_text_image());
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
        let child = MachineState::new(MachineProfile::default(), daemon.copy_text_image());
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
}
