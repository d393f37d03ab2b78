//! Minimal POSIX signal access: an interrupt flag for the supervisor's
//! graceful shutdown, and `raise()` for the chaos self-injection modes.
//!
//! The workspace bans `unsafe` everywhere else, and the container
//! vendors no `libc` crate; this module is the one narrowly-scoped
//! exception, declaring the two libc symbols the crate needs. The
//! SIGINT/SIGTERM handler only stores to an `AtomicBool` —
//! async-signal-safe — and everything downstream polls the flag.

use std::sync::atomic::{AtomicBool, Ordering};

/// `SIGINT` — Ctrl-C.
pub(crate) const SIGINT: i32 = 2;
/// `SIGKILL` — unblockable kill (the chaos crash mode).
pub(crate) const SIGKILL: i32 = 9;
/// `SIGTERM` — polite termination request.
pub(crate) const SIGTERM: i32 = 15;
/// `SIGSTOP` — unblockable stop (the chaos hang mode).
pub(crate) const SIGSTOP: i32 = 19;

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[allow(unsafe_code)]
mod ffi {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn raise(sig: i32) -> i32;
    }

    extern "C" fn on_interrupt(_sig: i32) {
        super::INTERRUPTED.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    pub(super) fn install(signum: i32) {
        unsafe {
            signal(signum, on_interrupt);
        }
    }

    pub(super) fn raise_now(sig: i32) {
        unsafe {
            raise(sig);
        }
    }
}

/// Routes SIGINT and SIGTERM to the [`interrupted`] flag. Idempotent.
pub(crate) fn install_interrupt_handler() {
    ffi::install(SIGINT);
    ffi::install(SIGTERM);
}

/// Has SIGINT/SIGTERM arrived (or [`request_interrupt`] been called)?
pub(crate) fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// Sets the interrupt flag programmatically — the deterministic stand-in
/// for Ctrl-C that the graceful-shutdown tests use.
pub fn request_interrupt() {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Clears the interrupt flag (between consecutive supervised sweeps in
/// one process).
pub fn clear_interrupt() {
    INTERRUPTED.store(false, Ordering::SeqCst);
}

/// Delivers `sig` to the calling process — how a chaos-armed worker
/// kills or stops *itself* at its seeded instant without needing an
/// external `kill` binary.
pub(crate) fn raise_signal(sig: i32) {
    ffi::raise_now(sig);
}
