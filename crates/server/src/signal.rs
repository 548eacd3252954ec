//! SIGTERM / SIGINT as an atomic flag.
//!
//! The classic self-pipe trick reduced to its modern minimum: the handler
//! performs exactly one async-signal-safe operation (an atomic store) and
//! the `mwc-server` binary's main loop polls the flag, then asks its
//! server to shut down. The server library never reads the flag, so
//! in-process servers (tests, benchmarks) do not share this process-wide
//! state. This module holds the workspace's one
//! `unsafe` exemption — the `signal(2)` FFI declaration — kept as small
//! as possible and gated to unix.

use std::sync::atomic::{AtomicBool, Ordering};

static TRIGGERED: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal has arrived (or [`raise`] was called).
pub fn triggered() -> bool {
    TRIGGERED.load(Ordering::SeqCst)
}

/// Set the flag programmatically, as a delivered signal would — lets
/// tests exercise the signal path without delivering a real signal.
pub fn raise() {
    TRIGGERED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use super::{Ordering, TRIGGERED};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    type SigHandler = extern "C" fn(i32);

    extern "C" {
        // `sighandler_t signal(int, sighandler_t)` — the previous handler
        // comes back as a pointer-sized integer we ignore.
        fn signal(signum: i32, handler: SigHandler) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work is allowed here; an atomic store
        // qualifies.
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `signal` is the libc function linked by std on every
        // unix target; `on_signal` is `extern "C"`, never unwinds, and
        // touches only an atomic.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Install handlers for SIGTERM and SIGINT (no-op off unix). Idempotent.
pub fn install() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_sets_the_flag() {
        // Process-global state: this test asserts the raise path only and
        // tolerates an earlier raise from a sibling test.
        raise();
        assert!(triggered());
    }
}
