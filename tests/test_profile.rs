//! The test profile is optimised (`opt-level = 1` in the root manifest) but
//! must keep the checks the suites lean on: debug assertions
//! (`cfg!(debug_assertions)`), which carry the run loop's per-event
//! (time, seq) order check, and overflow checks.

use std::hint::black_box;
use std::panic::catch_unwind;

#[test]
fn tests_build_with_debug_assertions_and_overflow_checks() {
    assert!(catch_unwind(|| debug_assert!(black_box(false), "a live debug assertion")).is_err(), "debug assertions are off in the test profile");
    assert!(catch_unwind(|| black_box(u64::MAX) + 1).is_err(), "u64::MAX + 1 wrapped instead of panicking");
}
