#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::print_stdout, clippy::print_stderr, clippy::exit))]

//! # clove-overlay — the hypervisor vswitch dataplane
//!
//! Everything the paper implements in the Open vSwitch kernel datapath
//! lives here, as a sans-IO component per hypervisor:
//!
//! * **Encapsulation** ([`VSwitch::encap`]): wraps each guest segment in an
//!   STT-like outer header whose transport source port is chosen by an
//!   [`EdgePolicy`] — the pluggable seam where ECMP hashing, Presto,
//!   Edge-Flowlet, Clove-ECN and Clove-INT differ.
//! * **ECT marking**: the source vswitch sets ECT on the *outer* header so
//!   fabric switches will CE-mark under congestion, without the guest VM
//!   ever negotiating ECN (paper §3.2).
//! * **Feedback interception and relay** ([`VSwitch::decap_into`]): the
//!   destination hypervisor records CE marks or INT utilization per
//!   (source hypervisor, outer source port), and piggybacks
//!   them onto reverse traffic in the STT context bits, rate-limited to one
//!   relay per path per interval (the paper's "ECN relay frequency").
//! * **Presto flowcell reassembly** ([`presto_rx`]): holding back
//!   out-of-order flowcells so the guest TCP never sees reordering.
//!
//! The vswitch is deliberately unaware of the fabric: it transforms
//! packets; `clove-harness` moves them.

pub mod feedback;
pub mod presto_rx;
pub mod vswitch;

pub use feedback::{FeedbackCollector, FeedbackMode};
pub use vswitch::{EdgePolicy, VSwitch, VSwitchConfig};
