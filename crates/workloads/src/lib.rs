//! Workloads for the SEDSpec evaluation: benign training/evaluation
//! traffic, CVE proof-of-concept streams, a coverage fuzzer, and the
//! iozone/iperf/ping-style performance drivers.
//!
//! * [`profiles`] — the configuration dimensions of the paper's training
//!   samples (§IV-C): storage formats/layouts/parameters, network
//!   IP/MAC/jumbo/flow-control settings;
//! * [`modes`] — the three interaction modes of the false-positive
//!   experiments (sequential, random, random-with-delay);
//! * [`generators`] — per-device benign sample generators. Evaluation
//!   traffic draws from a slightly wider distribution than training: a
//!   small *rare-command* tail of legal-but-exotic interactions, the
//!   paper's stated source of false positives;
//! * [`attacks`] — the eight CVE PoCs of Table III;
//! * [`fuzz`] — a device-aware random fuzzer approximating the
//!   legitimate-behaviour path set (the effective-coverage metric);
//! * [`perf`] — storage throughput/latency and network bandwidth/ping
//!   drivers measuring SEDSpec's overhead on the virtual clock
//!   (Figures 3–5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod fuzz;
pub mod generators;
pub mod modes;
pub mod perf;
pub mod profiles;

pub use modes::InteractionMode;
pub use profiles::{FsFormat, NetworkProfile, StorageProfile, VolumeLayout};

/// One splitmix64 scramble step: the core of every seeded, replayable
/// random stream (fault injection, differential fuzzing).
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
