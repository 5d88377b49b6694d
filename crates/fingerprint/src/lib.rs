//! IoT Sentinel device fingerprints (paper §IV-A).
//!
//! A device's fingerprint is built from the packets it sends during its
//! setup phase:
//!
//! 1. Every packet is reduced to the **23 features of Table I**
//!    ([`PacketFeatures`], [`FeatureId`]): 16 protocol indicator bits
//!    (ARP, LLC | IP, ICMP, ICMPv6, EAPoL | TCP, UDP | HTTP, HTTPS,
//!    DHCP, BOOTP, SSDP, DNS, MDNS, NTP), the two IP-option bits
//!    (padding, router alert), the packet size, a raw-data bit, the
//!    destination-IP counter and the source/destination port classes.
//! 2. Consecutive identical feature vectors are discarded, giving the
//!    variable-length matrix **F** ([`Fingerprint`]) whose columns keep
//!    the temporal order of the setup conversation.
//! 3. The first **12 unique** columns are concatenated (zero-padded)
//!    into the fixed **276-dimensional vector F′**
//!    ([`FixedFingerprint`]) consumed by the per-type classifiers.
//!
//! The crate also provides labelled datasets with stratified k-fold
//! splitting ([`dataset`], [`folds`]) and a self-contained text codec
//! ([`codec`]) for persisting them.
//!
//! # Example
//!
//! ```
//! use sentinel_fingerprint::FingerprintExtractor;
//! use sentinel_net::wire::compose;
//! use sentinel_net::{MacAddr, SimTime};
//! use sentinel_net::wire::decode_frame;
//!
//! // Each frame decodes in place into a `Copy` packet record, which the
//! // extractor reduces to the 23 features of Table I.
//! let mac = MacAddr::new([2, 0, 0, 0, 0, 1]);
//! let mut extractor = FingerprintExtractor::new();
//! for (i, frame) in [
//!     compose::dhcp_discover(mac, 1, "plug"),
//!     compose::arp_probe(mac, "192.168.1.50".parse()?),
//! ]
//! .iter()
//! .enumerate()
//! {
//!     extractor.observe(&decode_frame(frame, SimTime::from_millis(i as u64 * 100))?);
//! }
//! let fp = extractor.finish();
//! assert_eq!(fp.len(), 2);
//! let fixed = fp.to_fixed();
//! assert_eq!(fixed.as_slice().len(), 276);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod dataset;
pub mod error;
pub mod extractor;
pub mod features;
pub mod fingerprint;
pub mod folds;

pub use dataset::{Dataset, LabeledFingerprint};
pub use error::FingerprintError;
pub use extractor::FingerprintExtractor;
pub use features::{FeatureId, PacketFeatures, FEATURE_COUNT};
pub use fingerprint::{Fingerprint, FixedFingerprint, FixedScratch, FIXED_DIMS, FIXED_PACKETS};
pub use folds::StratifiedKFold;
