//! The IoT Sentinel Security Gateway (paper §III-A and §V).
//!
//! An SDN-based traffic monitoring and control component acting as the
//! gateway router of a home or small-office network. This crate
//! simulates the paper's deployment — Open vSwitch managed by a custom
//! Floodlight module on a Raspberry Pi 2 — with real data structures on
//! the enforcement path; `sentinel-bench`'s `gateway_overhead` binary
//! measures Tables V-VI and Fig. 6 on that path:
//!
//! * [`rule`] / [`cache`] — MAC-keyed enforcement rules (Fig. 2) stored
//!   in a hash table so lookup stays O(1) as the rule set grows (§V:
//!   "enforcement rules are stored in a hash table structure to
//!   minimize the lookup time as the enforcement rule cache grows").
//! * [`flow`] — flow keys/decisions and the active-flow table.
//! * [`overlay`] — the trusted/untrusted virtual network overlays
//!   (§III-C-1).
//! * [`switch`] / [`controller`] — the OVS-like forwarding element and
//!   the Floodlight-like controller that installs the rule for the
//!   answer its caller got from the IoT Security Service. The gateway
//!   enforces; it holds no copy of the service. The switch drops its
//!   cached flow decisions whenever the controller's rules change.
//! * [`wps`] — device-specific WPA2-PSK provisioning and the §VIII-A
//!   legacy re-keying flow.
//!
//! # Example
//!
//! ```
//! use sentinel_gateway::{EnforcementRule, RuleCache};
//! use sentinel_core::IsolationLevel;
//! use sentinel_net::MacAddr;
//!
//! let mut cache = RuleCache::new();
//! let mac: MacAddr = "13-73-74-7E-A9-C2".parse()?;
//! cache.install(EnforcementRule::new(mac, IsolationLevel::Strict));
//! assert!(cache.lookup(mac).is_some());
//! # Ok::<(), sentinel_net::WireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod controller;
pub mod device;
pub mod error;
pub mod flow;
pub mod notify;
pub mod overlay;
pub mod rule;
pub mod switch;
pub mod wps;

pub use cache::RuleCache;
pub use controller::SdnController;
pub use device::DeviceRecord;
pub use error::GatewayError;
pub use flow::{FlowDecision, FlowKey, FlowTable};
pub use notify::{NotificationCenter, NotificationState, SideChannel, UserNotification};
pub use overlay::{Overlay, OverlayMap};
pub use rule::{EnforcementRule, FilterAction, FlowFilter};
pub use switch::OvsSwitch;
pub use wps::WpsRegistrar;
