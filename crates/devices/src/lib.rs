//! IoT device setup-behaviour simulation.
//!
//! This crate is the repository's stand-in for the 27 off-the-shelf IoT
//! devices of the paper's Table II and for the lab procedure of §VI-A
//! (each device hard-reset and set up 20 times behind a monitoring
//! access point). Every device type is modelled as a **setup behaviour
//! script** ([`script`], [`action`]): the ordered, jittered sequence of
//! protocol exchanges the device performs when inducted into a network
//! — WPA2 association, DHCP, ARP probing, multicast joins, service
//! discovery, DNS lookups, cloud connections, NTP.
//!
//! The [`simulator`] renders a script into real wire-format frames
//! (via `sentinel-net`), producing a [`sentinel_net::TraceCapture`]
//! that is indistinguishable, at the feature level the fingerprint
//! consumes, from a tcpdump capture of the device.
//!
//! **Fidelity notes** (the scripts stand in for the 27 real devices the
//! paper set up in its lab, §VI-A):
//!
//! * Device types from the same vendor with shared hardware/firmware —
//!   the D-Link sensor/siren/water-sensor/plug quartet, the TP-Link
//!   HS100/HS110 pair, the Edimax plug pair and the two Smarter
//!   appliances — share near-identical scripts differing only in
//!   stochastic retries, repeats and step order, reproducing the
//!   paper's structural confusion (Table III).
//! * Stochastic elements (optional steps, retry counts, repeat counts,
//!   order swaps) model run-to-run variance in real setups; all
//!   randomness flows from a caller-provided seed.
//!
//! # Example
//!
//! ```
//! use sentinel_devices::{catalog, NetworkEnvironment, SetupSimulator};
//!
//! let profiles = catalog::standard_catalog();
//! assert_eq!(profiles.len(), 27);
//!
//! let env = NetworkEnvironment::default();
//! let mut sim = SetupSimulator::new(env, 42);
//! let trace = sim.simulate(&profiles[0], 0);
//! assert!(trace.len() > 10, "setup produces traffic");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod catalog;
pub mod environment;
pub mod profile;
pub mod script;
pub mod simulator;
pub mod standby;
pub mod trace;

pub use action::SetupAction;
pub use environment::NetworkEnvironment;
pub use profile::{Connectivity, DeviceProfile, PortStyle};
pub use script::{ScriptStep, SetupScript};
pub use simulator::SetupSimulator;
pub use trace::{
    capture_setups, capture_setups_with_loss, generate_dataset, generate_dataset_with_loss,
};
