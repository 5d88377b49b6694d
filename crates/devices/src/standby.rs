//! Standby/operation-phase device behaviour (paper §VIII-A).
//!
//! The paper's discussion of legacy installations hypothesises that
//! "message exchanges during standby and operation cycles are likely
//! to be characteristic for particular device-types and therefore form
//! a good basis for device-type identification", deferring the
//! investigation to future work. This module implements that future
//! work on the simulated substrate: every catalogue type gets a
//! **standby behaviour script** — the periodic traffic an
//! already-installed device produces while idle — derived from the
//! same vendor-behaviour model as its setup script.
//!
//! Standby windows are anchored at a DHCP lease renewal (the one
//! reliably periodic event every device produces, and the natural
//! trigger for a gateway to open an observation window on a device it
//! has not yet profiled). Around the renewal the device performs its
//! type-characteristic steady-state mix: gateway ARP refreshes, cloud
//! keep-alive sessions (with the type-characteristic record size also
//! seen in setup tails), periodic NTP, service announcements (SSDP /
//! mDNS) for hub- and camera-class devices, and vendor-proprietary
//! beacons for app-coupled appliances.
//!
//! Fidelity notes, mirroring the setup catalogue's (standby traffic is
//! the paper's §VIII-A extension):
//!
//! * Sibling groups that share hardware/firmware — the D-Link quartet,
//!   the TP-Link pair, the Edimax pair and the Smarter pair — get
//!   *identical* standby overlays (up to the marginal keep-alive size
//!   differences they also exhibit during setup), so the Table III
//!   confusion structure must persist in standby identification.
//! * Standby traffic is *less* eventful than a setup conversation: no
//!   EAPoL association, no ARP probing of a fresh address, no initial
//!   multicast joins, no registration HTTP exchanges. Standby
//!   fingerprints are therefore expected to separate device types
//!   somewhat less sharply than setup fingerprints — quantified by
//!   the `standby_identification` experiment binary.
//!
//! # Example
//!
//! ```
//! use sentinel_devices::standby;
//! use sentinel_devices::NetworkEnvironment;
//!
//! let profiles = standby::standby_catalog();
//! assert_eq!(profiles.len(), 27);
//! let ds = standby::generate_standby_dataset(&NetworkEnvironment::default(), 2, 7);
//! assert_eq!(ds.len(), 54);
//! ```

use sentinel_fingerprint::Dataset;

use crate::action::SetupAction;
use crate::catalog;
use crate::environment::NetworkEnvironment;
use crate::profile::DeviceProfile;
use crate::script::{ScriptStep, SetupScript};
use crate::trace::generate_dataset;

/// Extracts the DHCP hostname the device announces, from its setup
/// script (falling back to the type name for non-DHCP devices).
fn dhcp_hostname(profile: &DeviceProfile) -> String {
    profile
        .script
        .steps()
        .iter()
        .find_map(|s| match &s.action {
            SetupAction::Dhcp { hostname } | SetupAction::DhcpRenew { hostname } => {
                Some(hostname.clone())
            }
            _ => None,
        })
        .unwrap_or_else(|| profile.type_name.clone())
}

/// Extracts the cloud keep-alive parameters (host, record size) from
/// the profile's setup script tail.
fn heartbeat_of(profile: &DeviceProfile) -> Option<(String, usize)> {
    profile.script.steps().iter().find_map(|s| match &s.action {
        SetupAction::Heartbeat { host, size, .. } => Some((host.clone(), *size)),
        _ => None,
    })
}

/// Derives the standby behaviour script for one device type.
///
/// The script starts with the DHCP renewal that anchors the
/// observation window, refreshes the gateway ARP entry, and then plays
/// the type's steady-state overlay (see the module documentation).
///
/// # Examples
///
/// ```
/// use sentinel_devices::{catalog, standby};
///
/// let hue = &catalog::standard_catalog()[4];
/// assert_eq!(hue.type_name, "HueBridge");
/// let script = standby::standby_script(hue);
/// assert!(script.len() >= 4, "hub-class standby is chatty");
/// ```
pub fn standby_script(profile: &DeviceProfile) -> SetupScript {
    let hostname = dhcp_hostname(profile);
    let mut script = SetupScript::new()
        .then(SetupAction::DhcpRenew { hostname }, 50, 30)
        .then(SetupAction::ArpGateway, 600, 300);
    for step in overlay_steps(profile) {
        script = script.step(step);
    }
    script
}

/// The type-specific steady-state overlay. Sibling groups (Table III)
/// share one overlay builder each, so their standby scripts are
/// identical up to keep-alive record size.
fn overlay_steps(profile: &DeviceProfile) -> Vec<ScriptStep> {
    let (hb_host, hb_size) =
        heartbeat_of(profile).unwrap_or_else(|| ("cloud.vendor.example".into(), 64));
    let heartbeat = |rounds: usize| {
        ScriptStep::new(
            SetupAction::Heartbeat {
                host: hb_host.clone(),
                rounds,
                size: hb_size,
            },
            1_500,
            600,
        )
    };
    let ntp = |p: f64| {
        ScriptStep::new(
            SetupAction::NtpSync {
                server: "pool.ntp.example".into(),
            },
            2_000,
            800,
        )
        .with_probability(p)
    };
    let re_resolve = |p: f64| {
        ScriptStep::new(
            SetupAction::DnsQuery {
                host: hb_host.clone(),
            },
            1_000,
            400,
        )
        .with_probability(p)
    };
    let arp_refresh =
        |p: f64| ScriptStep::new(SetupAction::ArpGateway, 3_000, 1_200).with_probability(p);

    match profile.type_name.as_str() {
        // Scales: mostly silent; a wake-up burst uploads a measurement,
        // then a short keep-alive.
        "Aria" => vec![
            re_resolve(0.8),
            ScriptStep::new(
                SetupAction::HttpPost {
                    host: hb_host.clone(),
                    path: "/scale/upload".into(),
                    body_len: 220,
                },
                1_200,
                500,
            ),
            heartbeat(6),
        ],
        "Withings" => vec![
            re_resolve(0.8),
            ScriptStep::new(
                SetupAction::TlsConnect {
                    host: hb_host.clone(),
                    extra_records: 2,
                },
                1_200,
                500,
            ),
            heartbeat(6),
        ],
        // Hub / bridge class: periodic service announcements plus the
        // cloud session.
        "HueBridge" => vec![
            ScriptStep::new(
                SetupAction::MdnsAnnounce {
                    service: "_hue._tcp.local".into(),
                    instance: "Philips Hue".into(),
                },
                1_000,
                400,
            ),
            ScriptStep::new(
                SetupAction::SsdpNotify {
                    nt: "upnp:rootdevice".into(),
                    repeats: 2,
                },
                1_500,
                600,
            ),
            ntp(0.6),
            heartbeat(14),
        ],
        "HueSwitch" => vec![arp_refresh(0.5), heartbeat(10)],
        "EdnetGateway" => vec![
            ScriptStep::new(
                SetupAction::UdpBroadcast {
                    port: 48899,
                    payload_len: 48,
                    count: 1,
                },
                2_000,
                800,
            )
            .with_probability(0.7),
            heartbeat(14),
        ],
        "MAXGateway" => vec![
            ntp(0.7),
            ScriptStep::new(
                SetupAction::UdpBroadcast {
                    port: 23272,
                    payload_len: 19,
                    count: 1,
                },
                2_500,
                900,
            )
            .with_probability(0.6),
            heartbeat(12),
        ],
        "HomeMaticPlug" => vec![
            ScriptStep::new(
                SetupAction::LlcChatter {
                    payload_len: 28,
                    count: 2,
                },
                2_000,
                700,
            )
            .with_probability(0.6),
            heartbeat(16),
        ],
        "Lightify" => vec![
            ScriptStep::new(
                SetupAction::MdnsAnnounce {
                    service: "_lightify._tcp.local".into(),
                    instance: "Lightify Gateway".into(),
                },
                1_500,
                600,
            ),
            ntp(0.6),
            heartbeat(14),
        ],
        // Camera class: SSDP presence plus NTP (recording timestamps).
        "EdnetCam" => vec![
            ScriptStep::new(
                SetupAction::SsdpNotify {
                    nt: "urn:schemas-upnp-org:device:Basic:1".into(),
                    repeats: 2,
                },
                1_500,
                600,
            ),
            ntp(0.5),
            heartbeat(14),
        ],
        "EdimaxCam" => vec![
            ScriptStep::new(
                SetupAction::SsdpNotify {
                    nt: "urn:schemas-upnp-org:device:Basic:1".into(),
                    repeats: 2,
                },
                1_500,
                600,
            ),
            ScriptStep::new(
                SetupAction::HttpGet {
                    host: hb_host.clone(),
                    path: "/camera-cgi/public/keepalive.cgi".into(),
                },
                2_000,
                700,
            )
            .with_probability(0.7),
            heartbeat(12),
        ],
        "D-LinkDayCam" => vec![
            ScriptStep::new(
                SetupAction::SsdpNotify {
                    nt: "urn:schemas-upnp-org:device:Basic:1".into(),
                    repeats: 2,
                },
                1_500,
                600,
            ),
            ntp(0.6),
            heartbeat(13),
        ],
        "D-LinkCam" => vec![ntp(0.6), re_resolve(0.5), heartbeat(13)],
        "D-LinkHomeHub" => vec![
            ScriptStep::new(
                SetupAction::SsdpNotify {
                    nt: "urn:schemas-upnp-org:device:Basic:1".into(),
                    repeats: 2,
                },
                1_500,
                600,
            ),
            ScriptStep::new(
                SetupAction::MdnsAnnounce {
                    service: "_dcp._tcp.local".into(),
                    instance: "DCH-G020".into(),
                },
                1_200,
                500,
            ),
            heartbeat(14),
        ],
        "D-LinkDoorSensor" => vec![arp_refresh(0.5), heartbeat(10)],
        // WeMo family: periodic UPnP presence; Insight additionally
        // reports power measurements, Link also announces over mDNS.
        "WeMoInsightSwitch" => vec![
            ScriptStep::new(
                SetupAction::SsdpNotify {
                    nt: "urn:Belkin:device:insight:1".into(),
                    repeats: 2,
                },
                1_500,
                600,
            ),
            ScriptStep::new(
                SetupAction::HttpPost {
                    host: hb_host.clone(),
                    path: "/upnp/event/insight1".into(),
                    body_len: 180,
                },
                2_000,
                700,
            )
            .with_probability(0.8),
            heartbeat(12),
        ],
        "WeMoLink" => vec![
            ScriptStep::new(
                SetupAction::SsdpNotify {
                    nt: "urn:Belkin:device:bridge:1".into(),
                    repeats: 2,
                },
                1_500,
                600,
            ),
            ScriptStep::new(
                SetupAction::MdnsAnnounce {
                    service: "_wemo._tcp.local".into(),
                    instance: "WeMo Link".into(),
                },
                1_200,
                500,
            ),
            heartbeat(12),
        ],
        "WeMoSwitch" => vec![
            ScriptStep::new(
                SetupAction::SsdpNotify {
                    nt: "urn:Belkin:device:controllee:1".into(),
                    repeats: 2,
                },
                1_500,
                600,
            ),
            heartbeat(12),
        ],
        // Sibling groups: identical overlays (up to the keep-alive
        // record size carried in from the setup profile).
        "D-LinkSwitch" | "D-LinkWaterSensor" | "D-LinkSiren" | "D-LinkSensor" => {
            vec![arp_refresh(0.5), re_resolve(0.4), heartbeat(12)]
        }
        "TP-LinkPlugHS110" | "TP-LinkPlugHS100" => vec![
            ScriptStep::new(
                SetupAction::TcpOpaque {
                    host: hb_host.clone(),
                    port: 50443,
                    payload_len: 84,
                },
                2_000,
                700,
            )
            .with_probability(0.7),
            heartbeat(12),
        ],
        "EdimaxPlug1101W" | "EdimaxPlug2101W" => vec![
            ScriptStep::new(
                SetupAction::HttpGet {
                    host: hb_host.clone(),
                    path: "/liveness".into(),
                },
                2_000,
                700,
            )
            .with_probability(0.6),
            heartbeat(12),
        ],
        "SmarterCoffee" | "iKettle2" | "SmarterCoffee-v2" | "iKettle2-v2" => vec![
            ScriptStep::new(
                SetupAction::UdpBroadcast {
                    port: 2081,
                    payload_len: 32,
                    count: 2,
                },
                2_000,
                700,
            ),
            ScriptStep::new(
                SetupAction::TcpOpaque {
                    host: hb_host.clone(),
                    port: 2081,
                    payload_len: 58,
                },
                1_500,
                600,
            )
            .with_probability(0.7),
            heartbeat(10),
        ],
        // Unknown custom types: generic cloud-connected behaviour.
        _ => vec![arp_refresh(0.5), re_resolve(0.5), heartbeat(12)],
    }
}

/// The 27 standard device types with their setup scripts replaced by
/// standby scripts — drop-in input for [`generate_dataset`] and the
/// simulator.
pub fn standby_catalog() -> Vec<DeviceProfile> {
    catalog::standard_catalog()
        .into_iter()
        .map(|mut p| {
            p.script = standby_script(&p);
            p
        })
        .collect()
}

/// Builds a labelled **standby** fingerprint dataset: `runs_per_type`
/// observation windows per device type, through the same
/// capture-monitor path as setup datasets.
///
/// # Examples
///
/// ```
/// use sentinel_devices::{standby, NetworkEnvironment};
///
/// let ds = standby::generate_standby_dataset(&NetworkEnvironment::default(), 3, 11);
/// assert_eq!(ds.len(), 81);
/// assert_eq!(ds.labels().len(), 27);
/// ```
pub fn generate_standby_dataset(
    env: &NetworkEnvironment,
    runs_per_type: u32,
    seed: u64,
) -> Dataset {
    generate_dataset(&standby_catalog(), env, runs_per_type, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::SetupSimulator;

    #[test]
    fn standby_catalog_mirrors_standard_names() {
        let std_names: Vec<String> = catalog::standard_catalog()
            .into_iter()
            .map(|p| p.type_name)
            .collect();
        let stby_names: Vec<String> = standby_catalog().into_iter().map(|p| p.type_name).collect();
        assert_eq!(std_names, stby_names);
    }

    #[test]
    fn every_standby_script_anchors_on_renewal() {
        for p in standby_catalog() {
            let first = &p.script.steps()[0].action;
            assert!(
                matches!(first, SetupAction::DhcpRenew { .. }),
                "{} standby script must start with a DHCP renewal",
                p.type_name
            );
        }
    }

    #[test]
    fn standby_scripts_have_no_setup_only_actions() {
        for p in standby_catalog() {
            for step in p.script.steps() {
                assert!(
                    !matches!(
                        step.action,
                        SetupAction::WifiAssociate
                            | SetupAction::Dhcp { .. }
                            | SetupAction::ArpProbe
                            | SetupAction::SsdpDiscover { .. }
                    ),
                    "{} standby script contains setup-only action {}",
                    p.type_name,
                    step.action.kind()
                );
            }
        }
    }

    #[test]
    fn sibling_groups_share_standby_overlays() {
        let profiles = standby_catalog();
        let by_name = |n: &str| {
            profiles
                .iter()
                .find(|p| p.type_name == n)
                .unwrap_or_else(|| panic!("{n} in catalogue"))
        };
        for group in catalog::confusion_groups() {
            let first = by_name(group[0]);
            for other in &group[1..] {
                let other = by_name(other);
                let kinds = |p: &DeviceProfile| -> Vec<&'static str> {
                    p.script.steps().iter().map(|s| s.action.kind()).collect()
                };
                assert_eq!(
                    kinds(first),
                    kinds(other),
                    "{} vs {} standby action sequence",
                    first.type_name,
                    other.type_name
                );
            }
        }
    }

    #[test]
    fn standby_traces_decode_and_carry_renewal() {
        let env = NetworkEnvironment::default();
        let mut sim = SetupSimulator::new(env, 99);
        for p in standby_catalog().iter().take(5) {
            let trace = sim.simulate(p, 0);
            assert!(trace.len() >= 6, "{} standby trace too short", p.type_name);
        }
    }

    #[test]
    fn standby_dataset_is_deterministic() {
        let env = NetworkEnvironment::default();
        let a = generate_standby_dataset(&env, 2, 31);
        let b = generate_standby_dataset(&env, 2, 31);
        assert_eq!(a, b);
    }

    #[test]
    fn standby_fingerprints_differ_from_setup_fingerprints() {
        let env = NetworkEnvironment::default();
        let setup = generate_dataset(&catalog::standard_catalog()[..3], &env, 1, 5);
        let standby = generate_dataset(&standby_catalog()[..3], &env, 1, 5);
        for (s, b) in setup.iter().zip(standby.iter()) {
            assert_eq!(s.label(), b.label());
            assert_ne!(
                s.fingerprint(),
                b.fingerprint(),
                "{} setup and standby fingerprints must differ",
                s.label()
            );
        }
    }
}
