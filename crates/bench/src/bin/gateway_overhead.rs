//! Measures **Tables V-VI and Fig. 6** on the gateway's real enforcement
//! path: rules are installed through `SdnController::on_device_appeared`
//! and `on_setup_complete`, and packets go through
//! `OvsSwitch::process_packet` with filtering on or off.
//!
//! The paper measured round-trip times, CPU and resident memory of a
//! Raspberry Pi 2 gateway serving WiFi clients. This substrate has no
//! radio and no gateway process of its own, so it reports what
//! enforcement itself costs: nanoseconds per packet, and live heap bytes
//! counted by this binary's global allocator. The paper's R-Pi columns
//! are printed beside them as a different substrate, not as a target.
//!
//! The run exits nonzero, naming the claim, when a shape claim the paper
//! supports fails: first-packet cost within 2× from 1 to 20 000 rules,
//! cached-flow cost within 2× from 1 to 150 flows, heap bytes per rule
//! within a 2× band from 2 000 to 20 000 rules, and no flow-table bytes
//! and no controller calls with filtering off.
//!
//! Usage: `gateway_overhead`

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::iter::once;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use sentinel_core::IsolationLevel;
use sentinel_gateway::{FlowKey, OvsSwitch, SdnController};
use sentinel_net::{MacAddr, Port, SimTime};

/// Live heap bytes of the process: allocated minus freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter only reads
// sizes and never touches the memory. The default `realloc` goes
// through these two, so it is counted too.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Packets per timed batch. A sample is one batch's mean, which keeps
/// the clock's own tens of nanoseconds out of a single packet's cost.
const BATCH: usize = 64;
/// Timed batches per measurement, so 20 samples lie above the p99.
const BATCHES: usize = 2_000;
/// The gateway's MAC, the next hop of routed traffic.
const GATEWAY: MacAddr = MacAddr::new([2, 0x53, 0x47, 0x57, 0, 1]);
/// The remote server (Fig. 4's S_remote).
const REMOTE: Ipv4Addr = Ipv4Addr::new(52, 1, 2, 3);

/// Table V's destinations from the lab devices D1-D3: label, MAC and
/// address. Traffic not sent to the gateway's MAC is device to device.
const DESTINATIONS: [(&str, MacAddr, Ipv4Addr); 3] = [
    ("D4", device(3), Ipv4Addr::new(192, 168, 1, 4)),
    ("S_local", GATEWAY, Ipv4Addr::new(192, 168, 1, 9)),
    ("S_remote", GATEWAY, REMOTE),
];
/// The paper's Table V per destination: RTT in ms (filtering/no
/// filtering) from D1, D2 and D3.
const PAPER_TABLE_V: [&str; 3] = [
    "24.8/24.5 28.5/28.2 27.6/27.5",
    "18.4/18.2 17.2/17.0 15.5/15.4",
    "20.6/20.3 20.0/19.8 20.6/19.9",
];

/// The MAC of device `i` (D1 is device 0).
const fn device(i: usize) -> MacAddr {
    MacAddr::new([2, 0xd0, 0, (i >> 16) as u8, (i >> 8) as u8, i as u8])
}

/// One TCP flow from `src` towards `dst_mac` / `dst_ip`, told apart from
/// its siblings by `port`.
fn key(src: MacAddr, dst_mac: MacAddr, dst_ip: Ipv4Addr, port: usize) -> FlowKey {
    FlowKey {
        src_mac: src,
        dst_mac,
        src_ip: IpAddr::V4(Ipv4Addr::new(192, 168, 1, 50)),
        dst_ip: IpAddr::V4(dst_ip),
        protocol: 6,
        src_port: Port::new(port as u16),
        dst_port: Port::new(443),
    }
}

/// A controller holding `rules` devices, each installed as the gateway
/// installs one: appeared (strict), then set up with the service's
/// answer, trusted here so that every measured flow is allowed.
fn gateway(rules: usize) -> SdnController {
    let mut ctl = SdnController::new();
    for mac in (0..rules).map(device) {
        ctl.on_device_appeared(mac, SimTime::ZERO)
            .expect("each MAC appears once");
        ctl.on_setup_complete(mac, None, IsolationLevel::Trusted, &|_| None)
            .expect("the device appeared");
    }
    ctl
}

/// Heap bytes that `f` leaves allocated, and its result.
fn heap_of<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = LIVE.load(Ordering::Relaxed);
    let value = f();
    (LIVE.load(Ordering::Relaxed) - before, value)
}

/// Which part of the switch a timed packet takes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Filtering on, a flow's first packet: escalates to the controller.
    Miss,
    /// Filtering on, a cached flow: answered from the flow table.
    Hit,
    /// Filtering off: forwarded without a lookup.
    Off,
}

/// A new switch, filtering on or off, warmed with one packet on each
/// of `flows`.
fn warmed(ctl: &mut SdnController, flows: &[FlowKey], local: bool, filtering: bool) -> OvsSwitch {
    let mut switch = OvsSwitch::new();
    switch.set_filtering(filtering);
    for key in flows {
        switch.process_packet(*key, local, SimTime::ZERO, ctl);
    }
    switch
}

/// Nanoseconds per packet, (p50, p99) over [`BATCHES`] batch means. The
/// packets cycle through `flows`. For [`Path::Miss`] every batch gets a
/// new switch, built untimed, so `flows` must not repeat a key within a
/// batch; otherwise one switch, warmed untimed, serves every batch.
fn per_packet(ctl: &mut SdnController, flows: &[FlowKey], local: bool, path: Path) -> (f64, f64) {
    let seen = if path == Path::Miss { &[] } else { flows };
    let mut switch = warmed(ctl, seen, local, path != Path::Off);
    let mut packets = flows.iter().cycle();
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            if path == Path::Miss {
                switch = warmed(ctl, &[], local, true);
            }
            let start = Instant::now();
            for key in packets.by_ref().take(BATCH) {
                black_box(switch.process_packet(black_box(*key), local, SimTime::ZERO, ctl));
            }
            start.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (samples[BATCHES / 2], samples[BATCHES * 99 / 100])
}

/// Heap bytes a new switch holds, and controller calls it made, after
/// one packet on each of `flows`.
fn footprint(ctl: &mut SdnController, flows: &[FlowKey], filtering: bool) -> (usize, u64) {
    let calls = ctl.packet_in_count();
    let (bytes, _switch) = heap_of(|| warmed(ctl, flows, false, filtering));
    (bytes, ctl.packet_in_count() - calls)
}

/// A cost as `p50 / p99`.
fn ns((p50, p99): (f64, f64)) -> String {
    format!("{p50:.1} / {p99:.1}")
}

fn main() {
    println!("== gateway_overhead: the enforcement path, measured on this host ==");
    println!("ns per packet: p50 / p99 over {BATCHES} batches of {BATCH} packets, one thread.");
    println!("heap: live bytes, counted by this binary's allocator. The paper columns are a");
    println!("Raspberry Pi 2 gateway with WiFi clients, a different substrate; this host has");
    println!("no radio, so no RTT is reproduced.");

    // The Fig. 4 lab: D1-D4, identified as trusted.
    let mut lab = gateway(4);
    println!("\n== Table V: per-packet cost with and without filtering, from D1-D3 ==");
    println!(
        "{:<8} | {:>15} | {:>15} | {:>15} | paper RTT ms, D1 D2 D3 (filtering/none)",
        "dst", "first packet", "cached flow", "no filtering"
    );
    let mut added = (0.0, 0.0);
    for ((label, mac, ip), paper) in DESTINATIONS.into_iter().zip(PAPER_TABLE_V) {
        let local = mac != GATEWAY;
        let first: Vec<FlowKey> = (0..BATCH * BATCHES)
            .map(|j| key(device(j % 3), mac, ip, j))
            .collect();
        let cached = &first[..3];
        let miss = per_packet(&mut lab, &first, local, Path::Miss);
        let hit = per_packet(&mut lab, cached, local, Path::Hit);
        let off = per_packet(&mut lab, cached, local, Path::Off);
        println!(
            "{label:<8} | {:>15} | {:>15} | {:>15} | {paper}",
            ns(miss),
            ns(hit),
            ns(off)
        );
        added = (hit.0 - off.0, miss.0 - off.0);
    }

    let flows: Vec<FlowKey> = (0..150)
        .map(|j| key(device(j % 4), GATEWAY, REMOTE, j))
        .collect();
    let (on_bytes, on_calls) = footprint(&mut lab, &flows, true);
    let (off_bytes, off_calls) = footprint(&mut lab, &flows, false);
    let (cached, first) = added;
    println!("\n== Table VI: overhead of filtering, on vs off (S_remote; 150 flows) ==");
    println!("added p50 per packet: +{cached:.1} ns cached flow, +{first:.1} ns first packet");
    println!("controller calls:     {on_calls} vs {off_calls}");
    println!("switch heap:          {on_bytes} B vs {off_bytes} B");
    println!(
        "paper (R-Pi 2): D1-D2 latency +5.84% (±4.76%), D1-D3 latency +0.71% (±5.88%),\n\
         CPU utilization +0.63% (±1.8%), memory usage +7.6% (±4.6%)"
    );

    println!("\n== Fig. 6a/b: cached-flow cost vs concurrent flows (ns per packet) ==");
    println!(
        "{:>6} | {:>15} | {:>15}",
        "flows", "filtering", "no filtering"
    );
    let mut hits = Vec::new();
    for n in once(1).chain((10..=150).step_by(10)) {
        let on = per_packet(&mut lab, &flows[..n], false, Path::Hit);
        let off = per_packet(&mut lab, &flows[..n], false, Path::Off);
        println!("{n:>6} | {:>15} | {:>15}", ns(on), ns(off));
        hits.push(on.0);
    }
    println!(
        "paper (R-Pi 2): D1-D2 ≈ 22 ms and D1-D3 ≈ 15 ms RTT, flat up to 150 flows;\n\
         CPU ≈ 37% rising to ≈ 48% at 150 flows, filtering adds < 1 point."
    );

    println!("\n== Fig. 6c: controller heap and first-packet cost vs enforcement rules ==");
    println!(
        "{:>6} | {:>10} | {:>6} | {:>15}",
        "rules", "heap B", "B/rule", "first packet ns"
    );
    let mut per_rule = Vec::new();
    let mut misses = Vec::new();
    for rules in once(1).chain((2_000..=20_000).step_by(2_000)) {
        let (heap, mut ctl) = heap_of(|| gateway(rules));
        let first: Vec<FlowKey> = (0..BATCH * BATCHES)
            .map(|j| key(device(j % rules), GATEWAY, REMOTE, j))
            .collect();
        let miss = per_packet(&mut ctl, &first, false, Path::Miss);
        println!(
            "{rules:>6} | {heap:>10} | {:>6} | {:>15}",
            heap / rules,
            ns(miss)
        );
        if rules >= 2_000 {
            per_rule.push(heap / rules);
        }
        misses.push(miss.0);
    }
    println!(
        "paper (R-Pi 2): ≈ 40 MB growing near-linearly to ≈ 90 MB at 20 000 rules, with\n\
         and without filtering. Rules are installed alike here with filtering off; only\n\
         the switch's flow table differs (Table VI)."
    );

    let rule_lo = *per_rule.iter().min().expect("ten rows");
    let rule_hi = *per_rule.iter().max().expect("ten rows");
    let (miss_1, miss_20k) = (misses[0], misses[misses.len() - 1]);
    let (hit_1, hit_150) = (hits[0], hits[hits.len() - 1]);
    let claims = [
        (
            format!("first-packet p50 at 20000 rules within 2x of 1 rule ({miss_20k:.1} vs {miss_1:.1} ns)"),
            miss_20k <= 2.0 * miss_1,
        ),
        (
            format!("cached-flow p50 at 150 flows within 2x of 1 flow ({hit_150:.1} vs {hit_1:.1} ns)"),
            hit_150 <= 2.0 * hit_1,
        ),
        (
            format!("heap bytes per rule within a 2x band from 2000 to 20000 rules ({rule_lo}..{rule_hi})"),
            rule_hi <= 2 * rule_lo,
        ),
        (
            format!("filtering off: no flow-table bytes and no controller calls ({off_bytes} B, {off_calls} calls)"),
            off_bytes == 0 && off_calls == 0,
        ),
    ];
    sentinel_bench::enforce_claims("gateway_overhead", "shape claim", &claims);
}
