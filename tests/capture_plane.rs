//! Golden digests of the capture plane: simulator → frame decode →
//! capture monitor → feature extraction.
//!
//! Each digest is FNV-1a over bytes the pipeline produces. Flipping any
//! feature of any packet anywhere in `net`, `devices` or `fingerprint`
//! changes at least one of them, so a refactor of that path must leave
//! every constant below untouched.
//!
//! A counting global allocator also pins that `decode_frame` reads a
//! frame in place: it allocates nothing for any simulator frame.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use iot_sentinel::devices::{
    catalog, generate_dataset, standby, DeviceProfile, NetworkEnvironment, SetupSimulator,
};
use iot_sentinel::fingerprint::{codec, Dataset, PacketFeatures};
use iot_sentinel::net::wire::decode_frame;
use iot_sentinel::net::CapturedFrame;

/// The allocation counter is process-global, so every test in this
/// binary holds this lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The paper-gate seed (`fig5_accuracy`, `table3_confusion`).
const SEED: u64 = 0x5e17_1e57;
/// Setups per device type, as in the paper (§VI-A).
const RUNS: u32 = 20;

/// FNV-1a, 64-bit.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn dataset_digest(dataset: &Dataset) -> u64 {
    let mut bytes = Vec::new();
    codec::write(&mut bytes, dataset).expect("writing to a Vec cannot fail");
    let mut h = Fnv::new();
    h.write(&bytes);
    h.0
}

/// Every frame `SetupSimulator` emits for `RUNS` setups of each
/// profile, gateway frames included, in the order `capture_setups`
/// simulates them.
fn for_each_frame(profiles: &[DeviceProfile], mut f: impl FnMut(&CapturedFrame)) {
    let env = NetworkEnvironment::default();
    for profile in profiles {
        let mut sim = SetupSimulator::new(env.clone(), SEED);
        for run in 0..RUNS {
            sim.simulate(profile, run).iter().for_each(&mut f);
        }
    }
}

#[test]
fn paper_dataset_digest() {
    let _serial = serial();
    let ds = generate_dataset(
        &catalog::standard_catalog(),
        &NetworkEnvironment::default(),
        RUNS,
        SEED,
    );
    assert_eq!(ds.len(), 540);
    assert_eq!(dataset_digest(&ds), 0x96034cc63fa3a8f0);
}

#[test]
fn standby_dataset_digest() {
    let _serial = serial();
    let ds =
        standby::generate_standby_dataset(&NetworkEnvironment::default(), RUNS, SEED ^ 0xa5a5_a5a5);
    assert_eq!(dataset_digest(&ds), 0x3b8f15a87c664fa4);
}

#[test]
fn firmware_variant_dataset_digest() {
    let _serial = serial();
    let ds = generate_dataset(
        &catalog::firmware_variants(),
        &NetworkEnvironment::default(),
        RUNS,
        SEED,
    );
    assert_eq!(dataset_digest(&ds), 0x411c1843a9efacc2);
}

/// Frame by frame: decode outcome, then source MAC, time, destination
/// IP and the 23 features (destination counter 0) of every frame.
#[test]
fn simulator_frame_digest() {
    let _serial = serial();
    let mut h = Fnv::new();
    let mut frames = 0usize;
    for_each_frame(&catalog::standard_catalog(), |frame| {
        frames += 1;
        let Ok(p) = decode_frame(frame.bytes(), frame.time()) else {
            h.write(&[0]);
            return;
        };
        h.write(&[1]);
        h.write(&p.src_mac().octets());
        h.write(&p.time().as_nanos().to_le_bytes());
        match p.dst_ip() {
            None => h.write(&[0]),
            Some(IpAddr::V4(ip)) => {
                h.write(&[4]);
                h.write(&ip.octets());
            }
            Some(IpAddr::V6(ip)) => {
                h.write(&[6]);
                h.write(&ip.octets());
            }
        }
        for v in PacketFeatures::extract(&p, 0).values() {
            h.write(&v.to_le_bytes());
        }
    });
    assert_eq!(frames, 51_206);
    assert_eq!(h.0, 0xe0595d514dd4baff);
}

/// Decoding reads every header from the frame where it lies: no frame of
/// the 540 setups costs `decode_frame` a single allocation.
#[test]
fn decode_frame_allocates_nothing() {
    let _serial = serial();
    let (mut frames, mut allocations) = (0u64, 0u64);
    for_each_frame(&catalog::standard_catalog(), |frame| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let packet = decode_frame(frame.bytes(), frame.time());
        allocations += ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(packet.is_ok(), "simulator frames decode");
        frames += 1;
    });
    assert_eq!(frames, 51_206);
    assert_eq!(
        allocations, 0,
        "{allocations} allocations over {frames} frames"
    );
}
