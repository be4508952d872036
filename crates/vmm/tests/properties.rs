//! Property-based tests for the VM substrate.

use std::ops::Range;

use proptest::prelude::*;
use sedspec_vmm::{
    AddressSpace, Bus, DiskBackend, DmaEngine, GuestMemory, IoRequest, VmmError, SECTOR_SIZE,
};

/// Page granularity of the paged stores under `GuestMemory` and
/// `DiskBackend`; the model tests aim their accesses at its boundaries.
const PAGE: usize = 4096;

/// Memory sizes for the model tests: whole pages, a partial last page,
/// and a space smaller than one page.
const MEM_SIZES: [usize; 3] = [3 * PAGE, 2 * PAGE + 300, PAGE - 1];

/// Sectors in the model disk: 8 per page, so the last page is partial.
const DISK_SECTORS: u64 = 17;

/// An address near one of the interesting places of a space: its
/// start, the first page boundary, its end, or the top of `u64`.
#[derive(Debug, Clone, Copy)]
struct Addr {
    anchor: u8,
    delta: i8,
}

impl Addr {
    fn resolve(self, size: usize) -> u64 {
        let base = match self.anchor {
            0 => 0,
            1 => PAGE as u64,
            2 => size as u64,
            _ => u64::MAX,
        };
        base.saturating_add_signed(i64::from(self.delta))
    }
}

#[derive(Debug, Clone)]
enum MemOp {
    Write(Addr, Vec<u8>),
    Fill(Addr, usize, u8),
    WriteUint(Addr, usize, u64),
    Read(Addr, usize),
    ReadUint(Addr, usize),
}

#[derive(Debug, Clone)]
enum DiskOp {
    Write(u64, Vec<u8>),
    Read(u64),
    ReadInto(u64),
}

fn addr() -> impl Strategy<Value = Addr> {
    (0u8..4, -40i8..40).prop_map(|(anchor, delta)| Addr { anchor, delta })
}

fn width() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(4), Just(8)]
}

fn mem_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        (addr(), proptest::collection::vec(any::<u8>(), 0..48))
            .prop_map(|(a, data)| MemOp::Write(a, data)),
        (addr(), 0usize..2 * PAGE + 64, prop_oneof![Just(0u8), any::<u8>()])
            .prop_map(|(a, len, v)| MemOp::Fill(a, len, v)),
        (addr(), width(), any::<u64>()).prop_map(|(a, w, v)| MemOp::WriteUint(a, w, v)),
        (addr(), 0usize..48).prop_map(|(a, len)| MemOp::Read(a, len)),
        (addr(), width()).prop_map(|(a, w)| MemOp::ReadUint(a, w)),
    ]
}

fn sector() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..DISK_SECTORS + 3, Just(u64::MAX)]
}

fn disk_op() -> impl Strategy<Value = DiskOp> {
    prop_oneof![
        (sector(), proptest::collection::vec(any::<u8>(), 0..SECTOR_SIZE))
            .prop_map(|(s, data)| DiskOp::Write(s, data)),
        (sector(), proptest::collection::vec(any::<u8>(), SECTOR_SIZE..SECTOR_SIZE + 40))
            .prop_map(|(s, data)| DiskOp::Write(s, data)),
        sector().prop_map(DiskOp::Read),
        sector().prop_map(DiskOp::ReadInto),
    ]
}

/// The flat model's view of an access: the byte range it covers, or
/// the error a `size`-byte guest memory must return for it.
fn span(size: usize, addr: u64, len: usize) -> Result<Range<usize>, VmmError> {
    let oob = VmmError::OutOfBounds { addr, len, size };
    let start = usize::try_from(addr).map_err(|_| oob.clone())?;
    match start.checked_add(len) {
        Some(end) if end <= size => Ok(start..end),
        _ => Err(oob),
    }
}

/// The flat model's view of a sector: its byte range, or the error.
fn sector_span(sector: u64) -> Result<Range<usize>, VmmError> {
    if sector >= DISK_SECTORS {
        return Err(VmmError::SectorOutOfRange { sector, capacity: DISK_SECTORS });
    }
    let start = sector as usize * SECTOR_SIZE;
    Ok(start..start + SECTOR_SIZE)
}

proptest! {
    /// Guest memory round-trips arbitrary byte strings at arbitrary
    /// in-bounds offsets and never touches neighbouring bytes.
    #[test]
    fn memory_roundtrip_is_isolated(size in 64usize..512,
                                    addr in 0usize..448,
                                    data in proptest::collection::vec(any::<u8>(), 1..64)) {
        let mut mem = GuestMemory::new(size);
        let fits = addr + data.len() <= size;
        let before = mem.read_vec(0, size).unwrap();
        let r = mem.write_bytes(addr as u64, &data);
        prop_assert_eq!(r.is_ok(), fits);
        let after = mem.read_vec(0, size).unwrap();
        if fits {
            prop_assert_eq!(&after[addr..addr + data.len()], &data[..]);
            prop_assert_eq!(&after[..addr], &before[..addr]);
            prop_assert_eq!(&after[addr + data.len()..], &before[addr + data.len()..]);
        } else {
            prop_assert_eq!(after, before, "failed writes must not partially apply");
        }
    }

    /// Multi-width accessors agree with the byte-level view (little endian).
    #[test]
    fn width_accessors_are_little_endian(v in any::<u64>(), width in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)]) {
        let mut mem = GuestMemory::new(16);
        mem.write_uint(4, width, v).unwrap();
        let bytes = mem.read_vec(4, width).unwrap();
        for (i, b) in bytes.iter().enumerate() {
            prop_assert_eq!(*b, (v >> (8 * i)) as u8);
        }
        let mask = if width == 8 { u64::MAX } else { (1u64 << (8 * width)) - 1 };
        prop_assert_eq!(mem.read_uint(4, width).unwrap(), v & mask);
    }

    /// Gather inverts scatter for any scatter-gather geometry that fits.
    #[test]
    fn gather_inverts_scatter(chunks in proptest::collection::vec((0u64..96, 1usize..24), 1..6),
                              payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Lay the chunks out disjointly by offsetting each one.
        let mut sg = Vec::new();
        let mut base = 0u64;
        for &(gap, len) in &chunks {
            base += gap % 16;
            sg.push((base, len));
            base += len as u64;
        }
        let total: usize = sg.iter().map(|&(_, l)| l).sum();
        let mut mem = GuestMemory::new((base + 64) as usize);
        let mut dma = DmaEngine::new(&mut mem);
        let n = dma.scatter(&sg, &payload).unwrap();
        prop_assert_eq!(n, payload.len().min(total));
        let gathered = dma.gather(&sg).unwrap();
        prop_assert_eq!(&gathered[..n], &payload[..n]);
    }

    /// Disk sectors round-trip with zero padding and never leak between
    /// sectors.
    #[test]
    fn disk_sectors_are_isolated(sector in 0u64..8, data in proptest::collection::vec(any::<u8>(), 0..600)) {
        let mut disk = DiskBackend::new(8);
        disk.write_sector(sector, &data).unwrap();
        let back = disk.read_sector(sector).unwrap();
        let n = data.len().min(SECTOR_SIZE);
        prop_assert_eq!(&back[..n], &data[..n]);
        prop_assert!(back[n..].iter().all(|&b| b == 0));
        // Other sectors untouched.
        let other = (sector + 1) % 8;
        prop_assert!(disk.read_sector(other).unwrap().iter().all(|&b| b == 0));
    }

    /// Paged guest memory behaves exactly like a flat zero-initialised
    /// byte array: same bytes, same errors, for any access sequence,
    /// including page-crossing, last-byte and out-of-range accesses.
    #[test]
    fn memory_matches_a_flat_model(size_ix in 0usize..MEM_SIZES.len(),
                                   ops in proptest::collection::vec(mem_op(), 1..40)) {
        let size = MEM_SIZES[size_ix];
        let mut mem = GuestMemory::new(size);
        let mut model = vec![0u8; size];
        for op in ops {
            match op {
                MemOp::Write(a, data) => {
                    let addr = a.resolve(size);
                    let want = span(size, addr, data.len()).map(|r| model[r].copy_from_slice(&data));
                    prop_assert_eq!(mem.write_bytes(addr, &data), want);
                }
                MemOp::Fill(a, len, v) => {
                    let addr = a.resolve(size);
                    let want = span(size, addr, len).map(|r| model[r].fill(v));
                    prop_assert_eq!(mem.fill(addr, len, v), want);
                }
                MemOp::WriteUint(a, w, v) => {
                    let addr = a.resolve(size);
                    let want = span(size, addr, w).map(|r| model[r].copy_from_slice(&v.to_le_bytes()[..w]));
                    prop_assert_eq!(mem.write_uint(addr, w, v), want);
                }
                MemOp::Read(a, len) => {
                    let addr = a.resolve(size);
                    let want = span(size, addr, len).map(|r| model[r].to_vec());
                    prop_assert_eq!(mem.read_vec(addr, len), want);
                }
                MemOp::ReadUint(a, w) => {
                    let addr = a.resolve(size);
                    let want = span(size, addr, w)
                        .map(|r| model[r].iter().rev().fold(0u64, |v, &b| v << 8 | u64::from(b)));
                    prop_assert_eq!(mem.read_uint(addr, w), want);
                }
            }
        }
        prop_assert_eq!(mem.read_vec(0, size).unwrap(), model.clone());
        // Equality is by content: a copy holding only the model's
        // non-zero pages equals the memory, whatever it left resident.
        let mut sparse = GuestMemory::new(size);
        for (i, page) in model.chunks(PAGE).enumerate() {
            if page.iter().any(|&b| b != 0) {
                sparse.write_bytes((i * PAGE) as u64, page).unwrap();
            }
        }
        prop_assert_eq!(&mem, &sparse);
    }

    /// A memory that wrote zeros over a page equals one that never
    /// touched it, and stops being equal at the first non-zero byte.
    #[test]
    fn zero_writes_equal_untouched_memory(addr in 0usize..3 * PAGE, len in 1usize..2 * PAGE) {
        let size = 5 * PAGE;
        let untouched = GuestMemory::new(size);
        let mut written = GuestMemory::new(size);
        written.write_bytes(addr as u64, &vec![0; len]).unwrap();
        prop_assert_eq!(&written, &untouched);
        written.write_u8((addr + len - 1) as u64, 1).unwrap();
        prop_assert_ne!(&written, &untouched);
        written.fill(addr as u64, len, 0).unwrap();
        prop_assert_eq!(&written, &untouched);
    }

    /// The paged disk behaves exactly like a flat sector array: same
    /// sectors (short writes zero-padded), same errors, same counters.
    #[test]
    fn disk_matches_a_flat_model(ops in proptest::collection::vec(disk_op(), 1..40)) {
        let mut disk = DiskBackend::new(DISK_SECTORS as usize);
        let mut model = vec![0u8; DISK_SECTORS as usize * SECTOR_SIZE];
        let (mut reads, mut writes) = (0u64, 0u64);
        for op in ops {
            match op {
                DiskOp::Write(s, data) => {
                    let want = sector_span(s).map(|r| {
                        let n = data.len().min(SECTOR_SIZE);
                        model[r.clone()].fill(0);
                        model[r.start..r.start + n].copy_from_slice(&data[..n]);
                        writes += 1;
                    });
                    prop_assert_eq!(disk.write_sector(s, &data), want);
                }
                DiskOp::Read(s) => {
                    let want = sector_span(s).map(|r| {
                        reads += 1;
                        model[r].to_vec()
                    });
                    prop_assert_eq!(disk.read_sector(s), want);
                }
                DiskOp::ReadInto(s) => {
                    let mut dst = [0xa5u8; SECTOR_SIZE + 4];
                    let want = sector_span(s).map(|r| {
                        reads += 1;
                        model[r].to_vec()
                    });
                    let got = disk.read_sector_into(s, &mut dst);
                    match want {
                        Ok(bytes) => {
                            prop_assert_eq!(got, Ok(()));
                            prop_assert_eq!(&dst[..SECTOR_SIZE], &bytes[..]);
                        }
                        Err(e) => prop_assert_eq!(got, Err(e)),
                    }
                    prop_assert_eq!(&dst[SECTOR_SIZE..], &[0xa5u8; 4][..]);
                }
            }
            prop_assert_eq!((disk.read_count(), disk.write_count()), (reads, writes));
        }
        prop_assert_eq!(disk.capacity_bytes(), model.len());
    }

    /// The bus routes every address to at most one region, and exactly
    /// to the region containing it.
    #[test]
    fn bus_routing_is_unambiguous(r1 in (0u64..160, 1u64..40), r2 in (200u64..400, 1u64..40), probe in 0u64..500) {
        let mut bus = Bus::new();
        let a = bus.register(AddressSpace::Pmio, r1.0, r1.1, "a").unwrap();
        let b = bus.register(AddressSpace::Pmio, r2.0, r2.1, "b").unwrap();
        let hit = bus.route(&IoRequest::read(AddressSpace::Pmio, probe, 1)).ok();
        let in_a = probe >= r1.0 && probe < r1.0 + r1.1;
        let in_b = probe >= r2.0 && probe < r2.0 + r2.1;
        match (in_a, in_b) {
            (true, _) => prop_assert_eq!(hit, Some(a)),
            (false, true) => prop_assert_eq!(hit, Some(b)),
            (false, false) => prop_assert_eq!(hit, None),
        }
    }
}
