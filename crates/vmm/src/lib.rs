//! QEMU-style virtual-machine substrate for the SEDSpec reproduction.
//!
//! This crate provides the host-side plumbing an emulated device needs:
//! guest physical memory ([`GuestMemory`]), port- and memory-mapped I/O
//! request types ([`IoRequest`]), an interrupt controller ([`IrqLine`],
//! [`InterruptController`]), a DMA engine ([`DmaEngine`]), a bus that
//! routes I/O requests to registered regions ([`Bus`]), a virtual clock
//! ([`VirtualClock`]) and simple disk/network backends ([`DiskBackend`],
//! [`NetBackend`]).
//!
//! In the paper's prototype these roles are played by QEMU/KVM; here they
//! are a self-contained, deterministic re-implementation so that the
//! specification-generation and enforcement pipeline in the `sedspec`
//! crate can drive real device models end to end.
//!
//! # Examples
//!
//! ```
//! use sedspec_vmm::{GuestMemory, IoRequest, AddressSpace};
//!
//! let mut mem = GuestMemory::new(0x10000);
//! mem.write_u32(0x1000, 0xdead_beef).unwrap();
//! assert_eq!(mem.read_u32(0x1000).unwrap(), 0xdead_beef);
//!
//! let req = IoRequest::write(AddressSpace::Pmio, 0x3f5, 1, 0x4a);
//! assert!(req.is_write());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod bus;
mod clock;
mod dma;
mod error;
mod guest_mem;
mod io;
mod irq;

pub use backend::{DiskBackend, NetBackend, SECTOR_SIZE};
pub use bus::{Bus, BusRegion, RegionId};
pub use clock::VirtualClock;
pub use dma::DmaEngine;
pub use error::VmmError;
pub use guest_mem::GuestMemory;
pub use io::{AddressSpace, IoDirection, IoRequest, IoResult};
pub use irq::{InterruptController, IrqLine};

/// Everything a device model may touch while servicing an I/O request.
///
/// A `VmContext` bundles guest memory, the interrupt controller, the
/// virtual clock and the device backends, mirroring the environment QEMU
/// hands to a device callback.
#[derive(Debug)]
pub struct VmContext {
    /// Guest physical memory.
    pub mem: GuestMemory,
    /// Interrupt controller the device raises lines on.
    pub irqs: InterruptController,
    /// Virtual clock used for latency accounting.
    pub clock: VirtualClock,
    /// Block-storage backend (floppy image, SD card, SCSI disk, ...).
    pub disk: DiskBackend,
    /// Network backend (what the emulated NIC transmits into / receives from).
    pub net: NetBackend,
}

impl VmContext {
    /// Creates a context with `mem_size` bytes of guest memory, a
    /// `disk_sectors`-sector disk backend and 16 IRQ lines.
    ///
    /// Both sizes span an address space, not a reservation: memory and
    /// disk allocate their 4 KiB pages on first write.
    ///
    /// # Panics
    ///
    /// Panics if `disk_sectors * SECTOR_SIZE` overflows `usize`, or if
    /// the page tables for either size cannot be allocated.
    pub fn new(mem_size: usize, disk_sectors: usize) -> Self {
        VmContext {
            mem: GuestMemory::new(mem_size),
            irqs: InterruptController::new(16),
            clock: VirtualClock::new(),
            disk: DiskBackend::new(disk_sectors),
            net: NetBackend::new(),
        }
    }

    /// A DMA engine view over this context's guest memory.
    pub fn dma(&mut self) -> DmaEngine<'_> {
        DmaEngine::new(&mut self.mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_round_trip() {
        let mut ctx = VmContext::new(0x1000, 8);
        ctx.mem.write_u16(0x10, 0xbeef).unwrap();
        assert_eq!(ctx.mem.read_u16(0x10).unwrap(), 0xbeef);
        ctx.irqs.line(3).raise();
        assert!(ctx.irqs.line(3).is_raised());
    }
}
