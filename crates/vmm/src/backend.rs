use std::collections::VecDeque;

use crate::guest_mem::PageStore;
use crate::VmmError;

/// Sector size used by every disk backend, in bytes.
pub const SECTOR_SIZE: usize = 512;

/// A sector-addressed block-storage backend.
///
/// Plays the role of the host-side image file behind QEMU's FDC, SDHCI
/// and SCSI devices. Transfers are whole sectors of [`SECTOR_SIZE`]
/// bytes; the backend tracks read/write counters so performance
/// harnesses can derive throughput. Like a sparse image file, it holds
/// only the 4 KiB pages written so far; the rest reads as zeros.
///
/// # Examples
///
/// ```
/// use sedspec_vmm::{DiskBackend, SECTOR_SIZE};
///
/// let mut disk = DiskBackend::new(16);
/// let sector = vec![0x5a; SECTOR_SIZE];
/// disk.write_sector(3, &sector)?;
/// assert_eq!(disk.read_sector(3)?, sector);
/// # Ok::<(), sedspec_vmm::VmmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DiskBackend {
    data: PageStore,
    sectors: usize,
    reads: u64,
    writes: u64,
}

impl DiskBackend {
    /// Creates a zeroed backend of `sectors` sectors. No page is
    /// allocated until it is first written.
    ///
    /// # Panics
    ///
    /// Panics if `sectors * SECTOR_SIZE` overflows `usize`.
    pub fn new(sectors: usize) -> Self {
        let len = sectors.checked_mul(SECTOR_SIZE).expect("disk capacity overflows usize");
        DiskBackend { data: PageStore::new(len), sectors, reads: 0, writes: 0 }
    }

    /// Number of sectors in the backend.
    pub fn sectors(&self) -> usize {
        self.sectors
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.data.len()
    }

    fn offset(&self, sector: u64) -> Result<usize, VmmError> {
        if sector >= self.sectors as u64 {
            return Err(VmmError::SectorOutOfRange { sector, capacity: self.sectors as u64 });
        }
        Ok(sector as usize * SECTOR_SIZE)
    }

    /// Reads sector `sector` into an owned buffer.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::SectorOutOfRange`] if `sector` is past the end.
    pub fn read_sector(&mut self, sector: u64) -> Result<Vec<u8>, VmmError> {
        let mut buf = vec![0; SECTOR_SIZE];
        self.read_sector_into(sector, &mut buf)?;
        Ok(buf)
    }

    /// Reads sector `sector` into `dst` (first [`SECTOR_SIZE`] bytes).
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::SectorOutOfRange`] if `sector` is past the end.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is shorter than [`SECTOR_SIZE`].
    pub fn read_sector_into(&mut self, sector: u64, dst: &mut [u8]) -> Result<(), VmmError> {
        let off = self.offset(sector)?;
        self.reads += 1;
        self.data.read(off, &mut dst[..SECTOR_SIZE]);
        Ok(())
    }

    /// Writes the first [`SECTOR_SIZE`] bytes of `src` to sector `sector`.
    ///
    /// Shorter sources are zero-padded to a full sector, mirroring how
    /// image-backed devices pad partial writes.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::SectorOutOfRange`] if `sector` is past the end.
    pub fn write_sector(&mut self, sector: u64, src: &[u8]) -> Result<(), VmmError> {
        let off = self.offset(sector)?;
        self.writes += 1;
        let n = src.len().min(SECTOR_SIZE);
        self.data.write(off, &src[..n]);
        self.data.fill(off + n, SECTOR_SIZE - n, 0);
        Ok(())
    }

    /// Number of sector reads serviced.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Number of sector writes serviced.
    pub fn write_count(&self) -> u64 {
        self.writes
    }
}

/// A network backend: the "wire" behind an emulated NIC.
///
/// Frames the device transmits are captured in a TX log; frames queued
/// for reception are delivered to the device's receive entry point by
/// the machine driver. This replaces QEMU's user-mode (slirp) network
/// stack used in the paper's iperf/ping experiments.
///
/// # Examples
///
/// ```
/// use sedspec_vmm::NetBackend;
///
/// let mut net = NetBackend::new();
/// net.inject_rx(vec![0xff; 60]);
/// assert_eq!(net.pop_rx().unwrap().len(), 60);
/// net.transmit(vec![1, 2, 3]);
/// assert_eq!(net.tx_frames(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetBackend {
    tx_log: Vec<Vec<u8>>,
    rx_queue: VecDeque<Vec<u8>>,
    tx_bytes: u64,
    rx_bytes: u64,
    /// When true, transmitted frames are looped back into the RX queue
    /// (PCNet loopback-test mode).
    pub loopback: bool,
}

impl NetBackend {
    /// An empty backend with loopback disabled.
    pub fn new() -> Self {
        NetBackend::default()
    }

    /// Records a frame transmitted by the device.
    pub fn transmit(&mut self, frame: Vec<u8>) {
        self.tx_bytes += frame.len() as u64;
        if self.loopback {
            self.rx_queue.push_back(frame.clone());
        }
        self.tx_log.push(frame);
    }

    /// Queues a frame for delivery to the device.
    pub fn inject_rx(&mut self, frame: Vec<u8>) {
        self.rx_bytes += frame.len() as u64;
        self.rx_queue.push_back(frame);
    }

    /// Takes the next frame queued for the device, if any.
    pub fn pop_rx(&mut self) -> Option<Vec<u8>> {
        self.rx_queue.pop_front()
    }

    /// Number of frames the device has transmitted.
    pub fn tx_frames(&self) -> usize {
        self.tx_log.len()
    }

    /// The transmitted frames, oldest first.
    pub fn tx_log(&self) -> &[Vec<u8>] {
        &self.tx_log
    }

    /// Total bytes transmitted by the device.
    pub fn tx_bytes(&self) -> u64 {
        self.tx_bytes
    }

    /// Total bytes injected for reception.
    pub fn rx_bytes(&self) -> u64 {
        self.rx_bytes
    }

    /// Frames still waiting for delivery.
    pub fn rx_pending(&self) -> usize {
        self.rx_queue.len()
    }

    /// Drops queued frames and the TX log, keeping counters.
    pub fn clear(&mut self) {
        self.tx_log.clear();
        self.rx_queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_round_trip_and_counters() {
        let mut d = DiskBackend::new(4);
        d.write_sector(2, &[7; SECTOR_SIZE]).unwrap();
        assert_eq!(d.read_sector(2).unwrap()[0], 7);
        assert_eq!(d.read_count(), 1);
        assert_eq!(d.write_count(), 1);
    }

    #[test]
    fn disk_pads_short_writes() {
        let mut d = DiskBackend::new(1);
        d.write_sector(0, &[1; SECTOR_SIZE]).unwrap();
        d.write_sector(0, &[2, 2]).unwrap();
        let s = d.read_sector(0).unwrap();
        assert_eq!(&s[..2], &[2, 2]);
        assert!(s[2..].iter().all(|&b| b == 0));
    }

    #[test]
    fn disk_rejects_bad_sector() {
        let mut d = DiskBackend::new(2);
        assert!(matches!(d.read_sector(2), Err(VmmError::SectorOutOfRange { .. })));
    }

    #[test]
    fn net_fifo_order() {
        let mut n = NetBackend::new();
        n.inject_rx(vec![1]);
        n.inject_rx(vec![2]);
        assert_eq!(n.pop_rx().unwrap(), vec![1]);
        assert_eq!(n.pop_rx().unwrap(), vec![2]);
        assert!(n.pop_rx().is_none());
    }

    #[test]
    fn net_loopback_requeues_tx() {
        let mut n = NetBackend::new();
        n.loopback = true;
        n.transmit(vec![9, 9]);
        assert_eq!(n.pop_rx().unwrap(), vec![9, 9]);
        assert_eq!(n.tx_frames(), 1);
        assert_eq!(n.tx_bytes(), 2);
    }
}
