use crate::VmmError;

/// Granularity of a [`PageStore`], in bytes.
const PAGE_SIZE: usize = 4096;

type Page = Box<[u8; PAGE_SIZE]>;

/// A fixed-length byte space backed by pages allocated on first write.
///
/// This is the storage under both [`GuestMemory`](crate::GuestMemory)
/// and [`DiskBackend`](crate::DiskBackend). A page that was never
/// written reads as zeros, so a space costs one table entry per page
/// plus the pages actually written — the demand-paged anonymous memory
/// a QEMU/KVM guest gets, not an up-front zero-filled reservation.
///
/// Callers bounds-check every access against [`len`](Self::len); the
/// store itself only splits an access at page boundaries.
#[derive(Debug, Clone)]
pub(crate) struct PageStore {
    pages: Vec<Option<Page>>,
    len: usize,
}

/// Splits the `len` bytes at `start` into per-page pieces of
/// `(page index, offset in page, offset in access, piece length)`.
fn pieces(start: usize, len: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let end = start + len;
    let mut at = start;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let off = at % PAGE_SIZE;
            let n = (PAGE_SIZE - off).min(end - at);
            let piece = (at / PAGE_SIZE, off, at - start, n);
            at += n;
            piece
        })
    })
}

impl PageStore {
    /// A space of `len` bytes with no page resident.
    pub(crate) fn new(len: usize) -> Self {
        PageStore { pages: vec![None; len.div_ceil(PAGE_SIZE)], len }
    }

    /// Length of the space in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn page_mut(&mut self, index: usize) -> &mut [u8; PAGE_SIZE] {
        self.pages[index].get_or_insert_with(|| {
            // Zeroed straight from the allocator: no stack temporary.
            vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().expect("one page")
        })
    }

    /// Copies the `dst.len()` bytes at `start` into `dst`.
    pub(crate) fn read(&self, start: usize, dst: &mut [u8]) {
        for (p, off, at, n) in pieces(start, dst.len()) {
            let dst = &mut dst[at..at + n];
            match &self.pages[p] {
                Some(page) => dst.copy_from_slice(&page[off..off + n]),
                None => dst.fill(0),
            }
        }
    }

    /// Copies `src` to the bytes at `start`, allocating absent pages.
    pub(crate) fn write(&mut self, start: usize, src: &[u8]) {
        for (p, off, at, n) in pieces(start, src.len()) {
            self.page_mut(p)[off..off + n].copy_from_slice(&src[at..at + n]);
        }
    }

    /// Sets the `len` bytes at `start` to `value`. Zeroing an absent
    /// page allocates nothing.
    pub(crate) fn fill(&mut self, start: usize, len: usize, value: u8) {
        for (p, off, _, n) in pieces(start, len) {
            if value != 0 || self.pages[p].is_some() {
                self.page_mut(p)[off..off + n].fill(value);
            }
        }
    }
}

/// Compares contents: an absent page equals a page of zeros.
impl PartialEq for PageStore {
    fn eq(&self, other: &Self) -> bool {
        let zero = |page: &Page| page.iter().all(|&b| b == 0);
        self.len == other.len
            && self.pages.iter().zip(&other.pages).all(|pair| match pair {
                (Some(a), Some(b)) => a == b,
                (Some(page), None) | (None, Some(page)) => zero(page),
                (None, None) => true,
            })
    }
}

impl Eq for PageStore {}

/// Guest physical memory.
///
/// Pages are allocated on first write and an untouched page reads as
/// zeros, so a region's size is an address space, not a reservation:
/// its resident cost is the 4 KiB pages the guest's devices write.
///
/// All multi-byte accessors use little-endian byte order, matching the
/// x86 guests the paper evaluates on. Accesses are bounds-checked and
/// return [`VmmError::OutOfBounds`] on violation — the substrate never
/// lets an emulated device corrupt the *host*; CVE-faithful corruption
/// happens inside the device's own control-structure arena (see the
/// `sedspec-dbl` crate).
///
/// # Examples
///
/// ```
/// use sedspec_vmm::GuestMemory;
///
/// let mut mem = GuestMemory::new(64);
/// mem.write_bytes(8, &[1, 2, 3]).unwrap();
/// assert_eq!(mem.read_u16(8).unwrap(), 0x0201);
/// assert!(mem.read_u64(60).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuestMemory {
    pages: PageStore,
}

impl GuestMemory {
    /// A zeroed guest memory of `size` bytes. No page is allocated
    /// until it is first written.
    pub fn new(size: usize) -> Self {
        GuestMemory { pages: PageStore::new(size) }
    }

    /// Total size of the region in bytes.
    pub fn size(&self) -> usize {
        self.pages.len()
    }

    fn check(&self, addr: u64, len: usize) -> Result<usize, VmmError> {
        let size = self.size();
        let start = usize::try_from(addr).map_err(|_| VmmError::OutOfBounds { addr, len, size })?;
        let end = start.checked_add(len).ok_or(VmmError::OutOfBounds { addr, len, size })?;
        if end > size {
            return Err(VmmError::OutOfBounds { addr, len, size });
        }
        Ok(start)
    }

    /// Reads `dst.len()` bytes starting at guest physical address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfBounds`] if the range does not fit.
    pub fn read_bytes(&self, addr: u64, dst: &mut [u8]) -> Result<(), VmmError> {
        let start = self.check(addr, dst.len())?;
        self.pages.read(start, dst);
        Ok(())
    }

    /// Writes `src` starting at guest physical address `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfBounds`] if the range does not fit.
    pub fn write_bytes(&mut self, addr: u64, src: &[u8]) -> Result<(), VmmError> {
        let start = self.check(addr, src.len())?;
        self.pages.write(start, src);
        Ok(())
    }

    /// Returns an owned copy of `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfBounds`] if the range does not fit.
    pub fn read_vec(&self, addr: u64, len: usize) -> Result<Vec<u8>, VmmError> {
        let mut v = vec![0; len];
        self.read_bytes(addr, &mut v)?;
        Ok(v)
    }

    /// Fills `len` bytes at `addr` with `value`. Filling with zero
    /// allocates no page.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfBounds`] if the range does not fit.
    pub fn fill(&mut self, addr: u64, len: usize, value: u8) -> Result<(), VmmError> {
        let start = self.check(addr, len)?;
        self.pages.fill(start, len, value);
        Ok(())
    }

    /// Reads a `u8` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfBounds`] if the address is out of range.
    pub fn read_u8(&self, addr: u64) -> Result<u8, VmmError> {
        let mut b = [0u8; 1];
        self.read_bytes(addr, &mut b)?;
        Ok(b[0])
    }

    /// Reads a little-endian `u16` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfBounds`] if the range does not fit.
    pub fn read_u16(&self, addr: u64) -> Result<u16, VmmError> {
        let mut b = [0u8; 2];
        self.read_bytes(addr, &mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Reads a little-endian `u32` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfBounds`] if the range does not fit.
    pub fn read_u32(&self, addr: u64) -> Result<u32, VmmError> {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfBounds`] if the range does not fit.
    pub fn read_u64(&self, addr: u64) -> Result<u64, VmmError> {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a `u8` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfBounds`] if the address is out of range.
    pub fn write_u8(&mut self, addr: u64, v: u8) -> Result<(), VmmError> {
        self.write_bytes(addr, &[v])
    }

    /// Writes a little-endian `u16` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfBounds`] if the range does not fit.
    pub fn write_u16(&mut self, addr: u64, v: u16) -> Result<(), VmmError> {
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// Writes a little-endian `u32` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfBounds`] if the range does not fit.
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), VmmError> {
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfBounds`] if the range does not fit.
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), VmmError> {
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// Reads an unsigned little-endian integer of `width` bytes (1, 2, 4 or 8).
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfBounds`] if the range does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    pub fn read_uint(&self, addr: u64, width: usize) -> Result<u64, VmmError> {
        match width {
            1 => self.read_u8(addr).map(u64::from),
            2 => self.read_u16(addr).map(u64::from),
            4 => self.read_u32(addr).map(u64::from),
            8 => self.read_u64(addr),
            _ => panic!("unsupported access width {width}"),
        }
    }

    /// Writes the low `width` bytes (1, 2, 4 or 8) of `v` little-endian at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfBounds`] if the range does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    pub fn write_uint(&mut self, addr: u64, width: usize, v: u64) -> Result<(), VmmError> {
        match width {
            1 => self.write_u8(addr, v as u8),
            2 => self.write_u16(addr, v as u16),
            4 => self.write_u32(addr, v as u32),
            8 => self.write_u64(addr, v),
            _ => panic!("unsupported access width {width}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_widths() {
        let mut m = GuestMemory::new(32);
        m.write_u8(0, 0xab).unwrap();
        m.write_u16(2, 0x1234).unwrap();
        m.write_u32(4, 0xdead_beef).unwrap();
        m.write_u64(8, 0x0123_4567_89ab_cdef).unwrap();
        assert_eq!(m.read_u8(0).unwrap(), 0xab);
        assert_eq!(m.read_u16(2).unwrap(), 0x1234);
        assert_eq!(m.read_u32(4).unwrap(), 0xdead_beef);
        assert_eq!(m.read_u64(8).unwrap(), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = GuestMemory::new(8);
        m.write_u32(0, 0x0403_0201).unwrap();
        let mut b = [0u8; 4];
        m.read_bytes(0, &mut b).unwrap();
        assert_eq!(b, [1, 2, 3, 4]);
    }

    #[test]
    fn rejects_out_of_bounds() {
        let mut m = GuestMemory::new(16);
        assert!(matches!(m.read_u32(14), Err(VmmError::OutOfBounds { .. })));
        assert!(matches!(m.write_u8(16, 0), Err(VmmError::OutOfBounds { .. })));
        assert!(m.write_u8(15, 0).is_ok());
    }

    #[test]
    fn rejects_wrapping_range() {
        let m = GuestMemory::new(16);
        assert!(m.read_vec(u64::MAX, 2).is_err());
    }

    #[test]
    fn fill_and_read_vec() {
        let mut m = GuestMemory::new(16);
        m.fill(4, 4, 0x5a).unwrap();
        assert_eq!(m.read_vec(3, 6).unwrap(), vec![0, 0x5a, 0x5a, 0x5a, 0x5a, 0]);
    }

    #[test]
    fn generic_width_accessors() {
        let mut m = GuestMemory::new(16);
        for &w in &[1usize, 2, 4, 8] {
            m.write_uint(0, w, 0x1122_3344_5566_7788).unwrap();
            let mask = if w == 8 { u64::MAX } else { (1u64 << (w * 8)) - 1 };
            assert_eq!(m.read_uint(0, w).unwrap(), 0x1122_3344_5566_7788 & mask);
        }
    }
}
