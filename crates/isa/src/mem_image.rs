//! Sparse byte-addressable memory image used by the functional simulator.
//!
//! Pages live in a hash map keyed by page address with a multiplicative
//! page-number hash. An access that lies inside one page looks its page up
//! once and moves one masked word; an access that straddles two pages
//! takes the byte-at-a-time path.

use crate::PAGE_BYTES;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for page addresses: the page number times a 64-bit odd
/// constant, so consecutive pages spread over the whole hash. The
/// simulator controls every key, so it needs no protection against
/// adversarial keys, and SipHash was most of the cost of a global access.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8 | b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u64(&mut self, page: u64) {
        self.0 = (page / PAGE_BYTES).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type PageMap = HashMap<u64, Box<[u8]>, BuildHasherDefault<PageHasher>>;

/// Default base of the device-side heap VA region (`malloc` intrinsic).
pub const HEAP_BASE: u64 = 0x8000_0000;

/// Default size of the device-side heap VA region.
pub const HEAP_SIZE: u64 = 0x4000_0000; // 1 GiB of VA

/// A sparse memory image: 4 KB pages materialized on first touch.
///
/// Reads of untouched memory return zero, matching freshly allocated GPU
/// memory in the functional model. The image also tracks the device-heap
/// break pointer used by the `malloc` intrinsic.
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    pages: PageMap,
    heap_brk: u64,
    heap_base: u64,
    heap_limit: u64,
}

impl MemImage {
    /// An empty image with the default heap region.
    pub fn new() -> Self {
        MemImage::with_heap(HEAP_BASE, HEAP_SIZE)
    }

    /// An empty image with a custom heap VA region.
    pub fn with_heap(base: u64, size: u64) -> Self {
        MemImage {
            pages: PageMap::default(),
            heap_brk: base,
            heap_base: base,
            heap_limit: base.saturating_add(size),
        }
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8] {
        self.pages.entry(page).or_insert_with(|| vec![0u8; PAGE_BYTES as usize].into_boxed_slice())
    }

    /// The offset of `addr` in its page, if all `n` bytes from `addr` lie
    /// in that page.
    fn in_page(addr: u64, n: u64) -> Option<usize> {
        let off = addr & (PAGE_BYTES - 1);
        (off + n <= PAGE_BYTES).then_some(off as usize)
    }

    /// Read `n` bytes (`n <= 8`) at `addr`, little-endian, zero-extended.
    /// Untouched memory reads 0 and materializes no page.
    pub fn read(&self, addr: u64, n: u64) -> u64 {
        debug_assert!(n <= 8);
        if let Some(off) = Self::in_page(addr, n) {
            return self.pages.get(&crate::page_of(addr)).map_or(0, |p| load_le(p, off, n));
        }
        let mut out = 0u64;
        for i in 0..n {
            let a = addr.wrapping_add(i);
            let byte = self
                .pages
                .get(&crate::page_of(a))
                .map_or(0, |p| p[(a & (PAGE_BYTES - 1)) as usize]);
            out |= (byte as u64) << (8 * i);
        }
        out
    }

    /// Write the low `n` bytes (`n <= 8`) of `val` at `addr`, little-endian.
    pub fn write(&mut self, addr: u64, n: u64, val: u64) {
        debug_assert!(n <= 8);
        if let Some(off) = Self::in_page(addr, n) {
            store_le(self.page_mut(crate::page_of(addr)), off, n, val);
            return;
        }
        for i in 0..n {
            let a = addr.wrapping_add(i);
            let page = self.page_mut(crate::page_of(a));
            page[(a & (PAGE_BYTES - 1)) as usize] = (val >> (8 * i)) as u8;
        }
    }

    /// Read a `u32` at `addr`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read(addr, 4) as u32
    }

    /// Write a `u32` at `addr`.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write(addr, 4, v as u64);
    }

    /// Read a `u64` at `addr`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read(addr, 8)
    }

    /// Write a `u64` at `addr`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, 8, v);
    }

    /// Read an `f32` at `addr`.
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Write an `f32` at `addr`.
    pub fn write_f32(&mut self, addr: u64, v: f32) {
        self.write_u32(addr, v.to_bits());
    }

    /// Bump-allocate `size` bytes on the device heap (16-byte aligned).
    /// Returns the allocation base, or `None` if the heap is exhausted
    /// (a size too large to align or to add to the break included).
    pub fn heap_alloc(&mut self, size: u64) -> Option<u64> {
        let aligned = size.max(1).div_ceil(16).checked_mul(16)?;
        let end = self.heap_brk.checked_add(aligned).filter(|&end| end <= self.heap_limit)?;
        let base = self.heap_brk;
        self.heap_brk = end;
        Some(base)
    }

    /// Current heap break (first unallocated heap byte).
    pub fn heap_brk(&self) -> u64 {
        self.heap_brk
    }

    /// Base of the heap VA region.
    pub fn heap_base(&self) -> u64 {
        self.heap_base
    }

    /// Pages materialized so far (sorted).
    pub fn touched_pages(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.pages.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// FNV-1a digest over the image contents (pages visited in address
    /// order, heap break included). Two images with identical bytes and
    /// heap state produce identical digests, so differential tests can
    /// compare final memory images without materializing byte dumps.
    pub fn digest(&self) -> u64 {
        fn mix(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        mix(&mut h, &self.heap_brk.to_le_bytes());
        for page in self.touched_pages() {
            mix(&mut h, &page.to_le_bytes());
            mix(&mut h, &self.pages[&page]);
        }
        h
    }
}

/// The mask of the low `n` bytes of a word.
fn low_bytes(n: u64) -> u64 {
    if n >= 8 {
        u64::MAX
    } else {
        (1 << (8 * n)) - 1
    }
}

/// Read `n <= 8` bytes at `bytes[off..]`, little-endian, zero-extended.
///
/// Reads a whole word and masks it where eight bytes fit, so a narrow
/// access costs no variable-length copy.
pub(crate) fn load_le(bytes: &[u8], off: usize, n: u64) -> u64 {
    match bytes.get(off..off + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("eight bytes")) & low_bytes(n),
        None => bytes[off..off + n as usize].iter().rev().fold(0, |v, &b| v << 8 | b as u64),
    }
}

/// Write the low `n <= 8` bytes of `val` at `bytes[off..]`, little-endian.
pub(crate) fn store_le(bytes: &mut [u8], off: usize, n: u64, val: u64) {
    match bytes.get_mut(off..off + 8) {
        Some(word) => {
            let mask = low_bytes(n);
            let old = u64::from_le_bytes((&*word).try_into().expect("eight bytes"));
            word.copy_from_slice(&(old & !mask | val & mask).to_le_bytes());
        }
        None => {
            for (i, b) in bytes[off..off + n as usize].iter_mut().enumerate() {
                *b = (val >> (8 * i)) as u8;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_and_round_trip() {
        let mut m = MemImage::new();
        assert_eq!(m.read_u64(0x1234), 0);
        m.write_u32(0x1000, 0xdead_beef);
        assert_eq!(m.read_u32(0x1000), 0xdead_beef);
        assert_eq!(m.read(0x1000, 2), 0xbeef);
        m.write_f32(0x2000, 1.5);
        assert_eq!(m.read_f32(0x2000), 1.5);
    }

    #[test]
    fn cross_page_access() {
        let mut m = MemImage::new();
        let addr = PAGE_BYTES - 2; // straddles pages 0 and 1
        m.write_u32(addr, 0xa1b2_c3d4);
        assert_eq!(m.read_u32(addr), 0xa1b2_c3d4);
        assert_eq!(m.touched_pages(), vec![0, PAGE_BYTES]);
    }

    #[test]
    fn heap_alloc_bumps_aligned() {
        let mut m = MemImage::new();
        let a = m.heap_alloc(10).unwrap();
        let b = m.heap_alloc(1).unwrap();
        assert_eq!(a, HEAP_BASE);
        assert_eq!(b, HEAP_BASE + 16);
        assert_eq!(m.heap_brk(), HEAP_BASE + 32);
    }

    #[test]
    fn digest_tracks_content() {
        let mut a = MemImage::new();
        let mut b = MemImage::new();
        a.write_u32(0x1000, 7);
        b.write_u32(0x1000, 7);
        assert_eq!(a.digest(), b.digest());
        b.write_u32(0x1000, 8);
        assert_ne!(a.digest(), b.digest());
        // Heap state is part of the digest.
        let mut c = MemImage::new();
        c.write_u32(0x1000, 7);
        c.heap_alloc(16);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn huge_allocation_fails_without_moving_the_break() {
        let mut m = MemImage::new();
        assert_eq!(m.heap_alloc(u64::MAX), None, "the aligned size overflows");
        assert_eq!(m.heap_alloc(u64::MAX - 64), None, "the end address overflows");
        assert_eq!(m.heap_brk(), HEAP_BASE);
        assert_eq!(m.heap_alloc(64), Some(HEAP_BASE));
        assert_eq!(m.heap_alloc(64), Some(HEAP_BASE + 64));
        // A region that ends at the top of the address space still bounds.
        let mut top = MemImage::with_heap(u64::MAX - 31, u64::MAX);
        assert_eq!(top.heap_alloc(16), Some(u64::MAX - 31));
        assert_eq!(top.heap_alloc(16), None);
    }

    #[test]
    fn untouched_reads_materialize_nothing() {
        let m = MemImage::new();
        assert_eq!(m.read_u64(0x5000), 0);
        assert_eq!(m.read_u64(2 * PAGE_BYTES - 3), 0, "a straddling read");
        assert!(m.touched_pages().is_empty());
    }

    #[test]
    fn narrow_accesses_keep_their_neighbours() {
        let mut m = MemImage::new();
        m.write_u64(0x1000, 0x1122_3344_5566_7788);
        m.write(0x1002, 2, 0xaaaa_bbbb);
        assert_eq!(m.read_u64(0x1000), 0x1122_3344_bbbb_7788);
        assert_eq!(m.read(0x1003, 3), 0x33_44bb);
        // The last bytes of a page: fewer than eight bytes remain.
        let end = PAGE_BYTES - 2;
        m.write(end, 2, 0xbeef);
        assert_eq!(m.read(end, 2), 0xbeef);
        assert_eq!(m.read(end - 1, 1), 0);
        assert_eq!(m.touched_pages(), vec![0, 0x1000]);
    }

    #[test]
    fn heap_exhaustion() {
        let mut m = MemImage::with_heap(0x1000, 32);
        assert!(m.heap_alloc(16).is_some());
        assert!(m.heap_alloc(16).is_some());
        assert!(m.heap_alloc(1).is_none());
    }
}
