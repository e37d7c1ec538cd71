//! A flat simulated address space holding real bytes.

use std::fmt;

use crate::{align_up, Addr, SEGMENT_SIZE};

/// Error raised when an operation touches bytes outside the space.
///
/// Corresponds to a hardware fault (SIGSEGV) in a real process: the simulated
/// interpreter treats it as a crash that every tool, including native
/// execution, observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpaceError {
    /// First address of the faulting range.
    pub addr: Addr,
    /// Length of the faulting access in bytes.
    pub len: u64,
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "access of {} bytes at {} is outside the simulated address space",
            self.len, self.addr
        )
    }
}

impl std::error::Error for SpaceError {}

/// A contiguous range of simulated memory with real backing bytes.
///
/// The space starts at a non-zero base so that the null page is unmapped,
/// like a real process image. All loads and stores performed by the mini-IR
/// interpreter land here, which means out-of-bounds writes in buggy workloads
/// corrupt *simulated* data only, while remaining observable to sanitizers.
///
/// # Example
///
/// ```
/// use giantsan_shadow::AddressSpace;
/// let mut space = AddressSpace::new(0x1_0000, 4096);
/// let p = space.lo();
/// space.write_u64(p, 0xdead_beef)?;
/// assert_eq!(space.read_u64(p)?, 0xdead_beef);
/// # Ok::<(), giantsan_shadow::SpaceError>(())
/// ```
#[derive(Clone)]
pub struct AddressSpace {
    base: u64,
    bytes: Vec<u8>,
}

impl fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AddressSpace")
            .field("lo", &self.lo())
            .field("hi", &self.hi())
            .field("size", &self.bytes.len())
            .finish()
    }
}

impl AddressSpace {
    /// Creates a space of `size` bytes starting at `base`.
    ///
    /// Both are rounded up to segment alignment so that the shadow mapping has
    /// no ragged edges.
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero (the null page must stay unmapped) or `size`
    /// is zero.
    pub fn new(base: u64, size: u64) -> Self {
        assert!(base != 0, "address space must not contain the null page");
        assert!(size != 0, "address space must not be empty");
        let base = align_up(base, SEGMENT_SIZE);
        let size = align_up(size, SEGMENT_SIZE);
        AddressSpace {
            base,
            bytes: vec![0u8; size as usize],
        }
    }

    /// Lowest mapped address.
    pub fn lo(&self) -> Addr {
        Addr::new(self.base)
    }

    /// One past the highest mapped address.
    pub fn hi(&self) -> Addr {
        Addr::new(self.base + self.bytes.len() as u64)
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Returns `true` if the whole range `[addr, addr+len)` is mapped.
    pub fn contains_range(&self, addr: Addr, len: u64) -> bool {
        let a = addr.raw();
        a >= self.base && len <= self.size() && a - self.base <= self.size() - len
    }

    fn index(&self, addr: Addr, len: u64) -> Result<usize, SpaceError> {
        if self.contains_range(addr, len) {
            Ok((addr.raw() - self.base) as usize)
        } else {
            Err(SpaceError { addr, len })
        }
    }

    /// The `W` bytes at `addr`, if all of them are mapped.
    ///
    /// An address below the base wraps to an offset past the end, so one
    /// slice bound check covers both edges.
    #[inline(always)]
    fn bytes_at<const W: usize>(&self, addr: Addr) -> Option<&[u8; W]> {
        let i = addr.raw().wrapping_sub(self.base) as usize;
        self.bytes.get(i..i.wrapping_add(W))?.try_into().ok()
    }

    #[inline(always)]
    fn bytes_at_mut<const W: usize>(&mut self, addr: Addr) -> Option<&mut [u8; W]> {
        let i = addr.raw().wrapping_sub(self.base) as usize;
        self.bytes.get_mut(i..i.wrapping_add(W))?.try_into().ok()
    }

    #[inline(always)]
    fn load<const W: usize>(&self, addr: Addr) -> Result<u64, SpaceError> {
        let b = self.bytes_at::<W>(addr).ok_or(SpaceError {
            addr,
            len: W as u64,
        })?;
        let mut buf = [0u8; 8];
        buf[..W].copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    #[inline(always)]
    fn store<const W: usize>(&mut self, addr: Addr, value: u64) -> Result<(), SpaceError> {
        let b = self.bytes_at_mut::<W>(addr).ok_or(SpaceError {
            addr,
            len: W as u64,
        })?;
        b.copy_from_slice(&value.to_le_bytes()[..W]);
        Ok(())
    }

    /// Reads a little-endian integer of `width` bytes (1, 2, 4, or 8).
    ///
    /// Each width is a fixed-size load with a single bound check: the
    /// interpreter's per-access path.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if the range is unmapped.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not one of 1, 2, 4, 8.
    #[inline]
    pub fn read_uint(&self, addr: Addr, width: u32) -> Result<u64, SpaceError> {
        match width {
            1 => self.load::<1>(addr),
            2 => self.load::<2>(addr),
            4 => self.load::<4>(addr),
            8 => self.load::<8>(addr),
            _ => panic!("unsupported width {width}"),
        }
    }

    /// Writes the low `width` bytes of `value` little-endian.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if the range is unmapped.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not one of 1, 2, 4, 8.
    #[inline]
    pub fn write_uint(&mut self, addr: Addr, value: u64, width: u32) -> Result<(), SpaceError> {
        match width {
            1 => self.store::<1>(addr, value),
            2 => self.store::<2>(addr, value),
            4 => self.store::<4>(addr, value),
            8 => self.store::<8>(addr, value),
            _ => panic!("unsupported width {width}"),
        }
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if the range is unmapped.
    pub fn read_u64(&self, addr: Addr) -> Result<u64, SpaceError> {
        self.read_uint(addr, 8)
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if the range is unmapped.
    pub fn write_u64(&mut self, addr: Addr, value: u64) -> Result<(), SpaceError> {
        self.write_uint(addr, value, 8)
    }

    /// Fills `[addr, addr+len)` with `byte` (the simulated `memset`).
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if the range is unmapped.
    pub fn fill(&mut self, addr: Addr, byte: u8, len: u64) -> Result<(), SpaceError> {
        let i = self.index(addr, len)?;
        self.bytes[i..i + len as usize].fill(byte);
        Ok(())
    }

    /// Copies `len` bytes from `src` to `dst` (the simulated `memcpy`;
    /// non-overlapping semantics are not required — the copy behaves like
    /// `memmove`).
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if either range is unmapped.
    pub fn copy(&mut self, dst: Addr, src: Addr, len: u64) -> Result<(), SpaceError> {
        let si = self.index(src, len)?;
        let di = self.index(dst, len)?;
        self.bytes.copy_within(si..si + len as usize, di);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(0x1_0000, 4096)
    }

    #[test]
    fn bounds_are_aligned() {
        let s = AddressSpace::new(0x1_0001, 4097);
        assert!(s.lo().is_segment_aligned());
        assert_eq!(s.size() % SEGMENT_SIZE, 0);
    }

    #[test]
    #[should_panic(expected = "null page")]
    fn zero_base_rejected() {
        let _ = AddressSpace::new(0, 4096);
    }

    #[test]
    fn round_trip_ints() {
        let mut s = space();
        let p = s.lo() + 16;
        for &w in &[1u32, 2, 4, 8] {
            let v = 0x1122_3344_5566_7788u64 & (u64::MAX >> (64 - 8 * w));
            s.write_uint(p, v, w).unwrap();
            assert_eq!(s.read_uint(p, w).unwrap(), v);
        }
    }

    #[test]
    fn out_of_range_faults() {
        let mut s = space();
        let past = s.hi();
        assert!(s.read_u64(past).is_err());
        assert!(s.write_u64(past - 4, 1).is_err());
        assert!(s.read_u64(Addr::new(0)).is_err());
        assert!(s.read_u64(s.lo() - 8).is_err());
        // Ranges straddling the top edge fault too.
        assert!(s.fill(s.hi() - 4, 0, 8).is_err());
        // Every width faults exactly one byte past either edge, and an
        // address below the base never wraps into range.
        for w in [1u32, 2, 4, 8] {
            let last = s.hi() - w as u64;
            assert!(s.write_uint(last, u64::MAX, w).is_ok());
            assert!(s.read_uint(last, w).is_ok());
            assert!(s.read_uint(last + 1, w).is_err());
            assert!(s.read_uint(s.lo() - 1, w).is_err());
            assert!(s.write_uint(Addr::new(u64::MAX), 1, w).is_err());
            let err = s.read_uint(s.hi(), w).unwrap_err();
            assert_eq!((err.addr, err.len), (s.hi(), w as u64));
        }
    }

    #[test]
    #[should_panic(expected = "unsupported width 3")]
    fn odd_widths_are_rejected() {
        let _ = space().read_uint(space().lo(), 3);
    }

    #[test]
    fn contains_range_handles_overflowing_len() {
        let s = space();
        assert!(!s.contains_range(s.lo(), u64::MAX));
        assert!(s.contains_range(s.lo(), s.size()));
        assert!(!s.contains_range(s.lo() + 1, s.size()));
    }

    #[test]
    fn fill_and_copy() {
        let mut s = space();
        let a = s.lo();
        let b = s.lo() + 64;
        s.fill(a, 0xab, 32).unwrap();
        s.copy(b, a, 32).unwrap();
        assert_eq!(s.read_uint(b + 31, 1).unwrap(), 0xab);
        assert_eq!(s.read_uint(b + 24, 8).unwrap(), 0xabab_abab_abab_abab);
    }

    #[test]
    fn overlapping_copy_behaves_like_memmove() {
        let mut s = space();
        let a = s.lo();
        for i in 0..16u64 {
            s.write_uint(a + i, i, 1).unwrap();
        }
        s.copy(a + 4, a, 12).unwrap();
        for i in 0..12u64 {
            assert_eq!(s.read_uint(a + 4 + i, 1).unwrap(), i);
        }
    }

    #[test]
    fn fault_error_displays() {
        let s = space();
        let err = s.read_u64(Addr::new(8)).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("outside the simulated address space"));
    }
}
