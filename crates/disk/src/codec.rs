//! The little-endian codec every on-disk record and wire message uses.
//!
//! Bytes read back from a device or off a network are untrusted, so
//! decoding goes through [`Reader`], a cursor whose every read is
//! bounds-checked: a short buffer or a lying length field yields
//! [`Truncated`], never a panic. Each layer maps that into its own typed
//! error. Encoders append fields with [`put_u16`] / [`put_u32`] /
//! [`put_u64`]. Block images of a known fixed size (a 4 KiB record
//! block, a B-tree page) are patched and read in place with the
//! fixed-offset [`get_u64`] / [`set_u64`] family, whose offsets the
//! caller bounds (an offset past the image panics).

/// A read ran past the end of the input: the bytes are truncated, or a
/// length field claims more than they hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

/// A bounds-checked little-endian cursor over untrusted bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
    len: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            rest: buf,
            len: buf.len(),
        }
    }

    /// Takes the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        if n > self.rest.len() {
            return Err(Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// Takes the next `N` bytes as an array.
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_le_bytes)
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.len - self.rest.len()
    }

    /// The unread bytes.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// Whether every byte has been read.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }
}

/// Appends a little-endian `u16`.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads the little-endian `u16` at `off` of a fixed-size image.
#[inline]
pub fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

/// Reads the little-endian `u32` at `off` of a fixed-size image.
#[inline]
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("a 4-byte slice"))
}

/// Reads the little-endian `u64` at `off` of a fixed-size image.
#[inline]
pub fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("an 8-byte slice"))
}

/// Writes a little-endian `u16` at `off` of a fixed-size image.
#[inline]
pub fn set_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Writes a little-endian `u32` at `off` of a fixed-size image.
#[inline]
pub fn set_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Writes a little-endian `u64` at `off` of a fixed-size image.
#[inline]
pub fn set_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}
