//! Shared binary-format helpers for the on-disk artifacts this
//! workspace writes: memo caches ([`crate::memo`]) and monitor
//! checkpoints (the `smc-monitor` lifecycle subsystem).
//!
//! Every format built on this module follows the same contract:
//!
//! * little-endian fixed-width integers throughout;
//! * an 8-byte magic whose last byte is the format version;
//! * length prefixes validated against the remaining input, so a
//!   corrupt count can never trigger an oversized allocation;
//! * loaders return `Err(String)` naming the byte offset of the first
//!   offending byte — callers warn and continue, they never panic;
//! * files are read through [`read_file`], under a cap each format
//!   names, so a huge file, or one that never ends, is refused instead
//!   of read until memory runs out.

use std::io::{Read, Write};
use std::path::Path;

/// Append a `u32` in little-endian order.
pub fn write_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` in little-endian order.
pub fn write_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i64` in little-endian order.
pub fn write_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32`-length-prefixed UTF-8 string.
pub fn write_str(buf: &mut Vec<u8>, s: &str) {
    write_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Write an assembled buffer to `path` in one create-and-write.
pub fn write_file(path: &Path, buf: &[u8]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(buf)
}

/// Read a whole file of at most `cap` bytes. A larger one is refused
/// without reading past the cap: at once when its size says so, or after
/// `cap + 1` bytes from a file that reports none (a pipe or a device).
pub fn read_file(path: &Path, cap: u64) -> Result<Vec<u8>, String> {
    let too_big = || format!("larger than {cap} bytes");
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    if file.metadata().is_ok_and(|m| m.len() > cap) {
        return Err(too_big());
    }
    let mut bytes = Vec::new();
    file.take(cap + 1)
        .read_to_end(&mut bytes)
        .map_err(|e| e.to_string())?;
    if bytes.len() as u64 > cap {
        return Err(too_big());
    }
    Ok(bytes)
}

/// Bounds-checked cursor over untrusted bytes: every read is validated
/// against the remaining input, so truncated or garbage files surface
/// as `Err` with the byte offset of the failure, never a panic or an
/// oversized allocation.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Current byte offset (for error messages pointing into the file).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// `true` once every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Bytes not yet consumed. Loaders compare declared element counts
    /// against this before allocating.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consume the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("truncated input at byte {}", self.pos))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Consume a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Consume a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, String> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// A length prefix for items of at least `item_bytes` each;
    /// rejected when the remaining input is too short to hold that
    /// many, which caps allocations by the file size.
    pub fn len_prefix(&mut self, item_bytes: usize) -> Result<usize, String> {
        let pos = self.pos;
        let n = self.u32()? as usize;
        if n.saturating_mul(item_bytes) > self.bytes.len() - self.pos {
            return Err(format!("length {n} at byte {pos} exceeds remaining input"));
        }
        Ok(n)
    }

    /// Consume a `u32`-length-prefixed UTF-8 string (see [`write_str`]).
    pub fn str(&mut self) -> Result<String, String> {
        let n = self.len_prefix(1)?;
        let pos = self.pos;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("invalid utf-8 string at byte {pos}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_strings() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 7);
        write_u64(&mut buf, u64::MAX - 1);
        write_i64(&mut buf, -42);
        write_str(&mut buf, "héllo");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.str().unwrap(), "héllo");
        assert!(r.is_at_end());
    }

    #[test]
    fn truncation_errors_name_the_offset() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 1);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let e = r.u64().unwrap_err();
            assert!(e.contains("at byte 0"), "{e}");
        }
        let mut r = Reader::new(&buf);
        r.u32().unwrap();
        let e = r.u64().unwrap_err();
        assert!(e.contains("at byte 4"), "{e}");
    }

    #[test]
    fn read_file_refuses_files_past_the_cap() {
        let path = std::env::temp_dir().join(format!("smc-binfmt-cap-{}", std::process::id()));
        std::fs::write(&path, [0u8; 17]).unwrap();
        assert_eq!(read_file(&path, 17).unwrap().len(), 17);
        let e = read_file(&path, 16).unwrap_err();
        assert!(e.contains("larger than 16 bytes"), "{e}");
        std::fs::remove_file(&path).ok();
        // A file that never ends is refused after one byte past the cap.
        if Path::new("/dev/zero").exists() {
            let e = read_file(Path::new("/dev/zero"), 1 << 10).unwrap_err();
            assert!(e.contains("larger than 1024 bytes"), "{e}");
        }
    }

    #[test]
    fn hostile_length_prefixes_are_rejected() {
        let mut buf = Vec::new();
        write_u32(&mut buf, u32::MAX);
        let mut r = Reader::new(&buf);
        let e = r.len_prefix(4).unwrap_err();
        assert!(e.contains("exceeds remaining input"), "{e}");
        // A string length past the payload is caught the same way.
        let mut r = Reader::new(&buf);
        assert!(r.str().is_err());
    }
}
