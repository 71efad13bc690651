//! The versioned binary container every snapshot artifact is packed in.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset 0   magic            8 bytes  "RTGSSNAP"
//!        8   format version   u32      (FORMAT_VERSION)
//!       12   section count    u32      (N)
//!       16   section table    N × 24 bytes
//!              tag      [u8; 4]
//!              offset   u64   (from byte 0 of the container)
//!              length   u64
//!              crc32    u32   (IEEE, over the payload bytes)
//!       16+24N  payloads, in table order
//! ```
//!
//! Sections are opaque length-prefixed byte strings addressed by a 4-byte
//! tag; every payload is covered by its own CRC-32, verified at parse time
//! before any content is interpreted. Unknown format versions are rejected
//! with [`SnapshotError::UnsupportedVersion`] — a loader never guesses at
//! a layout it does not implement.
//!
//! The checksum is [`crc32`], and it is on the replication hot path: a
//! replicated frame runs it four times over a ≈ 210 KB record (section
//! CRCs here at [`SectionBuilder::finish`] and [`Sections::parse`], the
//! envelope CRC at `rtgs_replicate::wire`'s seal and scan). It folds 16
//! bytes per step through 16 lookup tables (*slicing-by-16*), all derived
//! at compile time from one definition, `crc_byte_rounds` — the eight
//! shift-xor rounds of the reflected IEEE polynomial over one byte. Table 0
//! is that definition for every byte value; table `k` is table `k − 1`
//! advanced over one more zero byte, i.e. the contribution of a byte with
//! `k` bytes still behind it in the block, so the 16 lookups of a block are
//! independent of each other and only the XOR of their results feeds the
//! next block. It is plain safe Rust — no intrinsics, `std::arch`,
//! `target_feature` or runtime dispatch: a carry-less-multiply kernel would
//! be a second, `unsafe`, per-CPU code path (ROADMAP's parked "runtime SIMD
//! dispatch"), and this one already runs at ≈ 0.5 ns/B (one table lookup
//! per byte ran at 2.7), so the four passes cost a replicated frame
//! ≈ 0.45 ms instead of ≈ 2.2 ms. Any change
//! here may change how a checksum is computed, never its value:
//! `roundtrip.rs::persisted_log_bytes_are_pinned` is the guard.

use crate::error::SnapshotError;

/// Container magic: the first 8 bytes of every snapshot artifact.
pub const MAGIC: [u8; 8] = *b"RTGSSNAP";

/// Current container format version. Bump on any layout or semantic
/// change to the container or a section (see CONTRIBUTING, "Snapshot
/// format versioning").
pub const FORMAT_VERSION: u32 = 1;

/// Bytes per section-table entry.
const TABLE_ENTRY: usize = 4 + 8 + 8 + 4;

/// Reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// One shift-xor round per bit of `byte`: the definition the tables are
/// built from.
const fn crc_byte_rounds(byte: u32) -> u32 {
    let mut crc = byte;
    let mut bit = 0;
    while bit < 8 {
        crc = (crc >> 1) ^ (CRC_POLY & 0u32.wrapping_sub(crc & 1));
        bit += 1;
    }
    crc
}

/// Bytes [`crc32`] folds per step, one lookup table each.
const SLICES: usize = 16;

/// `tables[0][b]` is `crc_byte_rounds(b)`; `tables[k][b]` is
/// `tables[k - 1][b]` advanced over one zero byte — the register's
/// contribution from byte value `b` with `k` more bytes of the block behind
/// it.
const fn crc_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        tables[0][i] = crc_byte_rounds(i as u32);
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; SLICES] = crc_tables();

/// CRC-32 (IEEE 802.3, reflected) of `bytes`: 16 bytes per step through
/// 16 independent table lookups (slicing-by-16, see the module docs), the
/// last `len % 16` bytes one lookup each.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(SLICES);
    for block in &mut blocks {
        let mut block: [u8; SLICES] = block.try_into().expect("chunks_exact yields SLICES bytes");
        // The register folds into the block's first four bytes; from there
        // on byte `k` is looked up in the table of the `SLICES - 1 - k`
        // bytes behind it.
        let head = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        block[..4].copy_from_slice(&head.to_le_bytes());
        crc = block
            .iter()
            .zip(CRC_TABLES.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ table[usize::from(b)]);
    }
    for &b in blocks.remainder() {
        crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------------
// Little-endian scalar writers (appending to a section payload).
// ---------------------------------------------------------------------------

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as a little-endian `u64`.
pub fn put_len(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Appends a little-endian `i32`.
pub fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian IEEE-754 `f32` (bit pattern — NaNs and signed
/// zeros round-trip exactly).
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over one section's payload.
///
/// Every getter returns [`SnapshotError::Truncated`] instead of panicking
/// when the payload ends early, tagged with the context string the cursor
/// was created with.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> Cursor<'a> {
    /// A cursor over `bytes`; `context` names what is being decoded in
    /// truncation errors.
    pub fn new(bytes: &'a [u8], context: &'static str) -> Self {
        Self {
            bytes,
            pos: 0,
            context,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                context: self.context,
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` length field, sanity-capped so a corrupt length
    /// cannot trigger an enormous allocation: `element_size` is the
    /// minimum bytes one element occupies in the remaining payload.
    pub fn len(&mut self, element_size: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()? as usize;
        if element_size > 0 && n > self.remaining() / element_size {
            return Err(SnapshotError::Truncated {
                context: self.context,
            });
        }
        Ok(n)
    }

    /// Reads a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, SnapshotError> {
        let b = self.take(4)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian IEEE-754 `f32` bit pattern.
    pub fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Corrupt {
            context: format!("invalid UTF-8 string in {}", self.context),
        })
    }

    /// Fails unless the payload was consumed exactly.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt {
                context: format!("{} has {} trailing bytes", self.context, self.remaining()),
            })
        }
    }
}

/// Builder assembling a container from tagged sections.
///
/// Sections are emitted in insertion order; [`SectionBuilder::finish`]
/// produces the final byte string with the header, table and checksums
/// filled in.
#[derive(Debug, Default)]
#[must_use = "a builder does nothing until finished into bytes"]
pub struct SectionBuilder {
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl SectionBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The payload buffer of section `tag`, created empty on first use.
    ///
    /// # Panics
    ///
    /// Panics if `tag` was already finished into the builder twice — tags
    /// are unique per container.
    pub fn section(&mut self, tag: [u8; 4]) -> &mut Vec<u8> {
        if let Some(i) = self.sections.iter().position(|(t, _)| *t == tag) {
            return &mut self.sections[i].1;
        }
        self.sections.push((tag, Vec::new()));
        &mut self.sections.last_mut().expect("just pushed").1
    }

    /// Adds a section with an already-built payload.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate tag.
    pub fn push_section(&mut self, tag: [u8; 4], payload: Vec<u8>) {
        assert!(
            !self.sections.iter().any(|(t, _)| *t == tag),
            "duplicate section tag"
        );
        self.sections.push((tag, payload));
    }

    /// Serializes the container: header, section table, payloads.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        let table_end = 16 + TABLE_ENTRY * self.sections.len();
        let total: usize = table_end + self.sections.iter().map(|(_, p)| p.len()).sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u32(&mut out, self.sections.len() as u32);
        let mut offset = table_end as u64;
        for (tag, payload) in &self.sections {
            out.extend_from_slice(tag);
            put_u64(&mut out, offset);
            put_u64(&mut out, payload.len() as u64);
            put_u32(&mut out, crc32(payload));
            offset += payload.len() as u64;
        }
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }
}

/// A parsed container: the section table of a validated byte string.
///
/// Parsing verifies the magic, the format version, that every table entry
/// lies inside the buffer, and every payload's CRC-32 — so by the time a
/// section is handed out, its bytes are exactly the bytes that were
/// written.
#[derive(Debug)]
pub struct Sections<'a> {
    bytes: &'a [u8],
    table: Vec<([u8; 4], usize, usize)>,
}

impl<'a> Sections<'a> {
    /// Parses and validates a container.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`], [`SnapshotError::UnsupportedVersion`],
    /// [`SnapshotError::Truncated`] (header, table or payload ranges out
    /// of bounds), [`SnapshotError::ChecksumMismatch`] or
    /// [`SnapshotError::Corrupt`] (duplicate tags).
    pub fn parse(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < 16 {
            if bytes.len() < 8 || bytes[..8] != MAGIC {
                return Err(SnapshotError::BadMagic);
            }
            return Err(SnapshotError::Truncated {
                context: "container header",
            });
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut header = Cursor::new(&bytes[8..16], "container header");
        let version = header.u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let count = header.u32()? as usize;
        let table_end = 16usize
            .checked_add(count.saturating_mul(TABLE_ENTRY))
            .ok_or(SnapshotError::Truncated {
                context: "section table",
            })?;
        if bytes.len() < table_end {
            return Err(SnapshotError::Truncated {
                context: "section table",
            });
        }
        let mut cursor = Cursor::new(&bytes[16..table_end], "section table");
        let mut table = Vec::with_capacity(count);
        for _ in 0..count {
            let mut tag = [0u8; 4];
            for t in &mut tag {
                *t = cursor.u8()?;
            }
            let offset = cursor.u64()? as usize;
            let len = cursor.u64()? as usize;
            let crc = cursor.u32()?;
            let end = offset.checked_add(len).ok_or(SnapshotError::Truncated {
                context: "section payload",
            })?;
            if offset < table_end || end > bytes.len() {
                return Err(SnapshotError::Truncated {
                    context: "section payload",
                });
            }
            if table.iter().any(|(t, _, _)| *t == tag) {
                return Err(SnapshotError::Corrupt {
                    context: format!("duplicate section tag {tag:?}"),
                });
            }
            if crc32(&bytes[offset..end]) != crc {
                return Err(SnapshotError::ChecksumMismatch { section: tag });
            }
            table.push((tag, offset, len));
        }
        Ok(Self { bytes, table })
    }

    /// Payload of the section tagged `tag`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::MissingSection`] when absent.
    pub fn get(&self, tag: [u8; 4]) -> Result<&'a [u8], SnapshotError> {
        self.table
            .iter()
            .find(|(t, _, _)| *t == tag)
            .map(|&(_, offset, len)| &self.bytes[offset..offset + len])
            .ok_or(SnapshotError::MissingSection { section: tag })
    }

    /// Payload of `tag`, or `None` when the section is absent (for
    /// optional sections).
    pub fn get_optional(&self, tag: [u8; 4]) -> Option<&'a [u8]> {
        self.table
            .iter()
            .find(|(t, _, _)| *t == tag)
            .map(|&(_, offset, len)| &self.bytes[offset..offset + len])
    }

    /// Tags present, in table order.
    pub fn tags(&self) -> impl Iterator<Item = [u8; 4]> + '_ {
        self.table.iter().map(|&(t, _, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition `crc32` used before it went by table.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC_POLY & 0u32.wrapping_sub(crc & 1));
            }
        }
        !crc
    }

    /// `n` bytes of the LCG stream seeded with `state`.
    fn lcg_bytes(mut state: u64, n: usize) -> Vec<u8> {
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vector_and_the_bitwise_reference() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b""), 0);
        // Every length 0..=4096 of one LCG byte stream.
        let bytes = lcg_bytes(0x9E37_79B9_7F4A_7C15, 4096);
        for len in 0..=bytes.len() {
            assert_eq!(
                crc32(&bytes[..len]),
                crc32_bitwise(&bytes[..len]),
                "length {len}"
            );
        }
    }

    /// Every length 0..=1024 at every start offset 0..16 of one buffer: each
    /// remainder length, each block count up to 64, each alignment of the
    /// block loop against the allocation.
    #[test]
    fn crc32_slicing_matches_the_bitwise_reference_at_every_length_and_offset() {
        let bytes = lcg_bytes(0x5EED_0F5E_ED0F, 1024 + SLICES);
        for offset in 0..SLICES {
            for len in 0..=1024 {
                let slice = &bytes[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    /// Record-sized inputs: 32 seeded buffers of 64–256 KiB.
    #[test]
    fn crc32_slicing_matches_the_bitwise_reference_on_large_random_buffers() {
        for seed in 0..32u64 {
            let draw = lcg_bytes(seed, 4);
            let extra = u32::from_le_bytes([draw[0], draw[1], draw[2], draw[3]]) as usize;
            let len = 64 * 1024 + extra % (192 * 1024 + 1);
            let bytes = lcg_bytes(!seed, len);
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "seed {seed}, {len} B");
        }
    }

    /// Detection is intact: every one of the 16 384 single-bit flips of a
    /// 2 KiB buffer changes its checksum, each to a different value.
    #[test]
    fn crc32_detects_every_single_bit_flip() {
        let mut bytes = lcg_bytes(0xF11F, 2048);
        let intact = crc32(&bytes);
        let mut seen = std::collections::HashSet::new();
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            let flipped = crc32(&bytes);
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(flipped, intact, "bit {bit} went undetected");
            assert!(seen.insert(flipped), "bit {bit} collides with another flip");
        }
    }

    #[test]
    fn roundtrip_two_sections() {
        let mut b = SectionBuilder::new();
        put_u32(b.section(*b"AAAA"), 7);
        put_f32(b.section(*b"BBBB"), -0.5);
        put_str(b.section(*b"BBBB"), "hi");
        let bytes = b.finish();

        let s = Sections::parse(&bytes).unwrap();
        assert_eq!(s.tags().count(), 2);
        let mut c = Cursor::new(s.get(*b"AAAA").unwrap(), "a");
        assert_eq!(c.u32().unwrap(), 7);
        c.expect_end().unwrap();
        let mut c = Cursor::new(s.get(*b"BBBB").unwrap(), "b");
        assert_eq!(c.f32().unwrap(), -0.5);
        assert_eq!(c.str().unwrap(), "hi");
        assert!(matches!(
            s.get(*b"ZZZZ"),
            Err(SnapshotError::MissingSection { .. })
        ));
    }

    #[test]
    fn parse_rejects_damage() {
        let mut b = SectionBuilder::new();
        b.section(*b"DATA").extend_from_slice(&[1, 2, 3, 4, 5]);
        let bytes = b.finish();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            Sections::parse(&bad),
            Err(SnapshotError::BadMagic)
        ));

        // Unknown version.
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert!(matches!(
            Sections::parse(&bad),
            Err(SnapshotError::UnsupportedVersion { found: 99, .. })
        ));

        // Truncated payload.
        let truncated = &bytes[..bytes.len() - 2];
        assert!(matches!(
            Sections::parse(truncated),
            Err(SnapshotError::Truncated { .. })
        ));

        // Flipped payload byte -> checksum mismatch naming the section.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        match Sections::parse(&bad) {
            Err(SnapshotError::ChecksumMismatch { section }) => assert_eq!(&section, b"DATA"),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn cursor_truncation_is_typed() {
        let mut c = Cursor::new(&[1, 2], "unit test");
        assert!(matches!(
            c.u32(),
            Err(SnapshotError::Truncated {
                context: "unit test"
            })
        ));
        // Absurd length prefix is caught before allocating.
        let mut payload = Vec::new();
        put_u64(&mut payload, u64::MAX);
        let mut c = Cursor::new(&payload, "unit test");
        assert!(c.len(4).is_err());
    }
}
