//! The versioned columnar snapshot container.
//!
//! This module defines the *container* half of the pipeline's durability
//! story: a hand-rolled, little-endian, sectioned file format in which
//! every higher layer (interner, join cores, controller counters, the
//! facade's stream state) stores its state as one or more checksummed
//! **sections**.  The byte-level layout is specified in
//! [`docs/format.md`](https://example.invalid/format) — kept in lockstep
//! with this file; `docs/format.md` names [`FORMAT_VERSION`] and a test
//! parses the spec against the constant.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset 0   magic            8 bytes  = b"LNKSNAP\0"
//! offset 8   format version   u32
//! offset 12  section count    u32      = n
//! offset 16  section table    n × 24 bytes:
//!              kind   u32   (base kind | shard index << 16)
//!              offset u64   (absolute, from file start)
//!              len    u64   (payload bytes)
//!              crc    u32   (CRC-32/ISO-HDLC of the payload)
//! then       section payloads, contiguous, in table order
//! ```
//!
//! The file length must equal header + table + payload bytes exactly —
//! a short read *and* trailing garbage are both typed
//! [`LinkageError::Snapshot`] errors, never panics.  Section payloads
//! are encoded with [`Encoder`] and decoded with [`Decoder`], a small
//! fixed-width column vocabulary (u8/u32/u64, f64 as IEEE-754 bits,
//! length-prefixed UTF-8) shared by every section so the format spec
//! stays enumerable.

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use crate::error::{LinkageError, Result};
use crate::matchpair::{MatchKind, MatchPair};
use crate::record::Record;
use crate::value::Value;

/// The 8-byte magic prefix of every snapshot file.
pub const MAGIC: [u8; 8] = *b"LNKSNAP\0";

/// The container format version this build writes and the only version
/// it reads.  Bump on **any** change to the byte layout of the header,
/// the section table, or a section payload, and update `docs/format.md`
/// in the same commit (a test parses the spec's version against this
/// constant).
pub const FORMAT_VERSION: u32 = 1;

/// Bytes per section-table entry: kind `u32` + offset `u64` + len `u64`
/// + crc `u32`.
pub const TABLE_ENTRY_BYTES: usize = 24;

/// Base section kinds (the low 16 bits of a section-table `kind`).
///
/// Shard-scoped sections store the shard index in the **high** 16 bits
/// (see [`shard_kind`]); singleton sections use the base kind verbatim.
pub mod kind {
    /// Engine identity, configuration fingerprint and global counters.
    pub const META: u16 = 1;
    /// Whether the switch was announced in the event stream.
    pub const STREAM: u16 = 2;
    /// The gram interner: text blob, offsets, document frequencies.
    pub const INTERNER: u16 = 3;
    /// Monitor / assessor / global-controller counters.
    pub const CONTROLLER: u16 = 4;
    /// Match pairs produced but not yet pulled by the consumer.
    pub const PENDING: u16 = 5;
    /// One exact-phase join core (shard-scoped; serial runs use shard 0).
    pub const EXACT_CORE: u16 = 6;
    /// One approximate-phase join core (shard-scoped; serial = shard 0).
    pub const SSH_CORE: u16 = 7;
    /// Per-shard executor counters (stored tuples, probes, emissions).
    pub const SHARD: u16 = 8;

    /// Human-readable name of a base kind, for error messages.
    pub fn name(base: u16) -> &'static str {
        match base {
            META => "META",
            STREAM => "STREAM",
            INTERNER => "INTERNER",
            CONTROLLER => "CONTROLLER",
            PENDING => "PENDING",
            EXACT_CORE => "EXACT_CORE",
            SSH_CORE => "SSH_CORE",
            SHARD => "SHARD",
            _ => "UNKNOWN",
        }
    }
}

/// Compose a shard-scoped section kind: base kind in the low 16 bits,
/// shard index in the high 16.
pub fn shard_kind(base: u16, shard: u16) -> u32 {
    u32::from(base) | (u32::from(shard) << 16)
}

/// Split a section-table kind into `(base kind, shard index)`.
pub fn split_kind(kind: u32) -> (u16, u16) {
    ((kind & 0xFFFF) as u16, (kind >> 16) as u16)
}

/// The eight slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic
/// bytewise table of the reflected polynomial `0xEDB88320`, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight table lookups advance the checksum over eight input bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32/ISO-HDLC (the zlib/PNG polynomial, reflected `0xEDB88320`) of
/// `bytes`, computed eight bytes per step with compile-time
/// slicing-by-8 tables and a bytewise tail.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

fn err(msg: impl fmt::Display) -> LinkageError {
    LinkageError::snapshot(msg)
}

/// Append-only little-endian section-payload writer.
///
/// The encoder's method set *is* the format's column vocabulary: every
/// field a section payload contains is one of these primitives, so
/// `docs/format.md` can describe payloads as sequences of them.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (`u64`, little-endian)
    /// — NaN payloads and signed zeros round-trip bit-exactly.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append raw bytes prefixed by their `u32` length.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(u32::try_from(v.len()).expect("snapshot field exceeds u32::MAX bytes"));
        self.buf.extend_from_slice(v);
    }

    /// Append UTF-8 text prefixed by its `u32` byte length.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Append `Some(u64)` as `1` + value, `None` as `0`.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Append one [`Value`]: a tag byte (0 = Null, 1 = Bool, 2 = Int,
    /// 3 = Float, 4 = Str) followed by the variant payload.
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(0),
            Value::Bool(b) => {
                self.put_u8(1);
                self.put_bool(*b);
            }
            Value::Int(i) => {
                self.put_u8(2);
                self.put_u64(*i as u64);
            }
            Value::Float(x) => {
                self.put_u8(3);
                self.put_f64(*x);
            }
            Value::Str(s) => {
                self.put_u8(4);
                self.put_str(s);
            }
        }
    }

    /// Append one [`Record`]: id `u64`, arity `u32`, then each value.
    pub fn put_record(&mut self, r: &Record) {
        self.put_u64(r.id.as_u64());
        self.put_u32(r.values.len() as u32);
        for v in r.values.iter() {
            self.put_value(v);
        }
    }

    /// Append one [`MatchPair`]: left record, right record, kind tag
    /// (0 = Exact, 1 = Approximate + similarity bits).
    pub fn put_pair(&mut self, p: &MatchPair) {
        self.put_record(&p.left);
        self.put_record(&p.right);
        match p.kind {
            MatchKind::Exact => self.put_u8(0),
            MatchKind::Approximate { similarity } => {
                self.put_u8(1);
                self.put_f64(similarity);
            }
        }
    }

    /// Finish, yielding the payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian section-payload reader; every failure is
/// a typed [`LinkageError::Snapshot`], never a panic.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Names the section in error messages.
    section: &'static str,
}

impl<'a> Decoder<'a> {
    /// Decode `bytes`, naming `section` in any error produced.
    pub fn new(bytes: &'a [u8], section: &'static str) -> Self {
        Self {
            bytes,
            pos: 0,
            section,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| err(format!("{} section: field length overflows", self.section)))?;
        if end > self.bytes.len() {
            return Err(err(format!(
                "{} section truncated: need {} bytes at offset {}, have {}",
                self.section,
                n,
                self.pos,
                self.bytes.len() - self.pos
            )));
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an `f64` stored as its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a `bool` byte; values other than 0/1 are format errors.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(err(format!(
                "{} section: invalid bool byte {other}",
                self.section
            ))),
        }
    }

    /// Read `u32`-length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Read exactly `n` raw bytes (no length prefix) — a fixed-width
    /// column whose element count an earlier field already gave.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Read a `u32` element count whose elements each occupy at least
    /// `min_item_bytes` of payload, rejecting a count the remaining
    /// bytes cannot possibly hold — so a corrupt (but CRC-valid) count
    /// is a typed error before anything is allocated for it.
    pub fn get_count(&mut self, min_item_bytes: usize) -> Result<usize> {
        let count = self.get_u32()? as usize;
        if count.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(err(format!(
                "{} section: count {count} needs at least {} bytes, only {} remain",
                self.section,
                count.saturating_mul(min_item_bytes),
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Read `u32`-length-prefixed UTF-8 text.
    pub fn get_str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.get_bytes()?)
            .map_err(|e| err(format!("{} section: invalid UTF-8: {e}", self.section)))
    }

    /// Read an optional `u64` (presence byte + value).
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>> {
        Ok(if self.get_bool()? {
            Some(self.get_u64()?)
        } else {
            None
        })
    }

    /// Read one [`Value`] (see [`Encoder::put_value`] for the tags).
    pub fn get_value(&mut self) -> Result<Value> {
        Ok(match self.get_u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.get_bool()?),
            2 => Value::Int(self.get_u64()? as i64),
            3 => Value::Float(self.get_f64()?),
            4 => Value::Str(Arc::from(self.get_str()?)),
            tag => {
                return Err(err(format!(
                    "{} section: unknown value tag {tag}",
                    self.section
                )))
            }
        })
    }

    /// Read one [`Record`].
    pub fn get_record(&mut self) -> Result<Record> {
        let id = self.get_u64()?;
        let arity = self.get_u32()? as usize;
        let mut values = Vec::with_capacity(arity.min(1024));
        for _ in 0..arity {
            values.push(self.get_value()?);
        }
        Ok(Record::new(id, values))
    }

    /// Read one [`MatchPair`].
    pub fn get_pair(&mut self) -> Result<MatchPair> {
        let left = self.get_record()?;
        let right = self.get_record()?;
        Ok(match self.get_u8()? {
            0 => MatchPair::exact(left, right),
            1 => {
                let similarity = self.get_f64()?;
                MatchPair::approximate(left, right, similarity)
            }
            tag => {
                return Err(err(format!(
                    "{} section: unknown match-kind tag {tag}",
                    self.section
                )))
            }
        })
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Assert the payload was consumed exactly — trailing bytes mean the
    /// writer and reader disagree about the section layout.
    pub fn finish(self) -> Result<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(err(format!(
                "{} section: {} trailing bytes after the last field",
                self.section,
                self.bytes.len() - self.pos
            )))
        }
    }
}

/// Accumulates sections and serialises the container.
#[derive(Debug, Default)]
pub struct SnapshotBuilder {
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a section (kinds may repeat only across distinct shard
    /// scopes; see [`shard_kind`]).
    pub fn push_section(&mut self, kind: u32, payload: Vec<u8>) {
        self.sections.push((kind, payload));
    }

    /// Serialise the container: header, section table, payloads.
    pub fn to_bytes(&self) -> Vec<u8> {
        let table_end = 16 + self.sections.len() * TABLE_ENTRY_BYTES;
        let total: usize = table_end + self.sections.iter().map(|(_, p)| p.len()).sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let mut offset = table_end as u64;
        for (kind, payload) in &self.sections {
            out.extend_from_slice(&kind.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            offset += payload.len() as u64;
        }
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Serialise and write the container to `path` (atomically and
    /// durably: a temporary sibling file is written and fsynced first,
    /// then renamed over the target, then the directory is fsynced — so
    /// neither a crash nor a power loss leaves a half snapshot, or an
    /// empty one, under the final name).
    ///
    /// Failpoints (`--features fault`): `snapshot.write` cuts the
    /// temporary file at the armed byte offset, simulating a crash
    /// mid-write before the rename commits.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<()> {
        use std::io::Write as _;
        let path = path.as_ref();
        let tmp = path.with_extension("tmp-snapshot");
        let bytes = self.to_bytes();
        if let Some(cut) = crate::fault::fires("snapshot.write") {
            let cut = (cut as usize).min(bytes.len());
            std::fs::write(&tmp, &bytes[..cut])?;
            return Err(crate::fault::injected("snapshot.write"));
        }
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        let dir = path
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .unwrap_or(Path::new("."));
        std::fs::File::open(dir)?.sync_all()?;
        Ok(())
    }
}

/// A parsed, checksum-verified snapshot container.
///
/// Holds the file's bytes once; every section accessor hands out a slice
/// of that one buffer, and a clone shares it (the sharded engine hands
/// each worker a clone to decode its own section from).
#[derive(Debug, Clone)]
pub struct SnapshotFile {
    bytes: Arc<Vec<u8>>,
    /// `(kind, payload range within `bytes`)`, in table order.
    sections: Vec<(u32, std::ops::Range<usize>)>,
}

impl SnapshotFile {
    /// Parse and verify a container: magic, version, table bounds, exact
    /// file length, and every section's CRC.  All failures are typed
    /// [`LinkageError::Snapshot`] errors.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::from_vec(bytes.to_vec())
    }

    /// [`Self::from_bytes`] taking ownership of the buffer: the bytes are
    /// hashed once and never copied.
    pub fn from_vec(bytes: Vec<u8>) -> Result<Self> {
        if bytes.len() < 16 {
            return Err(err(format!(
                "file too short for a header: {} bytes, need 16",
                bytes.len()
            )));
        }
        if bytes[..8] != MAGIC {
            return Err(err("bad magic: not a linkage snapshot file"));
        }
        let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        if version != FORMAT_VERSION {
            return Err(err(format!(
                "unsupported format version {version} (this build reads version {FORMAT_VERSION})"
            )));
        }
        let count = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
        let table_end =
            16usize
                .checked_add(count.checked_mul(TABLE_ENTRY_BYTES).ok_or_else(|| {
                    err(format!("section count {count} overflows the table size"))
                })?)
                .ok_or_else(|| err(format!("section count {count} overflows the table size")))?;
        if bytes.len() < table_end {
            return Err(err(format!(
                "file truncated inside the section table: {} bytes, table ends at {table_end}",
                bytes.len()
            )));
        }
        let mut sections = Vec::with_capacity(count);
        let mut expected_offset = table_end as u64;
        for i in 0..count {
            let e = &bytes[16 + i * TABLE_ENTRY_BYTES..16 + (i + 1) * TABLE_ENTRY_BYTES];
            let kind = u32::from_le_bytes([e[0], e[1], e[2], e[3]]);
            let offset = u64::from_le_bytes([e[4], e[5], e[6], e[7], e[8], e[9], e[10], e[11]]);
            let len = u64::from_le_bytes([e[12], e[13], e[14], e[15], e[16], e[17], e[18], e[19]]);
            let crc = u32::from_le_bytes([e[20], e[21], e[22], e[23]]);
            let (base, shard) = split_kind(kind);
            let label = || format!("{}[shard {shard}]", kind::name(base));
            if offset != expected_offset {
                return Err(err(format!(
                    "section {} at offset {offset}, expected {expected_offset}: payloads must be \
                     contiguous in table order",
                    label()
                )));
            }
            let end = offset.checked_add(len).filter(|&e| e <= bytes.len() as u64);
            let Some(end) = end else {
                return Err(err(format!(
                    "file truncated: section {} claims bytes {offset}..{} but the file has {}",
                    label(),
                    offset.saturating_add(len),
                    bytes.len()
                )));
            };
            let range = offset as usize..end as usize;
            let actual = crc32(&bytes[range.clone()]);
            if actual != crc {
                return Err(err(format!(
                    "checksum mismatch in section {}: stored {crc:#010x}, computed {actual:#010x}",
                    label()
                )));
            }
            sections.push((kind, range));
            expected_offset = end;
        }
        if expected_offset != bytes.len() as u64 {
            return Err(err(format!(
                "{} trailing bytes after the last section",
                bytes.len() as u64 - expected_offset
            )));
        }
        Ok(Self {
            bytes: Arc::new(bytes),
            sections,
        })
    }

    /// Read and verify a container from `path`.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Self> {
        Self::from_vec(std::fs::read(path)?)
    }

    /// The payload of the section with exactly this `kind`, if present.
    pub fn try_section(&self, kind: u32) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, range)| &self.bytes[range.clone()])
    }

    /// The payload of the section with exactly this `kind`; a typed
    /// error naming the kind when absent.
    pub fn section(&self, kind: u32) -> Result<&[u8]> {
        self.try_section(kind).ok_or_else(|| {
            let (base, shard) = split_kind(kind);
            err(format!(
                "missing {}[shard {shard}] section",
                kind::name(base)
            ))
        })
    }

    /// Every section whose **base** kind matches, as `(shard, payload)`
    /// pairs sorted by shard index.
    pub fn sections_with_base(&self, base: u16) -> Vec<(u16, &[u8])> {
        let mut found: Vec<(u16, &[u8])> = self
            .sections()
            .filter(|(k, _)| split_kind(*k).0 == base)
            .map(|(k, p)| (split_kind(k).1, p))
            .collect();
        found.sort_by_key(|(shard, _)| *shard);
        found
    }

    /// All sections in table order, as `(kind, payload)` pairs.
    pub fn sections(&self) -> impl Iterator<Item = (u32, &[u8])> {
        self.sections
            .iter()
            .map(|(k, range)| (*k, &self.bytes[range.clone()]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table loop `crc32` replaced, retained as the
    /// reference the word-at-a-time version is checked against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_offset() {
        // xorshift64: any fixed non-trivial byte soup will do.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buffer: Vec<u8> = (0..192)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for offset in 0..buffer.len() - 64 {
            for len in 0..=64 {
                let slice = &buffer[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset}, length {len}"
                );
            }
        }
        assert_eq!(crc32(&buffer), crc32_bytewise(&buffer));
    }

    #[test]
    fn container_round_trips_sections_in_order() {
        let mut b = SnapshotBuilder::new();
        b.push_section(shard_kind(kind::META, 0), vec![1, 2, 3]);
        b.push_section(shard_kind(kind::EXACT_CORE, 2), vec![]);
        b.push_section(shard_kind(kind::EXACT_CORE, 1), vec![9; 100]);
        let file = SnapshotFile::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(file.section(u32::from(kind::META)).unwrap(), &[1, 2, 3]);
        let shards = file.sections_with_base(kind::EXACT_CORE);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].0, 1, "sorted by shard index");
        assert_eq!(shards[1].0, 2);
        assert!(file.try_section(u32::from(kind::PENDING)).is_none());
        assert!(matches!(
            file.section(u32::from(kind::PENDING)),
            Err(LinkageError::Snapshot(m)) if m.contains("PENDING")
        ));
    }

    #[test]
    fn corrupted_containers_fail_typed_never_panic() {
        let mut b = SnapshotBuilder::new();
        b.push_section(u32::from(kind::META), vec![7; 32]);
        let good = b.to_bytes();

        // Truncation at every possible length parses or fails cleanly.
        for cut in 0..good.len() {
            match SnapshotFile::from_bytes(&good[..cut]) {
                Err(LinkageError::Snapshot(_)) => {}
                other => panic!("truncation at {cut} must be a snapshot error, got {other:?}"),
            }
        }

        // A flipped payload bit is a checksum mismatch.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            SnapshotFile::from_bytes(&bad),
            Err(LinkageError::Snapshot(m)) if m.contains("checksum")
        ));

        // A foreign version is refused by number.
        let mut versioned = good.clone();
        versioned[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            SnapshotFile::from_bytes(&versioned),
            Err(LinkageError::Snapshot(m)) if m.contains("version")
        ));

        // Wrong magic is not a snapshot at all.
        let mut unmagic = good.clone();
        unmagic[0] = b'X';
        assert!(matches!(
            SnapshotFile::from_bytes(&unmagic),
            Err(LinkageError::Snapshot(m)) if m.contains("magic")
        ));

        // Trailing garbage is rejected too.
        let mut long = good;
        long.push(0);
        assert!(matches!(
            SnapshotFile::from_bytes(&long),
            Err(LinkageError::Snapshot(m)) if m.contains("trailing")
        ));
    }

    #[test]
    fn encoder_decoder_round_trip_all_primitives() {
        let mut e = Encoder::new();
        e.put_u8(250);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX);
        e.put_f64(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN payload
        e.put_bool(true);
        e.put_str("q-gram ⌐¶");
        e.put_opt_u64(Some(42));
        e.put_opt_u64(None);
        e.put_value(&Value::Int(-5));
        e.put_value(&Value::Null);
        let record = Record::new(9u64, vec![Value::string("LOC"), Value::Float(-0.0)]);
        e.put_record(&record);
        e.put_pair(&MatchPair::approximate(
            record.clone(),
            record.clone(),
            0.875,
        ));
        let bytes = e.finish();

        let mut d = Decoder::new(&bytes, "TEST");
        assert_eq!(d.get_u8().unwrap(), 250);
        assert_eq!(d.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_f64().unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_str().unwrap(), "q-gram ⌐¶");
        assert_eq!(d.get_opt_u64().unwrap(), Some(42));
        assert_eq!(d.get_opt_u64().unwrap(), None);
        assert_eq!(d.get_value().unwrap(), Value::Int(-5));
        assert_eq!(d.get_value().unwrap(), Value::Null);
        let back = d.get_record().unwrap();
        assert_eq!(back, record);
        let pair = d.get_pair().unwrap();
        assert_eq!(pair.id_pair(), (record.id, record.id));
        assert_eq!(pair.kind.similarity(), 0.875);
        d.finish().unwrap();
    }

    #[test]
    fn decoder_rejects_truncation_and_bad_tags() {
        let mut d = Decoder::new(&[1, 2], "T");
        assert!(matches!(
            d.get_u32(),
            Err(LinkageError::Snapshot(m)) if m.contains("truncated")
        ));
        let mut d = Decoder::new(&[9], "T");
        assert!(matches!(d.get_value(), Err(LinkageError::Snapshot(m)) if m.contains("tag")));
        let mut d = Decoder::new(&[7], "T");
        assert!(matches!(d.get_bool(), Err(LinkageError::Snapshot(m)) if m.contains("bool")));
        let d = Decoder::new(&[0, 0], "T");
        assert!(matches!(d.finish(), Err(LinkageError::Snapshot(m)) if m.contains("trailing")));
    }

    #[test]
    fn an_impossible_count_is_rejected_before_allocation() {
        let mut e = Encoder::new();
        e.put_u32(u32::MAX);
        e.put_u64(7);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, "T");
        assert!(matches!(
            d.get_count(8),
            Err(LinkageError::Snapshot(m)) if m.contains("count 4294967295")
        ));
        // A count the payload can hold passes, and the cursor sits
        // right behind it.
        let mut e = Encoder::new();
        e.put_u32(1);
        e.put_u64(7);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, "T");
        assert_eq!(d.get_count(8).unwrap(), 1);
        assert_eq!(d.get_raw(8).unwrap(), 7u64.to_le_bytes());
        assert!(matches!(d.get_raw(1), Err(LinkageError::Snapshot(_))));
        d.finish().unwrap();
    }

    #[test]
    fn shard_kind_packing_round_trips() {
        let k = shard_kind(kind::SSH_CORE, 513);
        assert_eq!(split_kind(k), (kind::SSH_CORE, 513));
        assert_eq!(split_kind(u32::from(kind::META)), (kind::META, 0));
    }

    #[test]
    fn write_to_is_atomic_and_readable_back() {
        let dir = std::env::temp_dir().join("linkage-snapshot-container-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.snap");
        let mut b = SnapshotBuilder::new();
        b.push_section(u32::from(kind::META), vec![4, 5, 6]);
        b.write_to(&path).unwrap();
        let file = SnapshotFile::read_from(&path).unwrap();
        assert_eq!(file.section(u32::from(kind::META)).unwrap(), &[4, 5, 6]);
        assert!(!path.with_extension("tmp-snapshot").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
