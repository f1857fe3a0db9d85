//! The persistent disk tier: append-only segment files + checksummed
//! index.
//!
//! [`DiskTier`] is the store tier below host memory.
//! Modules demoted out of host DRAM are appended to **segment files**
//! (record framing in [`crate::segment`]; normative byte spec in
//! `docs/PERSISTENCE.md`) and read back — decoded and dequantized — when
//! a lookup falls through host memory.
//!
//! Durability model, in one paragraph: **the segment append is the
//! commit point; the `INDEX` file is an optimization.** The index is
//! written atomically (tmp + rename) with a trailing checksum and the
//! length of every segment at write time. On open, an index that is
//! missing, corrupt, or stale (any segment's on-disk length differs from
//! the recorded one, or the segment set changed) is discarded and the
//! tier **rebuilds by scanning** every segment in id order — later
//! records win, tombstones delete, and a torn tail (a record cut short
//! by a crash mid-append) is truncated away. Payload checksums are *not*
//! verified during the scan (recovery stays O(records)); they are
//! verified on every [`DiskTier::get`], where a mismatch drops the entry
//! and surfaces as a miss so the engine re-encodes (graceful
//! degradation) — a corrupt disk entry can degrade to recompute, never
//! to wrong bytes.

use crate::segment::{
    checksum_bytes, encode_key, encode_payload, decode_payload, parse_record, write_record,
    ColdEncoding, ParseOutcome, SEGMENT_MAGIC, SEGMENT_VERSION, TOMBSTONE,
};
use crate::store::ModuleKey;
use bytes::{Buf, BufMut, BytesMut};
use pc_model::KvCache;
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Disk-tier configuration. Build with [`DiskConfig::new`] plus the
/// chainable setters:
///
/// ```
/// use pc_cache::{ColdEncoding, DiskConfig};
///
/// let config = DiskConfig::new("/tmp/pc-modules")
///     .encoding(ColdEncoding::Int8)
///     .capacity_bytes(1 << 30);
/// assert_eq!(config.encoding, ColdEncoding::Int8);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct DiskConfig {
    /// Directory holding the segment files and `INDEX`.
    pub dir: PathBuf,
    /// Live-byte capacity (0 = unbounded). When exceeded, the oldest
    /// entries (smallest write sequence) are tombstoned until under.
    pub capacity_bytes: usize,
    /// Cold-payload encoding for newly written records. Existing records
    /// keep the encoding they were written with (it's in the record
    /// header), so changing this between runs is safe.
    pub encoding: ColdEncoding,
    /// Active-segment roll threshold: a new segment file is started once
    /// the active one reaches this size.
    pub max_segment_bytes: usize,
}

impl DiskConfig {
    /// A disk tier rooted at `dir`: unbounded, exact f32 payloads,
    /// 16 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskConfig {
            dir: dir.into(),
            capacity_bytes: 0,
            encoding: ColdEncoding::F32,
            max_segment_bytes: 16 << 20,
        }
    }

    /// Sets the live-byte capacity (0 = unbounded).
    #[must_use]
    pub fn capacity_bytes(mut self, bytes: usize) -> Self {
        self.capacity_bytes = bytes;
        self
    }

    /// Sets the cold-payload encoding for new records.
    #[must_use]
    pub fn encoding(mut self, encoding: ColdEncoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Sets the active-segment roll threshold.
    #[must_use]
    pub fn max_segment_bytes(mut self, bytes: usize) -> Self {
        self.max_segment_bytes = bytes.max(SEGMENT_HEADER_LEN as usize + 1);
        self
    }
}

/// Segment file header length (magic + version).
const SEGMENT_HEADER_LEN: u64 = 8;
const INDEX_MAGIC: &[u8; 4] = b"PCIX";
/// Moves with [`SEGMENT_VERSION`]: an index of another version is stale.
const INDEX_VERSION: u32 = 2;

/// Outcome of a [`DiskTier::get`].
#[derive(Debug)]
pub enum DiskGet {
    /// The key has no live disk record.
    Missing,
    /// A record exists but failed its checksum or could not be decoded —
    /// it has been dropped; the caller should treat this as a miss (the
    /// engine's degrade path re-encodes).
    Corrupt,
    /// The decoded (and, for quantized encodings, dequantized) module
    /// plus the recompute cost recorded with it.
    Module(Box<KvCache>, f64),
}

#[derive(Debug, Clone, PartialEq)]
struct DiskEntry {
    segment: u32,
    record_offset: u64,
    record_len: u32,
    payload_len: u32,
    encoding: u8,
    checksum: u64,
    cost: f64,
    /// Monotone write sequence — recovery replays records in this order,
    /// and capacity eviction drops the smallest first.
    seq: u64,
}

#[derive(Debug, Default, Clone)]
struct SegmentState {
    /// Current file length in bytes (header included).
    len: u64,
    /// Bytes of live (non-superseded, non-tombstoned) records.
    live: u64,
}

/// One live disk-tier entry, as reported by [`DiskTier::entries`] — the
/// `/debug/cache` "disk" tier rows.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskEntryInfo {
    /// The module's key.
    pub key: ModuleKey,
    /// Encoded payload size in bytes.
    pub payload_bytes: usize,
    /// Recompute cost recorded with the entry (eviction input).
    pub cost: f64,
    /// Payload encoding label (`"f32"`, `"fp16"`, `"int8"`).
    pub encoding: &'static str,
}

/// The persistent module tier. See the [module docs](self) for the
/// durability model and `docs/PERSISTENCE.md` for the byte-level format.
///
/// Not internally synchronized: [`crate::ModuleStore`] owns its tier
/// behind the store mutex.
#[derive(Debug)]
pub struct DiskTier {
    config: DiskConfig,
    index: HashMap<ModuleKey, DiskEntry>,
    segments: BTreeMap<u32, SegmentState>,
    active: u32,
    active_file: File,
    next_seq: u64,
    /// Whether the in-memory index has diverged from the `INDEX` file.
    dirty: bool,
}

fn segment_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("seg-{id:08}.pcseg"))
}

fn segment_header() -> [u8; SEGMENT_HEADER_LEN as usize] {
    let mut h = [0u8; SEGMENT_HEADER_LEN as usize];
    h[..4].copy_from_slice(SEGMENT_MAGIC);
    h[4..].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    h
}

impl DiskTier {
    /// Opens (or creates) the tier at `config.dir`, recovering state from
    /// the `INDEX` file when it is fresh or by scanning segments when it
    /// is not (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (unreadable directory, etc.).
    /// Corrupt or torn *contents* are never an error — they are recovered
    /// past.
    pub fn open(config: DiskConfig) -> io::Result<Self> {
        fs::create_dir_all(&config.dir)?;
        let mut seg_ids: Vec<u32> = fs::read_dir(&config.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let id = name.strip_prefix("seg-")?.strip_suffix(".pcseg")?;
                id.parse::<u32>().ok()
            })
            .collect();
        seg_ids.sort_unstable();
        let mut tier = DiskTier {
            active: *seg_ids.last().unwrap_or(&0),
            config,
            index: HashMap::new(),
            segments: BTreeMap::new(),
            // Replaced below; a placeholder that needs no open file.
            active_file: File::open("/dev/null").or_else(|_| {
                // Non-unix fallback: the temp handle is never read.
                File::create(std::env::temp_dir().join("pc-disk-placeholder"))
            })?,
            next_seq: 0,
            dirty: false,
        };
        if seg_ids.is_empty() {
            tier.create_segment(0)?;
        } else if !tier.load_index(&seg_ids)? {
            tier.scan_rebuild(&seg_ids)?;
            tier.dirty = true;
        }
        tier.active_file = OpenOptions::new()
            .append(true)
            .open(segment_path(&tier.config.dir, tier.active))?;
        Ok(tier)
    }

    fn create_segment(&mut self, id: u32) -> io::Result<()> {
        let path = segment_path(&self.config.dir, id);
        let mut f = File::create(&path)?;
        f.write_all(&segment_header())?;
        self.segments.insert(
            id,
            SegmentState {
                len: SEGMENT_HEADER_LEN,
                live: 0,
            },
        );
        self.active = id;
        self.active_file = OpenOptions::new().append(true).open(&path)?;
        Ok(())
    }

    /// Attempts to adopt the `INDEX` file. Returns `Ok(false)` when it is
    /// missing, corrupt, or stale relative to the segment files.
    fn load_index(&mut self, seg_ids: &[u32]) -> io::Result<bool> {
        let bytes = match fs::read(self.config.dir.join("INDEX")) {
            Ok(b) => b,
            Err(_) => return Ok(false),
        };
        if bytes.len() < 8 + 8 || &bytes[..4] != INDEX_MAGIC {
            return Ok(false);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        if u64::from_le_bytes(tail.try_into().expect("8 bytes")) != checksum_bytes(&[body]) {
            return Ok(false);
        }
        let mut buf = &body[4..];
        if buf.get_u32_le() != INDEX_VERSION {
            return Ok(false);
        }
        let parse = (|| -> Option<(HashMap<ModuleKey, DiskEntry>, BTreeMap<u32, u64>)> {
            let mut index = HashMap::new();
            let entry_count = checked_u32(&mut buf)? as usize;
            for _ in 0..entry_count {
                if buf.remaining() < 4 {
                    return None;
                }
                let key_len = buf.get_u32_le() as usize;
                if buf.remaining() < key_len {
                    return None;
                }
                let key = crate::segment::decode_key(&buf[..key_len])?;
                buf.advance(key_len);
                if buf.remaining() < 4 + 8 + 4 + 4 + 4 + 8 + 8 + 8 {
                    return None;
                }
                let entry = DiskEntry {
                    segment: buf.get_u32_le(),
                    record_offset: buf.get_u64_le(),
                    record_len: buf.get_u32_le(),
                    payload_len: buf.get_u32_le(),
                    encoding: {
                        let e = buf.get_u8();
                        buf.advance(3);
                        e
                    },
                    checksum: buf.get_u64_le(),
                    cost: buf.get_f64_le(),
                    seq: buf.get_u64_le(),
                };
                index.insert(key, entry);
            }
            let seg_count = checked_u32(&mut buf)? as usize;
            let mut lens = BTreeMap::new();
            for _ in 0..seg_count {
                if buf.remaining() < 12 {
                    return None;
                }
                lens.insert(buf.get_u32_le(), buf.get_u64_le());
            }
            buf.is_empty().then_some((index, lens))
        })();
        let Some((index, lens)) = parse else {
            return Ok(false);
        };
        // Freshness: the index must describe exactly the segments on disk,
        // at exactly their current lengths. Anything else means writes
        // happened after the last flush — rescan.
        if lens.keys().copied().collect::<Vec<u32>>() != seg_ids {
            return Ok(false);
        }
        for (&id, &len) in &lens {
            let actual = fs::metadata(segment_path(&self.config.dir, id))
                .map(|m| m.len())
                .unwrap_or(u64::MAX);
            if actual != len {
                return Ok(false);
            }
        }
        let mut segments: BTreeMap<u32, SegmentState> = lens
            .into_iter()
            .map(|(id, len)| (id, SegmentState { len, live: 0 }))
            .collect();
        for e in index.values() {
            if let Some(seg) = segments.get_mut(&e.segment) {
                seg.live += u64::from(e.record_len);
            }
        }
        self.next_seq = index.values().map(|e| e.seq + 1).max().unwrap_or(0);
        self.index = index;
        self.segments = segments;
        self.active = *seg_ids.last().expect("non-empty");
        Ok(true)
    }

    /// Rebuilds the index by scanning every segment in id order,
    /// truncating torn tails as it goes.
    fn scan_rebuild(&mut self, seg_ids: &[u32]) -> io::Result<()> {
        self.index.clear();
        self.segments.clear();
        self.next_seq = 0;
        for &id in seg_ids {
            let path = segment_path(&self.config.dir, id);
            let bytes = fs::read(&path)?;
            let header_ok = bytes.len() >= SEGMENT_HEADER_LEN as usize
                && &bytes[..4] == SEGMENT_MAGIC
                && bytes[4..8] == SEGMENT_VERSION.to_le_bytes();
            if !header_ok {
                // A damaged header means nothing in the file can be
                // trusted; reset it to an empty segment.
                fs::write(&path, segment_header())?;
                self.segments.insert(
                    id,
                    SegmentState {
                        len: SEGMENT_HEADER_LEN,
                        live: 0,
                    },
                );
                continue;
            }
            let mut at = SEGMENT_HEADER_LEN as usize;
            loop {
                match parse_record(&bytes, at) {
                    ParseOutcome::End => break,
                    ParseOutcome::Torn => {
                        // Crash mid-append: drop the torn tail.
                        OpenOptions::new()
                            .write(true)
                            .open(&path)?
                            .set_len(at as u64)?;
                        break;
                    }
                    ParseOutcome::Record(rec) => {
                        let record_len = (rec.next_offset - at) as u32;
                        if let Some(old) = self.index.remove(&rec.key) {
                            if let Some(seg) = self.segments.get_mut(&old.segment) {
                                seg.live -= u64::from(old.record_len);
                            }
                        }
                        if rec.encoding != TOMBSTONE {
                            self.index.insert(
                                rec.key,
                                DiskEntry {
                                    segment: id,
                                    record_offset: at as u64,
                                    record_len,
                                    payload_len: rec.payload_len as u32,
                                    encoding: rec.encoding,
                                    checksum: rec.checksum,
                                    cost: rec.cost,
                                    seq: self.next_seq,
                                },
                            );
                            self.next_seq += 1;
                        }
                        at = rec.next_offset;
                    }
                }
            }
            let mut state = SegmentState {
                len: at as u64,
                live: 0,
            };
            state.live = self
                .index
                .values()
                .filter(|e| e.segment == id)
                .map(|e| u64::from(e.record_len))
                .sum();
            self.segments.insert(id, state);
        }
        self.active = *seg_ids.last().expect("non-empty");
        Ok(())
    }

    /// Appends (or supersedes) `key`'s module, encoded per
    /// [`DiskConfig::encoding`]. Enforces the capacity bound by
    /// tombstoning the oldest entries.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error the in-memory index is
    /// unchanged (the partially appended bytes become a torn tail for the
    /// next recovery scan).
    pub fn put(&mut self, key: &ModuleKey, cache: &KvCache, cost: f64) -> io::Result<()> {
        let key_bytes = encode_key(key);
        let payload = encode_payload(cache, self.config.encoding);
        let checksum = checksum_bytes(&[&key_bytes, &payload]);
        let mut record = Vec::new();
        write_record(
            &mut record,
            &key_bytes,
            &payload,
            self.config.encoding.byte(),
            cost,
        );
        let (segment, record_offset) = self.append(&record)?;
        let entry = DiskEntry {
            segment,
            record_offset,
            record_len: record.len() as u32,
            payload_len: payload.len() as u32,
            encoding: self.config.encoding.byte(),
            checksum,
            cost,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        if let Some(seg) = self.segments.get_mut(&segment) {
            seg.live += u64::from(entry.record_len);
        }
        if let Some(old) = self.index.insert(key.clone(), entry) {
            self.forget(&old)?;
        }
        self.dirty = true;
        self.enforce_capacity()?;
        Ok(())
    }

    /// Appends raw record bytes to the active segment, rolling it first
    /// if it is full. Returns `(segment id, record offset)`.
    fn append(&mut self, record: &[u8]) -> io::Result<(u32, u64)> {
        let len = self.segments[&self.active].len;
        if len > SEGMENT_HEADER_LEN && len + record.len() as u64 > self.config.max_segment_bytes as u64
        {
            let old = self.active;
            self.create_segment(old + 1)?;
            self.drop_if_dead(old)?;
        }
        let seg = self.active;
        let offset = self.segments[&seg].len;
        self.active_file.write_all(record)?;
        self.segments.get_mut(&seg).expect("active exists").len += record.len() as u64;
        Ok((seg, offset))
    }

    /// Un-counts a superseded or deleted record and reclaims its segment
    /// if that leaves no live bytes.
    fn forget(&mut self, old: &DiskEntry) -> io::Result<()> {
        if let Some(seg) = self.segments.get_mut(&old.segment) {
            seg.live -= u64::from(old.record_len);
        }
        self.drop_if_dead(old.segment)
    }

    /// Deletes a non-active segment file once nothing live remains in it
    /// — the tier's compaction. (Append-only files are never rewritten;
    /// space comes back a whole segment at a time.)
    fn drop_if_dead(&mut self, id: u32) -> io::Result<()> {
        if id == self.active {
            return Ok(());
        }
        if self.segments.get(&id).is_some_and(|s| s.live == 0) {
            fs::remove_file(segment_path(&self.config.dir, id))?;
            self.segments.remove(&id);
            self.dirty = true;
        }
        Ok(())
    }

    fn enforce_capacity(&mut self) -> io::Result<()> {
        if self.config.capacity_bytes == 0 {
            return Ok(());
        }
        while self.live_bytes() > self.config.capacity_bytes {
            let Some(oldest) = self
                .index
                .iter()
                .min_by_key(|(_, e)| e.seq)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.remove(&oldest)?;
        }
        Ok(())
    }

    /// Reads, verifies, and decodes `key`'s module. A checksum mismatch,
    /// undecodable payload, or read error drops the entry and reports
    /// [`DiskGet::Corrupt`] — the degrade path re-encodes it.
    pub fn get(&mut self, key: &ModuleKey) -> DiskGet {
        let Some(entry) = self.index.get(key).cloned() else {
            return DiskGet::Missing;
        };
        let payload = (|| -> io::Result<Vec<u8>> {
            let mut f = File::open(segment_path(&self.config.dir, entry.segment))?;
            let payload_at =
                entry.record_offset + u64::from(entry.record_len) - u64::from(entry.payload_len);
            f.seek(SeekFrom::Start(payload_at))?;
            let mut payload = vec![0u8; entry.payload_len as usize];
            f.read_exact(&mut payload)?;
            Ok(payload)
        })();
        let decoded = payload.ok().and_then(|payload| {
            let key_bytes = encode_key(key);
            if checksum_bytes(&[&key_bytes, &payload]) != entry.checksum {
                return None;
            }
            let encoding = ColdEncoding::from_byte(entry.encoding)?;
            decode_payload(&payload, encoding).ok()
        });
        match decoded {
            Some(cache) => DiskGet::Module(Box::new(cache), entry.cost),
            None => {
                // Poisoned: drop it so the re-encoded replacement (the
                // engine self-heals via insert → later demote) wins.
                self.index.remove(key);
                let _ = self.forget(&entry);
                self.dirty = true;
                DiskGet::Corrupt
            }
        }
    }

    /// Deletes `key` (appends a tombstone). Returns whether it was live.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the tombstone append.
    pub fn remove(&mut self, key: &ModuleKey) -> io::Result<bool> {
        let Some(old) = self.index.remove(key) else {
            return Ok(false);
        };
        let mut record = Vec::new();
        write_record(&mut record, &encode_key(key), &[], TOMBSTONE, 0.0);
        self.append(&record)?;
        self.forget(&old)?;
        self.dirty = true;
        Ok(true)
    }

    /// Whether `key` has a live disk record.
    pub fn contains(&self, key: &ModuleKey) -> bool {
        self.index.contains_key(key)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the tier holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Bytes of live records across all segments (the capacity metric;
    /// dead superseded bytes exist until their segment is reclaimed).
    pub fn live_bytes(&self) -> usize {
        self.segments.values().map(|s| s.live as usize).sum()
    }

    /// Total bytes of all segment files, dead records included.
    pub fn file_bytes(&self) -> usize {
        self.segments.values().map(|s| s.len as usize).sum()
    }

    /// Every live key.
    pub fn keys(&self) -> Vec<ModuleKey> {
        self.index.keys().cloned().collect()
    }

    /// Live entries with payload size, cost, and encoding — the
    /// `/debug/cache` disk rows.
    pub fn entries(&self) -> Vec<DiskEntryInfo> {
        self.index
            .iter()
            .map(|(key, e)| DiskEntryInfo {
                key: key.clone(),
                payload_bytes: e.payload_len as usize,
                cost: e.cost,
                encoding: ColdEncoding::from_byte(e.encoding)
                    .map_or("unknown", ColdEncoding::label),
            })
            .collect()
    }

    /// Writes the `INDEX` file atomically (tmp + rename) if the in-memory
    /// index has changed since the last flush.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the tier stays dirty and usable.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        self.active_file.flush()?;
        let mut buf = BytesMut::new();
        buf.put_slice(INDEX_MAGIC);
        buf.put_u32_le(INDEX_VERSION);
        buf.put_u32_le(self.index.len() as u32);
        for (key, e) in &self.index {
            let key_bytes = encode_key(key);
            buf.put_u32_le(key_bytes.len() as u32);
            buf.put_slice(&key_bytes);
            buf.put_u32_le(e.segment);
            buf.put_u64_le(e.record_offset);
            buf.put_u32_le(e.record_len);
            buf.put_u32_le(e.payload_len);
            buf.put_u8(e.encoding);
            buf.put_slice(&[0u8; 3]);
            buf.put_u64_le(e.checksum);
            buf.put_f64_le(e.cost);
            buf.put_u64_le(e.seq);
        }
        buf.put_u32_le(self.segments.len() as u32);
        for (&id, state) in &self.segments {
            buf.put_u32_le(id);
            buf.put_u64_le(state.len);
        }
        let checksum = checksum_bytes(&[&buf]);
        buf.put_u64_le(checksum);
        let tmp = self.config.dir.join("INDEX.tmp");
        fs::write(&tmp, &buf)?;
        fs::rename(&tmp, self.config.dir.join("INDEX"))?;
        self.dirty = false;
        Ok(())
    }

    /// Flips one bit of `key`'s stored payload **in the segment file,
    /// without touching the record checksum** — the disk-tier corruption
    /// primitive for fault injection (`pc-faults`). Returns `false` for
    /// unknown keys.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn corrupt_record(&mut self, key: &ModuleKey) -> io::Result<bool> {
        let Some(entry) = self.index.get(key) else {
            return Ok(false);
        };
        // Make sure buffered appends are visible to the read-modify-write.
        self.active_file.flush()?;
        let path = segment_path(&self.config.dir, entry.segment);
        let mut f = OpenOptions::new().read(true).write(true).open(path)?;
        let payload_at =
            entry.record_offset + u64::from(entry.record_len) - u64::from(entry.payload_len);
        // Flip a bit late in the payload: quantized payloads start with
        // exact positions, and damage must land in element data too.
        let at = payload_at + u64::from(entry.payload_len) - 1;
        f.seek(SeekFrom::Start(at))?;
        let mut b = [0u8; 1];
        f.read_exact(&mut b)?;
        b[0] ^= 1;
        f.seek(SeekFrom::Start(at))?;
        f.write_all(&b)?;
        Ok(true)
    }
}

fn checked_u32(buf: &mut &[u8]) -> Option<u32> {
    (buf.remaining() >= 4).then(|| buf.get_u32_le())
}

impl Drop for DiskTier {
    /// Best-effort index flush — recovery copes if it doesn't land.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(tokens: usize, seed: f32) -> KvCache {
        let mut c = KvCache::with_shape(2, 4);
        for t in 0..tokens {
            for l in 0..2 {
                let base = seed + t as f32 * 0.37 + l as f32 * 1.1;
                let k: Vec<f32> = (0..4).map(|i| (base + i as f32).sin() * 3.0).collect();
                let v: Vec<f32> = (0..4).map(|i| (base - i as f32).cos() * 0.5).collect();
                c.push_token_layer(l, &k, &v);
            }
            c.push_position(t);
        }
        c
    }

    fn key(name: &str) -> ModuleKey {
        ModuleKey::new("s", &[name.to_owned()])
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pc-disk-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn get_module(tier: &mut DiskTier, k: &ModuleKey) -> KvCache {
        match tier.get(k) {
            DiskGet::Module(m, _) => *m,
            other => panic!("expected module, got {other:?}"),
        }
    }

    #[test]
    fn put_get_round_trip_is_exact_for_f32() {
        let dir = temp_dir("roundtrip");
        let mut tier = DiskTier::open(DiskConfig::new(&dir)).unwrap();
        let m = module(5, 0.3);
        tier.put(&key("a"), &m, 2.0).unwrap();
        assert_eq!(get_module(&mut tier, &key("a")), m);
        assert!(matches!(tier.get(&key("zzz")), DiskGet::Missing));
        assert_eq!(tier.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_adopts_fresh_index() {
        let dir = temp_dir("reopen");
        let m = module(4, 1.0);
        {
            let mut tier = DiskTier::open(DiskConfig::new(&dir)).unwrap();
            tier.put(&key("a"), &m, 1.0).unwrap();
            tier.put(&key("b"), &module(2, 2.0), 1.0).unwrap();
            tier.flush().unwrap();
        }
        let mut tier = DiskTier::open(DiskConfig::new(&dir)).unwrap();
        assert_eq!(tier.len(), 2);
        assert_eq!(get_module(&mut tier, &key("a")), m);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_without_index_scans_segments() {
        let dir = temp_dir("noindex");
        let m = module(4, 1.0);
        {
            let mut tier = DiskTier::open(DiskConfig::new(&dir)).unwrap();
            tier.put(&key("a"), &m, 1.0).unwrap();
            tier.put(&key("a"), &module(6, 5.0), 1.5).unwrap(); // supersede
            tier.put(&key("dead"), &module(1, 0.0), 1.0).unwrap();
            tier.remove(&key("dead")).unwrap();
            tier.flush().unwrap();
        }
        fs::remove_file(dir.join("INDEX")).unwrap();
        let mut tier = DiskTier::open(DiskConfig::new(&dir)).unwrap();
        assert_eq!(tier.len(), 1, "later record wins, tombstone deletes");
        assert_eq!(get_module(&mut tier, &key("a")), module(6, 5.0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_index_triggers_rescan() {
        let dir = temp_dir("stale");
        {
            let mut tier = DiskTier::open(DiskConfig::new(&dir)).unwrap();
            tier.put(&key("a"), &module(2, 1.0), 1.0).unwrap();
            tier.flush().unwrap();
            // Write after the flush: the index is now stale.
            tier.put(&key("b"), &module(3, 2.0), 1.0).unwrap();
            std::mem::forget(tier); // simulate a crash: Drop's flush never runs
        }
        let mut tier = DiskTier::open(DiskConfig::new(&dir)).unwrap();
        assert_eq!(tier.len(), 2, "rescan found the post-flush record");
        assert_eq!(get_module(&mut tier, &key("b")), module(3, 2.0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = temp_dir("torn");
        let m = module(4, 1.0);
        {
            let mut tier = DiskTier::open(DiskConfig::new(&dir)).unwrap();
            tier.put(&key("a"), &m, 1.0).unwrap();
            tier.put(&key("b"), &module(3, 2.0), 1.0).unwrap();
            tier.flush().unwrap();
        }
        // Simulate a crash mid-append: cut the last record short.
        let seg = segment_path(&dir, 0);
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 7)
            .unwrap();
        let mut tier = DiskTier::open(DiskConfig::new(&dir)).unwrap();
        assert_eq!(tier.len(), 1, "torn record dropped, prefix kept");
        assert_eq!(get_module(&mut tier, &key("a")), m);
        assert!(matches!(tier.get(&key("b")), DiskGet::Missing));
        assert_eq!(
            fs::metadata(&seg).unwrap().len() as usize,
            tier.file_bytes(),
            "file physically truncated at the tear"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_payload_is_detected_and_dropped_on_get() {
        let dir = temp_dir("corrupt");
        let mut tier = DiskTier::open(DiskConfig::new(&dir)).unwrap();
        tier.put(&key("a"), &module(4, 1.0), 1.0).unwrap();
        assert!(tier.corrupt_record(&key("a")).unwrap());
        assert!(matches!(tier.get(&key("a")), DiskGet::Corrupt));
        assert!(
            matches!(tier.get(&key("a")), DiskGet::Missing),
            "poisoned entry dropped"
        );
        assert!(!tier.corrupt_record(&key("a")).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quantized_encodings_round_trip_with_exact_positions() {
        for encoding in [ColdEncoding::Fp16, ColdEncoding::Int8] {
            let dir = temp_dir(encoding.label());
            let mut tier =
                DiskTier::open(DiskConfig::new(&dir).encoding(encoding)).unwrap();
            let m = module(6, 0.9);
            tier.put(&key("q"), &m, 1.0).unwrap();
            let back = get_module(&mut tier, &key("q"));
            assert_eq!(back.positions(), m.positions());
            assert_eq!(back.len(), m.len());
            for (a, b) in m.keys(0).iter().zip(back.keys(0)) {
                assert!((a - b).abs() < 0.05, "{a} vs {b}");
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn segments_roll_and_dead_ones_are_reclaimed() {
        let dir = temp_dir("roll");
        let record = {
            // Measure one record's size to pick a roll threshold that
            // forces a new segment per record.
            let mut buf = Vec::new();
            write_record(
                &mut buf,
                &encode_key(&key("x0")),
                &encode_payload(&module(4, 0.0), ColdEncoding::F32),
                0,
                1.0,
            );
            buf.len()
        };
        let mut tier = DiskTier::open(
            DiskConfig::new(&dir).max_segment_bytes(record + SEGMENT_HEADER_LEN as usize),
        )
        .unwrap();
        for i in 0..4 {
            tier.put(&key(&format!("x{i}")), &module(4, i as f32), 1.0).unwrap();
        }
        assert!(tier.segments.len() >= 3, "rolled into multiple segments");
        // Supersede everything in the first segments; those files die.
        let before = tier.segments.len();
        for i in 0..4 {
            tier.put(&key(&format!("x{i}")), &module(4, 10.0 + i as f32), 1.0).unwrap();
        }
        assert!(tier.segments.len() <= before, "dead segments reclaimed");
        assert_eq!(tier.len(), 4);
        for i in 0..4 {
            assert_eq!(
                get_module(&mut tier, &key(&format!("x{i}"))),
                module(4, 10.0 + i as f32)
            );
        }
        // Every remaining segment file exists on disk.
        for &id in tier.segments.keys() {
            assert!(segment_path(&dir, id).exists());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn capacity_evicts_oldest_entries() {
        let dir = temp_dir("cap");
        let one_record = {
            let mut buf = Vec::new();
            write_record(
                &mut buf,
                &encode_key(&key("a")),
                &encode_payload(&module(4, 0.0), ColdEncoding::F32),
                0,
                1.0,
            );
            buf.len()
        };
        let mut tier = DiskTier::open(
            DiskConfig::new(&dir).capacity_bytes(2 * one_record + one_record / 2),
        )
        .unwrap();
        tier.put(&key("a"), &module(4, 0.0), 1.0).unwrap();
        tier.put(&key("b"), &module(4, 1.0), 1.0).unwrap();
        tier.put(&key("c"), &module(4, 2.0), 1.0).unwrap();
        assert_eq!(tier.len(), 2);
        assert!(!tier.contains(&key("a")), "oldest evicted first");
        assert!(tier.contains(&key("b")) && tier.contains(&key("c")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_index_falls_back_to_scan() {
        let dir = temp_dir("badindex");
        {
            let mut tier = DiskTier::open(DiskConfig::new(&dir)).unwrap();
            tier.put(&key("a"), &module(3, 1.0), 1.0).unwrap();
            tier.flush().unwrap();
        }
        // Flip a byte inside the INDEX payload: its checksum now fails.
        let idx = dir.join("INDEX");
        let mut bytes = fs::read(&idx).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&idx, &bytes).unwrap();
        let mut tier = DiskTier::open(DiskConfig::new(&dir)).unwrap();
        assert_eq!(tier.len(), 1, "scan recovered the entry");
        assert_eq!(get_module(&mut tier, &key("a")), module(3, 1.0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_report_encoding_and_size() {
        let dir = temp_dir("entries");
        let mut tier =
            DiskTier::open(DiskConfig::new(&dir).encoding(ColdEncoding::Int8)).unwrap();
        tier.put(&key("a"), &module(4, 1.0), 3.0).unwrap();
        let rows = tier.entries();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key, key("a"));
        assert_eq!(rows[0].encoding, "int8");
        assert_eq!(rows[0].cost, 3.0);
        assert!(rows[0].payload_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_opens_clean() {
        let dir = temp_dir("empty");
        let tier = DiskTier::open(DiskConfig::new(&dir)).unwrap();
        assert!(tier.is_empty());
        assert_eq!(tier.live_bytes(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
