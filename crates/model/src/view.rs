//! Segmented, zero-copy views over shared KV caches.
//!
//! A [`KvView`] is the serving-path replacement for a per-request flat
//! [`KvCache`]: an ordered list of `Arc`-shared **immutable segments**
//! (module blocks handed out by the store, paper §3.4) followed by one
//! private mutable **tail** that owns everything computed for this request
//! — filled parameters, uncached prompt text, and decoded tokens. The
//! attention kernel consumes the segments in place via
//! [`KvSeq::layer_segments_into`], so assembling a session cache from cached
//! modules is pure pointer arithmetic: no KV bytes are copied and N
//! concurrent sessions of one schema share a single physical copy of each
//! module.
//!
//! [`KvSeq`] abstracts the cache shape the transformer needs ([`Model`]
//! methods are generic over it), with two implementations: [`KvCache`]
//! (one contiguous segment) and [`KvView`]. Both drive the exact same
//! segmented kernel, which is why segmentation is invisible in the output
//! bits.
//!
//! [`Model`]: crate::Model

use crate::{KvCache, ModelError, Result};
use std::collections::HashSet;
use std::sync::Arc;

/// The cache interface the transformer forward pass needs: append-only
/// growth (positions + per-layer k/v rows) and read access to the cached
/// rows as an ordered list of contiguous physical segments.
///
/// Causality and position handling are unchanged from the flat cache:
/// cache *order* defines visibility, the position ids carry the layout.
pub trait KvSeq {
    /// Number of cached tokens (logical length).
    fn len(&self) -> usize;

    /// Whether no tokens are cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of layers.
    fn num_layers(&self) -> usize;

    /// Width of one token's key (or value) row.
    fn kv_dim(&self) -> usize;

    /// Position ids of all cached tokens, in cache order.
    fn positions(&self) -> &[usize];

    /// Records the position id of the token whose rows were just pushed.
    fn push_position(&mut self, pos: usize);

    /// Appends one token's k/v rows for layer `layer` (into the mutable
    /// tail for views).
    fn push_token_layer(&mut self, layer: usize, k_row: &[f32], v_row: &[f32]);

    /// Appends the layer's cached rows to `out` as ordered
    /// `(keys, values, position_shift)` segments whose concatenation is
    /// the logical `[len × kv_dim]` buffer — the form the forward pass and
    /// the batched decode step read, refilling one list per layer. A
    /// non-zero shift marks a deferred-RoPE segment: its key rows are
    /// stored rotated at canonical (normalised) positions and the
    /// attention kernel scores them against the query rotated by
    /// `R(−shift)`. Value rows are position-free and never shift.
    fn layer_segments_into<'s>(&'s self, layer: usize, out: &mut Vec<(&'s [f32], &'s [f32], isize)>);

    /// [`KvSeq::layer_segments_into`] into a fresh list.
    fn layer_segments(&self, layer: usize) -> Vec<(&[f32], &[f32], isize)> {
        let mut segs = Vec::new();
        self.layer_segments_into(layer, &mut segs);
        segs
    }

    /// Pointer identity of shared (frozen) segment `i`, or `None` past the
    /// last shared segment. Flat caches own all their rows, so they report
    /// no shared segments. The batched scheduler uses this to detect
    /// physical cross-sequence sharing without touching KV bytes.
    fn shared_segment_id(&self, i: usize) -> Option<SegmentId> {
        let _ = i;
        None
    }
}

impl KvSeq for KvCache {
    fn len(&self) -> usize {
        KvCache::len(self)
    }

    fn num_layers(&self) -> usize {
        KvCache::num_layers(self)
    }

    fn kv_dim(&self) -> usize {
        KvCache::kv_dim(self)
    }

    fn positions(&self) -> &[usize] {
        KvCache::positions(self)
    }

    fn push_position(&mut self, pos: usize) {
        KvCache::push_position(self, pos);
    }

    fn push_token_layer(&mut self, layer: usize, k_row: &[f32], v_row: &[f32]) {
        KvCache::push_token_layer(self, layer, k_row, v_row);
    }

    fn layer_segments_into<'s>(&'s self, layer: usize, out: &mut Vec<(&'s [f32], &'s [f32], isize)>) {
        out.push((self.keys(layer), self.values(layer), 0));
    }
}

/// Pointer identity of one shared, immutable KV segment: the backing
/// cache's allocation address plus the aliased row window. Two segments
/// with equal `SegmentId`s read exactly the same physical rows, so
/// equality here is the "free via `Arc::ptr_eq`" sharing test the
/// prefix-aware batched kernel groups on — content is never inspected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentId {
    ptr: usize,
    start: usize,
    end: usize,
    /// Deferred-RoPE placement shift. Two windows over the same physical
    /// rows placed at different offsets read *different* effective keys,
    /// so the shift is part of the identity the batched kernel groups on.
    shift: isize,
}

impl SegmentId {
    /// Number of token rows the identified segment contributes.
    pub fn rows(&self) -> usize {
        self.end - self.start
    }
}

impl KvSegment {
    /// The segment's pointer identity (see [`SegmentId`]).
    pub fn id(&self) -> SegmentId {
        SegmentId {
            ptr: Arc::as_ptr(&self.cache) as usize,
            start: self.start,
            end: self.end,
            shift: self.shift,
        }
    }
}

/// One shared, immutable run of token rows: the range `start..end` of an
/// `Arc`-shared [`KvCache`] (typically a module block), placed at a
/// position shift relative to the rows' stored (canonical) positions.
/// Cloning a segment clones the `Arc`, never the states.
#[derive(Debug, Clone)]
pub struct KvSegment {
    cache: Arc<KvCache>,
    start: usize,
    end: usize,
    shift: isize,
}

impl KvSegment {
    /// The shared backing cache.
    pub fn cache(&self) -> &Arc<KvCache> {
        &self.cache
    }

    /// First backing row of this segment.
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the last backing row of this segment.
    pub fn end(&self) -> usize {
        self.end
    }

    /// Number of token rows this segment contributes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the segment contributes no rows.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Placement shift: placed position = stored position + shift. Zero
    /// for segments baked at their placed positions; non-zero for
    /// deferred-RoPE segments, whose keys the kernel scores against a
    /// query rotated by `R(−shift)`.
    pub fn shift(&self) -> isize {
        self.shift
    }
}

/// A session KV cache assembled without copying: shared immutable
/// segments up front, one private mutable tail behind them.
///
/// Ownership rules: segments are frozen the moment they are pushed (they
/// alias store-owned module blocks), and every row appended afterwards —
/// filled parameters at gap positions, uncached prompt text, decoded
/// tokens — lands in the tail, which this view exclusively owns. Segments
/// can only be pushed while the tail is empty, so the shared prefix /
/// private tail split is an invariant, not a convention.
#[derive(Debug, Clone)]
pub struct KvView {
    segments: Vec<KvSegment>,
    seg_rows: usize,
    tail: KvCache,
    /// Flat positions across segments + tail, kept locally so position
    /// lookup (ALiBi, decode start) needs no segment walk.
    positions: Vec<usize>,
}

impl KvView {
    /// An empty view with explicit layer count and kv width.
    pub fn with_shape(num_layers: usize, kv_dim: usize) -> Self {
        KvView {
            segments: Vec::new(),
            seg_rows: 0,
            tail: KvCache::with_shape(num_layers, kv_dim),
            positions: Vec::new(),
        }
    }

    /// Wraps an owned cache as a view with no shared segments — the whole
    /// cache becomes the private tail.
    pub fn from_cache(cache: KvCache) -> Self {
        KvView {
            segments: Vec::new(),
            seg_rows: 0,
            positions: cache.positions().to_vec(),
            tail: cache,
        }
    }

    /// Shares the row range `start..end` of `cache` as the next segment —
    /// O(1) in KV bytes. Empty ranges are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CacheShapeMismatch`] for incompatible shapes,
    /// an invalid range, or when the tail already holds rows (shared
    /// segments must precede all private rows).
    pub fn push_segment(&mut self, cache: Arc<KvCache>, start: usize, end: usize) -> Result<()> {
        self.push_segment_shifted(cache, start, end, 0)
    }

    /// Shares the row range `start..end` of `cache` as the next segment,
    /// placed `shift` positions away from where its rows were encoded —
    /// the deferred-RoPE read path. The view's flat position list carries
    /// the *placed* positions (stored + shift), so ALiBi bias, decode
    /// start, and causality all see the placement layout; the stored key
    /// bytes stay canonical and the attention kernel rotates the query by
    /// `R(−shift)` to score them. O(1) in KV bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CacheShapeMismatch`] for incompatible shapes,
    /// an invalid range, a shift that would place any row at a negative
    /// position, or when the tail already holds rows.
    pub fn push_segment_shifted(
        &mut self,
        cache: Arc<KvCache>,
        start: usize,
        end: usize,
        shift: isize,
    ) -> Result<()> {
        if cache.num_layers() != self.tail.num_layers() || cache.kv_dim() != self.tail.kv_dim() {
            return Err(ModelError::CacheShapeMismatch {
                detail: format!(
                    "segment {} layers × kv_dim {} vs view {} layers × kv_dim {}",
                    cache.num_layers(),
                    cache.kv_dim(),
                    self.tail.num_layers(),
                    self.tail.kv_dim()
                ),
            });
        }
        if start > end || end > cache.len() {
            return Err(ModelError::CacheShapeMismatch {
                detail: format!(
                    "segment range {start}..{end} invalid for length {}",
                    cache.len()
                ),
            });
        }
        if !self.tail.is_empty() {
            return Err(ModelError::CacheShapeMismatch {
                detail: format!(
                    "cannot share a segment behind {} private tail rows",
                    self.tail.len()
                ),
            });
        }
        if start == end {
            return Ok(());
        }
        if shift < 0 {
            if let Some(&p) = cache.positions()[start..end].iter().find(|&&p| (p as isize) + shift < 0) {
                return Err(ModelError::CacheShapeMismatch {
                    detail: format!("shift {shift} places stored position {p} below zero"),
                });
            }
        }
        self.positions
            .extend(cache.positions()[start..end].iter().map(|&p| (p as isize + shift) as usize));
        self.seg_rows += end - start;
        self.segments.push(KvSegment { cache, start, end, shift });
        Ok(())
    }

    /// Shares an entire cache as the next segment (see
    /// [`KvView::push_segment`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`KvView::push_segment`].
    pub fn push_cache(&mut self, cache: Arc<KvCache>) -> Result<()> {
        let end = cache.len();
        self.push_segment(cache, 0, end)
    }

    /// The shared segments, in cache order.
    pub fn segments(&self) -> &[KvSegment] {
        &self.segments
    }

    /// The private tail (read-only).
    pub fn tail(&self) -> &KvCache {
        &self.tail
    }

    /// Number of rows aliased from shared segments.
    pub fn shared_rows(&self) -> usize {
        self.seg_rows
    }

    /// Bytes aliased from shared segments (not owned by this view).
    pub fn shared_bytes(&self) -> usize {
        self.tail.bytes_for_rows(self.seg_rows)
    }

    /// Bytes the full logical cache would occupy if it were flat.
    pub fn logical_bytes(&self) -> usize {
        self.tail.bytes_for_rows(self.len())
    }

    /// Removes trailing tokens, keeping the first `len`. Tail rows are
    /// dropped first; if the cut reaches into the shared prefix, segment
    /// ranges shrink (the backing caches are untouched — only this view's
    /// aliasing narrows).
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        if len >= self.seg_rows {
            self.tail.truncate(len - self.seg_rows);
        } else {
            self.tail.truncate(0);
            let mut keep = len;
            self.segments.retain_mut(|seg| {
                let take = seg.len().min(keep);
                seg.end = seg.start + take;
                keep -= take;
                take > 0
            });
            self.seg_rows = len;
        }
        self.positions.truncate(len);
    }

    /// Copies segments + tail into one owned contiguous [`KvCache`] — the
    /// escape hatch for persistence, codecs, and any consumer that needs
    /// flat buffers. The hot serve path never calls this. Shifted
    /// (deferred-RoPE) segments copy their raw, canonical backing rows
    /// with placed positions — the form the attention tile reads them in.
    pub fn materialize(&self) -> KvCache {
        let mut flat = KvCache::with_shape(self.tail.num_layers(), self.tail.kv_dim());
        let d = self.tail.kv_dim();
        for seg in &self.segments {
            if seg.shift == 0 {
                flat.append_range(&seg.cache, seg.start, seg.end)
                    .expect("segment shape was validated at push");
                continue;
            }
            for row in seg.start..seg.end {
                for layer in 0..flat.num_layers() {
                    let rows = row * d..(row + 1) * d;
                    flat.push_token_layer(layer, &seg.cache.keys(layer)[rows.clone()], &seg.cache.values(layer)[rows]);
                }
                flat.push_position((seg.cache.positions()[row] as isize + seg.shift) as usize);
            }
        }
        flat.append(&self.tail).expect("tail shares the view's shape");
        flat
    }
}

impl KvSeq for KvView {
    fn len(&self) -> usize {
        self.positions.len()
    }

    fn num_layers(&self) -> usize {
        self.tail.num_layers()
    }

    fn kv_dim(&self) -> usize {
        self.tail.kv_dim()
    }

    fn positions(&self) -> &[usize] {
        &self.positions
    }

    fn push_position(&mut self, pos: usize) {
        self.tail.push_position(pos);
        self.positions.push(pos);
    }

    fn push_token_layer(&mut self, layer: usize, k_row: &[f32], v_row: &[f32]) {
        self.tail.push_token_layer(layer, k_row, v_row);
    }

    fn layer_segments_into<'s>(&'s self, layer: usize, out: &mut Vec<(&'s [f32], &'s [f32], isize)>) {
        let d = self.tail.kv_dim();
        out.reserve(self.segments.len() + 1);
        for seg in &self.segments {
            out.push((
                &seg.cache.keys(layer)[seg.start * d..seg.end * d],
                &seg.cache.values(layer)[seg.start * d..seg.end * d],
                seg.shift,
            ));
        }
        out.push((self.tail.keys(layer), self.tail.values(layer), 0));
    }

    fn shared_segment_id(&self, i: usize) -> Option<SegmentId> {
        self.segments.get(i).map(KvSegment::id)
    }
}

/// The longest leading run of segments shared — same backing `Arc`
/// allocation, same row window — by **every** view in the set. Returns
/// `(segments, rows)`. Sharing is pointer identity ([`Arc::ptr_eq`] plus
/// equal windows), never content comparison, so two content-equal caches
/// encoded separately do not count as shared. A single view trivially
/// shares its whole segment list with itself; an empty set shares
/// nothing.
pub fn shared_prefix(views: &[&KvView]) -> (usize, usize) {
    let Some(first) = views.first() else {
        return (0, 0);
    };
    let mut segs = 0usize;
    let mut rows = 0usize;
    'prefix: for (i, seg) in first.segments.iter().enumerate() {
        for other in &views[1..] {
            match other.segments.get(i) {
                Some(o)
                    if Arc::ptr_eq(&o.cache, &seg.cache)
                        && o.start == seg.start
                        && o.end == seg.end => {}
                _ => break 'prefix,
            }
        }
        segs += 1;
        rows += seg.len();
    }
    (segs, rows)
}

/// One contiguous run of batch rows whose caches share a leading run of
/// pointer-identical segments — the unit the prefix-aware batched
/// attention kernel tiles: its members are the lanes that read the shared
/// K/V rows together. Runs are contiguous by construction (the scheduler
/// keeps same-prefix sequences adjacent), which lets the kernel split its
/// output per group with no row scatter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixGroup {
    /// First batch row of the run.
    pub start: usize,
    /// Number of sequences in the run.
    pub len: usize,
    /// Leading segments every member shares (pointer-equal).
    pub prefix_segments: usize,
    /// Token rows those segments contribute.
    pub prefix_rows: usize,
}

impl PrefixGroup {
    /// Whether the group actually shares KV rows worth hoisting: at least
    /// two members over a non-empty common prefix.
    pub fn is_shared(&self) -> bool {
        self.len >= 2 && self.prefix_rows > 0
    }
}

/// Partitions batch rows `0..n` into maximal **adjacent** runs that share
/// a leading segment, then shrinks each run's prefix to the longest
/// pointer-equal segment run common to all members. `seg_id(row, i)`
/// reports row `row`'s `i`-th shared segment (see
/// [`KvSeq::shared_segment_id`]). Rows with no shared segments — flat
/// caches, views with only private tails — become singleton groups with
/// an empty prefix. Deterministic: depends only on batch order and
/// segment identity, never on timing.
pub fn group_adjacent_prefixes(
    n: usize,
    seg_id: impl Fn(usize, usize) -> Option<SegmentId>,
    out: &mut Vec<PrefixGroup>,
) {
    out.clear();
    let mut start = 0usize;
    while start < n {
        let lead = seg_id(start, 0);
        let mut len = 1usize;
        if lead.is_some() {
            while start + len < n && seg_id(start + len, 0) == lead {
                len += 1;
            }
        }
        let (mut prefix_segments, mut prefix_rows) = (0usize, 0usize);
        if len >= 2 {
            // Extend past the grouping segment to the full common run.
            'deepen: while let Some(id) = seg_id(start, prefix_segments) {
                for member in start + 1..start + len {
                    if seg_id(member, prefix_segments) != Some(id) {
                        break 'deepen;
                    }
                }
                prefix_segments += 1;
                prefix_rows += id.rows();
            }
        }
        out.push(PrefixGroup {
            start,
            len,
            prefix_segments,
            prefix_rows,
        });
        start += len;
    }
}

/// Physical KV bytes behind a set of views: each distinct backing cache
/// is counted once at its full allocated size (however many views alias
/// it, and however small their windows), plus every view's private tail.
/// This is the number that stays flat as same-schema sessions multiply.
pub fn physical_bytes<'a, I>(views: I) -> usize
where
    I: IntoIterator<Item = &'a KvView>,
{
    let mut seen: HashSet<*const KvCache> = HashSet::new();
    let mut bytes = 0usize;
    for view in views {
        for seg in &view.segments {
            if seen.insert(Arc::as_ptr(seg.cache())) {
                bytes += seg.cache().size_bytes();
            }
        }
        bytes += view.tail.size_bytes();
    }
    bytes
}

/// Logical KV bytes across a set of views: what the same sessions would
/// occupy with flat per-session caches. The gap to [`physical_bytes`] is
/// exactly the sharing win.
pub fn logical_bytes<'a, I>(views: I) -> usize
where
    I: IntoIterator<Item = &'a KvView>,
{
    views.into_iter().map(KvView::logical_bytes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_with(tokens: &[(usize, f32)]) -> KvCache {
        let mut c = KvCache::with_shape(2, 3);
        for &(pos, val) in tokens {
            for layer in 0..2 {
                let row = [val + layer as f32 * 100.0; 3];
                c.push_token_layer(layer, &row, &row.map(|x| -x));
            }
            c.push_position(pos);
        }
        c
    }

    #[test]
    fn push_segment_aliases_without_copy() {
        let block = Arc::new(cache_with(&[(0, 1.0), (1, 2.0), (2, 3.0)]));
        let mut view = KvView::with_shape(2, 3);
        view.push_segment(Arc::clone(&block), 1, 3).unwrap();
        assert_eq!(view.len(), 2);
        assert_eq!(view.positions(), &[1, 2]);
        assert_eq!(view.shared_rows(), 2);
        assert!(Arc::ptr_eq(view.segments()[0].cache(), &block));
        let segs = view.layer_segments(0);
        // Two segments: the shared window plus the (empty) tail.
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].0, &block.keys(0)[3..9]);
        assert!(segs[1].0.is_empty());
    }

    #[test]
    fn segment_after_tail_rows_rejected() {
        let block = Arc::new(cache_with(&[(0, 1.0)]));
        let mut view = KvView::with_shape(2, 3);
        view.push_token_layer(0, &[9.0; 3], &[9.0; 3]);
        view.push_token_layer(1, &[9.0; 3], &[9.0; 3]);
        view.push_position(7);
        assert!(view.push_cache(block).is_err());
    }

    #[test]
    fn shape_and_range_validation() {
        let mut view = KvView::with_shape(2, 3);
        let wrong_layers = Arc::new(cache_with(&[(0, 1.0)]).slice(0, 1).unwrap());
        assert!(view.push_segment(Arc::new(KvCache::with_shape(3, 3)), 0, 0).is_err());
        assert!(view.push_segment(Arc::new(KvCache::with_shape(2, 4)), 0, 0).is_err());
        assert!(view.push_segment(Arc::clone(&wrong_layers), 0, 2).is_err());
        assert!(view.push_segment(wrong_layers, 1, 0).is_err());
    }

    #[test]
    fn materialize_equals_copy_assembly() {
        let a = Arc::new(cache_with(&[(0, 1.0), (1, 2.0)]));
        let b = Arc::new(cache_with(&[(5, 9.0), (6, 10.0), (7, 11.0)]));

        let mut view = KvView::with_shape(2, 3);
        view.push_cache(Arc::clone(&a)).unwrap();
        view.push_segment(Arc::clone(&b), 1, 3).unwrap();
        view.push_token_layer(0, &[4.0; 3], &[-4.0; 3]);
        view.push_token_layer(1, &[104.0; 3], &[-104.0; 3]);
        view.push_position(9);

        let mut flat = KvCache::with_shape(2, 3);
        flat.append(&a).unwrap();
        flat.append_range(&b, 1, 3).unwrap();
        flat.push_token_layer(0, &[4.0; 3], &[-4.0; 3]);
        flat.push_token_layer(1, &[104.0; 3], &[-104.0; 3]);
        flat.push_position(9);

        assert_eq!(view.materialize(), flat);
        assert_eq!(view.positions(), flat.positions());
        assert_eq!(view.len(), 5);
        assert_eq!(view.shared_rows(), 4);
    }

    #[test]
    fn materialize_copies_shifted_rows_raw_at_placed_positions() {
        let b = Arc::new(cache_with(&[(5, 9.0), (6, 10.0), (7, 11.0)]));
        let mut view = KvView::with_shape(2, 3);
        view.push_segment_shifted(Arc::clone(&b), 1, 3, -4).unwrap();
        let flat = view.materialize();
        assert_eq!(flat.positions(), &[2, 3]);
        for layer in 0..2 {
            assert_eq!(flat.keys(layer), &b.keys(layer)[3..9]);
            assert_eq!(flat.values(layer), &b.values(layer)[3..9]);
        }
    }

    #[test]
    fn truncate_shrinks_tail_then_segments() {
        let a = Arc::new(cache_with(&[(0, 1.0), (1, 2.0)]));
        let b = Arc::new(cache_with(&[(5, 9.0), (6, 10.0)]));
        let mut view = KvView::with_shape(2, 3);
        view.push_cache(Arc::clone(&a)).unwrap();
        view.push_cache(Arc::clone(&b)).unwrap();
        view.push_token_layer(0, &[4.0; 3], &[4.0; 3]);
        view.push_token_layer(1, &[4.0; 3], &[4.0; 3]);
        view.push_position(9);

        view.truncate(5); // drops the tail row only
        assert_eq!(view.len(), 5);
        assert_eq!(view.tail().len(), 1);
        view.truncate(3); // cuts into segment b
        assert_eq!(view.len(), 3);
        assert_eq!(view.tail().len(), 0);
        assert_eq!(view.shared_rows(), 3);
        assert_eq!(view.segments().len(), 2);
        assert_eq!(view.positions(), &[0, 1, 5]);
        view.truncate(0);
        assert!(view.is_empty());
        assert!(view.segments().is_empty());
        // Backing caches are untouched throughout.
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn physical_bytes_dedups_shared_blocks() {
        let block = Arc::new(cache_with(&[(0, 1.0), (1, 2.0), (2, 3.0)]));
        let views: Vec<KvView> = (0..4)
            .map(|i| {
                let mut v = KvView::with_shape(2, 3);
                v.push_cache(Arc::clone(&block)).unwrap();
                v.push_token_layer(0, &[i as f32; 3], &[0.0; 3]);
                v.push_token_layer(1, &[i as f32; 3], &[0.0; 3]);
                v.push_position(10 + i);
                v
            })
            .collect();
        let one_tail = views[0].tail().size_bytes();
        assert_eq!(
            physical_bytes(&views),
            block.size_bytes() + 4 * one_tail
        );
        assert_eq!(logical_bytes(&views), 4 * (block.size_bytes() + one_tail));
        // Physical stays flat as sessions grow; logical scales linearly.
        assert_eq!(
            physical_bytes(views.iter().take(2)),
            block.size_bytes() + 2 * one_tail
        );
    }

    #[test]
    fn from_cache_owns_everything() {
        let view = KvView::from_cache(cache_with(&[(0, 1.0), (1, 2.0)]));
        assert_eq!(view.len(), 2);
        assert_eq!(view.shared_rows(), 0);
        assert_eq!(view.positions(), &[0, 1]);
    }

    #[test]
    fn shared_prefix_is_pointer_identity_not_content() {
        let a = Arc::new(cache_with(&[(0, 1.0), (1, 2.0), (2, 3.0)]));
        let a_twin = Arc::new(cache_with(&[(0, 1.0), (1, 2.0), (2, 3.0)])); // equal bytes, distinct alloc
        let b = Arc::new(cache_with(&[(5, 9.0), (6, 10.0)]));

        let mut v1 = KvView::with_shape(2, 3);
        v1.push_cache(Arc::clone(&a)).unwrap();
        v1.push_cache(Arc::clone(&b)).unwrap();
        let mut v2 = KvView::with_shape(2, 3);
        v2.push_cache(Arc::clone(&a)).unwrap();
        v2.push_cache(Arc::clone(&b)).unwrap();
        let mut v3 = KvView::with_shape(2, 3);
        v3.push_cache(Arc::clone(&a)).unwrap();
        let mut v_twin = KvView::with_shape(2, 3);
        v_twin.push_cache(Arc::clone(&a_twin)).unwrap();

        // Full two-segment prefix shared; tails never count.
        v1.push_token_layer(0, &[4.0; 3], &[4.0; 3]);
        v1.push_token_layer(1, &[4.0; 3], &[4.0; 3]);
        v1.push_position(9);
        assert_eq!(shared_prefix(&[&v1, &v2]), (2, 5));
        // v3 stops after one segment; the run shrinks to it.
        assert_eq!(shared_prefix(&[&v1, &v2, &v3]), (1, 3));
        // Content-equal but pointer-distinct caches do not share.
        assert_eq!(shared_prefix(&[&v3, &v_twin]), (0, 0));
        // A singleton shares its whole segment list with itself.
        assert_eq!(shared_prefix(&[&v1]), (2, 5));
        assert_eq!(shared_prefix(&[]), (0, 0));
    }

    #[test]
    fn shared_prefix_requires_matching_windows() {
        let a = Arc::new(cache_with(&[(0, 1.0), (1, 2.0), (2, 3.0)]));
        let mut whole = KvView::with_shape(2, 3);
        whole.push_cache(Arc::clone(&a)).unwrap();
        let mut window = KvView::with_shape(2, 3);
        window.push_segment(Arc::clone(&a), 1, 3).unwrap();
        // Same Arc, different row windows — not the same physical rows.
        assert_eq!(shared_prefix(&[&whole, &window]), (0, 0));
        let mut same_window = KvView::with_shape(2, 3);
        same_window.push_segment(Arc::clone(&a), 1, 3).unwrap();
        assert_eq!(shared_prefix(&[&window, &same_window]), (1, 2));
    }

    #[test]
    fn grouping_splits_adjacent_runs_and_deepens_prefixes() {
        let a = Arc::new(cache_with(&[(0, 1.0), (1, 2.0)]));
        let b = Arc::new(cache_with(&[(5, 9.0), (6, 10.0), (7, 11.0)]));
        let make = |blocks: &[&Arc<KvCache>]| {
            let mut v = KvView::with_shape(2, 3);
            for block in blocks {
                v.push_cache(Arc::clone(block)).unwrap();
            }
            v
        };
        // Batch order: [a+b, a+b, a, b, none, b] — adjacency decides runs.
        let views = [
            make(&[&a, &b]),
            make(&[&a, &b]),
            make(&[&a]),
            make(&[&b]),
            make(&[]),
            make(&[&b]),
        ];
        let mut groups = Vec::new();
        group_adjacent_prefixes(
            views.len(),
            |s, i| views[s].shared_segment_id(i),
            &mut groups,
        );
        assert_eq!(
            groups,
            vec![
                // Rows 0-2 all lead with `a`; only two also share `b`, so
                // the common run is the one-segment prefix.
                PrefixGroup { start: 0, len: 3, prefix_segments: 1, prefix_rows: 2 },
                PrefixGroup { start: 3, len: 1, prefix_segments: 0, prefix_rows: 0 },
                PrefixGroup { start: 4, len: 1, prefix_segments: 0, prefix_rows: 0 },
                // Row 4 (no segments) breaks adjacency between the `b` rows.
                PrefixGroup { start: 5, len: 1, prefix_segments: 0, prefix_rows: 0 },
            ]
        );
        assert!(groups[0].is_shared());
        assert!(!groups[1].is_shared());

        // The deep pair alone shares both segments.
        let mut pair = Vec::new();
        group_adjacent_prefixes(2, |s, i| views[s].shared_segment_id(i), &mut pair);
        assert_eq!(
            pair,
            vec![PrefixGroup { start: 0, len: 2, prefix_segments: 2, prefix_rows: 5 }]
        );
        assert_eq!(shared_prefix(&[&views[0], &views[1]]), (2, 5));

        // Flat caches report no shared segments → singletons.
        let mut flat = Vec::new();
        group_adjacent_prefixes(3, |_, _| None, &mut flat);
        assert_eq!(flat.len(), 3);
        assert!(flat.iter().all(|g| g.len == 1 && g.prefix_rows == 0));
    }
}
