//! Bit-exact wire codec: the ground truth behind every `size_bits`.
//!
//! The CONGEST model's defining constraint is `O(log n)`-bit messages,
//! but an accounting layer is only as honest as its byte counts. This
//! module replaces hand-maintained size constants with a real encoding:
//! every [`Message`](crate::Message) implements [`Wire`], and
//! `size_bits` is *derived* from the encoded length (a zero-allocation
//! counting pass over [`Wire::encode`]). Every executor goes further:
//! it routes every message through its bit frame at send and delivers
//! the decoded frame, proving the automata depend only on what is
//! actually on the wire. The bit I/O is branchless and word-at-a-time,
//! and the executors reuse [`CodecScratch`] buffers, so the round trip
//! costs no allocation per message.
//!
//! # Conventions
//!
//! * Fields are written LSB-first into a little-endian `u64` stream.
//! * A "word" is [`CONGEST_WORD_BITS`] = 48 bits — the repo-wide
//!   convention that node ids and edge weights are `u64` values below
//!   2^48. The [`BitWriter::word`] helper *asserts* that convention, so
//!   an out-of-range id can no longer be silently under-priced.
//! * Enum discriminants use fixed-width tags of [`tag_bits`]`(variants)`
//!   bits ([`BitWriter::tag`] / [`BitReader::tag`]).
//! * Frames are length-delimited (real links frame their payloads, and
//!   the simulator's packed metadata carries `size_bits` anyway), so a
//!   decoder may branch on [`BitReader::remaining`]. Enums whose widest
//!   variant cannot afford a tag (the MST pipeline's 3-word edge
//!   descriptor) use this to stay within their word budget. For
//!   length-based dispatch to compose, a message payload must always be
//!   the *tail* of any enclosing frame — the α/ARQ control frames keep
//!   that invariant.

use std::fmt;

use crate::sim::CONGEST_WORD_BITS;

/// Number of bits a fixed-width enum tag needs for `variants` variants:
/// `ceil(log2(variants))`, with 0 for single-variant types.
#[must_use]
pub const fn tag_bits(variants: u64) -> u32 {
    if variants <= 1 {
        0
    } else {
        64 - (variants - 1).leading_zeros()
    }
}

/// An encoded message: the exact bits that travel over a link.
///
/// Equality is bit-exact — two frames are equal iff they have the same
/// length and the same bit content.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireFrame {
    words: Vec<u64>,
    bits: u64,
}

impl WireFrame {
    /// Length of the frame in bits — by construction equal to the
    /// encoder's bit count, and therefore to `Message::size_bits`.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.bits
    }
}

/// Errors a [`Wire::decode`] implementation can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The decoder tried to read past the end of the frame.
    Overrun {
        /// Bit position at which the read started.
        at: u64,
        /// Width of the attempted read.
        want: u32,
        /// Total frame length in bits.
        len: u64,
    },
    /// A discriminant value matched no variant.
    BadTag {
        /// The type being decoded.
        context: &'static str,
        /// The offending tag value.
        value: u64,
    },
    /// A length-delimited enum saw a frame length matching no variant.
    BadLength {
        /// The type being decoded.
        context: &'static str,
        /// The offending remaining-length in bits.
        bits: u64,
    },
    /// Decoding finished with bits left unread — the encoding and the
    /// decoder disagree about the message layout.
    Leftover {
        /// Unread bits at the end of the frame.
        bits: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Overrun { at, want, len } => {
                write!(
                    f,
                    "read of {want} bits at bit {at} overruns {len}-bit frame"
                )
            }
            WireError::BadTag { context, value } => {
                write!(f, "{context}: tag value {value} matches no variant")
            }
            WireError::BadLength { context, bits } => {
                write!(f, "{context}: frame length {bits} matches no variant")
            }
            WireError::Leftover { bits } => {
                write!(f, "decode left {bits} bit(s) unread")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only bit stream used by [`Wire::encode`].
///
/// [`BitWriter::counter`] builds a writer that only counts — no
/// allocation, no stores — which is how `size_bits` is derived without
/// materialising a frame on every send.
///
/// The materialising writer accumulates into a single `u64` staging
/// word held in a register: each field is OR-ed in at the current bit
/// offset, the part that does not fit is computed branchlessly with a
/// shift pair (no shift-by-64, no per-bit loop), and the staging word
/// is flushed to the backing vector only when a field crosses the
/// 64-bit boundary. This is the per-send hot path: the engine
/// round-trips every message through this writer per send.
#[derive(Debug)]
pub struct BitWriter {
    words: Vec<u64>,
    /// Staging word holding the bits of the partially-filled tail word.
    acc: u64,
    bits: u64,
    counting: bool,
}

impl Default for BitWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl BitWriter {
    /// A writer that materialises the encoded frame.
    #[must_use]
    pub fn new() -> Self {
        BitWriter {
            words: Vec::new(),
            acc: 0,
            bits: 0,
            counting: false,
        }
    }

    /// A writer that only counts bits (the `size_bits` fast path).
    #[must_use]
    pub fn counter() -> Self {
        BitWriter {
            words: Vec::new(),
            acc: 0,
            bits: 0,
            counting: true,
        }
    }

    /// A materialising writer that reuses `buf` as its backing storage
    /// (cleared first), so repeated encodes allocate nothing once the
    /// buffer has grown to the working-set size. Recover the buffer
    /// with [`BitWriter::into_raw`].
    fn reuse(mut buf: Vec<u64>) -> Self {
        buf.clear();
        BitWriter {
            words: buf,
            acc: 0,
            bits: 0,
            counting: false,
        }
    }

    /// Bits written so far.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Appends the low `width` bits of `value` (`width ≤ 64`).
    ///
    /// # Panics
    ///
    /// Panics if `value` has bits above `width` — an encoding that
    /// silently truncates would be a lie about the message's size.
    #[inline]
    pub fn push(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "field width {width} exceeds 64 bits");
        assert!(
            width == 64 || value >> width == 0,
            "value {value:#x} does not fit in {width} bits"
        );
        if !self.counting {
            let off = (self.bits & 63) as u32;
            self.acc |= value << off;
            // the high part that misses the staging word; the shift pair
            // sidesteps the undefined shift-by-64 at off == 0
            let spill = (value >> (63 - off)) >> 1;
            if off + width >= 64 {
                self.words.push(self.acc);
                self.acc = spill;
            }
        }
        self.bits += u64::from(width);
    }

    /// Appends one CONGEST word ([`CONGEST_WORD_BITS`] bits), asserting
    /// the repo-wide id/weight convention `v < 2^48`.
    #[inline]
    pub fn word(&mut self, v: u64) {
        self.push(v, CONGEST_WORD_BITS as u32);
    }

    /// Appends a presence flag plus, if present, one CONGEST word.
    #[inline]
    pub fn opt_word(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.flag(true);
                self.word(x);
            }
            None => self.flag(false),
        }
    }

    /// Appends a single boolean bit.
    #[inline]
    pub fn flag(&mut self, b: bool) {
        self.push(u64::from(b), 1);
    }

    /// Appends a `u32` field.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.push(u64::from(v), 32);
    }

    /// Appends a presence flag plus, if present, a `u32` field.
    pub fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.flag(true);
                self.u32(x);
            }
            None => self.flag(false),
        }
    }

    /// Appends a `u16` field.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.push(u64::from(v), 16);
    }

    /// Appends a fixed-width enum tag: `idx` in [`tag_bits`]`(variants)`
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= variants`.
    #[inline]
    pub fn tag(&mut self, idx: u64, variants: u64) {
        assert!(
            idx < variants,
            "tag {idx} out of range for {variants} variants"
        );
        self.push(idx, tag_bits(variants));
    }

    /// Finishes the frame.
    ///
    /// # Panics
    ///
    /// Panics on a counting writer — it has no frame to yield.
    #[must_use]
    pub fn finish(self) -> WireFrame {
        assert!(!self.counting, "counting writers have no frame");
        let (words, bits) = self.into_raw();
        WireFrame { words, bits }
    }

    /// Flushes the partial staging word and returns the raw backing
    /// buffer plus the bit length — the zero-copy form of
    /// [`BitWriter::finish`] used by [`CodecScratch`] to keep the
    /// allocation alive across encodes. The buffer holds exactly
    /// `ceil(bits / 64)` words, identical to a [`WireFrame`]'s.
    fn into_raw(mut self) -> (Vec<u64>, u64) {
        if self.bits & 63 != 0 {
            self.words.push(self.acc);
        }
        (self.words, self.bits)
    }
}

/// Encodes `value` into `out` (cleared and reused), returning the bit
/// length. The zero-allocation form of [`Wire::to_frame`] for callers
/// that stream raw words — e.g. the socket transport's frame writer,
/// which serializes the word buffer straight to a stream instead of
/// holding a [`WireFrame`].
pub fn encode_to<T: Wire>(value: &T, out: &mut Vec<u64>) -> u64 {
    let mut w = BitWriter::reuse(std::mem::take(out));
    value.encode(&mut w);
    let (words, bits) = w.into_raw();
    *out = words;
    bits
}

/// Decodes a value from raw frame words, requiring the word count to
/// match `ceil(bits / 64)` and every bit to be consumed — the inverse
/// of [`encode_to`], for callers that received the words from a stream.
///
/// # Errors
///
/// [`WireError::BadLength`] when the word count does not match the
/// declared bit length, any decode error, or [`WireError::Leftover`]
/// when the frame is longer than the decoded value's encoding.
pub fn decode_from<T: Wire>(words: &[u64], bits: u64) -> Result<T, WireError> {
    if words.len() as u64 != bits.div_ceil(64) {
        return Err(WireError::BadLength {
            context: "frame word count",
            bits,
        });
    }
    let mut r = BitReader::from_raw(words, bits);
    let v = T::decode(&mut r)?;
    match r.remaining() {
        0 => Ok(v),
        bits => Err(WireError::Leftover { bits }),
    }
}

/// Cursor over an encoded frame, used by [`Wire::decode`].
#[derive(Debug)]
pub struct BitReader<'a> {
    words: &'a [u64],
    len: u64,
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// A reader positioned at the start of `frame`.
    #[must_use]
    pub fn new(frame: &'a WireFrame) -> Self {
        BitReader {
            words: &frame.words,
            len: frame.bits,
            pos: 0,
        }
    }

    /// A reader over a raw `(words, bits)` pair as produced by
    /// [`BitWriter::into_raw`], so [`CodecScratch`] can decode without
    /// materialising a [`WireFrame`].
    fn from_raw(words: &'a [u64], len: u64) -> Self {
        debug_assert!(len.div_ceil(64) <= words.len() as u64);
        BitReader { words, len, pos: 0 }
    }

    /// Bits left unread. Frames are length-delimited, so decoders may
    /// dispatch on this (see the module docs).
    #[must_use]
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.len - self.pos
    }

    /// Reads the next `width` bits (`width ≤ 64`).
    ///
    /// The extraction is branchless past the bounds check: the low word
    /// is shifted down, the (possibly absent) high word is blended in
    /// with a shift pair that degenerates to zero at offset 0, and a
    /// single mask trims the field — no per-bit loop, no data-dependent
    /// branches on the hot path.
    ///
    /// # Errors
    ///
    /// [`WireError::Overrun`] if fewer than `width` bits remain.
    #[inline]
    pub fn pull(&mut self, width: u32) -> Result<u64, WireError> {
        assert!(width <= 64, "field width {width} exceeds 64 bits");
        if u64::from(width) > self.remaining() {
            return Err(WireError::Overrun {
                at: self.pos,
                want: width,
                len: self.len,
            });
        }
        if width == 0 {
            return Ok(0);
        }
        let idx = (self.pos >> 6) as usize;
        let off = (self.pos & 63) as u32;
        let lo = self.words[idx] >> off;
        // the next word exists only for straddling reads; reading zero
        // otherwise keeps the blend unconditional
        let hi = self.words.get(idx + 1).copied().unwrap_or(0);
        // shift pair avoids the undefined shift-by-64 at off == 0
        let v = (lo | (hi << (63 - off)) << 1) & (u64::MAX >> (64 - width));
        self.pos += u64::from(width);
        Ok(v)
    }

    /// Reads one CONGEST word.
    ///
    /// # Errors
    ///
    /// [`WireError::Overrun`] if the frame is exhausted.
    #[inline]
    pub fn word(&mut self) -> Result<u64, WireError> {
        self.pull(CONGEST_WORD_BITS as u32)
    }

    /// Reads a presence flag plus, if set, one CONGEST word.
    ///
    /// # Errors
    ///
    /// [`WireError::Overrun`] if the frame is exhausted.
    #[inline]
    pub fn opt_word(&mut self) -> Result<Option<u64>, WireError> {
        Ok(if self.flag()? {
            Some(self.word()?)
        } else {
            None
        })
    }

    /// Reads a single boolean bit.
    ///
    /// # Errors
    ///
    /// [`WireError::Overrun`] if the frame is exhausted.
    #[inline]
    pub fn flag(&mut self) -> Result<bool, WireError> {
        Ok(self.pull(1)? != 0)
    }

    /// Reads a `u32` field.
    ///
    /// # Errors
    ///
    /// [`WireError::Overrun`] if the frame is exhausted.
    #[allow(clippy::cast_possible_truncation)]
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(self.pull(32)? as u32)
    }

    /// Reads a presence flag plus, if set, a `u32` field.
    ///
    /// # Errors
    ///
    /// [`WireError::Overrun`] if the frame is exhausted.
    pub fn opt_u32(&mut self) -> Result<Option<u32>, WireError> {
        Ok(if self.flag()? {
            Some(self.u32()?)
        } else {
            None
        })
    }

    /// Reads a `u16` field.
    ///
    /// # Errors
    ///
    /// [`WireError::Overrun`] if the frame is exhausted.
    #[allow(clippy::cast_possible_truncation)]
    #[inline]
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(self.pull(16)? as u16)
    }

    /// Reads a fixed-width enum tag of [`tag_bits`]`(variants)` bits.
    /// The caller still matches the value — widths that are not a power
    /// of two leave unused tag codes, which must decode to
    /// [`WireError::BadTag`].
    ///
    /// # Errors
    ///
    /// [`WireError::Overrun`] if the frame is exhausted.
    #[inline]
    pub fn tag(&mut self, variants: u64) -> Result<u64, WireError> {
        self.pull(tag_bits(variants))
    }
}

/// A type with a bit-exact wire encoding.
///
/// `encode` and `decode` must be inverses; the provided methods derive
/// everything else. [`Message`](crate::Message) requires this trait, so
/// a message type without an encoding no longer compiles — there is no
/// default size to hide behind.
pub trait Wire: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut BitWriter);

    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on a malformed frame.
    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError>;

    /// Exact encoded length in bits, via a zero-allocation counting
    /// pass. This is the single source of truth behind
    /// [`Message::size_bits`](crate::Message::size_bits).
    fn encoded_bits(&self) -> u64 {
        let mut w = BitWriter::counter();
        self.encode(&mut w);
        w.bits()
    }

    /// Encodes into a materialised frame.
    fn to_frame(&self) -> WireFrame {
        let mut w = BitWriter::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Decodes a full frame, requiring every bit to be consumed.
    ///
    /// # Errors
    ///
    /// Any decode error, or [`WireError::Leftover`] if the frame is
    /// longer than the decoded value's encoding.
    fn from_frame(frame: &WireFrame) -> Result<Self, WireError> {
        let mut r = BitReader::new(frame);
        let v = Self::decode(&mut r)?;
        match r.remaining() {
            0 => Ok(v),
            bits => Err(WireError::Leftover { bits }),
        }
    }
}

/// Encodes `value` to a frame, decodes it back, and verifies the round
/// trip three ways: the decode must consume the frame exactly, the
/// decoded value must re-encode to the identical frame, and its `Debug`
/// rendering must match the original's (catching lossy encodings that
/// happen to re-encode stably). Returns the decoded value — the
/// executors deliver *it*, not the original, so the automata provably
/// depend only on the bits.
///
/// # Errors
///
/// A human-readable description of the first mismatch.
pub fn round_trip<T: Wire + fmt::Debug>(value: &T) -> Result<T, String> {
    let frame = value.to_frame();
    let decoded = T::from_frame(&frame).map_err(|e| format!("decode failed: {e}"))?;
    let reencoded = decoded.to_frame();
    if reencoded != frame {
        return Err(format!(
            "re-encode differs from the sent frame ({} vs {} bits)",
            reencoded.bits(),
            frame.bits()
        ));
    }
    let (sent, got) = (format!("{value:?}"), format!("{decoded:?}"));
    if sent != got {
        return Err(format!(
            "round trip changed the message: sent {sent}, decoded {got}"
        ));
    }
    Ok(decoded)
}

/// Reusable encode/decode buffers for the executors' per-message codec
/// path.
///
/// [`round_trip`] allocates two frames and renders two `Debug` strings
/// per message — fine for tests, ruinous at millions of messages per
/// run. `CodecScratch` performs the same encode → decode → re-encode
/// verification entirely inside two reused word buffers: after warm-up
/// it allocates nothing and never formats. The `Debug` comparison that
/// catches *lossy-but-stable* encodings is kept in debug builds only
/// (release executions still catch every encoding whose re-encoded
/// bits differ — the class of mismatch a real link could exhibit; the
/// α executor's delivery check has always worked at this level).
///
/// One scratch lives in each engine worker and in the sequential merge
/// path, so the engine allocates nothing per frame. The
/// engine's bucketed per-send path goes one step further and uses
/// [`CodecScratch::transcode`] — encode + decode only, with the
/// canonicality re-encode deferred to debug builds — because delivering
/// the decoded value already proves the automata depend only on the
/// bits.
#[derive(Debug, Default)]
pub struct CodecScratch {
    enc: Vec<u64>,
    renc: Vec<u64>,
}

impl CodecScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes `value`, decodes it back, and verifies the round trip
    /// in reused buffers: the decode must consume the frame exactly and
    /// the decoded value must re-encode to the identical bits (plus a
    /// `Debug` comparison in debug builds — see the type docs). Returns
    /// the decoded value, which is what the executors deliver.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first mismatch, identical in
    /// kind to [`round_trip`]'s.
    pub fn round_trip<T: Wire + fmt::Debug>(&mut self, value: &T) -> Result<T, String> {
        let mut w = BitWriter::reuse(std::mem::take(&mut self.enc));
        value.encode(&mut w);
        let (enc, bits) = w.into_raw();
        let mut r = BitReader::from_raw(&enc, bits);
        let decoded = match T::decode(&mut r) {
            Ok(v) => v,
            Err(e) => {
                self.enc = enc;
                return Err(format!("decode failed: {e}"));
            }
        };
        let leftover = r.remaining();
        if leftover != 0 {
            self.enc = enc;
            return Err(format!(
                "decode failed: {}",
                WireError::Leftover { bits: leftover }
            ));
        }
        let mut w = BitWriter::reuse(std::mem::take(&mut self.renc));
        decoded.encode(&mut w);
        let (renc, rbits) = w.into_raw();
        let identical = rbits == bits && renc == enc;
        self.enc = enc;
        self.renc = renc;
        if !identical {
            return Err(format!(
                "re-encode differs from the sent frame ({rbits} vs {bits} bits)"
            ));
        }
        #[cfg(debug_assertions)]
        {
            let (sent, got) = (format!("{value:?}"), format!("{decoded:?}"));
            if sent != got {
                return Err(format!(
                    "round trip changed the message: sent {sent}, decoded {got}"
                ));
            }
        }
        Ok(decoded)
    }

    /// Encodes `value` and decodes it back in the reused buffer —
    /// the engine's per-send hot path. Returns the decoded value plus
    /// the exact encoded bit length, so the caller charges accounting
    /// from the same pass instead of a separate counting encode.
    ///
    /// Wire-exactness holds by construction: the caller delivers the
    /// *decoded* value, so the automata provably depend only on the
    /// bits. The re-encode comparison that additionally proves the
    /// codec canonical (a codec-bug detector, not something a real link
    /// could exhibit) runs in debug builds only; release keeps it in
    /// [`CodecScratch::round_trip`] (tests, fallback replay) and the
    /// delivery checks of [`CodecScratch::check_words`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the decode failure (or, in debug
    /// builds, any round-trip mismatch).
    pub fn transcode<T: Wire + fmt::Debug>(&mut self, value: &T) -> Result<(T, u64), String> {
        let mut w = BitWriter::reuse(std::mem::take(&mut self.enc));
        value.encode(&mut w);
        let (enc, bits) = w.into_raw();
        let mut r = BitReader::from_raw(&enc, bits);
        let decoded = T::decode(&mut r);
        let leftover = r.remaining();
        self.enc = enc;
        let decoded = match decoded {
            Ok(v) => v,
            Err(e) => return Err(format!("decode failed: {e}")),
        };
        if leftover != 0 {
            return Err(format!(
                "decode failed: {}",
                WireError::Leftover { bits: leftover }
            ));
        }
        #[cfg(debug_assertions)]
        {
            let mut w = BitWriter::reuse(std::mem::take(&mut self.renc));
            decoded.encode(&mut w);
            let (renc, rbits) = w.into_raw();
            let identical = rbits == bits && renc == self.enc;
            self.renc = renc;
            if !identical {
                return Err(format!(
                    "re-encode differs from the sent frame ({rbits} vs {bits} bits)"
                ));
            }
            let (sent, got) = (format!("{value:?}"), format!("{decoded:?}"));
            if sent != got {
                return Err(format!(
                    "round trip changed the message: sent {sent}, decoded {got}"
                ));
            }
        }
        Ok((decoded, bits))
    }

    /// Decodes a frame received as raw words — from a link or a socket
    /// peer — and verifies it is canonical, re-encoding into a reused
    /// buffer: the word count must match the bit length, the decode must
    /// consume every bit, and the decoded value must re-encode to the
    /// very bits received. The socket worker checks its inbound and its
    /// outbound frames with it.
    ///
    /// # Errors
    ///
    /// A human-readable description of the decode failure or bit
    /// mismatch.
    pub fn check_words<T: Wire + fmt::Debug>(
        &mut self,
        words: &[u64],
        bits: u64,
    ) -> Result<T, String> {
        let decoded = decode_from::<T>(words, bits).map_err(|e| format!("decode failed: {e}"))?;
        let rbits = encode_to(&decoded, &mut self.renc);
        if rbits == bits && self.renc == words {
            Ok(decoded)
        } else {
            Err(format!(
                "re-encoding decoded frame {decoded:?} does not reproduce the received bits \
                 ({rbits} vs {bits} bits)"
            ))
        }
    }

    /// [`CodecScratch::check_words`] on a received [`WireFrame`]: the α
    /// executor's delivery check.
    ///
    /// # Errors
    ///
    /// As [`CodecScratch::check_words`].
    pub fn check_frame<T: Wire + fmt::Debug>(&mut self, frame: &WireFrame) -> Result<T, String> {
        self.check_words(&frame.words, frame.bits)
    }
}

/// Implements [`Wire`] for payload-free marker messages (unit structs):
/// zero encoded bits — the frame's arrival is the entire signal.
#[macro_export]
macro_rules! impl_wire_empty {
    ($($t:ty),+ $(,)?) => {$(
        impl $crate::wire::Wire for $t {
            fn encode(&self, _w: &mut $crate::wire::BitWriter) {}
            fn decode(
                _r: &mut $crate::wire::BitReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok(Self)
            }
        }
    )+};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_widths() {
        assert_eq!(tag_bits(1), 0);
        assert_eq!(tag_bits(2), 1);
        assert_eq!(tag_bits(3), 2);
        assert_eq!(tag_bits(4), 2);
        assert_eq!(tag_bits(5), 3);
        assert_eq!(tag_bits(8), 3);
        assert_eq!(tag_bits(9), 4);
    }

    #[test]
    fn push_pull_round_trips_across_word_boundaries() {
        let mut w = BitWriter::new();
        let fields: &[(u64, u32)] = &[
            (0b101, 3),
            (u64::MAX >> 16, 48),
            (1, 1),
            (0xDEAD_BEEF, 32),
            (u64::MAX, 64),
            (0, 7),
            ((1 << 47) | 1, 48),
        ];
        for &(v, width) in fields {
            w.push(v, width);
        }
        let total: u64 = fields.iter().map(|&(_, w)| u64::from(w)).sum();
        assert_eq!(w.bits(), total);
        let frame = w.finish();
        assert_eq!(frame.bits(), total);
        let mut r = BitReader::new(&frame);
        for &(v, width) in fields {
            assert_eq!(r.pull(width).unwrap(), v, "width {width}");
        }
        assert_eq!(r.remaining(), 0);
        assert!(matches!(r.pull(1), Err(WireError::Overrun { .. })));
    }

    #[test]
    fn counting_writer_matches_materialised_length() {
        let mut a = BitWriter::new();
        let mut b = BitWriter::counter();
        for w in [&mut a, &mut b] {
            w.word(12345);
            w.opt_word(Some(7));
            w.opt_word(None);
            w.flag(true);
            w.u32(99);
            w.u16(3);
            w.tag(4, 5);
        }
        assert_eq!(a.bits(), b.bits());
        assert_eq!(a.finish().bits(), b.bits());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_field_value_panics() {
        BitWriter::new().push(1 << 10, 10);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn word_asserts_the_48_bit_convention() {
        BitWriter::new().word(1 << 48);
    }

    #[test]
    fn from_frame_rejects_leftover_bits() {
        #[derive(Clone, Debug, PartialEq)]
        struct Two(u64);
        impl Wire for Two {
            fn encode(&self, w: &mut BitWriter) {
                w.push(self.0, 2);
            }
            fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
                Ok(Two(r.pull(2)?))
            }
        }
        let mut w = BitWriter::new();
        w.push(0b10, 2);
        w.push(0b1, 1); // one trailing bit the decoder never reads
        let err = Two::from_frame(&w.finish()).unwrap_err();
        assert_eq!(err, WireError::Leftover { bits: 1 });
        assert_eq!(Two::from_frame(&Two(2).to_frame()).unwrap(), Two(2));
    }

    #[test]
    fn round_trip_catches_lossy_encodings() {
        // Encodes only the low 4 bits but remembers 8: decode loses
        // information while re-encoding stably — only the Debug
        // comparison can see it.
        #[derive(Debug)]
        struct Lossy(u64);
        impl Wire for Lossy {
            fn encode(&self, w: &mut BitWriter) {
                w.push(self.0 & 0xF, 4);
            }
            fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
                Ok(Lossy(r.pull(4)?))
            }
        }
        assert!(round_trip(&Lossy(0x5)).is_ok());
        let err = round_trip(&Lossy(0xF5)).unwrap_err();
        assert!(err.contains("changed the message"), "{err}");
    }

    /// The pre-rewrite writer algorithm (read-modify-write into the
    /// vector, per-field boundary branches), kept verbatim as the
    /// reference the branchless staging-word writer is pinned against.
    struct OldWriter {
        words: Vec<u64>,
        bits: u64,
    }

    impl OldWriter {
        fn new() -> Self {
            OldWriter {
                words: Vec::new(),
                bits: 0,
            }
        }

        fn push(&mut self, value: u64, width: u32) {
            if width > 0 {
                let idx = (self.bits / 64) as usize;
                let off = (self.bits % 64) as u32;
                if idx == self.words.len() {
                    self.words.push(0);
                }
                self.words[idx] |= value << off;
                if off > 0 && off + width > 64 {
                    self.words.push(value >> (64 - off));
                }
            }
            self.bits += u64::from(width);
        }

        /// The pre-rewrite reader extraction, applied to the old frame.
        fn pull_all(&self, widths: &[u32]) -> Vec<u64> {
            let mut pos = 0u64;
            let mut out = Vec::new();
            for &width in widths {
                if width == 0 {
                    out.push(0);
                    continue;
                }
                let idx = (pos / 64) as usize;
                let off = (pos % 64) as u32;
                let mut v = self.words[idx] >> off;
                if off > 0 && off + width > 64 {
                    v |= self.words[idx + 1] << (64 - off);
                }
                if width < 64 {
                    v &= (1u64 << width) - 1;
                }
                out.push(v);
                pos += u64::from(width);
            }
            out
        }
    }

    fn random_fields(seed: u64, n: usize) -> Vec<(u64, u32)> {
        let mut rng = kdom_rng::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let width = (rng.next_u64() % 65) as u32;
                let value = if width == 0 {
                    0
                } else if width == 64 {
                    rng.next_u64()
                } else {
                    rng.next_u64() & ((1u64 << width) - 1)
                };
                (value, width)
            })
            .collect()
    }

    #[test]
    fn branchless_writer_bitstream_matches_old_algorithm() {
        for seed in 0..32u64 {
            let fields = random_fields(seed, 200);
            let mut old = OldWriter::new();
            let mut new = BitWriter::new();
            for &(v, width) in &fields {
                old.push(v, width);
                new.push(v, width);
            }
            let frame = new.finish();
            assert_eq!(frame.bits(), old.bits, "seed {seed}");
            assert_eq!(frame.words, old.words, "seed {seed}: bit stream diverged");
            // and the branchless reader agrees with the old extraction
            let widths: Vec<u32> = fields.iter().map(|&(_, w)| w).collect();
            let mut r = BitReader::new(&frame);
            let old_vals = old.pull_all(&widths);
            for (i, (&(v, width), want)) in fields.iter().zip(old_vals).enumerate() {
                let got = r.pull(width).unwrap();
                assert_eq!(got, v, "seed {seed} field {i}");
                assert_eq!(got, want, "seed {seed} field {i} (old reader)");
            }
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn megabit_sentinel_scale_frame_matches_old_algorithm() {
        // Wider than the engine's 20-bit packed-meta sentinel threshold
        // (2^20 - 1 bits): 25 000 48-bit words ≈ 1.2 Mbit, the scale of
        // the oversized-frame test in `sim.rs`.
        let mut old = OldWriter::new();
        let mut new = BitWriter::new();
        for i in 0..25_000u64 {
            let v = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1 << 48) - 1);
            old.push(v, 48);
            new.push(v, 48);
        }
        let frame = new.finish();
        assert!(frame.bits() > (1 << 20), "frame must exceed the sentinel");
        assert_eq!(frame.bits(), old.bits);
        assert_eq!(frame.words, old.words);
        let mut r = BitReader::new(&frame);
        for i in 0..25_000u64 {
            let want = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1 << 48) - 1);
            assert_eq!(r.pull(48).unwrap(), want, "word {i}");
        }
    }

    #[test]
    fn scratch_round_trip_agrees_with_allocating_round_trip() {
        #[derive(Clone, Debug, PartialEq)]
        struct Mixed {
            a: u64,
            b: Option<u64>,
            c: bool,
            d: u32,
        }
        impl Wire for Mixed {
            fn encode(&self, w: &mut BitWriter) {
                w.word(self.a);
                w.opt_word(self.b);
                w.flag(self.c);
                w.u32(self.d);
            }
            fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
                Ok(Mixed {
                    a: r.word()?,
                    b: r.opt_word()?,
                    c: r.flag()?,
                    d: r.u32()?,
                })
            }
        }
        let mut scratch = CodecScratch::new();
        let mut rng = kdom_rng::StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let m = Mixed {
                a: rng.next_u64() & ((1 << 48) - 1),
                b: (rng.next_u64() & 1 == 0).then(|| rng.next_u64() & ((1 << 48) - 1)),
                c: rng.next_u64() & 1 == 0,
                d: rng.next_u64() as u32,
            };
            let via_scratch = scratch.round_trip(&m).unwrap();
            let via_alloc = round_trip(&m).unwrap();
            assert_eq!(via_scratch, via_alloc);
            assert_eq!(via_scratch, m);
        }
    }

    #[test]
    fn scratch_check_frame_verifies_received_bits() {
        #[derive(Clone, Debug, PartialEq)]
        struct W(u64);
        impl Wire for W {
            fn encode(&self, w: &mut BitWriter) {
                w.word(self.0);
            }
            fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
                Ok(W(r.word()?))
            }
        }
        let mut scratch = CodecScratch::new();
        let frame = W(12_345).to_frame();
        assert_eq!(scratch.check_frame::<W>(&frame).unwrap(), W(12_345));
        // a truncated frame must fail the decode
        let mut w = BitWriter::new();
        w.push(3, 2);
        let err = scratch.check_frame::<W>(&w.finish()).unwrap_err();
        assert!(err.contains("decode failed"), "{err}");
        // raw words: the count must match the bit length, and bits past
        // the length must be zero, or the re-encode cannot reproduce them
        assert_eq!(scratch.check_words::<W>(&[12_345], 48).unwrap(), W(12_345));
        let err = scratch.check_words::<W>(&[12_345, 0], 48).unwrap_err();
        assert!(err.contains("word count"), "{err}");
        let err = scratch
            .check_words::<W>(&[12_345 | 1 << 60], 48)
            .unwrap_err();
        assert!(err.contains("does not reproduce"), "{err}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn scratch_round_trip_catches_lossy_encodings_in_debug() {
        #[derive(Debug)]
        struct Lossy(u64);
        impl Wire for Lossy {
            fn encode(&self, w: &mut BitWriter) {
                w.push(self.0 & 0xF, 4);
            }
            fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
                Ok(Lossy(r.pull(4)?))
            }
        }
        let mut scratch = CodecScratch::new();
        assert!(scratch.round_trip(&Lossy(0x5)).is_ok());
        let err = scratch.round_trip(&Lossy(0xF5)).unwrap_err();
        assert!(err.contains("changed the message"), "{err}");
    }

    #[test]
    fn empty_markers_encode_to_zero_bits() {
        #[derive(Clone, Debug)]
        struct Ping;
        crate::impl_wire_empty!(Ping);
        assert_eq!(Ping.encoded_bits(), 0);
        let frame = Ping.to_frame();
        assert_eq!(frame.bits(), 0);
        assert!(Ping::from_frame(&frame).is_ok());
    }
}
