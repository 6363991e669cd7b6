"""Gorilla-style compressed time-series segments.

Implements the two codecs from the Gorilla paper (Pelkonen et al.,
"Gorilla: A Fast, Scalable, In-Memory Time Series Database", VLDB 2015,
public knowledge):

* timestamps: delta-of-delta with the paper's variable-length ranges
  ('0' | '10'+7b | '110'+9b | '1110'+12b | '1111'+32b);
* values: XOR with leading/trailing-zero window reuse
  ('0' | '10'+reuse | '11'+5b lead+6b len+meaningful bits).

Encoding is fully batch-vectorized: every delta/XOR is range-classified
with numpy, each stream element becomes one or two fixed (value, width)
bitfields, and the whole stream is emitted at once by ``_pack_fields``
(a bit-matrix select + ``np.packbits``).  The only remaining per-element
Python work is the value codec's window-state scan, which touches ONLY
nonzero XORs and does a couple of integer compares each — no bit
emission.  The original bit-at-a-time writers are kept as
``_encode_*_loop`` reference implementations; tests assert the
vectorized encoders produce byte-identical streams.

Decode mirrors the same split: a sequential Python scan over
pre-converted words reads ONLY the control/meta prefixes (one or two
small peeks per element, no per-bit cursor), then the payload fields are
gathered vectorized (``_extract_fields``, the inverse of
``_pack_fields``' word-OR scatter) and the series is reconstructed with
cumsum / ``bitwise_xor.accumulate``.  The original per-bit readers are
kept as ``_decode_*_loop`` spec references; tests assert identical
output.
These are segment codecs for the segment compression stage
(stages/compress.py) — one segment = one series' points for one tier
window range.
"""

from __future__ import annotations

import numpy as np

_U1 = np.uint64(1)


class BitWriter:
    __slots__ = ("buf", "acc", "nbits")

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, bits: int):
        self.acc = (self.acc << bits) | (value & ((1 << bits) - 1))
        self.nbits += bits
        while self.nbits >= 8:
            self.nbits -= 8
            self.buf.append((self.acc >> self.nbits) & 0xFF)
        self.acc &= (1 << self.nbits) - 1

    def getvalue(self) -> bytes:
        if self.nbits:
            pad = 8 - self.nbits
            return bytes(self.buf) + bytes([(self.acc << pad) & 0xFF])
        return bytes(self.buf)


class BitReader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, bits: int) -> int:
        out = 0
        remaining = bits
        while remaining:
            byte_i, bit_i = divmod(self.pos, 8)
            take = min(8 - bit_i, remaining)
            chunk = self.data[byte_i]
            chunk >>= (8 - bit_i - take)
            out = (out << take) | (chunk & ((1 << take) - 1))
            self.pos += take
            remaining -= take
        return out


def _pack_fields(vals: np.ndarray, widths: np.ndarray) -> bytes:
    """Emit variable-width bitfields (each MSB-first, widths 0..64)
    concatenated into one byte string, final byte right-zero-padded —
    bit-identical to writing each field through ``BitWriter``.

    Word-wise OR scatter: each field's meaningful bits, left-aligned in
    a uint64, straddle at most TWO 64-bit output words at stream offset
    ``off`` — the high part shifted right by ``off & 63`` into word
    ``off >> 6`` and the spill shifted into the next word.  Field start
    offsets are monotone, so two ``np.bitwise_or.at`` scatters build
    the whole big-endian word stream with ~16 bytes of traffic per
    field (the previous unpackbits/gather/packbits emission moved
    ~64 bits of uint8 per field plus an int64 index per OUTPUT bit —
    this is ~5× faster and an order of magnitude less memory).
    Width-0 fields are dropped up front (they emit nothing).
    """
    vals = np.asarray(vals, dtype=np.uint64)
    widths = np.asarray(widths, dtype=np.int64)
    keep = widths > 0
    if not keep.all():
        vals, widths = vals[keep], widths[keep]
    n = len(vals)
    if n == 0:
        return b""
    ends = np.cumsum(widths)
    total = int(ends[-1])
    offs = ends - widths
    w64 = widths.astype(np.uint64)
    mask = np.where(widths == 64, np.uint64(0xFFFFFFFFFFFFFFFF),
                    (np.uint64(1) << w64) - np.uint64(1))
    top = (vals & mask) << (np.uint64(64) - w64)  # left-aligned field
    sh = (offs & 63).astype(np.uint64)
    hi = top >> sh
    # spill into the next word; shift-by-64 is UB, so compute mod-64 and
    # zero out the sh==0 rows (no spill) explicitly
    lo = np.where(sh == 0, np.uint64(0),
                  top << ((np.uint64(64) - sh) & np.uint64(63)))
    word = (offs >> 6).astype(np.int64)
    nwords = (total + 63) // 64
    out = np.zeros(nwords + 1, np.uint64)  # +1: last field's spill slot
    np.bitwise_or.at(out, word, hi)
    np.bitwise_or.at(out, word + 1, lo)
    nbytes = (total + 7) // 8
    return out[:nwords].astype(">u8").tobytes()[:nbytes]


def _popcount64(v: np.ndarray) -> np.ndarray:
    """SWAR popcount over uint64 (Warren, Hacker's Delight §5-1)."""
    v = v - ((v >> _U1) & np.uint64(0x5555555555555555))
    v = (v & np.uint64(0x3333333333333333)) + \
        ((v >> np.uint64(2)) & np.uint64(0x3333333333333333))
    v = (v + (v >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (v * np.uint64(0x0101010101010101)) >> np.uint64(56)


def _clz64_vec(x: np.ndarray) -> np.ndarray:
    """Leading-zero count per uint64 (x may contain zeros → 64)."""
    y = x.copy()
    for s in (1, 2, 4, 8, 16, 32):
        y |= y >> np.uint64(s)
    return _popcount64(~y)


def _ctz64_vec(x: np.ndarray) -> np.ndarray:
    """Trailing-zero count per nonzero uint64."""
    return _popcount64((x & (~x + _U1)) - _U1)


def encode_timestamps(ts: np.ndarray) -> bytes:
    """Delta-of-delta encode int64 timestamps (sorted).

    Classifies all second-order deltas into the paper's ranges in one
    numpy pass; each dod becomes a fused (control+payload) field, with
    the out-of-range class split control/payload (4b + 64b); one
    ``_pack_fields`` call emits the stream.
    """
    ts = np.asarray(ts, dtype=np.int64)
    n = len(ts)
    hdr_v = [np.uint64(n)]
    hdr_w = [32]
    if n >= 1:
        hdr_v.append(np.int64(ts[0]).view(np.uint64).item())
        hdr_w.append(64)
    if n >= 2:
        deltas = np.diff(ts)
        hdr_v.append(np.int64(deltas[0]).view(np.uint64).item())
        hdr_w.append(64)
    if n <= 2:
        return _pack_fields(np.array(hdr_v, np.uint64),
                            np.array(hdr_w, np.int64))
    d = np.diff(deltas)
    z = d == 0
    c1 = (d >= -63) & (d <= 64)
    c2 = (d >= -255) & (d <= 256)
    c3 = (d >= -2047) & (d <= 2048)
    # fused control+payload (all non-negative in-range → safe uint64 view)
    v_main = np.select(
        [z, c1, c2, c3],
        [np.zeros_like(d),
         (0b10 << 7) + (d + 63),
         (0b110 << 9) + (d + 255),
         (0b1110 << 12) + (d + 2047)],
        default=np.int64(0b1111)).view(np.uint64)
    w_main = np.select([z, c1, c2, c3], [1, 9, 12, 16], default=4)
    big = ~(z | c1 | c2 | c3)
    v_pay = np.where(big, d.view(np.uint64), np.uint64(0))
    w_pay = np.where(big, 64, 0)
    vals = np.concatenate([np.array(hdr_v, np.uint64),
                           np.column_stack([v_main, v_pay]).ravel()])
    wids = np.concatenate([np.array(hdr_w, np.int64),
                           np.column_stack([w_main, w_pay]).ravel()])
    return _pack_fields(vals, wids)


def _encode_timestamps_loop(ts: np.ndarray) -> bytes:
    """Bit-at-a-time reference implementation (the stream spec); kept for
    byte-identity tests and before/after benchmarking."""
    ts = np.asarray(ts, dtype=np.int64)
    w = BitWriter()
    n = len(ts)
    w.write(n, 32)
    if n == 0:
        return w.getvalue()
    w.write(int(ts[0]) & ((1 << 64) - 1), 64)
    if n == 1:
        return w.getvalue()
    deltas = np.diff(ts)
    w.write(int(deltas[0]) & ((1 << 64) - 1), 64)
    dod = np.diff(deltas)
    for d in dod.tolist():
        if d == 0:
            w.write(0, 1)
        elif -63 <= d <= 64:
            w.write(0b10, 2)
            w.write(d + 63, 7)
        elif -255 <= d <= 256:
            w.write(0b110, 3)
            w.write(d + 255, 9)
        elif -2047 <= d <= 2048:
            w.write(0b1110, 4)
            w.write(d + 2047, 12)
        else:
            # widened from the paper's 32-bit bucket: int64 timestamps can
            # produce arbitrarily large second-order deltas
            w.write(0b1111, 4)
            w.write(d & ((1 << 64) - 1), 64)
    return w.getvalue()


def _stream_words(data: bytes) -> np.ndarray:
    """The stream as native uint64 words (big-endian bit order within
    each word, matching BitWriter's MSB-first emission), padded with two
    spare zero words so any peek/extract of ≤64 bits at a valid stream
    offset stays in bounds."""
    pad = (-len(data)) % 8 + 16
    return np.frombuffer(data + b"\x00" * pad, dtype=">u8").astype(np.uint64)


def _extract_fields(words: np.ndarray, offs: np.ndarray,
                    wids: np.ndarray) -> np.ndarray:
    """Vectorized bitfield gather: field i is the ``wids[i]`` bits at
    stream offset ``offs[i]`` (the exact inverse of ``_pack_fields``'
    word-OR scatter).  Widths must be ≥1."""
    idx = (offs >> 6).astype(np.int64)
    sh = (offs & 63).astype(np.uint64)
    hi = words[idx] << sh
    lo = np.where(sh == 0, np.uint64(0),
                  words[idx + 1] >> ((np.uint64(64) - sh) & np.uint64(63)))
    return (hi | lo) >> (np.uint64(64) - wids.astype(np.uint64))


def decode_timestamps(data: bytes) -> np.ndarray:
    """Delta-of-delta decode (inverse of :func:`encode_timestamps`).

    Two passes: a sequential Python scan over pre-converted words reads
    ONLY the control prefixes (one ≤4-bit peek per element) to find each
    dod field's offset/width, then one vectorized gather + two cumsums
    reconstruct the series.  ``_decode_timestamps_loop`` is the
    bit-at-a-time spec; tests assert identical output."""
    W = _stream_words(data)
    wl = W.tolist()

    def peek(off: int, w: int) -> int:
        i = off >> 6
        s = off & 63
        return ((wl[i] << 64 | wl[i + 1]) >> (128 - s - w)) & ((1 << w) - 1)

    n = peek(0, 32)
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    first = peek(32, 64)
    if first >= 1 << 63:
        first -= 1 << 64
    out[0] = first
    if n == 1:
        return out
    delta0 = peek(96, 64)
    if delta0 >= 1 << 63:
        delta0 -= 1 << 64
    off = 160
    f_off: list[int] = []
    f_wid: list[int] = []
    f_bias: list[int] = []
    f_pos: list[int] = []
    oa, wa, ba, pa = f_off.append, f_wid.append, f_bias.append, f_pos.append
    for i in range(n - 2):
        c = peek(off, 4)
        if c < 8:           # '0'
            off += 1
            continue
        if c < 12:          # '10' + 7
            off += 2
            oa(off); wa(7); ba(63); pa(i)
            off += 7
        elif c < 14:        # '110' + 9
            off += 3
            oa(off); wa(9); ba(255); pa(i)
            off += 9
        elif c == 14:       # '1110' + 12
            off += 4
            oa(off); wa(12); ba(2047); pa(i)
            off += 12
        else:               # '1111' + 64 (two's complement)
            off += 4
            oa(off); wa(64); ba(0); pa(i)
            off += 64
    dods = np.zeros(n - 2, dtype=np.int64)
    if f_off:
        x = _extract_fields(W, np.asarray(f_off, np.int64),
                            np.asarray(f_wid, np.int64))
        dods[np.asarray(f_pos, np.int64)] = \
            x.view(np.int64) - np.asarray(f_bias, np.int64)
    deltas = np.empty(n - 1, dtype=np.int64)
    deltas[0] = delta0
    deltas[1:] = delta0 + np.cumsum(dods)
    out[1:] = first + np.cumsum(deltas)
    return out


def _decode_timestamps_loop(data: bytes) -> np.ndarray:
    """Bit-at-a-time reference decoder (the stream spec)."""
    r = BitReader(data)
    n = r.read(32)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    first = r.read(64)
    if first >= 1 << 63:
        first -= 1 << 64
    out = np.empty(n, dtype=np.int64)
    out[0] = first
    if n == 1:
        return out
    delta = r.read(64)
    if delta >= 1 << 63:
        delta -= 1 << 64
    out[1] = out[0] + delta
    for i in range(2, n):
        if r.read(1) == 0:
            dod = 0
        elif r.read(1) == 0:
            dod = r.read(7) - 63
        elif r.read(1) == 0:
            dod = r.read(9) - 255
        elif r.read(1) == 0:
            dod = r.read(12) - 2047
        else:
            dod = r.read(64)
            if dod >= 1 << 63:
                dod -= 1 << 64
        delta += dod
        out[i] = out[i - 1] + delta
    return out


def _clz64(x: int) -> int:
    return 64 - x.bit_length() if x else 64


def _ctz64(x: int) -> int:
    if x == 0:
        return 64
    return (x & -x).bit_length() - 1


def encode_values(values: np.ndarray) -> bytes:
    """Gorilla XOR-encode float64 values.

    XORs, leading/trailing-zero counts and zero-XOR elements are all
    computed vectorized; a Python scan over ONLY the nonzero XORs tracks
    the (lead, tail) window-reuse state (a few integer compares each —
    inherently sequential, but emission-free); the control+meta bits are
    fused into one field per element and the whole stream is packed once.
    """
    bits = np.ascontiguousarray(
        np.asarray(values, dtype=np.float64)).view(np.uint64)
    n = len(bits)
    hdr_v = [np.uint64(n)]
    hdr_w = [32]
    if n >= 1:
        hdr_v.append(bits[0])
        hdr_w.append(64)
    if n <= 1:
        return _pack_fields(np.array(hdr_v, np.uint64),
                            np.array(hdr_w, np.int64))
    x = np.bitwise_xor(bits[1:], bits[:-1])
    m = len(x)
    # defaults cover the zero-XOR class: single '0' control bit
    v1 = np.zeros(m, np.uint64)
    w1 = np.ones(m, np.int64)
    v2 = np.zeros(m, np.uint64)
    w2 = np.zeros(m, np.int64)
    nz = np.flatnonzero(x)
    if len(nz):
        xnz = x[nz]
        l_arr = np.minimum(_clz64_vec(xnz), np.uint64(31)).astype(np.int64)
        t_arr = _ctz64_vec(xnz).astype(np.int64)
        # Window-state scan: an element REUSES the current (lead, treq)
        # window iff l >= lead and t >= treq (treq = the window starter's
        # own trailing count, since tlen = 64-lead-treq).  Everything the
        # stream emits is a pure function of each element's covering
        # window-start, so the loop only records the start indices — two
        # integer compares per nonzero XOR, one append per window.
        ls, tss = l_arr.tolist(), t_arr.tolist()
        starts = []
        app = starts.append
        lead, treq = 65, 65  # invalid → first nonzero xor starts a window
        for k in range(len(ls)):
            li = ls[k]
            ti = tss[k]
            if li >= lead and ti >= treq:
                continue
            lead = li
            treq = ti
            app(k)
        sidx = np.asarray(starts, np.int64)
        wid = np.searchsorted(sidx, np.arange(len(nz)), side="right") - 1
        Lw = l_arr[sidx][wid]
        Tw = t_arr[sidx][wid]
        Mw = 64 - Lw - Tw  # the window's meaningful-bit count (= tlen)
        is_start = np.zeros(len(nz), dtype=bool)
        is_start[sidx] = True
        # '11' + 5b lead + 6b (mlen-1) fused into one 13-bit field for
        # window starts; plain 2-bit '10' control for reuses
        v1[nz] = np.where(is_start,
                          (0b11 << 11) | (Lw << 6) | (Mw - 1),
                          np.int64(0b10)).view(np.uint64)
        w1[nz] = np.where(is_start, 13, 2)
        v2[nz] = xnz >> Tw.astype(np.uint64)
        w2[nz] = Mw
    vals = np.concatenate([np.array(hdr_v, np.uint64),
                           np.column_stack([v1, v2]).ravel()])
    wids = np.concatenate([np.array(hdr_w, np.int64),
                           np.column_stack([w1, w2]).ravel()])
    return _pack_fields(vals, wids)


def _encode_values_loop(values: np.ndarray) -> bytes:
    """Bit-at-a-time reference implementation (the stream spec); kept for
    byte-identity tests and before/after benchmarking."""
    bits = np.asarray(values, dtype=np.float64).view(np.uint64)
    w = BitWriter()
    n = len(bits)
    w.write(n, 32)
    if n == 0:
        return w.getvalue()
    prev = int(bits[0])
    w.write(prev, 64)
    lead, tlen = 65, 0  # invalid → force new window on first nonzero xor
    xors = np.bitwise_xor(bits[1:], bits[:-1])
    for x in map(int, xors.tolist()):
        if x == 0:
            w.write(0, 1)
            continue
        l, t = _clz64(x), _ctz64(x)
        l = min(l, 31)
        if lead <= 64 and l >= lead and t >= (64 - lead - tlen):
            w.write(0b10, 2)
            w.write(x >> (64 - lead - tlen), tlen)
        else:
            lead, mlen = l, 64 - l - t
            tlen = mlen
            w.write(0b11, 2)
            w.write(lead, 5)
            w.write(mlen - 1, 6)  # 1..64 stored in 6 bits
            w.write(x >> t, mlen)
    return w.getvalue()


def decode_values(data: bytes) -> np.ndarray:
    """Gorilla XOR decode (inverse of :func:`encode_values`).

    Same two-pass shape as :func:`decode_timestamps`: a sequential scan
    reads only the control/meta bits (≤2 peeks per element) to record
    each XOR field's offset/width/shift, then one vectorized gather and
    a single ``np.bitwise_xor.accumulate`` reconstruct the values.
    ``_decode_values_loop`` is the bit-at-a-time spec; tests assert
    identical output."""
    W = _stream_words(data)
    wl = W.tolist()

    def peek(off: int, w: int) -> int:
        i = off >> 6
        s = off & 63
        return ((wl[i] << 64 | wl[i + 1]) >> (128 - s - w)) & ((1 << w) - 1)

    n = peek(0, 32)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    first = peek(32, 64)
    off = 96
    f_off: list[int] = []
    f_wid: list[int] = []
    f_sh: list[int] = []
    f_pos: list[int] = []
    oa, wa, sa, pa = f_off.append, f_wid.append, f_sh.append, f_pos.append
    tlen = shift = 0
    for i in range(1, n):
        c = peek(off, 2)
        if c < 2:           # '0' — repeat
            off += 1
            continue
        if c == 2:          # '10' — reuse current window
            off += 2
            oa(off); wa(tlen); sa(shift); pa(i)
            off += tlen
        else:               # '11' + 5b lead + 6b (mlen-1) + mlen bits
            meta = peek(off + 2, 11)
            lead = meta >> 6
            tlen = (meta & 63) + 1
            shift = 64 - lead - tlen
            off += 13
            oa(off); wa(tlen); sa(shift); pa(i)
            off += tlen
    xf = np.zeros(n, dtype=np.uint64)
    xf[0] = first
    if f_off:
        x = _extract_fields(W, np.asarray(f_off, np.int64),
                            np.asarray(f_wid, np.int64))
        xf[np.asarray(f_pos, np.int64)] = \
            x << np.asarray(f_sh, np.uint64)
    return np.bitwise_xor.accumulate(xf).view(np.float64)


def _decode_values_loop(data: bytes) -> np.ndarray:
    """Bit-at-a-time reference decoder (the stream spec)."""
    r = BitReader(data)
    n = r.read(32)
    out = np.empty(n, dtype=np.uint64)
    if n == 0:
        return out.view(np.float64)
    cur = r.read(64)
    out[0] = cur
    lead = tlen = 0
    for i in range(1, n):
        if r.read(1) == 0:
            out[i] = cur
            continue
        if r.read(1) == 0:  # reuse window
            x = r.read(tlen) << (64 - lead - tlen)
        else:
            lead = r.read(5)
            mlen = r.read(6) + 1
            tlen = mlen
            x = r.read(mlen) << (64 - lead - mlen)
        cur ^= x
        out[i] = cur
    return out.view(np.float64)


def encode_segment(ts: np.ndarray, values: np.ndarray) -> dict:
    """One compressed segment with its lineage fields."""
    tb = encode_timestamps(ts)
    vb = encode_values(values)
    raw = 16 * len(ts)
    comp = len(tb) + len(vb)
    return {
        "n_points": len(ts),
        "t_min": int(ts[0]) if len(ts) else 0,
        "t_max": int(ts[-1]) if len(ts) else 0,
        "ts_bytes": tb,
        "val_bytes": vb,
        "raw_bytes": raw,
        "compressed_bytes": comp,
        "ratio": round(raw / comp, 3) if comp else 0.0,
    }


def decode_segment(seg: dict) -> tuple[np.ndarray, np.ndarray]:
    return decode_timestamps(seg["ts_bytes"]), decode_values(seg["val_bytes"])
