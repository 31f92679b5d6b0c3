"""OBJ vertex lines, `"v %.12g %.12g %.12g\\n"` of each row byte for byte,
formatted by numpy instead of one Python `%` per coordinate.

`reporting.mesh_to_obj` imports this module on its first call, so that a
process that writes no mesh does not compile it.
"""

from __future__ import annotations

import functools

import numpy as np

#: Rows formatted at a time: the arrays of one block (a few hundred kB) stay
#: in cache, and no Python number outlives its block.
BLOCK = 1024


@functools.cache
def _tables():
    """Lookup tables of `_block_lines`, built on first use (about 70 kB).

    `quads[g]` holds the four ASCII digits of 0 <= g < 10^4 in one
    little-endian word, and `zeros[g]` counts its trailing zeros (4 for 0).
    `up[j] / down[j]` is 10^(j - 22), one of the two an exact power and the
    other 1.  Column 12 (X + 11) + l of `layout` lays out a number with
    decimal exponent -11 <= X <= 34 whose last nonzero digit is d_l, as
    `'%.12g'` writes it, in 9 words of 4 bytes: 0..3 are left to the
    separator and sign, 4..15 hold the integer digits d_0..d_11, 16 the
    point, 17..19 the zeros after it, 20..31 the fraction digits d_0..d_11
    and 32..35 "e+XX".  A byte is 0xFF where digit d_i shows, the character
    where a fixed one does, and 0 where nothing does.  The integer zero of
    "0.001" is a '0' in the slot of d_0: '0' (0x30) masks any digit to '0'.
    """
    pairs = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), "<u2").astype("<u4")
    quads = (pairs[:, None] | pairs << 16).ravel()  # 100 a + b: the digits of a, then of b
    two = np.array([2] + [int(k % 10 == 0) for k in range(1, 100)], np.uint8)
    zeros = (two + (two == 2) * two[:, None]).ravel()
    up = np.array([float(10 ** max(s, 0)) for s in range(-22, 23)])
    down = np.array([float(10 ** max(-s, 0)) for s in range(-22, 23)])
    X = np.arange(-11, 35)[:, None, None]
    last = np.arange(12)[:, None]
    i = np.arange(12)
    fixed = (-4 <= X) & (X < 12)
    point = np.where(fixed, X, 0)  # the point follows d_point; below 1, it follows "0"
    layout = np.zeros((46, 12, 36), np.uint8)
    layout[..., 4:16] = np.where(i <= point, 0xFF, np.where((point < 0) & (i == 0), ord("0"), 0))
    layout[..., 16] = np.where(last > point, ord("."), 0)[..., 0]
    layout[..., 17:20] = np.where(fixed & (i[:3] < -X - 1), ord("0"), 0)
    layout[..., 20:32] = np.where((point < i) & (i <= last), 0xFF, 0)
    for x in range(-11, 35):
        if not -4 <= x < 12:
            layout[x + 11, :, 32:36] = np.frombuffer(b"e%+03d" % x, np.uint8)
    layout = np.ascontiguousarray(layout.view("<u4").reshape(-1, 9).T)
    # bytes 0..3 before the first, second and third number of a row, and the sign
    sep = np.frombuffer(b"\nv \0 \0\0\0 \0\0\0\0\0\0-", "<u4")
    return quads, zeros, up, down, layout, sep


def _block_lines(rows: np.ndarray) -> bytes:
    """The lines of one block of at most `BLOCK` rows.

    With E = floor(log10 |x|) and 1e-11 <= |x| < 1e34, the scale 10^(11 - E)
    is an exact double, so y = |x| 10^(11 - E) is rounded once and rint(y)
    is the significand that `%` rounds half to even, unless y is a
    half-integer.  Such ties, a significand outside [10^11, 10^12] (log10
    off by one next to a power of ten), zero, inf, nan and magnitudes out of
    range go through Python's `%`, in one call for the block, and so does
    the whole block when most of it would.  A significand of 10^12 carries
    into the exponent.  Each number lands in 36 bytes padded with zeros
    (`_tables`), which `bytes.translate` then drops.
    """
    x = rows.ravel()
    a = np.abs(x)
    ok = (a >= 1e-11) & (a < 1e34)
    if 2 * np.count_nonzero(ok) <= len(x):
        return (b"v %.12g %.12g %.12g\n" * len(rows)) % tuple(x.tolist())
    quads, zeros, up, down, layout, sep = _tables()
    a = np.fmin(np.fmax(a, 1e-11), 1e34)  # so that no step below sees 0, inf or nan
    j = np.clip(33.0 - np.floor(np.log10(a)), 0, 44).astype(np.intp)  # 22 + 11 - E
    y = a * up.take(j) / down.take(j)
    m = np.rint(y)
    fallback = ~ok | (y < 1e11) | (m > 1e12) | (np.abs(y - m) == 0.5)
    carry = m == 1e12
    m[carry] = 1e11
    # m = 10^8 g_0 + 10^4 g_1 + g_2; each floor of a quotient by 10^4 is exact
    hi = np.floor(m / 1e4)
    top = np.floor(hi / 1e4)
    g = np.stack([top, hi - top * 1e4, m - hi * 1e4]).astype(np.intp)
    z = zeros.take(g, mode="clip")
    last = 11 - (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0]))
    words = layout.take((44 - j + carry) * 12 + last, axis=1, mode="clip")
    digits = quads.take(g, mode="clip")
    words[1:4] &= digits
    words[5:8] &= digits
    words[0] = (sep[:3] | sep[3] * (x < 0).reshape(-1, 3)).ravel()
    words[0, 0] &= ~np.uint32(0xFF)  # a row's newline leads it: the first one's goes last
    if fallback.any():
        v = x[fallback].tolist()
        words[0, fallback] &= ~sep[3]
        text = np.array(((b"%.12g " * len(v)) % tuple(v)).split(), "S32")
        words[1:, fallback] = text.view("<u4").reshape(-1, 8).T
    return words.T.tobytes().translate(None, b"\0") + b"\n"


def vertex_lines(verts: np.ndarray) -> str:
    """`"v %.12g %.12g %.12g\\n" % tuple(row)` for each row of `verts` (n, 3)."""
    blocks = np.split(verts, range(BLOCK, len(verts), BLOCK))
    return b"".join(map(_block_lines, blocks)).decode("ascii")
