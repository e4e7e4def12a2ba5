"""How raw fixed-point codes travel packed in NoC flits."""

import numpy as np


def pack_words(raw: np.ndarray, word_bits: int, flit_bits: int) -> np.ndarray:
    """Pack raw codes into NoC flits (little-endian within the flit).

    This mirrors the wrapper's STORE path: ``word_bits``-wide tokens are
    packed ``flit_bits // word_bits`` per flit. The final flit is
    zero-padded.
    """
    if flit_bits % word_bits:
        raise ValueError(
            f"flit width {flit_bits} not a multiple of word width {word_bits}")
    per_flit = flit_bits // word_bits
    raw = np.asarray(raw, dtype=np.int64)
    mask = (1 << word_bits) - 1
    codes = raw.astype(np.uint64) & np.uint64(mask)
    pad = (-len(codes)) % per_flit
    if pad:
        codes = np.concatenate([codes, np.zeros(pad, dtype=np.uint64)])
    codes = codes.reshape(-1, per_flit)
    flits = np.zeros(len(codes), dtype=np.uint64)
    for lane in range(per_flit):
        flits |= codes[:, lane] << np.uint64(lane * word_bits)
    return flits


def unpack_words(flits: np.ndarray, count: int, word_bits: int,
                 flit_bits: int, signed: bool = True) -> np.ndarray:
    """Inverse of :func:`pack_words`; returns ``count`` raw codes."""
    if flit_bits % word_bits:
        raise ValueError(
            f"flit width {flit_bits} not a multiple of word width {word_bits}")
    per_flit = flit_bits // word_bits
    flits = np.asarray(flits, dtype=np.uint64)
    mask = np.uint64((1 << word_bits) - 1)
    lanes = [((flits >> np.uint64(lane * word_bits)) & mask)
             for lane in range(per_flit)]
    codes = np.stack(lanes, axis=1).reshape(-1)[:count].astype(np.int64)
    if signed:
        sign_bit = 1 << (word_bits - 1)
        codes = np.where(codes >= sign_bit, codes - (1 << word_bits), codes)
    return codes
