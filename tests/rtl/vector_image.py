"""Reader of the testbench-vector image: the inverse the round-trip tests need.

``repro.rtl.vectors.VectorSet.to_bytes`` writes ``vectors.bin`` for the
Verilog testbench; :func:`read_vectors` parses it back so
``tests/rtl/test_vectors.py`` and ``tests/rtl/test_goldens.py`` can show the
encoding is bit-exact.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint import QFormat
from repro.rtl.vectors import (
    _VECTOR_HEADER,
    _VECTOR_MAGIC,
    _VECTOR_VERSION,
    VectorRecord,
    VectorSet,
)


def read_vectors(data: bytes) -> VectorSet:
    """Parse a :meth:`VectorSet.to_bytes` image back (inverse, bit-exact)."""

    magic, version, word, frac, c, h, w, tc, n = _VECTOR_HEADER.unpack(
        data[: _VECTOR_HEADER.size]
    )
    if magic != _VECTOR_MAGIC:
        raise ValueError(f"not a testbench-vector image (magic {magic!r})")
    if version != _VECTOR_VERSION:
        raise ValueError(f"unsupported vector image version {version}")
    chw = c * h * w
    offset = _VECTOR_HEADER.size
    records = []
    for _ in range(n):
        t_fx = int(np.frombuffer(data, dtype="<i8", count=1, offset=offset)[0])
        offset += 8
        stim = np.frombuffer(data, dtype="<i8", count=chw, offset=offset).astype(np.int64)
        offset += 8 * chw
        exp = np.frombuffer(data, dtype="<i8", count=chw, offset=offset).astype(np.int64)
        offset += 8 * chw
        records.append(VectorRecord(stimulus=stim, t_fx=t_fx, expected=exp))
    return VectorSet(
        qformat=QFormat(word, frac),
        channels=c,
        height=h,
        width=w,
        time_concat=bool(tc),
        step_size=1.0,  # not stored; informational only
        records=tuple(records),
    )
