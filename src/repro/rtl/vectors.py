"""Testbench-vector generation from the batched ``FxArray`` engine.

:func:`generate_vectors` Euler-iterates a seeded batch through
:meth:`~repro.fpga.odeblock_hw.HardwareODEBlock.execute_batch` — the same
loop :meth:`~repro.fpga.odeblock_hw.HardwareODEBlock.run_iterations_batch`
runs — and records one (stimulus, t, expected) triple per image per
iteration.  Each record is an independent single-step check: record *i*'s
expected state is record *i+1*'s stimulus (exactly, in integers), so
verifying every record verifies the whole iterated trajectory.

All serialisations are integer-only and platform-pinned:

* the ``.hex`` files hold two's-complement words at the Q-format's width
  (the ``$readmemh`` input of the emitted testbench);
* :meth:`VectorSet.to_bytes` is a little-endian ``<i8`` byte image with a
  self-describing header (magic ``ODEV``) — **no float round-trip**, so the
  dump is byte-identical across runs and platforms for a given seed.

The saturation-heavy Q4.2 / Q6.4 golden cases of ``tests/rtl/goldens`` are
described by :data:`GOLDEN_CASES` and regenerated bit-for-bit by
:func:`golden_vectors`.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from .._checks import check_count
from ..fixedpoint import QFormat
from ..fpga.geometry import BlockGeometry
from ..fpga.odeblock_hw import BlockWeights, HardwareODEBlock
from .emit import _hex_lines, random_block_weights

__all__ = [
    "VectorRecord",
    "VectorSet",
    "GoldenCase",
    "GOLDEN_CASES",
    "generate_vectors",
    "golden_vectors",
    "write_vector_files",
    "STIMULUS_HEX",
    "EXPECTED_HEX",
    "VECTORS_MANIFEST",
]

STIMULUS_HEX = "stimulus.hex"
EXPECTED_HEX = "expected.hex"
VECTORS_MANIFEST = "vectors.json"

_VECTOR_MAGIC = b"ODEV"
_VECTOR_VERSION = 1
#: Little-endian header: magic, version, word, frac, C, H, W, time_concat,
#: then the record count as a 32-bit field.
_VECTOR_HEADER = struct.Struct("<4sHHHHHHHI")


@dataclass(frozen=True)
class VectorRecord:
    """One single-step conformance check (integer representations)."""

    stimulus: np.ndarray  # flat C*H*W int64 raws of the input state
    t_fx: int  # quantised integration time
    expected: np.ndarray  # flat C*H*W int64 raws of z + h*f(z, t)


@dataclass(frozen=True)
class VectorSet:
    """A bit-exact stimulus/expected dump of the FxArray engine."""

    qformat: QFormat
    channels: int
    height: int
    width: int
    time_concat: bool
    step_size: float
    records: Tuple[VectorRecord, ...] = field(default_factory=tuple)

    @property
    def words_per_map(self) -> int:
        return self.channels * self.height * self.width

    def stimulus_hex(self) -> str:
        """``$readmemh`` stimulus: C*H*W words then one t word per record."""

        chunks = []
        for rec in self.records:
            chunks.append(_hex_lines(rec.stimulus, self.qformat.word_length))
            chunks.append(_hex_lines(np.asarray([rec.t_fx]), self.qformat.word_length))
        return "".join(chunks)

    def expected_hex(self) -> str:
        """``$readmemh`` expected outputs: C*H*W words per record."""

        return "".join(
            _hex_lines(rec.expected, self.qformat.word_length) for rec in self.records
        )

    def to_bytes(self) -> bytes:
        """Canonical little-endian byte image (fixed endianness, ints only)."""

        head = _VECTOR_HEADER.pack(
            _VECTOR_MAGIC,
            _VECTOR_VERSION,
            self.qformat.word_length,
            self.qformat.fraction_bits,
            self.channels,
            self.height,
            self.width,
            1 if self.time_concat else 0,
            len(self.records),
        )
        pieces = [head]
        for rec in self.records:
            pieces.append(np.asarray([rec.t_fx], dtype="<i8").tobytes())
            pieces.append(np.asarray(rec.stimulus, dtype="<i8").tobytes())
            pieces.append(np.asarray(rec.expected, dtype="<i8").tobytes())
        return b"".join(pieces)

    def manifest(self) -> Dict:
        """Deterministic JSON-able description of the vector set."""

        return {
            "magic": "ODEV",
            "version": _VECTOR_VERSION,
            "word_length": self.qformat.word_length,
            "fraction_bits": self.qformat.fraction_bits,
            "channels": self.channels,
            "height": self.height,
            "width": self.width,
            "time_concat": self.time_concat,
            "step_size": self.step_size,
            "records": len(self.records),
            "words_per_map": self.words_per_map,
            "t_fx": [rec.t_fx for rec in self.records],
            "files": {"stimulus": STIMULUS_HEX, "expected": EXPECTED_HEX},
        }


def generate_vectors(
    block: BlockGeometry,
    weights: BlockWeights,
    *,
    qformat: QFormat,
    images: int = 2,
    iterations: int = 2,
    seed: int = 7,
    input_scale: float = 0.5,
    step_size: float = 1.0,
    time_concat: bool = False,
    n_units: int = 4,
) -> VectorSet:
    """Dump stimulus/expected pairs from the batched FxArray engine.

    The batch flows through :meth:`HardwareODEBlock.execute_batch` once per
    step (``t_i = i*h``, residual Euler update); the recorded raws are the
    quantised states at each step boundary.  ``n_units`` never changes the
    numbers (the batch engine is bit-exact in the unit count) — any emitted
    design point can be checked against the same vectors.
    """

    images = check_count("images", images, 1)
    iterations = check_count("iterations", iterations, 1)
    hw_block = HardwareODEBlock(
        block,
        weights,
        n_units=n_units,
        qformat=qformat,
        time_concat=time_concat,
    )
    rng = np.random.default_rng(seed)
    shape = (images, block.out_channels, block.height, block.width)
    state = np.asarray(rng.normal(0.0, input_scale, size=shape), dtype=np.float64)

    records: List[VectorRecord] = []
    for i in range(iterations):
        t = i * step_size
        t_fx = int(qformat.to_fixed(float(t)))
        stim_raw = qformat.to_fixed(state)
        state, _ = hw_block.execute_batch(state, step_size=step_size, t=t)
        exp_raw = qformat.to_fixed(state)
        for n in range(images):
            records.append(
                VectorRecord(
                    stimulus=stim_raw[n].ravel().copy(),
                    t_fx=t_fx,
                    expected=exp_raw[n].ravel().copy(),
                )
            )
    return VectorSet(
        qformat=qformat,
        channels=block.out_channels,
        height=block.height,
        width=block.width,
        time_concat=time_concat,
        step_size=step_size,
        records=tuple(records),
    )


def write_vector_files(vectors: VectorSet, out_dir: Union[str, Path]) -> Dict[str, Path]:
    """Write ``stimulus.hex`` / ``expected.hex`` / ``vectors.json``."""

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        STIMULUS_HEX: out / STIMULUS_HEX,
        EXPECTED_HEX: out / EXPECTED_HEX,
        VECTORS_MANIFEST: out / VECTORS_MANIFEST,
    }
    paths[STIMULUS_HEX].write_text(vectors.stimulus_hex())
    paths[EXPECTED_HEX].write_text(vectors.expected_hex())
    paths[VECTORS_MANIFEST].write_text(
        json.dumps(vectors.manifest(), indent=2, sort_keys=True) + "\n"
    )
    return paths


# -- golden cases ------------------------------------------------------------------


#: The recipe every golden case shares, bar its Q-format: a 4-channel 4x4
#: block, two seeded images over three Euler steps of size 1, no time
#: channel, and weight/input scale 3.0 to drive the datapath deep into
#: clipping.
GOLDEN_CHANNELS = 4
GOLDEN_SIZE = 4
GOLDEN_IMAGES = 2
GOLDEN_ITERATIONS = 3
GOLDEN_SEED = 20240
GOLDEN_WEIGHT_SEED = 99
GOLDEN_WEIGHT_SCALE = 3.0
GOLDEN_INPUT_SCALE = 3.0
GOLDEN_TIME_CONCAT = False
GOLDEN_STEP_SIZE = 1.0


@dataclass(frozen=True)
class GoldenCase:
    """One committed golden vector set: its name and Q-format (regenerable
    with the shared ``GOLDEN_*`` recipe)."""

    name: str
    word_length: int
    fraction_bits: int

    @property
    def qformat(self) -> QFormat:
        return QFormat(self.word_length, self.fraction_bits)

    @property
    def geometry(self) -> BlockGeometry:
        return BlockGeometry(
            name=f"golden_{GOLDEN_CHANNELS}ch_{GOLDEN_SIZE}px",
            in_channels=GOLDEN_CHANNELS,
            out_channels=GOLDEN_CHANNELS,
            height=GOLDEN_SIZE,
            width=GOLDEN_SIZE,
        )


#: The PR 4 saturation edge cases: pathological Q4.2 and hard-saturating
#: Q6.4 (weight/input scale 3.0 drives the datapath deep into clipping).
GOLDEN_CASES: Dict[str, GoldenCase] = {
    "q4_2_saturation": GoldenCase(name="q4_2_saturation", word_length=4, fraction_bits=2),
    "q6_4_saturation": GoldenCase(name="q6_4_saturation", word_length=6, fraction_bits=4),
}


def golden_vectors(case: Union[str, GoldenCase]) -> Tuple[GoldenCase, VectorSet, BlockWeights]:
    """Regenerate one golden vector set bit-for-bit from its recipe."""

    if isinstance(case, str):
        case = GOLDEN_CASES[case]
    weights = random_block_weights(
        case.geometry,
        time_concat=GOLDEN_TIME_CONCAT,
        seed=GOLDEN_WEIGHT_SEED,
        scale=GOLDEN_WEIGHT_SCALE,
    )
    vectors = generate_vectors(
        case.geometry,
        weights,
        qformat=case.qformat,
        images=GOLDEN_IMAGES,
        iterations=GOLDEN_ITERATIONS,
        seed=GOLDEN_SEED,
        input_scale=GOLDEN_INPUT_SCALE,
        step_size=GOLDEN_STEP_SIZE,
        time_concat=GOLDEN_TIME_CONCAT,
    )
    return case, vectors, weights
