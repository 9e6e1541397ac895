"""Testbench-vector generation from the batched ``FxArray`` engine.

:func:`generate_vectors` Euler-iterates a seeded batch through
:meth:`~repro.fpga.odeblock_hw.HardwareODEBlock.execute_batch`, which
returns the next state and nothing else — the same loop
:meth:`~repro.fpga.odeblock_hw.HardwareODEBlock.run_iterations_batch`
runs, here with a step size — and records one (stimulus, t, expected)
triple per image per iteration.  Each record is an independent single-step check: record *i*'s
expected state is record *i+1*'s stimulus (exactly, in integers), so
verifying every record verifies the whole iterated trajectory.

The vectors have one serialisation, written by :func:`write_vector_files`:
``stimulus.hex`` / ``expected.hex`` hold two's-complement words at the
Q-format's width (the ``$readmemh`` input of the emitted testbench), and
``vectors.json`` describes them.  Both are integer-only (no float
round-trip), so they are byte-identical across runs and platforms for a
given seed.

The saturation-heavy Q4.2 / Q6.4 golden cases of ``tests/rtl/goldens`` are
named in :data:`GOLDEN_CASES` and regenerated bit-for-bit by
:func:`golden_vectors`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from .._checks import check_count
from ..fixedpoint import QFormat
from ..fpga.geometry import BlockGeometry
from ..fpga.odeblock_hw import BlockWeights, HardwareODEBlock
from .emit import _hex_lines

__all__ = [
    "VectorRecord",
    "VectorSet",
    "GOLDEN_CASES",
    "GOLDEN_GEOMETRY",
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

_VECTOR_VERSION = 1


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
) -> VectorSet:
    """Dump stimulus/expected pairs from the batched FxArray engine.

    The batch flows through :meth:`HardwareODEBlock.execute_batch` once per
    step (``t_i = i*h``, residual Euler update); the recorded raws are the
    quantised states at each step boundary.  The vectors do not depend on
    a unit count, so any emitted design point of the block is checked
    against the same vectors.
    """

    images = check_count("images", images, 1)
    iterations = check_count("iterations", iterations, 1)
    hw_block = HardwareODEBlock(block, weights, qformat=qformat, time_concat=time_concat)
    rng = np.random.default_rng(seed)
    shape = (images, block.out_channels, block.height, block.width)
    state = np.asarray(rng.normal(0.0, input_scale, size=shape), dtype=np.float64)

    records: List[VectorRecord] = []
    for i in range(iterations):
        t = i * step_size
        t_fx = int(qformat.to_fixed(float(t)))
        stim_raw = qformat.to_fixed(state)
        state = hw_block.execute_batch(state, step_size=step_size, t=t)
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
GOLDEN_GEOMETRY = BlockGeometry(
    name="golden_4ch_4px", in_channels=4, out_channels=4, height=4, width=4
)
GOLDEN_IMAGES = 2
GOLDEN_ITERATIONS = 3
GOLDEN_SEED = 20240
GOLDEN_WEIGHT_SEED = 99
GOLDEN_WEIGHT_SCALE = 3.0
GOLDEN_INPUT_SCALE = 3.0
GOLDEN_TIME_CONCAT = False
GOLDEN_STEP_SIZE = 1.0

#: The saturation edge cases, by name: pathological Q4.2 and hard-saturating
#: Q6.4.
GOLDEN_CASES: Dict[str, QFormat] = {
    "q4_2_saturation": QFormat(4, 2),
    "q6_4_saturation": QFormat(6, 4),
}


def golden_vectors(name: str) -> Tuple[VectorSet, BlockWeights]:
    """Regenerate one golden vector set bit-for-bit from its recipe."""

    weights = BlockWeights.random(
        GOLDEN_GEOMETRY,
        np.random.default_rng(GOLDEN_WEIGHT_SEED),
        scale=GOLDEN_WEIGHT_SCALE,
        time_concat=GOLDEN_TIME_CONCAT,
    )
    vectors = generate_vectors(
        GOLDEN_GEOMETRY,
        weights,
        qformat=GOLDEN_CASES[name],
        images=GOLDEN_IMAGES,
        iterations=GOLDEN_ITERATIONS,
        seed=GOLDEN_SEED,
        input_scale=GOLDEN_INPUT_SCALE,
        step_size=GOLDEN_STEP_SIZE,
        time_concat=GOLDEN_TIME_CONCAT,
    )
    return vectors, weights
