"""``repro.rtl`` — ODEBlock RTL emission pinned by bit-exact conformance.

The package closes the loop between the repo's analytic accelerator models
and actual hardware artifacts:

* :mod:`repro.rtl.emit` — template-based Verilog emission parameterised by
  ``QFormat`` × ``BlockGeometry`` × board-derived unit count;
* :mod:`repro.rtl.vectors` — stimulus/expected dumps from the batched
  ``FxArray`` engine (the Python bit-truth);
* :mod:`repro.rtl.check` — toolchain-free structural verification against
  the BRAM plan and the resource estimator;
* :mod:`repro.rtl.simrun` — optional iverilog conformance runs
  (auto-skipped when no simulator is installed).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".check": (
            "InstanceCountError", "ManifestError", "PortWidthError", "RomDepthError",
            "StructuralCheckError", "check_bundle",
        ),
        ".emit": (
            "BN_ROM_FILE", "MANIFEST_FILE", "MANIFEST_VERSION", "SOURCE_FILES", "TB_FILE",
            "TOP_FILE", "RtlBundle", "default_n_units", "emit_odeblock", "emit_testbench",
        ),
        ".simrun": ("SimulationResult", "iverilog_available", "run_conformance"),
        ".vectors": (
            "EXPECTED_HEX", "GOLDEN_CASES", "GOLDEN_GEOMETRY", "STIMULUS_HEX", "VECTORS_MANIFEST",
            "VectorRecord", "VectorSet", "generate_vectors", "golden_vectors", "write_vector_files",
        ),
    },
)
