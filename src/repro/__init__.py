"""repro — reproduction of "Accelerating ODE-Based Neural Networks on Low-Cost FPGAs".

The package is organised as the paper's system is:

* :mod:`repro.core` — the contribution: ODEBlocks, the rODENet variants
  (Table 4), executable network builders, the parameter-size model
  (Table 2 / Figure 5), the execution-time model (Table 5) and the offload
  planner.
* :mod:`repro.nn` — NumPy autograd CNN substrate (the PyTorch stand-in).
* :mod:`repro.ode` — fixed-grid ODE solvers (Euler / RK2 / RK4) and the
  adjoint method (the torchdiffeq stand-in).
* :mod:`repro.fixedpoint` — 32-bit Q20 fixed-point arithmetic.
* :mod:`repro.fpga` — the simulated PYNQ-Z2 / Zynq XC7Z020: cycle model,
  resource model, timing model, AXI transfers, and a bit-accurate fixed-point
  ODEBlock engine.
* :mod:`repro.hwsw` — PS software cost model and the hardware/software
  co-execution runtime.
* :mod:`repro.data`, :mod:`repro.train` — dataset and training substrates.
* :mod:`repro.analysis` — regeneration of every table and figure.
* :mod:`repro.api` — the unified ``Scenario -> Evaluator -> Result`` entry
  point and the design-space sweep engine behind the CLI.
* :mod:`repro.sim` — discrete-event simulation of multi-request serving:
  arrival processes, PS/AXI/PL resource contention, replicated accelerators,
  dispatch policies and latency/utilisation/energy metrics.
"""

from ._lazy import lazy_exports

__version__ = "1.2.0"

# Subpackages import on first attribute access: ``import repro.cli`` and a CLI
# call load only the subsystems they run.
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {},
    submodules=(
        "api", "sim", "fleet", "faults", "opt", "rtl", "core", "nn", "ode",
        "fixedpoint", "fpga", "platform", "hwsw", "data", "train", "analysis",
    ),
)
__all__.append("__version__")
