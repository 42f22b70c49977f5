"""Measurement-interrupted continuous-time quantum search.

A 2x2 exact engine for the post-selected search protocol, a full-space
brute-force verifier, the non-Hermitian effective description, a scaling
planner, and detuning-robustness analytics, plus a CLI that emits
reproducible CSV tables.

The package imports lazily (PEP 562): ``import zenogrover`` loads no
submodule, and each exported name or submodule is imported on first use, so
a CLI command pays only for the engines it runs.
"""

import importlib

__version__ = "0.1.0"

# the names the CLI's flag table needs, defined here so that parsing loads no
# numpy; ``stroboscopic``, ``model`` and ``fullspace`` re-export them

#: the engines that run a protocol; :func:`stroboscopic._step_source` defines them
ENGINES = ("exact", "effective")
#: the named faults of the exact engine, defined there too
FAULTS = ("hdown-sign",)
#: steps of every full-space equivalence case unless it names its own
EQUIVALENCE_STEPS = 200

#: submodule -> the names the package exports from it
_EXPORTS_BY_MODULE = {
    "model": (
        "RunRecord",
        "SearchParams",
        "grover_fidelity_closed_form",
        "grover_step_count",
        "make_params",
        "overlap_x",
        "parallel_map",
    ),
    "stroboscopic": (
        "distance_from_unitarity",
        "final_readout",
        "run_protocol",
        "step_operator",
    ),
    "fullspace": (
        "equivalence_suite",
        "simulate_full_protocol",
    ),
    "effective": (
        "EffectiveHamiltonian",
        "continuous_heff",
        "extract_step_hamiltonian",
        "unitary_approx_fidelity",
    ),
    "scaling": (
        "QualityReport",
        "ScalePlan",
        "bad_epsilon_values",
        "detuned_fidelity_analytic",
        "plan_scaled_instance",
        "quality_factor_sweep",
        "scaled_process_check",
        "scaling_k2",
    ),
}

#: exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names}

#: every submodule, imported by ``getattr(zenogrover, name)``
_SUBMODULES = ("cli", *_EXPORTS_BY_MODULE)

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        # importing a submodule also binds it on the package
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
