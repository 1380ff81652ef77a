"""Qudits on orbital wave packets: basis changes, free-flight dispersion,
shaped-pulse dynamics, and a pulse-schedule compiler for unitaries.

All physics is in Hartree atomic units; SI appears only at reporting
boundaries.  Start with the scenario registry (`list_scenarios`,
`run_scenario`) or the `rydpacket` CLI.  The package root binds only
the entry points the README uses; every other name is imported from
the module that defines it (`rydpacket.manifold`, `.basis`,
`.evolution`, `.pulse`, `.gates`, `.scenarios`, `.cli`).
"""

from .evolution import shift_matrix
from .gates import Wait, compile_unitary, process_fidelity, run_program
from .manifold import ManifoldSpec, time_scales
from .pulse import SimulationState
from .scenarios import list_scenarios, run_scenario


def __getattr__(name: str):
    # __version__ is looked up on first use (PEP 562): importlib.metadata
    # pulls in email, csv and more, which loading the package need not pay
    if name == "__version__":
        from importlib.metadata import PackageNotFoundError, version

        try:
            return version("artifact")
        except PackageNotFoundError:
            return "0.0.0"
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ManifoldSpec",
    "SimulationState",
    "Wait",
    "compile_unitary",
    "list_scenarios",
    "process_fidelity",
    "run_program",
    "run_scenario",
    "shift_matrix",
    "time_scales",
]
