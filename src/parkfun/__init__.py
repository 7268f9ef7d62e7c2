"""Parking functions: classical, friendship (graph-constrained) and cyclic.

Simulation of the parking processes, outcome-fibre characterisation via
blocking runs, closed-form counts for the cycle graph, and the bijection
between cyclic parking functions and permutation components, all backed by
exhaustive brute-force cross-checks.

Importing the package loads none of its modules: each exported name loads
its defining module on first use, so a caller pays only for what it reads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS_BY_MODULE = {
    "classical": ("classical_park", "is_parking_function", "total_displacement"),
    "core": (
        "Failure",
        "FriendshipGraph",
        "ParkingPreference",
        "ParkOutcome",
        "Permutation",
        "Success",
        "all_labelled_graphs",
        "graph_generator",
        "identity_permutation",
        "inverse_position",
        "make_graph",
        "make_preference",
        "parse_graph_text",
    ),
    "cycle": (
        "CyclicOutcome",
        "Direction",
        "cycle_fibre_size",
        "cycle_total_count",
        "cyclic_outcomes",
        "decreasing_word",
        "expand_cyclic",
        "increasing_word",
    ),
    "cyclic": (
        "Component",
        "InversionSequence",
        "NotCyclicPreference",
        "components",
        "count_cyclic_brute",
        "cyclic_fibre_size",
        "cyclic_total_count",
        "enumerate_cyclic_pf",
        "inv_seq",
        "inversion_number",
        "is_cyclic_pf",
        "perm_from_inv_seq",
        "psi",
        "psi_inverse",
    ),
    "friendship": (
        "LotState",
        "brute_fibre_counts",
        "count_fpf_brute",
        "enumerate_fpf",
        "friendship_park",
        "is_available",
        "is_friendship_pf",
    ),
    "limits": ("BadCapSetting", "SearchCapExceeded", "brute_cap", "ensure_within_cap"),
    "report": ("InvalidReport", "RunReport", "report_schema", "validate_report"),
    "structure": (
        "BlockingSequence",
        "FibreCharacterisation",
        "NotHamiltonianPath",
        "blocking_sequence",
        "enumerate_fibre",
        "fibre_characterisation",
        "fibre_size",
        "fig4_graph",
        "hamiltonian_paths",
        "has_hamiltonian_path",
        "is_blocker",
        "is_hamiltonian_path",
        "total_fpf_count",
    ),
}

# Export name -> defining module.
_EXPORTS = {name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names}

# Modules reachable as `parkfun.<name>` after a bare `import parkfun`, as they
# were when the package imported them all eagerly.
_SUBMODULES = frozenset(_EXPORTS_BY_MODULE) | {"notation"}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
