"""Parking functions: classical, friendship (graph-constrained) and cyclic.

Simulation of the parking processes, outcome-fibre characterisation via
blocking runs, closed-form counts for the cycle graph, and the bijection
between cyclic parking functions and permutation components, all backed by
exhaustive brute-force cross-checks.
"""

from .classical import classical_park, is_parking_function, total_displacement
from .core import (
    Failure,
    FriendshipGraph,
    ParkingPreference,
    ParkOutcome,
    Permutation,
    Success,
    all_labelled_graphs,
    graph_generator,
    identity_permutation,
    inverse_position,
    make_graph,
    make_preference,
    parse_graph_text,
)
from .cycle import (
    CyclicOutcome,
    Direction,
    cycle_fibre_size,
    cycle_total_count,
    cyclic_outcomes,
    decreasing_word,
    expand_cyclic,
    increasing_word,
)
from .cyclic import (
    Component,
    InversionSequence,
    NotCyclicPreference,
    components,
    count_cyclic_brute,
    cyclic_fibre_size,
    cyclic_total_count,
    enumerate_cyclic_pf,
    inv_seq,
    inversion_number,
    is_cyclic_pf,
    perm_from_inv_seq,
    psi,
    psi_inverse,
)
from .friendship import (
    LotState,
    brute_fibre_counts,
    count_fpf_brute,
    enumerate_fpf,
    friendship_park,
    is_available,
    is_friendship_pf,
)
from .limits import BadCapSetting, SearchCapExceeded, brute_cap, ensure_within_cap
from .report import RunReport, report_schema, validate_report
from .structure import (
    BlockingSequence,
    FibreCharacterisation,
    NotHamiltonianPath,
    blocking_sequence,
    enumerate_fibre,
    fibre_characterisation,
    fibre_size,
    fig4_graph,
    hamiltonian_paths,
    has_hamiltonian_path,
    is_blocker,
    is_hamiltonian_path,
    total_fpf_count,
)

__version__ = "0.1.0"
