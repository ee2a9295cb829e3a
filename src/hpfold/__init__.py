"""HP-model lattice protein folding as quadratic binary optimization.

Encode a hydrophobic/polar bead chain on a 26-neighbor cubic lattice as a
penalized quadratic binary problem, minimize it with simulated annealing, an
exhaustive scan, or a CVaR-objective variational statevector loop, and decode
and validate the resulting conformations.
"""

from .model import (
    FeasibilityReport,
    HpSequence,
    conformation_to_xyz,
    count_contacts,
    decode_bitstring,
    encode_turns,
    enumerate_optimal,
    hydrophobic_pairs,
    lattice_moves,
    max_contacts,
    parse_sequence,
    turns_to_coordinates,
    validate,
)
from .polynomial import BinaryPolynomial
from .encoder import (
    AxisDraw,
    PenaltyConfig,
    QuboProblem,
    VariableLayout,
    assemble,
    calibrate_penalties,
    draw_axes,
    qubo_from_json,
    qubo_to_json,
)
from .ising import SampleSet, cvar, qubo_to_ising
from .ansatz import AnsatzSpec, probabilities, simulate
from .solvers import (
    AnnealSchedule,
    Population,
    Selection,
    VqeSettings,
    anneal,
    default_schedule,
    exhaustive,
    postselect,
    vqe_statevector,
)
from .pipeline import (
    PipelineResult,
    RunConfig,
    emit,
    load_result,
    run_pipeline,
    solve_sequence,
)

__version__ = "0.1.0"
