"""Matrix computations deciding a non-solvability condition for operators
with a doubly characteristic point: Poisson brackets of quadratic forms,
non-dissipativity certificates, pencil rank analysis, witness search on
quadric intersections, and operator-level verdicts."""

from .forms import (
    SymmetricForm,
    SymplecticStructure,
    HamiltonMap,
    Subspace,
    SymplecticityCertificate,
    hamilton_map,
    poisson_bracket,
    bracket_via_hamilton,
    joint_radical,
    is_symplectic_subspace,
    congruence,
    span_rank,
)
from .dissipativity import (
    Dissipativity,
    DissipativityVerdict,
    TraceCertificate,
    CertificateStatus,
    CertificateOutcome,
    is_non_dissipative,
    trace_certificate,
)
from .pencil import (
    PencilReport,
    pencil_element,
    rank_profile,
)
from .witness import (
    WitnessResult,
    WitnessSearch,
    SearchStatus,
    ContainmentProbe,
    RadicalStatus,
    Branch,
    HypothesisReport,
    project_to_joint_zero,
    zero_set_gap,
    transversality_witness,
    bracket_witness,
    hypothesis_report,
    containment_probe,
)
from .checker import (
    HeisenbergOperatorSpec,
    TwoStepGroupSpec,
    PointSymbolSpec,
    StructureConstants,
    VerdictOutcome,
    Verdict,
    heisenberg_verdict,
    two_step_verdict,
    point_symbol_verdict,
    step_reduction,
)
from . import errors

__version__ = "0.1.0"
