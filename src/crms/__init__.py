"""Complex-regularized multisymplectic geometry on the flat torus.

Linear CRMS-form validation and Darboux frames, polar-decomposition
construction of compatible metric / almost-complex pairs, a discretized
multisymplectic action with exact discrete gradient, principal-symbol
diagnostics, and a Fueter gradient-flow integrator.
"""

from .linalg import (
    AlternatingThreeForm,
    ConditionCheck,
    LinearComplexStructure,
    SpdMatrix,
    ValidationReport,
    pull_back,
    standard_complex_structure,
    standard_crms_form,
    standard_fiber_forms,
    validate_crms,
    wedge3,
)
from .darboux import (
    CrpsPair,
    DarbouxFrame,
    crms_darboux,
    crps_darboux,
    darboux_reconstruction_error,
)
from .compatible import CompatibleTriple, build_compatible, standard_triple
from .fields import (
    BUILTIN_HAMILTONIANS,
    FieldState,
    HamiltonianSpec,
    TorusGrid,
    action,
    bridges_residual,
    diff,
    l2_gradient,
    make_hamiltonian,
    read_state,
    write_state,
)
from .flow import (
    FlowConfig,
    FlowTrace,
    flow_step,
    fueter_residual,
    run_flow,
    write_trace_csv,
)
from .symbols import SymbolReport, principal_symbol
from .errors import (
    ConfigError,
    CrmsError,
    CrmsValidationError,
    DegenerateFormError,
    DimensionMismatchError,
    FlowDivergenceError,
)

__version__ = "0.1.0"
