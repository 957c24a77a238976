"""Hierarchical Anderson model: lattices, spectra, resolvent cascade and
localization diagnostics."""

from .coupling import (
    CouplingSequence,
    ExplicitCoupling,
    FractionalMomentBounds,
    GeometricCoupling,
    HypothesisReport,
    PolyGeometricCoupling,
    PowerSequence,
    check_main_hypothesis,
    check_molchanov_condition,
    fractional_moment_bounds,
)
from .diagnostics import (
    BoundCheckReport,
    LocalizationReport,
    SummabilityLedger,
    borel_cantelli_profile,
    ipr_profile,
    localization_sweep,
    measure_bound_check,
)
from .disorder import (
    Bernoulli,
    Cauchy,
    Gaussian,
    PotentialSample,
    Uniform,
    sample_potential,
)
from .greens import (
    GreenCascade,
    GreenQueryResult,
    PoleProximityError,
    build_cascade,
    green_column,
    green_entry,
)
from .hierarchy import HierarchySpec, Truncation
from .operators import DenseCapError, DenseSpectrum, dense_symmetric_eigensolve
from .spectral import (
    EigenvalueGroupingError,
    SpectralMeasure,
    WalkReport,
    exact_cutoff_spectrum,
    finite_volume_dos,
    fit_spectral_dimension,
    group_eigenvalues,
    limiting_spectral_measure,
    restricted_full_spectrum,
    spectral_dimension,
    walk_classification,
)

__version__ = "0.1.0"
