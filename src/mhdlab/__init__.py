"""mhdlab: mild-solution laboratory for 3-D incompressible MHD on a periodic box.

Subpackages by responsibility:

- :mod:`mhdlab.fields`: grids, fields, spectral transforms, exact operators
- :mod:`mhdlab.field_io`: the MHF1 field file format
- :mod:`mhdlab.kernels`: heat semigroup, curl inversion, fractional integrals
- :mod:`mhdlab.morrey`: Morrey-norm estimation and weighted seminorms
- :mod:`mhdlab.mild`: nonlinear terms, Duhamel map, fixed-point iteration, time stepper
- :mod:`mhdlab.theory`: recursion bounds, exponent regions, vector identities
- :mod:`mhdlab.initial_data`: data families for experiments
- :mod:`mhdlab.verify`: property suites with pinned reference values
- :mod:`mhdlab.cli`: the ``mhdlab`` command-line front end
"""

__version__ = "0.1.0"

from .fields import (  # noqa: F401
    Grid,
    ScalarField,
    SpectralField,
    VectorField,
    curl,
    dealias,
    divergence,
    gradient,
    lp_norm,
    make_grid,
    project_div_free,
    to_physical,
    to_spectral,
)
from .kernels import (  # noqa: F401
    HeatParams,
    biot_savart,
    heat_grad_propagate,
    heat_propagate,
    heat_time_derivative,
    riesz_potential,
)
from .mild import (  # noqa: F401
    DivergenceError,
    IterationReport,
    MhdTrace,
    TimeMesh,
    current_source,
    duhamel_integral,
    picard_sweep,
    reference_timestepper,
    run_picard,
    stretching_form,
    vorticity_flux,
    weak_star_check,
)
from .morrey import (  # noqa: F401
    BallSampling,
    MorreyParams,
    holder_check,
    interpolation_check,
    morrey_norm,
    smoothing_ratio_scan,
    weighted_seminorms,
)
from .theory import (  # noqa: F401
    ConstantsLedger,
    E2Witness,
    RegionQuery,
    beta_C,
    cor1_recursion,
    e2_witness_search,
    lemma1_bound_check,
    region_a1,
    region_a2,
    region_e1,
    smallness_threshold,
    vector_identity_check,
)
