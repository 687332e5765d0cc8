"""Numerical differential topology of free loop spaces.

Charts on the loop space of an embedded manifold through local additions,
the weak L^2 metric with its looped Levi-Civita connection, tubular
neighbourhoods of coincidence and fixed-point submanifolds, and the Fourier
polarization of complex loops, all at finite resolution, with every identity
verified against closed-form oracles or finite differences.
"""

from .loops import (
    FourierRep,
    SampledLoop,
    ck_seminorm,
    derivative,
    evaluate,
    loop_from_dict,
    loop_to_csv,
    loop_to_dict,
    random_bandlimited_loop,
    rotate,
    to_fourier,
    to_samples,
)
from .manifolds import (
    EmbeddedManifold,
    Flat,
    FlatTorus2,
    LocalAdditionSpec,
    Sphere2,
    TangentAtPoint,
    exp_map,
    log_by_shooting,
    log_map,
    manifold_from_tag,
    parallel_transport,
    project_tangent,
    random_tangent,
)
from .charts import (
    Chart,
    TangentSection,
    chart_forward,
    chart_inverse,
    chart_membership,
    loop_map,
    random_section,
    section_from_ambient,
    transition,
    vertical_derivative,
    zero_section,
)
from .geometry import (
    ConnectionSpec,
    LoopPath,
    MatrixLoop,
    bundle_chart,
    cov_deriv_along_path,
    curve_of_loops_derivative,
    exp_nonsurjectivity_witness,
    frame_from_module_map,
    l2_inner,
    loop_geodesic,
    loop_parallel_transport,
    rotation_matrix_loop,
    torsion,
)
from .tubes import (
    FinitePointMap,
    FlowDiffeo,
    based_detrivialize,
    based_trivialize,
    coset_mean_residual,
    diagonal_tube_forward,
    diagonal_tube_inverse,
    equivariant_decompose,
    equivariant_recompose,
    local_average,
    point_tube_forward,
    point_tube_inverse,
    pou_section,
)
from .polarization import (
    FourierSplit,
    OperatorBlocks,
    compactness_profile,
    fourier_split,
    fredholm_data,
    fredholm_index,
    toeplitz_blocks,
    winding_number,
)

__version__ = "0.1.0"
