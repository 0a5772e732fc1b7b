"""Forward and inverse problems on networks with matrix-valued weights.

Block graph Laplacians and Schrodinger operators, Dirichlet solvers in
positive-definite and rank-deficient regimes, Dirichlet-to-Neumann maps, a
linearization engine for several inverse problems and spring/mass/damper
networks, plus the ``netinv`` command line tool.
"""

from .dirichlet import (
    DirichletRegime,
    DtnMap,
    FloppyBasis,
    RegimeError,
    RegimeTag,
    classify_regime,
    dtn_pd,
    dtn_psd,
    floppy_basis,
)
from .elastic import (
    ElasticNetwork,
    displacement_to_forces,
    make_spec_eigenvalues,
    make_spec_masses_known_springs,
    make_spec_springs_known_masses,
    make_spec_static_springs,
    spring_conductivity,
    spring_directions,
)
from .fileio import (
    NetworkModel,
    SchemaError,
    load_matrix,
    load_network,
    save_matrix,
)
from .graph import (
    FieldError,
    Graph,
    GraphError,
    MatrixEdgeField,
    MatrixNodeField,
    VectorNodeField,
    build_graph,
)
from .inversion import (
    InadmissibleParameterError,
    LineScan,
    NewtonTrace,
    ProblemSpec,
    UniquenessVerdict,
    fd_jacobian,
    identity_residual,
    jacobian,
    line_rank_scan,
    make_spec_conductivity,
    make_spec_schrodinger,
    newton_invert,
    product_matrix,
    uniqueness_test,
)
from .operators import (
    EigenData,
    cylinder_embed,
    eigen_decompose,
    laplacian_matrix,
    schrodinger_matrix,
)

__version__ = "0.1.0"
