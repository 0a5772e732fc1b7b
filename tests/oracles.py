"""Independent reference computations shared by the tests."""

import numpy as np

from netinv.graph import Graph, MatrixEdgeField
from netinv.operators import assemble_laplacian


def dtn_pseudoinverse_oracle(g: Graph, sigma: MatrixEdgeField) -> np.ndarray:
    """Independent SVD-pseudoinverse form of the rank-deficient map."""
    op = assemble_laplacian(g, sigma)
    if not g.num_interior:
        return op.BB.copy()
    return op.BB - op.BI @ np.linalg.pinv(op.II) @ op.IB
