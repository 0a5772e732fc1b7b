"""Independent references for the benchmark's correctness checks.

Nothing here calls ``netinv`` assembly, Dirichlet, product-matrix or
uniqueness code: operators are assembled by an explicit loop over edges, DtN
maps go through a dense pseudoinverse, and singular values come from a W that
is contracted here from ``spec.states`` and reduced by a blocked QR, so the
reference never holds the whole m x n^2 matrix.
"""

from __future__ import annotations

import numpy as np

from inputs import Network


def canonical_order(net: Network) -> list[int]:
    """Vertex ids in block order: boundary as listed, then interior ascending."""
    bset = set(net.boundary)
    return list(net.boundary) + [v for v in range(net.num_vertices) if v not in bset]


def spring_blocks(net: Network, weights: np.ndarray) -> np.ndarray:
    """weight(e) x(e) x(e)^T per edge, x(e) the unit spring direction."""
    out = np.empty((len(net.edges), net.d, net.d))
    for e, (i, j) in enumerate(net.edges):
        x = net.positions[i] - net.positions[j]
        x = x / np.sqrt(x @ x)
        out[e] = weights[e] * np.outer(x, x)
    return out


def assemble(net: Network, blocks: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
    """Dense block operator sum_e (+B, -B; -B, +B) plus diag(q), block order."""
    d = net.d
    pos = {v: k for k, v in enumerate(canonical_order(net))}
    M = np.zeros((d * net.num_vertices,) * 2, dtype=complex)
    for (i, j), b in zip(net.edges, blocks):
        a, c = d * pos[i], d * pos[j]
        M[a:a + d, a:a + d] += b
        M[c:c + d, c:c + d] += b
        M[a:a + d, c:c + d] -= b
        M[c:c + d, a:a + d] -= b
    if q is not None:
        for v in range(net.num_vertices):
            a = d * pos[v]
            M[a:a + d, a:a + d] += q[v]
    return M


def dtn_reference(net: Network) -> np.ndarray:
    """Schur complement M_BB - M_BI pinv(M_II) M_IB of the network operator."""
    if net.blocks is not None:
        M = assemble(net, net.blocks, net.q)
    else:
        M = assemble(net, spring_blocks(net, net.k))
    nb = net.d * len(net.boundary)
    pinv = np.linalg.pinv(M[nb:, nb:], rcond=1e-10, hermitian=True)
    return M[:nb, :nb] - M[:nb, nb:] @ pinv @ M[nb:, :nb]


def singular_value_ratio(states: np.ndarray, block: int, m: int, n: int,
                         chunk_rows: int = 1024) -> float:
    """sigma_min / sigma_max of W built from the (ell, n) state matrix.

    Row (e, a, b) of W, column (i, j) is S[e*block + a, i] * S[e*block + b, j]:
    the per-entry outer product pairing of the conductivity spec
    (``block`` = d) and the Hadamard pairing of the eigenvalue specs
    (``block`` = 1). Row and column order do not change singular values.
    """
    if m > n * n:
        return 0.0
    S = states.reshape(-1, block, n)
    step = max(1, chunk_rows // n)
    R = np.zeros((0, m), dtype=complex)
    for j0 in range(0, n, step):
        cols = np.einsum("eai,ebj->jieab", S, S[:, :, j0:j0 + step]).reshape(-1, m)
        R = np.linalg.qr(np.vstack([R, cols]), mode="r")
    s = np.linalg.svd(R, compute_uv=False)
    return float(s.min() / s.max())


def admissible_segment(p: np.ndarray, dp: np.ndarray, t_max: float = 1e6) -> tuple[float, float]:
    """Open interval of t with Re(p + t dp) > 0 entrywise (scalar conductivity)."""
    pr, dr = p.real, dp.real
    hi = min([t_max] + [-a / b for a, b in zip(pr, dr) if b < 0])
    lo = min([t_max] + [a / b for a, b in zip(pr, dr) if b > 0])
    return -lo, hi
