"""Independent reference computations shared by the tests."""

import numpy as np

from netinv.dirichlet import PD_TOL, ZERO_TOL, RegimeTag
from netinv.elastic import ElasticNetwork, spring_conductivity, spring_directions
from netinv.fileio import SchemaError, parse_complex
from netinv.graph import (
    FieldError,
    Graph,
    MatrixEdgeField,
    MatrixNodeField,
    build_graph,
)
from netinv.operators import (
    COMMUTE_TOL,
    JOINT_SWEEPS,
    JOINT_TOL,
    RANK_TOL,
    EigenData,
    eigen_decompose,
    laplacian_matrix,
    schrodinger_matrix,
)

# Largest imaginary entry a conductivity may have and still count as real.
_IMAG_TOL = 1e-12


def vec(a: np.ndarray) -> np.ndarray:
    """Column-major stacking of a matrix into a vector."""
    return np.asarray(a).reshape(-1, order="F")


def unvec(v: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    return np.asarray(v).reshape(shape, order="F")


def gradient_matrix(g: Graph, d: int) -> np.ndarray:
    """Dense discrete gradient, shape (d|E|, d|V|), canonical column ordering.

    Row block for edge (i, j) with i < j carries +I_d at i and -I_d at j.
    """
    pi, pj = g.edge_positions()
    e = np.arange(g.num_edges)
    D = np.zeros((g.num_edges, d, g.num_vertices, d))
    D[e, :, pi] = np.eye(d)
    D[e, :, pj] = -np.eye(d)
    return D.reshape(d * g.num_edges, d * g.num_vertices)


def projected_gradient_matrix(g: Graph, eig: EigenData) -> np.ndarray:
    """diag(x)^T nabla as a dense matrix, shape (sum_e r_e, d|V|): one row
    per used (edge, column) pair, edge by edge."""
    r = eig.rank
    edge, col = np.nonzero(np.arange(r) >= r - eig.ranks[:, None])
    xt = eig.x[edge, :, col]  # (sum_e r_e, d)
    pi, pj = g.edge_positions()
    rows = np.arange(len(edge))
    P = np.zeros((len(edge), g.num_vertices, eig.d))
    P[rows, pi[edge]] = xt
    P[rows, pj[edge]] = -xt
    return P.reshape(len(edge), g.num_vertices * eig.d)


def korn_constants(sigma: MatrixEdgeField) -> tuple[float, float, float]:
    """(lambda_min, smallest positive eigenvalue, lambda_max) over all edge
    blocks of a real conductivity."""
    if np.abs(sigma.values.imag).max(initial=0.0) > _IMAG_TOL:
        raise FieldError("korn constants require a real conductivity")
    all_eigs = np.linalg.eigvalsh(sigma.values.real).ravel()
    lam_max = float(all_eigs.max())
    positive = all_eigs[all_eigs > RANK_TOL * max(lam_max, np.finfo(float).tiny)]
    if positive.size == 0:
        raise FieldError("conductivity has no positive eigenvalues")
    return float(all_eigs.min()), float(positive.min()), lam_max


def cylinder_graph(path: Graph, layer: Graph, boundary=None) -> Graph:
    """Cartesian product graph: vertex (j, v) gets id j * |V(layer)| + v.

    Edge order matches the weight layout of :func:`cylinder_scalar_weights`:
    first all within-layer edges (layer 0, 1, ...), then all rungs.
    """
    k = path.num_vertices
    d = layer.num_vertices
    edges: list[tuple[int, int]] = []
    for j in range(k):
        for a, b in layer.edges:
            edges.append((j * d + a, j * d + b))
    for j in range(k - 1):
        for v in range(d):
            edges.append((j * d + v, (j + 1) * d + v))
    if boundary is None:
        boundary = [0]
    return build_graph(k * d, boundary, edges)


def cylinder_scalar_weights(layer_weights, coupling_weights) -> np.ndarray:
    """Scalar weight vector matching the edge order of :func:`cylinder_graph`."""
    return np.concatenate([np.asarray(w, dtype=float).ravel() for w in layer_weights]
                          + [np.asarray(w, dtype=float).ravel() for w in coupling_weights])


def cylinder_permutation(path: Graph, layer: Graph, cyl: Graph) -> np.ndarray:
    """Index map pi with M_path == M_cyl[pi][:, pi].

    Canonical index ``path.position[j] * d + v`` of the block operator on the
    path corresponds to canonical index ``cyl.position[j * d + v]`` of the
    scalar operator on the product graph.
    """
    d = layer.num_vertices
    pi = np.empty(path.num_vertices * d, dtype=int)
    for j in range(path.num_vertices):
        for v in range(d):
            pi[path.position[j] * d + v] = cyl.position[j * d + v]
    return pi


def frequency_pencil(net: ElasticNetwork) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mass, damping and stiffness parts (M, C, K) of the pencil
    -w^2 M + j w C + K in the canonical ordering: M has m(i) I per vertex,
    C has c_e(e) x(e) x(e)^T per edge and c_v(i) I per vertex, x(e) the
    spring direction, and K is the Laplacian of the spring conductivity."""
    g, d = net.graph, net.d
    dirs = spring_directions(net)
    xx, eye = dirs[:, :, None] * dirs[:, None, :], np.eye(d)
    mass = schrodinger_matrix(g, np.zeros((g.num_edges, d, d)),
                              np.asarray(net.mass)[:, None, None] * eye)
    damping = schrodinger_matrix(g, np.asarray(net.c_e)[:, None, None] * xx,
                                 np.asarray(net.c_v)[:, None, None] * eye)
    return mass, damping, laplacian_matrix(g, spring_conductivity(net).values)


def dtn_pseudoinverse_oracle(g: Graph, sigma: MatrixEdgeField) -> np.ndarray:
    """Independent SVD-pseudoinverse form of the rank-deficient map."""
    M, nb = laplacian_matrix(g, sigma.values), sigma.d * g.num_boundary
    if not g.num_interior:
        return M[:nb, :nb].copy()
    return M[:nb, :nb] - M[:nb, nb:] @ np.linalg.pinv(M[nb:, nb:]) @ M[nb:, :nb]


def _product_in_order_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for one pair of matrices, as a sum of outer products taken in
    index order."""
    return sum(np.outer(a[:, k], b[k]) for k in range(a.shape[1]))


def _diagonalize_jointly_loop(x: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Cyclic Jacobi rotations of the columns of x (d, r) with the joint
    angle for a = x^T sigma' x and b = x^T sigma'' x, one pair of scalars at
    a time; the rotated x and diagonal of a."""
    x = x.copy()
    ea, eb = (np.frexp(np.abs(m).max())[1] for m in (a, b))
    a, b = np.ldexp(a, -ea), np.ldexp(b, -eb)
    r = x.shape[1]
    for _ in range(JOINT_SWEEPS):
        for p in range(r - 1):
            for q in range(p + 1, r):
                h = [(m[p, p] - m[q, q], m[p, q] + m[q, p]) for m in (a, b)]
                ton = sum(h0 * h0 - h1 * h1 for h0, h1 in h)
                toff = 2.0 * sum(h0 * h1 for h0, h1 in h)
                rad = np.sqrt(ton * ton + toff * toff)
                if ton >= 0:
                    u, v = ton + rad, toff
                else:
                    u, v = abs(toff), np.copysign(rad - ton, toff)
                n = np.sqrt(u * u + v * v)
                if n > 0:
                    c = np.sqrt(0.5 + 0.5 * (u / n))
                    s = v / n / (2.0 * c)
                else:
                    c, s = 1.0, 0.0
                for m in (x.T, a, a.T, b, b.T):
                    mp, mq = m[p].copy(), m[q].copy()
                    m[p], m[q] = c * mp + s * mq, c * mq - s * mp
    return x, np.ldexp(np.diag(a), ea)


def eigen_decompose_loop(sigma: MatrixEdgeField) -> tuple[list, list]:
    """Per-edge eigendecomposition, one edge at a time: lists of the kept
    eigenvectors x(e) (d, r_e) and eigenvalues lambda(e) (r_e,), with the
    same keep rule, joint rotation, sign rule and checks as
    ``eigen_decompose``."""
    xs, lams = [], []
    for e, block in enumerate(sigma.values):
        sr = block.real
        si = block.imag
        comm = sr @ si - si @ sr
        scale = np.linalg.norm(sr) * np.linalg.norm(si)
        if np.linalg.norm(comm) > COMMUTE_TOL * max(scale, 1e-300):
            raise FieldError(f"real and imaginary parts of edge {e} do not commute")
        w, v = np.linalg.eigh(sr)
        keep = w > RANK_TOL * max(w.max(initial=0.0), np.finfo(float).tiny)
        if not keep.any():
            raise FieldError(f"edge {e} has zero real part")
        x = v[:, keep]
        lam_real = w[keep]
        if x.shape[1] > 1:
            b = _product_in_order_loop(x.T, _product_in_order_loop(si, x))
            off = np.abs(b - np.diag(np.diag(b))).max()
            if off > JOINT_TOL * np.abs(b).max():
                x, lam_real = _diagonalize_jointly_loop(x, np.diag(lam_real), b)
        for c in range(x.shape[1]):
            col = x[:, c]
            nz = np.flatnonzero(np.abs(col) > 1e-14)
            if nz.size and col[nz[0]] < 0:
                x[:, c] = -col
        proj_out = si - x @ (x.T @ si @ x) @ x.T
        if np.linalg.norm(proj_out) > 1e-8 * max(np.linalg.norm(si), 1.0):
            raise FieldError(
                f"nullspace of real part of edge {e} not contained in that of imaginary part")
        xs.append(x)
        lams.append(lam_real + 1j * np.diag(x.T @ si @ x))
    return xs, lams


def reconstruct_from_eigen(eig: EigenData) -> MatrixEdgeField:
    """Edge blocks x diag(lambda) x^T rebuilt from eigendata."""
    return MatrixEdgeField.from_blocks((eig.x * eig.lam[:, None, :]) @ eig.x.transpose(0, 2, 1))


def admissible_extent_bisection(spec, p, dp, sign: float, t_max: float) -> float:
    """Largest |t| <= t_max in the given direction keeping p + t dp
    admissible, by doubling and 60 bisection steps on ``spec.admissible``."""
    t = 0.0
    hi = 1.0
    while hi <= t_max and spec.admissible(p + sign * hi * dp):
        t = hi
        hi *= 2.0
    lo, hi = t, min(hi, t_max)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if spec.admissible(p + sign * mid * dp):
            lo = mid
        else:
            hi = mid
    return lo


def every_vertex_reaches_the_boundary(g: Graph) -> bool:
    """Reachability as the fixed point of r = r or A r, from the boundary
    indicator r, with A the dense adjacency matrix."""
    A = np.zeros((g.num_vertices, g.num_vertices), dtype=int)
    for i, j in g.edges:
        A[i, j] = A[j, i] = 1
    r = np.isin(np.arange(g.num_vertices), g.boundary)
    while True:
        grown = r | (A @ r > 0)
        if (grown == r).all():
            return bool(r.all())
        r = grown


def classify_regime_eigvalsh(g: Graph, sigma: MatrixEdgeField,
                             q: MatrixNodeField | None) -> RegimeTag:
    """Regime tag by the full spectrum: sigma' > 0 is lambda_min(sigma'_e) >
    PD_TOL lambda_max(sigma'_e) on every edge, which makes the real interior
    Laplacian positive definite, so with q_I' >= 0 criterion (i) holds;
    otherwise the PD criteria compare its smallest eigenvalue lambda_II, from
    a dense eigvalsh, with a margin. The same order and tolerances as
    ``classify_regime``, which needs every vertex to reach the boundary."""
    if not every_vertex_reaches_the_boundary(g):
        return RegimeTag.UNSUPPORTED

    def margin(x):
        return PD_TOL * (1.0 + abs(x))

    def blocks_min_eig(blocks):
        return float(np.linalg.eigvalsh(blocks).min())

    sr = sigma.values.real
    q_values = q.values if q is not None else np.zeros((g.num_vertices, sigma.d, sigma.d))
    qr = q_values.real
    edge_eigs = np.linalg.eigvalsh(sr)
    sigma_min = float(edge_eigs.min())
    pd_edges = (edge_eigs[:, 0] > PD_TOL * edge_eigs[:, -1]).all()
    sigma_scale = np.abs(sr).max(initial=0.0)
    nb = sigma.d * g.num_boundary
    Lr_II = laplacian_matrix(g, sr).real[nb:, nb:]
    lam_II = float(np.linalg.eigvalsh(Lr_II).min()) if Lr_II.size else 0.0
    q_I = qr[list(g.interior)] if g.interior else np.zeros((0, sigma.d, sigma.d))
    q_I_min = blocks_min_eig(q_I) if len(q_I) else np.inf

    # (i) sigma' > 0 and q_I' > -lambda_min((L_sigma')_II), where lambda_II > 0
    if pd_edges:
        if q_I_min >= 0 or q_I_min + lam_II > margin(lam_II):
            return RegimeTag.PD_SIGMA
    # (ii) q_I' > 0 and (L_sigma')_II > -lambda_min(diag(q_I'))
    if g.interior and q_I_min > PD_TOL * (1.0 + np.abs(q_I).max(initial=0.0)):
        if lam_II + q_I_min > margin(q_I_min):
            return RegimeTag.PD_Q
    if not g.interior and len(q_values) and blocks_min_eig(qr[list(g.boundary)]) > PD_TOL:
        return RegimeTag.PD_Q

    def is_zero(values):
        return np.abs(values).max(initial=0.0) <= ZERO_TOL

    if not is_zero(q_values) or sigma_min <= -PD_TOL * (1.0 + sigma_scale):
        return RegimeTag.UNSUPPORTED
    if (np.abs(sigma.values).reshape(g.num_edges, -1).max(axis=1) <= ZERO_TOL).any():
        return RegimeTag.UNSUPPORTED
    try:
        eigen_decompose(sigma)
    except FieldError:
        return RegimeTag.UNSUPPORTED
    return RegimeTag.PSD_REAL if is_zero(sigma.values.imag) else RegimeTag.PSD_COMMUTING


def schur_complement(M: np.ndarray, nb: int) -> np.ndarray:
    """M_BB - M_BI M_II^-1 M_IB by one dense np.linalg.solve."""
    return M[:nb, :nb] - M[:nb, nb:] @ np.linalg.solve(M[nb:, nb:], M[nb:, :nb])


def dense_route(M: np.ndarray, nb: int, rows: list, floppy: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """The Schur complement and the canonical state matrix of the dense
    canonical operator M by the level elimination on the interior ``rows``
    of a route, run on M itself: each level block gathered from M by fancy
    indexing (a view of M for one level), M_II plus gamma F F^T for floppy
    modes F, gamma the power of two just below M_II's largest diagonal
    entry, and M_II and the right-hand side divided exactly by that entry's
    power of two beyond 2^500. The state matrix solves in real arithmetic
    when M_IB has no imaginary part."""

    def eliminate(rhs):
        A = M[nb:, nb:]
        e = int(np.frexp(np.abs(A.diagonal()).max(initial=0.0))[1])
        if e > 500:
            A, rhs, e = np.ldexp(1.0, -e) * A, np.ldexp(1.0, -e) * rhs, 0
        if floppy is not None and floppy.shape[1]:
            A = A + np.ldexp(1.0, e - 1) * (floppy[nb:] @ floppy[nb:].T)
        S, solves = A[rows[-1]][:, rows[-1]], []
        for r, s in zip(rows[-2::-1], rows[:0:-1]):
            Z = np.linalg.solve(S, A[s[:, None], r])
            S = A[r[:, None], r] - A[r[:, None], s] @ Z
            solves.append(Z)
        return S, solves, rhs

    S, _, M_IB = eliminate(M[nb:, :nb])
    schur = M[:nb, :nb] - M[:nb, nb:][:, rows[0]] @ np.linalg.solve(S, M_IB[rows[0]])
    rhs = M[nb:, :nb]
    S, solves, rhs = eliminate(rhs.real if np.iscomplexobj(rhs) and not rhs.imag.any() else rhs)
    x = np.linalg.solve(S, rhs[rows[0]])
    out = np.empty(rhs.shape, dtype=x.dtype)
    out[rows[0]] = x
    for s, Z in zip(rows[1:], reversed(solves)):
        out[s] = x = -(Z @ x)
    return schur, np.vstack([np.eye(nb, dtype=complex), -out])


def range_basis(floppy: np.ndarray, nb: int) -> np.ndarray:
    """A real orthonormal basis Q of the interior range in the supported
    rank-deficient regimes: the orthogonal complement of the interior rows of
    the floppy modes, the left singular vectors of I - F F^T for its unit
    singular values."""
    F = floppy[nb:]
    u = np.linalg.svd(np.eye(len(F)) - F @ F.T)[0]
    return u[:, :len(F) - F.shape[1]]


def complex_state_matrix(M: np.ndarray, nb: int, Q: np.ndarray | None = None) -> np.ndarray:
    """Dirichlet states [I; -M_II^-1 M_IB] (through the interior range basis
    Q when given) by complex LU, whatever the imaginary part of M; the DtN
    map is M[:nb] @ states."""
    M = np.asarray(M, dtype=complex)
    M_II, M_IB = M[nb:, nb:], M[nb:, :nb]
    if Q is None:
        X = np.linalg.solve(M_II, M_IB)
    else:
        Qc = Q.astype(complex)
        X = Qc @ np.linalg.solve(Qc.T @ M_II @ Qc, Qc.T @ M_IB)
    return np.vstack([np.eye(nb, dtype=complex), -X])


def relative_error(a: np.ndarray, b: np.ndarray, scale: np.ndarray) -> float:
    """max |a - b| relative to the largest entry of ``scale``: the operator
    for a DtN map, the state matrix for states (a map or its states can
    vanish, e.g. with one boundary vertex and no potential)."""
    return float(np.abs(a - b).max() / np.abs(scale).max())


def block_outer_split_full(S: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The blocks W+ and W- of the exact split of W = graph._block_outer(S,
    S, b) with a column for every pair of states, i <= j (W+) and i < j (W-),
    whether or not the two states meet, by fancy indexing over whole arrays.

    W+ has rows (k, c <= a): X_r = S[k b + a, i] S[k b + c, j] times sqrt(2)
    (i < j) or 1 (i = j) where c = a, and X_r + X_pi(r) times 1 (i < j) or
    1/sqrt(2) (i = j) elsewhere, pi swapping c and a; W- has rows (k, c < a)
    and holds X_r - X_pi(r).
    """
    n = S.shape[1]
    T = S.reshape(-1, b, n)
    c, a = np.triu_indices(b)
    i, j = np.triu_indices(n)
    pairs, off = c < a, i < j
    X = T[:, a][:, :, i] * T[:, c][:, :, j]
    X_pi = T[:, c[pairs]][:, :, i] * T[:, a[pairs]][:, :, j]
    W_minus = X[:, pairs][:, :, off] - X_pi[:, :, off]
    X[:, pairs] += X_pi
    X *= 2.0 ** (0.5 * ((c == a).astype(int)[:, None] - (i == j)))
    return (X.reshape(len(T) * c.size, i.size),
            W_minus.reshape(len(T) * int(pairs.sum()), int(off.sum())))


def meeting_pairs(S: np.ndarray, b: int) -> np.ndarray:
    """For every pair i <= j of columns of S, in np.triu_indices order,
    whether both are nonzero in one group of b rows, pair by pair."""
    groups = S.reshape(-1, b, S.shape[1])
    return np.array([any(g[:, i].any() and g[:, j].any() for g in groups)
                     for i, j in zip(*np.triu_indices(S.shape[1]))], dtype=bool)


def complex_field_per_entry(values: list, shape: tuple[int, ...], name) -> np.ndarray:
    """The complex array of ``shape`` (every axis after the first nonzero)
    held by the nested JSON lists ``values``, one ``parse_complex`` per index
    of ``np.ndindex``, following the path from block k down to the entry; a
    SchemaError names block k by ``name(k)`` and says where the nesting
    departs from ``shape``."""
    out = np.empty(shape, dtype=complex)
    for index in np.ndindex(shape):
        node = values[index[0]]
        try:
            for length, i in zip(shape[1:], index[1:]):
                if not isinstance(node, list):
                    raise SchemaError(f"expected a list of {length}, got {node!r}")
                if len(node) != length:
                    raise SchemaError(f"expected a list of {length}, got a list of {len(node)}")
                node = node[i]
            out[index] = parse_complex(node)
        except SchemaError as exc:
            raise SchemaError(f"bad {name(index[0])}: {exc}") from exc
    return out
