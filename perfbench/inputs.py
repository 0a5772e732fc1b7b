"""Seeded input generators: square grids with SPD blocks and braced trusses.

Every generator takes a ``numpy.random.Generator``; the same seed gives the
same inputs. Networks are produced as JSON documents in the ``netinv`` network
schema, so the command line tool reads exactly what the library calls see.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Network:
    """A generated network: vertex count, boundary ids, edge pairs and data.

    ``blocks`` holds one real d x d conductivity block per edge (grids);
    ``positions``/``k``/``c_e``/``mass``/``c_v`` describe a spring truss.
    """

    d: int
    num_vertices: int
    boundary: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    blocks: np.ndarray | None = None
    q: np.ndarray | None = None
    positions: np.ndarray | None = None
    k: np.ndarray | None = None
    c_e: np.ndarray | None = None
    mass: np.ndarray | None = None
    c_v: np.ndarray | None = None
    omega: float | None = None


def _perimeter(n: int) -> tuple[int, ...]:
    return tuple(r * n + c for r in range(n) for c in range(n)
                 if r in (0, n - 1) or c in (0, n - 1))


def _grid_edges(n: int, braced: bool) -> tuple[tuple[int, int], ...]:
    edges = []
    for r in range(n):
        for c in range(n):
            v = r * n + c
            if c + 1 < n:
                edges.append((v, v + 1))
            if r + 1 < n:
                edges.append((v, v + n))
            if braced and r + 1 < n and c + 1 < n:
                # both diagonals: with a single brace per cell, interior nodes
                # of degree below 5 make the static spring constants
                # non-identifiable, and Newton could not recover them
                edges.append((v, v + n + 1))
                edges.append((v + 1, v + n))
    return tuple(edges)


def spd_blocks(rng: np.random.Generator, count: int, d: int,
               lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    """Real symmetric blocks with eigenvalues uniform in [lo, hi]."""
    lam = rng.uniform(lo, hi, size=(count, d))
    if d == 1:
        return lam.reshape(count, 1, 1)
    theta = rng.uniform(0.0, np.pi, size=count)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], 1)
    return np.einsum("eab,eb,ecb->eac", rot, lam, rot)


def grid(rng: np.random.Generator, n: int, d: int, with_q: bool = False) -> Network:
    """n x n grid, perimeter as boundary, random SPD edge blocks (d <= 2)."""
    edges = _grid_edges(n, braced=False)
    q = spd_blocks(rng, n * n, d, 0.1, 1.0) if with_q else None
    return Network(d=d, num_vertices=n * n, boundary=_perimeter(n), edges=edges,
                   blocks=spd_blocks(rng, len(edges), d), q=q)


def truss(rng: np.random.Generator, n: int, dynamic: bool = False) -> Network:
    """n x n braced planar spring truss with jittered positions, perimeter as
    boundary. ``dynamic`` adds spring and nodal damping at omega = 1."""
    edges = _grid_edges(n, braced=True)
    nv, ne = n * n, len(edges)
    base = np.array([[c, r] for r in range(n) for c in range(n)], dtype=float)
    positions = base + rng.uniform(-0.15, 0.15, size=base.shape)
    return Network(
        d=2, num_vertices=nv, boundary=_perimeter(n), edges=edges,
        positions=positions, k=rng.uniform(0.5, 2.0, ne),
        c_e=rng.uniform(0.1, 0.5, ne) if dynamic else np.zeros(ne),
        mass=rng.uniform(0.5, 2.0, nv),
        c_v=rng.uniform(0.2, 1.0, nv) if dynamic else np.zeros(nv),
        omega=1.0 if dynamic else None,
    )


def _matrix_json(block: np.ndarray) -> list:
    return [[float(x) for x in row] for row in block]


def network_doc(net: Network) -> dict:
    """The network in the ``netinv`` JSON schema."""
    bset = set(net.boundary)
    vertices = []
    for v in range(net.num_vertices):
        entry: dict = {"id": v}
        if v in bset:
            entry["boundary"] = True
        if net.positions is not None:
            entry["position"] = [float(x) for x in net.positions[v]]
            entry["mass"] = float(net.mass[v])
            entry["c_v"] = float(net.c_v[v])
        vertices.append(entry)
    edges = []
    for e, (i, j) in enumerate(net.edges):
        entry = {"i": i, "j": j}
        if net.blocks is not None:
            entry["sigma"] = _matrix_json(net.blocks[e])
        else:
            entry["k"] = float(net.k[e])
            entry["c_e"] = float(net.c_e[e])
        edges.append(entry)
    doc: dict = {"d": net.d, "vertices": vertices, "edges": edges}
    if net.q is not None:
        doc["q"] = [_matrix_json(b) for b in net.q]
    if net.omega is not None:
        doc["omega"] = net.omega
    return doc


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path
