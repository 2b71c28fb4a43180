"""The placement LP, solved exactly by vertex enumeration.

FlexGen's placement LP (paper §2.2) is tiny: at most three fraction
variables plus the step time ``t``, three task-time rows, two memory rows
and box bounds.  The box bounds give the feasible region vertices, and
``t >= 0`` bounds the objective, so a feasible LP has an optimal vertex:
the solution of ``nvars + 1`` tight rows.  :func:`vertex_lp` solves every
such basis in one batched :func:`numpy.linalg.solve` (at most 495 for
three variables, 120 for two) and keeps the feasible points of least
``t``.  Each row is scaled to a largest coefficient of 1 first: task
rows are in seconds and memory rows in bytes.

Most placement LPs have a whole optimal face, not one optimal vertex.
:func:`vertex_lp` returns one canonical vertex of it: the one with the
fewest tight task-time rows, then the least fractions compared from the
last variable to the first (``hg``, then ``cg``, then ``wg``).  The
planner snaps it to the grid and scores its neighbours; seeding the
search with every optimal vertex instead would break exact score ties
differently (DESIGN.md §5c).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from repro.errors import PolicyError

#: Rows with ``|det|`` at most this (after each row is scaled to a largest
#: coefficient of 1) do not define a vertex.
SINGULAR = 1e-12
#: A point violating a scaled row by more than this is infeasible; a
#: task-time row with slack within it is tight.
SLACK_TOL = 1e-9
#: Vertices within this relative distance of the least ``t`` are optimal.
OPTIMAL_RTOL = 1e-9


@functools.lru_cache(maxsize=None)
def _bases(tasks: int, memories: int, nvars: int) -> np.ndarray:
    """The ``(nvars + 1)``-row subsets of :func:`vertex_lp`'s rows that can
    be a basis, as a read-only index array.

    Rows are ordered: task times, memories, ``x <= 1``, ``x >= 0``, then
    ``t >= 0``.  A subset holding both bounds of one variable, or no row
    with a ``t`` term, is singular by construction and left out: 335 of
    the 495 subsets remain for three variables, 92 of 120 for two.
    """
    upper = tasks + memories
    lower = upper + nvars
    with_t = set(range(tasks)) | {lower + nvars}
    out = np.array(
        [
            rows
            for rows in itertools.combinations(range(lower + nvars + 1), nvars + 1)
            if with_t.intersection(rows)
            and not any(upper + i in rows and lower + i in rows for i in range(nvars))
        ],
        dtype=np.intp,
    )
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _permutations(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Every permutation of ``range(size)`` and its sign, for Leibniz
    determinants (one gather and one product for a whole batch; LAPACK's
    per-matrix overhead dominates at this size)."""
    perms = np.array(list(itertools.permutations(range(size))), dtype=np.intp)
    later = np.triu(np.ones((size, size), dtype=bool), 1)
    inversions = ((perms[:, :, None] > perms[:, None, :]) & later).sum(axis=(1, 2))
    signs = np.where(inversions % 2, -1.0, 1.0)
    return perms, signs


def vertex_lp(
    t0: np.ndarray,
    t_mat: np.ndarray,
    g0: np.ndarray,
    g_mat: np.ndarray,
    caps: np.ndarray,
) -> np.ndarray:
    """Canonical optimal ``x`` of the placement LP.

    Minimise ``t`` over ``(x, t)`` subject to ``t >= t0 + t_mat @ x`` (one
    row per task), ``g0 + g_mat @ x <= caps`` (one row per memory),
    ``0 <= x <= 1`` and ``t >= 0``.  Returns the ``nvars`` fractions of the
    canonical optimal vertex (see the module docstring), clipped into
    ``[0, 1]`` and never ``-0.0``.
    Raises :class:`PolicyError` when no vertex is feasible.
    """
    tasks, nvars = t_mat.shape
    eye = np.eye(nvars + 1)
    a = np.vstack([
        np.hstack([t_mat, -np.ones((tasks, 1))]),
        np.hstack([g_mat, np.zeros((len(g0), 1))]),
        eye[:nvars],
        -eye,
    ])
    b = np.concatenate([-t0, caps - g0, np.ones(nvars), np.zeros(nvars + 1)])
    scale = np.abs(a).max(axis=1)
    a /= scale[:, None]
    b /= scale

    bases = _bases(tasks, len(g0), nvars)
    mats = a[bases]
    perms, signs = _permutations(nvars + 1)
    det = mats[:, np.arange(nvars + 1), perms].prod(axis=-1) @ signs
    regular = np.abs(det) > SINGULAR
    bases = bases[regular]
    z = np.linalg.solve(mats[regular], b[bases][..., None])[..., 0]
    slack = b - z @ a.T
    feasible = (slack >= -SLACK_TOL).all(axis=1)
    if not feasible.any():
        raise PolicyError(
            "placement LP infeasible: no vertex satisfies every constraint"
        )
    z, slack = z[feasible], slack[feasible]
    t = z[:, -1]
    t_star = t.min()
    optimal = t <= t_star + OPTIMAL_RTOL * abs(t_star)
    x = z[optimal, :nvars]
    tight = (np.abs(slack[optimal, :tasks]) <= SLACK_TOL).sum(axis=1)
    # lexsort's last key is the primary one: tight rows, then x from the
    # last variable to the first.
    best = np.lexsort(np.vstack([x.T, tight]))[0]
    # A bound-tight coordinate can come out as -0.0 or a rounding error
    # off its bound; clip into the box, and + 0.0 turns -0.0 into 0.0.
    return np.clip(x[best], 0.0, 1.0) + 0.0
