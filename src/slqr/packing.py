"""Half-vectorization helpers for symmetric matrices.

Quadratic forms z^T S z are linear in the packed coefficients of S, which is
what lets a Q-function kernel be estimated by least squares. Two packings of
the upper triangle are used together:

    vech(S)  plain upper-triangle entries (features: vech(z z^T))
    vecs(S)  upper-triangle entries with off-diagonals doubled (parameters)

so that vech(z z^T) @ vecs(S) == z @ S @ z exactly. Scan order is row-major
over the upper triangle (the np.triu_indices order).

congruence(F) is the matrix of X -> sum_c F_c X F_c^T in vech coordinates.
It is T's matrix for the moment operator's factor stack (analysis.packed)
and the learner's gain map K_L, phi(x, L x) = K_L vech(x x^T), for the one
factor [I; L].

as_matrix reads every matrix, vector, factor-stack and number argument of
the package; it lives here, below every other module, so that these helpers
read their input through it too.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ValidationError


def as_matrix(mat, name: str, shape: tuple[int | None, ...] | None = None,
              square: bool = False, finite: bool = True) -> np.ndarray:
    """mat as a float array (not a copy when it is one already); raise
    ValidationError, naming it by name, unless it holds real numbers, not
    bools, strings or None, that convert to float, has as many axes as shape
    has entries (0: a real number, 1: a vector, 3: a matrix stack; a matrix
    without a shape), is square if square is set, of the given shape if one
    is (None takes any size on its axis) and, if finite is set, finite."""
    ndim = 2 if shape is None else len(shape)
    kind = ("real number", "vector", "matrix", "matrix stack")[ndim]
    what = f"a {kind} of real numbers" if ndim else "a real number"
    try:
        arr = np.asarray(mat)
        if arr.dtype.kind not in "fiuO":    # casting would take bools, strings, complex
            raise TypeError
        if arr.dtype.kind == "O" and any(v is None for v in arr.flat):
            raise TypeError                 # casting would read None as nan
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be {what}") from None
    if arr.ndim != ndim:
        what = f"a {ndim}-d {kind}" if ndim else what
        raise ValidationError(f"{name} must be {what}, got shape {arr.shape}")
    if square and arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    if shape is not None:
        if None in shape:
            shape = tuple(arr.shape[k] if size is None else size for k, size in enumerate(shape))
        if arr.shape != shape:
            raise ValidationError(f"{name} must have shape {shape}, got {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise ValidationError(f"{name} has non-finite entries")
    return arr


def packed_length(n: int) -> int:
    """Length of the packed upper triangle of an n x n matrix."""
    return n * (n + 1) // 2


@functools.lru_cache(maxsize=None)
def packed_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the packed entries in scan order, np.triu_indices(n).

    Built once per size and returned read-only, because every pack and unpack
    of a kernel needs them.
    """
    indices = np.triu_indices(n)
    for index in indices:
        index.setflags(write=False)
    return indices


def side_from_packed_length(s: int) -> int:
    """Inverse of packed_length; raises ValidationError if s is not triangular."""
    n = int((np.sqrt(8 * s + 1) - 1) / 2 + 0.5)
    if n * (n + 1) // 2 != s:
        raise ValidationError(f"length {s} is not n*(n+1)/2 for any integer n")
    return n


def symmetrize(mat, name: str = "matrix", shape: tuple[int, int] | None = None,
               finite: bool = False) -> np.ndarray:
    """(M + M^T)/2, formed as M/2 + M^T/2 so that it cannot overflow, of mat
    read by as_matrix under name: a matrix of the given shape, else a square
    one (empty allowed), finite if finite is set. The one read of a
    symmetric argument: its asymmetry max |M - M^T| above 1e-8 of its scale
    (max |entry|, at least 1) is a ValidationError that starts with name,
    not something to silently average away.
    """
    mat = as_matrix(mat, name, shape, square=shape is None, finite=finite)
    half = mat / 2.0
    scale = max(np.abs(mat).max(initial=0.0), 1.0)
    asym = 2.0 * float(np.abs(half - half.T).max(initial=0.0))   # a Python float: inf on overflow
    if asym > 1e-8 * scale:
        raise ValidationError(
            f"{name} is asymmetric: max |M - M^T| = {asym:.3e} "
            f"exceeds 1.0e-08 relative to scale {scale:.3e}"
        )
    return half + half.T


def congruence(factors: np.ndarray) -> np.ndarray:
    """X -> sum_c F_c X F_c^T on symmetric q x q X in vech coordinates, for
    p x q factors F_c stacked as (c, p, q): the p(p+1)/2 x q(q+1)/2 matrix M
    with vech(sum_c F_c X F_c^T) = M vech(X).

    Row (i, j) and column (a, b), i <= j and a <= b in scan order, hold
    sum_c F_c[i,a] F_c[j,b] + F_c[i,b] F_c[j,a], halved on the diagonal
    columns a = b, where X[a,b] and X[b,a] are one coordinate. One batched
    product forms every sum_c F_c[i,a] F_c[j,b]: for each row (i, j) the
    (q, c) block of rows i times the (c, q) block of rows j. Both columns of
    an entry are then taken from it at flat indices a*q + b and b*q + a.
    factors must be a 3-d stack of real numbers (as_matrix), finite or not.
    """
    factors = as_matrix(factors, "factors", (None, None, None), finite=False)
    p, q = factors.shape[1:]
    rows, cols = packed_indices(p)
    a, b = packed_indices(q)
    # terms[(i, j), a*q + b] = sum_c F_c[i,a] F_c[j,b]
    terms = factors.transpose(1, 2, 0)[rows] @ factors.transpose(1, 0, 2)[cols]
    terms = terms.reshape(len(rows), q * q)
    mat = np.take(terms, a * q + b, axis=1)
    mat += np.take(terms, b * q + a, axis=1)
    mat[:, a == b] *= 0.5
    return mat


def vech(mat: np.ndarray) -> np.ndarray:
    """Pack the upper triangle of a symmetric matrix, row-major scan; mat
    must be a square matrix of real numbers (as_matrix), finite or not."""
    mat = as_matrix(mat, "matrix", square=True, finite=False)
    rows, cols = packed_indices(len(mat))
    return mat[rows, cols]


def vecs(mat: np.ndarray) -> np.ndarray:
    """Pack the upper triangle with off-diagonal entries doubled (input as vech)."""
    mat = as_matrix(mat, "matrix", square=True, finite=False)
    rows, cols = packed_indices(len(mat))
    out = mat[rows, cols].copy()
    out[rows != cols] *= 2.0
    return out


def unvech(vec: np.ndarray) -> np.ndarray:
    """Invert vech: the symmetric matrix whose upper triangle is packed in vec,
    a 1-d vector of real numbers (as_matrix, named "packed vector"), finite
    or not, of a triangular length (side_from_packed_length)."""
    vec = as_matrix(vec, "packed vector", (None,), finite=False)
    n = side_from_packed_length(len(vec))
    rows, cols = packed_indices(n)
    mat = np.empty((n, n))
    mat[rows, cols] = vec
    mat[cols, rows] = vec
    return mat


def unvecs(vec: np.ndarray) -> np.ndarray:
    """Invert vecs: rebuild the symmetric matrix from a doubled-off-diagonal packing."""
    mat = unvech(vec)
    mat[~np.eye(len(mat), dtype=bool)] /= 2.0
    return mat
