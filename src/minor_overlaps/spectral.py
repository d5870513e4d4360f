"""Symmetric eigendecomposition, audited overlap readers, and interlacing checks.

Eigenvalues are kept in descending order everywhere (index 1 = largest),
matching the convention that quantile ``x`` measures spectral mass *above*
the value.  The minor of an ``N x N`` matrix is its bare leading ``n x n``
block, decomposed at size ``n``; its eigenvectors live on the first ``n``
coordinates.

A decomposition is a :class:`ReducedEig`.  :func:`reduced_eig` reduces with
LAPACK, called directly from numpy's bundled OpenBLAS (loaded on first use by
:func:`_openblas`), and forms eigenvectors, or the coefficients of given
vectors on them, only when asked; given a request, it finds only the
requested eigenvectors of the tridiagonal form.  :func:`eig_sym` wraps
``eigh``, whose ``Q`` is the identity.  Overlaps are read through :func:`overlap_row`,
:func:`overlap_columns` (every column gives the whole grid) and
:func:`overlap_entry`, which audit what they read.  :func:`eigpair_at`
computes one eigenpair by index with LAPACK ``dsyevr`` (:func:`eigpair_backend`
names the one in use).  Both LAPACK routines fall back to a full ``eigh``
where numpy's OpenBLAS does not export what they need.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

_INT, _CHR, _I64, _PTR, _DBL = (ctypes.c_int, ctypes.c_char, ctypes.c_int64, ctypes.c_void_p,
                                ctypes.c_double)
#: argument types of the ``LAPACKE_<name>_work`` routines of an ILP64 build
_ARGTYPES = {
    # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz,
    # work, lwork, iwork, liwork
    "dsyevr": [_INT, _CHR, _CHR, _CHR, _I64, _PTR, _I64, _DBL, _DBL, _I64, _I64, _DBL, _PTR,
               _PTR, _PTR, _I64, _PTR, _PTR, _I64, _PTR, _I64],
    # layout, uplo, n, a, lda, d, e, tau, work, lwork
    "dsytrd": [_INT, _CHR, _I64, _PTR, _I64, _PTR, _PTR, _PTR, _PTR, _I64],
    # layout, compz, n, d, e, z, ldz, work, lwork, iwork, liwork
    "dstedc": [_INT, _CHR, _I64, _PTR, _PTR, _PTR, _I64, _PTR, _I64, _PTR, _I64],
    # layout, side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork
    "dormtr": [_INT, _CHR, _CHR, _CHR, _I64, _I64, _PTR, _I64, _PTR, _PTR, _I64, _PTR, _I64],
    # n, d, e (no layout argument, no workspace)
    "dsterf": [_I64, _PTR, _PTR],
    # layout, n, d, e, m, w, iblock, isplit, z, ldz, work, iwork, ifail
    "dstein": [_INT, _I64, _PTR, _PTR, _I64, _PTR, _PTR, _PTR, _PTR, _I64, _PTR, _PTR, _PTR],
}
#: the routines :func:`reduced_eig` calls; without any of them it falls back to ``eigh``
_REDUCTION = ("dsytrd", "dstedc", "dormtr", "dsterf", "dstein")
#: LAPACK's relative machine precision ``dlamch('E')``, which ``dsterf`` splits ``T`` with
_LAPACK_EPS = np.finfo(float).eps / 2
_COL_MAJOR = 102  # LAPACK_COL_MAJOR; a symmetric matrix reads the same in either layout
#: numpy's ``eigh`` (LAPACK ``dsyevd``) rescales a matrix whose largest entry lies
#: outside ``[_RMIN, _RMAX]`` before reducing it
_SMLNUM = np.finfo(float).tiny / np.finfo(float).eps
_RMIN, _RMAX = float(np.sqrt(_SMLNUM)), float(np.sqrt(1.0 / _SMLNUM))


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS (scipy-openblas, 64-bit integers) as a CDLL, or None.

    Each routine of ``_ARGTYPES`` it exports gets its argument types here, once.
    """
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(libs[0])
    except (IndexError, OSError):
        return None
    for name, argtypes in _ARGTYPES.items():
        fn = getattr(lib, f"scipy_LAPACKE_{name}_work64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = argtypes, _I64
    return lib


def _lapacke(name: str):
    """Typed LAPACKE ``<name>_work`` of numpy's OpenBLAS, or None where it cannot be reached."""
    return getattr(_openblas(), f"scipy_LAPACKE_{name}_work64_", None)


def _lapack(name: str, size: int, *values, integer_work: bool = False):
    """Call LAPACKE ``<name>_work`` in column-major layout, its workspace sized by a query.

    ``values`` are the arguments between the layout and the workspace, which
    is ``work, lwork`` and, with ``integer_work``, also ``iwork, liwork``.  A
    nonzero ``info`` raises ``NumericError`` naming the routine and ``size``.
    """
    def call(lwork, liwork):
        tail = (work.ctypes.data, lwork, iwork.ctypes.data, liwork)
        _call(name, size, _COL_MAJOR, *values, *tail[:4 if integer_work else 2])

    work, iwork = np.ones(1), np.ones(1, dtype=np.int64)
    call(-1, -1)  # workspace query: the optimal lengths land in work[0] and iwork[0]
    work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), dtype=np.int64)
    call(work.size, iwork.size)


def _call(name: str, size: int, *args):
    """Call LAPACKE ``<name>_work`` with ``args``; a nonzero ``info`` raises ``NumericError``."""
    info = _lapacke(name)(*args)
    if info != 0:
        raise NumericError(f"{name} failed on a {size}x{size} matrix: info={info}")


def eigpair_backend() -> str:
    """``"dsyevr"`` when :func:`eigpair_at` solvers call LAPACK directly, else ``"eigh"``."""
    return "eigh" if _lapacke("dsyevr") is None else "dsyevr"


def eigpair_at(size: int):
    """Solver for one eigenpair of symmetric ``size x size`` matrices.

    Returns ``eigpair(a, desc) -> (value, vector)``: the eigenvalue at
    descending index ``desc`` (0 = largest) and a unit eigenvector for it.
    LAPACK's ``dsyevr`` computes that pair alone (``RANGE='I'``), to machine
    precision; its workspace is sized and allocated here, once, so each
    solver serves one thread.  ``a`` must be a writeable C-contiguous float64
    array; ``dsyevr`` overwrites it, and the returned vector is the solver's
    buffer, overwritten by its next call.  Where numpy's OpenBLAS does not
    export ``dsyevr`` (see :func:`eigpair_backend`), the pair is read off a
    full ``np.linalg.eigh`` of ``a`` instead.
    """
    if size < 1:
        raise ValueError(f"need size >= 1, got {size}")
    dsyevr = _lapacke("dsyevr")
    if dsyevr is None:
        def eigpair(a, desc):
            _check_eigpair_input(a, desc, size)
            w, v = np.linalg.eigh(a)
            return w[size - 1 - desc], v[:, size - 1 - desc]
        return eigpair

    w, z = np.empty(size), np.empty(size)
    isuppz, m = np.empty(2, dtype=np.int64), np.empty(1, dtype=np.int64)

    def arguments(a_address, work, iwork, lwork, liwork):
        """dsyevr's arguments as ctypes objects: a call passes them unconverted."""
        values = (_COL_MAJOR, b"V", b"I", b"L", size, a_address, size, 0.0, 0.0, 1, 1, 0.0,
                  m.ctypes.data, w.ctypes.data, z.ctypes.data, size, isuppz.ctypes.data,
                  work.ctypes.data, lwork, iwork.ctypes.data, liwork)
        return [kind(value) for kind, value in zip(_ARGTYPES["dsyevr"], values)]

    # workspace query: dsyevr reports its optimal sizes and reads no matrix
    work, iwork, query = np.empty(1), np.empty(1, dtype=np.int64), np.zeros((size, size))
    info = dsyevr(*arguments(query.ctypes.data, work, iwork, -1, -1))
    if info != 0:
        raise NumericError(f"dsyevr workspace query failed at size {size}: info={info}")
    work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), dtype=np.int64)
    args = arguments(None, work, iwork, work.size, iwork.size)
    a_arg, il_arg, iu_arg = args[5], args[9], args[10]
    last = None  # the last input, whose address a_arg holds: reading it costs ~2 us

    def eigpair(a, desc):
        nonlocal last
        _check_eigpair_input(a, desc, size)
        if a is not last:
            last, a_arg.value = a, a.ctypes.data
        il_arg.value = iu_arg.value = size - desc
        info = dsyevr(*args)
        if info != 0 or m[0] != 1:
            raise NumericError(f"dsyevr failed on a {size}x{size} matrix at descending "
                               f"index {desc}: info={info}, eigenvalues found={m[0]}")
        return w[0], z

    # every buffer whose address LAPACK receives must live as long as the solver
    eigpair.buffers = (w, z, isuppz, m, work, iwork)
    return eigpair


def _check_eigpair_input(a: np.ndarray, desc: int, size: int):
    if (a.shape != (size, size) or a.dtype != np.float64 or not a.flags.c_contiguous
            or not a.flags.writeable):
        raise ValueError(f"expected a writeable C-contiguous float64 {size}x{size} array, "
                         f"got {a.dtype} {a.shape}")
    if not 0 <= desc < size:
        raise ValueError(f"descending index {desc} outside [0, {size})")


def _checked_symmetric(x: np.ndarray):
    """``x`` as a float array with its largest absolute entry, refused unless symmetric.

    A non-square or empty ``x``, or one not exactly symmetric, raises
    ``ValueError``; a non-finite one ``NumericError``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {x.shape}")
    size, largest = x.shape[0], np.maximum(x.max(), -x.min())  # no |x| temporary
    if not np.isfinite(largest):
        raise NumericError(f"symmetric eigensolver got a non-finite {size}x{size} matrix")
    if not np.array_equal(x, x.T):
        raise ValueError("matrix is not exactly symmetric")
    return x, largest


@dataclass(frozen=True)
class ReducedEig:
    """A symmetric matrix ``X = Q T Q^T``, ``T = S diag(w) S^T``, with eigenvectors ``V = Q S``.

    From :func:`reduced_eig`, ``Q`` stays as LAPACK ``dsytrd``'s Householder
    reflectors (``reflectors``, ``tau``), applied (``dormtr``) only to the
    columns :meth:`vectors` and :meth:`coefficients` are asked for.  From
    :func:`eig_sym`, ``Q = I`` and ``S`` is ``eigh``'s ``V``.  ``eigenvalues``
    descend.  With ``held`` None, ``S`` holds every eigenvector of ``T``, its
    columns ascending; otherwise it holds only the eigenvectors at the
    descending indices ``held`` (sorted), one column each, and reading any
    other eigenvector, or any coefficient, raises ``IndexError``.
    """

    eigenvalues: np.ndarray
    tridiagonal_vectors: np.ndarray
    reflectors: np.ndarray | None = None
    tau: np.ndarray | None = None
    held: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def vectors(self, idx):
        """Eigenvectors ``Q S[:, k]`` at descending indices ``idx`` (an int or a list), copied."""
        idx = np.asarray(idx)
        outside = idx[(idx < 0) | (idx >= self.dim)]
        if outside.size:
            raise IndexError(f"descending index {outside.flat[0]} outside [0, {self.dim})")
        if self.held is None:
            cols = self.dim - 1 - idx
        else:
            unheld = idx[~np.isin(idx, self.held)]
            if unheld.size:
                raise IndexError(f"eigenvector at descending index {unheld.flat[0]} "
                                 f"was not requested")
            cols = np.searchsorted(self.held, idx)
        return self._apply_q(np.take(self.tridiagonal_vectors, cols, axis=1), b"N")

    def coefficients(self, w: np.ndarray) -> np.ndarray:
        """``V^T w = S^T Q^T w``: the coefficients of ``w`` (a vector, or columns), descending."""
        if self.held is not None:
            raise IndexError("coefficients need every eigenvector, and only "
                             f"{self.held.size} of {self.dim} were requested")
        return (self.tridiagonal_vectors.T @ self._apply_q(w, b"T"))[::-1]

    def reconstruction_error(self, x: np.ndarray) -> float:
        """Max-norm error of ``V diag(w) V^T`` against ``x``, relative to ``max(1, |x|_inf)``."""
        v, w = self.vectors(np.arange(self.dim)), self.eigenvalues
        err = np.max(np.abs((v * w) @ v.T - x))
        return float(err / max(1.0, np.max(np.abs(x))))

    def _apply_q(self, c, trans: bytes) -> np.ndarray:
        """``Q c`` (``trans=b"N"``) or ``Q^T c`` (``b"T"``) of a vector or of columns ``c``."""
        if self.reflectors is None:
            return c
        size = self.dim
        out = np.array(np.reshape(c, (size, -1)), dtype=float, order="F")
        _lapack("dormtr", size, b"L", b"L", trans, size, out.shape[1], self.reflectors.ctypes.data,
                size, self.tau.ctypes.data, out.ctypes.data, size)
        return out.reshape(np.shape(c))


def eig_sym(x: np.ndarray) -> ReducedEig:
    """Every eigenpair of a symmetric matrix by ``eigh``, as a :class:`ReducedEig` with ``Q = I``.

    Input is refused as by :func:`reduced_eig`.
    """
    x, largest = _checked_symmetric(x)
    try:
        w, v = np.linalg.eigh(x)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"symmetric eigensolver failed on {x.shape[0]}x{x.shape[0]} matrix "
            f"(|X|_inf={largest:.3e}): {exc}"
        ) from exc
    return ReducedEig(eigenvalues=w[::-1].copy(), tridiagonal_vectors=v)


def reduced_eig(x: np.ndarray, request=None) -> ReducedEig:
    """Every eigenvalue of a symmetric matrix, with eigenvectors formed only on request.

    ``request`` names the eigenvectors a caller reads, by descending index:
    None for all of them, an int, a list, or a function that maps the
    descending eigenvalues to an int or a list.  With None, this runs LAPACK
    ``dsytrd`` then ``dstedc('I')`` on a copy of ``x``: the calls, in the
    order, that numpy's ``eigh`` (``dsyevd``) makes, so the eigenvalues equal
    :func:`eig_sym`'s bit for bit.  Only ``eigh``'s last step, the ``N x N``
    back-transform, is skipped: see :class:`ReducedEig`.  Otherwise ``dsterf``
    follows ``dsytrd``, as in ``eigvalsh``, whose eigenvalues it gives bit
    for bit (within ~1e-14 relative of ``eigh``'s), and ``dstein`` finds only
    the requested eigenvectors of ``T`` (:func:`_requested_tridiagonal`).
    Where numpy's OpenBLAS does not export these routines, or where ``eigh``
    rescales ``x`` first (its largest entry is nonzero and outside
    ``[_RMIN, _RMAX]``), this returns :func:`eig_sym`'s decomposition, keeping
    only the requested eigenvectors.  A non-square, empty or inexactly
    symmetric ``x`` raises ``ValueError``, a requested index outside the
    spectrum ``IndexError``, and a non-finite ``x``, or a LAPACK failure,
    ``NumericError``.
    """
    return _reduce_in_place(np.array(x, dtype=float, order="C"), request)


def _reduce_in_place(a: np.ndarray, request=None) -> ReducedEig:
    """:func:`reduced_eig` of ``a``, a C-contiguous float array it overwrites with ``Q``."""
    # symmetric, so its C order is its column-major order
    a, largest = _checked_symmetric(np.require(a, float, ["C", "W"]))
    if (any(_lapacke(name) is None for name in _REDUCTION)
            or 0.0 < largest < _RMIN or largest > _RMAX):
        dec = eig_sym(a)
        if request is None:
            return dec
        held = _requested(request, dec.eigenvalues)
        return ReducedEig(dec.eigenvalues, dec.tridiagonal_vectors[:, dec.dim - 1 - held],
                          held=held)
    size = a.shape[0]
    d, e, tau = np.empty(size), np.empty(size), np.empty(size)
    _lapack("dsytrd", size, b"L", size, a.ctypes.data, size, d.ctypes.data, e.ctypes.data,
            tau.ctypes.data)
    if request is not None:
        w, s, held = _requested_tridiagonal(d, e, request)
        return ReducedEig(eigenvalues=w, tridiagonal_vectors=s, reflectors=a, tau=tau, held=held)
    s = np.empty((size, size), order="F")
    _lapack("dstedc", size, b"I", size, d.ctypes.data, e.ctypes.data, s.ctypes.data, size,
            integer_work=True)
    return ReducedEig(eigenvalues=d[::-1].copy(), tridiagonal_vectors=s, reflectors=a, tau=tau)


def _requested(request, eigenvalues: np.ndarray) -> np.ndarray:
    """The sorted distinct descending indices ``request`` names (see :func:`reduced_eig`)."""
    held = np.unique(np.asarray(request(eigenvalues) if callable(request) else request,
                                dtype=np.int64))
    outside = held[(held < 0) | (held >= eigenvalues.size)]
    if outside.size:
        raise IndexError(f"descending index {outside[0]} outside [0, {eigenvalues.size})")
    return held


def _requested_tridiagonal(d: np.ndarray, e: np.ndarray, request):
    """``(eigenvalues, vectors, held)`` of a tridiagonal ``T``: diagonal ``d``, off-diagonal ``e``.

    Every eigenvalue comes from ``dsterf``, descending; ``held`` are the
    descending indices ``request`` names, and ``vectors`` their eigenvectors
    of ``T`` by inverse iteration (``dstein``), one column each, in the order
    of ``held``.  ``dsterf`` first splits ``T`` into blocks wherever
    ``|e_k| <= eps sqrt|d_k| sqrt|d_k+1|``, and each block's eigenvalues are
    its own; it runs here on each block in turn, which gives the same values
    and tells ``dstein`` the block of each requested eigenvalue, as it needs.
    """
    size = d.size
    split = np.abs(e[:-1]) <= np.sqrt(np.abs(d[:-1])) * np.sqrt(np.abs(d[1:])) * _LAPACK_EPS
    ends = np.append(np.flatnonzero(split) + 1, size)  # one past each block's last row
    w, scratch, start = d.copy(), e.copy(), 0
    for end in ends:
        _call("dsterf", end - start, end - start, w[start:].ctypes.data,
              scratch[start:].ctypes.data)
        start = end
    ascending = np.argsort(w, kind="stable")
    eigenvalues = w[ascending[::-1]]
    held = _requested(request, eigenvalues)
    wanted = ascending[size - 1 - held]  # where dsterf left each held eigenvalue
    where = np.sort(wanted)  # dstein's order: block by block, ascending within a block
    z = np.empty((size, where.size), order="F")
    if where.size:
        # every array whose address LAPACK receives is named, so it outlives the call
        values, block = w[where], np.searchsorted(ends, where, side="right") + 1
        work, iwork = np.empty(5 * size), np.empty(size, dtype=np.int64)
        fail = np.empty(where.size, dtype=np.int64)
        _call("dstein", size, _COL_MAJOR, size, d.ctypes.data, e.ctypes.data, where.size,
              values.ctypes.data, block.ctypes.data, ends.ctypes.data, z.ctypes.data, size,
              work.ctypes.data, iwork.ctypes.data, fail.ctypes.data)
    return eigenvalues, z[:, np.searchsorted(where, wanted)], held


def _audit_overlaps(values: np.ndarray, whole_rows: bool) -> float:
    """Audit squared overlaps laid out as grid rows (minor vectors) by columns (full vectors).

    Every entry must lie in ``[0, 1 + 1e-12]``, every column sum at most
    ``1 + 1e-10`` and, when the rows are whole, every row sum within 1e-10
    of 1; the checks run in that order.  A failed check raises
    ``NumericError``.  Returns the largest row sum error, 0 for partial rows.
    """
    if values.min() < 0 or values.max() > 1 + 1e-12:
        raise NumericError("overlap grid entries escape [0, 1]")
    col_excess = values.sum(axis=0).max() - 1.0
    if col_excess > 1e-10:
        raise NumericError(f"overlap grid column sum exceeds 1 by {col_excess:.3e}")
    row_err = float(np.max(np.abs(values.sum(axis=1) - 1.0))) if whole_rows else 0.0
    if row_err > 1e-10:
        raise NumericError(f"overlap grid row sums deviate from 1 by {row_err:.3e}")
    return row_err


def overlap_row(full, minor, i: int):
    """Row ``i`` of the overlap grid, from the minor's eigenvector ``i`` alone.

    ``full`` and ``minor`` come from :func:`reduced_eig` (or :func:`eig_sym`)
    of a matrix and of its leading block.  Returns ``(row, row_sum_error)``:
    the squared overlaps of that vector with every full eigenvector, audited
    as a whole row, and how far their sum lies from 1.
    """
    padded = np.zeros(full.dim)
    padded[:minor.dim] = minor.vectors(i)
    row = full.coefficients(padded) ** 2
    return row, _audit_overlaps(row[None, :], whole_rows=True)


def overlap_columns(full, minor, cols) -> np.ndarray:
    """Columns ``cols`` (a list or array) of the overlap grid, from those full eigenvectors alone.

    Returns the ``n x len(cols)`` squared overlaps of every minor eigenvector
    (rows, descending) with the full eigenvectors ``cols``, audited as whole
    columns and, when ``cols`` holds every column, as whole rows: then the
    result is the whole grid, each row summing to 1.  A minor larger than the
    full matrix raises ``ValueError``.
    """
    if minor.dim > full.dim:
        raise ValueError(f"minor of size {minor.dim} does not fit a {full.dim}x{full.dim} matrix")
    values = minor.coefficients(full.vectors(cols)[:minor.dim]) ** 2
    _audit_overlaps(values, whole_rows=np.array_equal(np.sort(cols), np.arange(full.dim)))
    return values


def overlap_entry(full, minor, i: int, j: int) -> float:
    """Entry ``(i, j)`` of the overlap grid from two eigenvectors alone, audited."""
    value = float(minor.vectors(i) @ full.vectors(j)[:minor.dim]) ** 2
    _audit_overlaps(np.array([[value]]), whole_rows=False)
    return value


def check_interlacing(full_evals: np.ndarray, minor_evals: np.ndarray):
    """Cauchy interlacing check between a spectrum and its minor's spectrum.

    Returns ``(ok, worst_margin)`` where ``worst_margin`` is the minimal slack
    over all inequalities (negative means a violation of that size).  The
    pass tolerance is ``1e-9 * max(1, |full_evals|_inf)``.
    """
    lam = np.asarray(full_evals, dtype=float)
    mu = np.asarray(minor_evals, dtype=float)
    n_dim, n = lam.size, mu.size
    if n > n_dim:
        raise ValueError("minor spectrum longer than full spectrum")
    upper = lam[:n] - mu                  # requires mu_i <= lam_i
    lower = mu - lam[n_dim - n:]          # requires lam_{i+N-n} <= mu_i
    worst = float(min(upper.min(), lower.min()))
    tol = 1e-9 * max(1.0, float(np.max(np.abs(lam))) if n_dim else 1.0)
    return worst >= -tol, worst


def quantile_index(x: float, size: int) -> int:
    """1-based index at quantile ``x`` of a descending spectrum.

    Index 1 is the LARGEST eigenvalue; ``x`` counts mass from the top, so
    ``x = 0`` maps to the top eigenvalue and ``x = 1`` to the bottom one.
    Rounding is half-up, as in :func:`minor_size`, clamped to ``[1, size]``.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("quantile x must lie in [0, 1]")
    if size < 1:
        raise ValueError("size must be >= 1")
    return int(np.clip(_round_half_up(x * size), 1, size))


def minor_size(q: float, n_dim: int) -> int:
    """Minor size ``n = round(q N)`` for minor fraction ``q``.

    Rounding is half-up, as in :func:`quantile_index`: ``q = 0.5`` at
    ``N = 81`` gives ``n = 41``.  Callers check that ``n`` fits their run.
    """
    return _round_half_up(q * n_dim)


def _round_half_up(v: float) -> int:
    return int(np.floor(v + 0.5))
