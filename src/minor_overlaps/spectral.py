"""Symmetric eigendecomposition, audited overlap readers, and interlacing checks.

Eigenvalues are kept in descending order everywhere (index 1 = largest),
matching the convention that quantile ``x`` measures spectral mass *above*
the value.  The minor of an ``N x N`` matrix is its bare leading ``n x n``
block, decomposed at size ``n``; its eigenvectors live on the first ``n``
coordinates.

Three decompositions serve the package, and each returns ``(eigenvalues,
vectors)``: every eigenvalue, descending, and eigenvectors as columns.
:func:`eig_sym` wraps ``eigh`` and gives every eigenvector.  The other two
call LAPACK directly from numpy's bundled OpenBLAS (bound once, here alone,
by :func:`_openblas`) and form no ``N x N`` eigenvector matrix:
:func:`reduced_eig` gives only the requested eigenvectors, and
:func:`_carry_in_place`, the trial driver's, the coefficients of given
vectors on every eigenvector.  Both fall back to :func:`eig_sym` without
that library or where ``eigh`` would rescale the matrix.
:func:`_audit_overlaps` checks a grid of squared overlaps.
:func:`eigpair_at` computes one eigenpair by index with LAPACK ``dsyevr``
(:func:`eigpair_backend` names the one in use), or a full ``eigh`` likewise.
:func:`_one_blas_thread` holds the library's thread count at one; without
it nothing is held.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager

import numpy as np

from .errors import NumericError, require

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
#: LAPACK's relative machine precision ``dlamch('E')``, which ``dsterf`` splits ``T`` with
_LAPACK_EPS = np.finfo(float).eps / 2
_COL_MAJOR = 102  # LAPACK_COL_MAJOR; a symmetric matrix reads the same in either layout
#: numpy's ``eigh`` (LAPACK ``dsyevd``) rescales a matrix whose largest entry lies
#: outside ``[_RMIN, _RMAX]`` before reducing it
_SMLNUM = np.finfo(float).tiny / np.finfo(float).eps
_RMIN, _RMAX = float(np.sqrt(_SMLNUM)), float(np.sqrt(1.0 / _SMLNUM))
#: entries :func:`_checked_symmetric` compares at a time
_SYMMETRY_CHUNK = 1 << 12


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS (scipy-openblas, 64-bit integers) as a CDLL, or None.

    None unless it exports every routine of ``_ARGTYPES`` and the getter and
    setter of its thread count: one rule picks the LAPACK paths or ``eigh``.
    Each symbol gets its types here, once.
    """
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(libs[0])
        typed = [(getattr(lib, f"scipy_LAPACKE_{name}_work64_"), argtypes, _I64)
                 for name, argtypes in _ARGTYPES.items()]
        typed += [(lib.scipy_openblas_get_num_threads64_, [], _INT),
                  (lib.scipy_openblas_set_num_threads64_, [_INT], None)]
    except (IndexError, OSError, AttributeError):  # no library, or a symbol missing
        return None
    for fn, argtypes, restype in typed:
        fn.argtypes, fn.restype = argtypes, restype
    return lib


@contextmanager
def _one_blas_thread():
    """Hold :func:`_openblas` at one thread for the block, and without it nothing.

    The count is process-wide, so the caller's value is restored on exit.
    ``@_one_blas_thread()`` holds it for each call of the function it decorates.
    """
    lib = _openblas()
    if lib is None:
        yield
        return
    previous = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(previous)


def _lapack(name: str, size: int, *values, integer_work: bool = False, workspace=None):
    """Call LAPACKE ``<name>_work`` in column-major layout, its workspace sized by a query.

    ``values`` are the arguments between the layout and the workspace, which
    is ``work, lwork`` and, with ``integer_work``, also ``iwork, liwork``.
    ``workspace`` is None, to allocate what the query asks for, or ``(work,
    iwork)``, flat arrays at least that long.  A nonzero ``info`` raises
    ``NumericError`` naming the routine and ``size``.
    """
    def call(lwork, liwork):
        tail = (work.ctypes.data, lwork, iwork.ctypes.data, liwork)
        _call(name, size, _COL_MAJOR, *values, *tail[:4 if integer_work else 2])

    work, iwork = np.ones(1), np.ones(1, dtype=np.int64)
    call(-1, -1)  # workspace query: the optimal lengths land in work[0] and iwork[0]
    lwork, liwork = int(work[0]), int(iwork[0])
    if workspace is None:
        work, iwork = np.empty(lwork), np.empty(liwork, dtype=np.int64)
    else:
        work, iwork = workspace
        if work.size < lwork or (integer_work and iwork.size < liwork):
            raise ValueError(f"{name} at size {size} needs a workspace of {lwork} floats "
                             f"and {liwork} integers, got {work.size} and {iwork.size}")
    call(lwork, liwork)


def _call(name: str, size: int, *args):
    """Call LAPACKE ``<name>_work`` with ``args``; a nonzero ``info`` raises ``NumericError``."""
    info = getattr(_openblas(), f"scipy_LAPACKE_{name}_work64_")(*args)
    if info != 0:
        raise NumericError(f"{name} failed on a {size}x{size} matrix: info={info}")


def eigpair_backend() -> str:
    """``"dsyevr"`` when :func:`eigpair_at` solvers call LAPACK directly, else ``"eigh"``."""
    return "eigh" if _openblas() is None else "dsyevr"


def eigpair_at(size: int):
    """Solver for one eigenpair of symmetric ``size x size`` matrices.

    Returns ``eigpair(a, desc) -> (value, vector)``: the eigenvalue at
    descending index ``desc`` (0 = largest) and a unit eigenvector for it.
    LAPACK's ``dsyevr`` computes that pair alone (``RANGE='I'``), to machine
    precision; its workspace is sized and allocated here, once, so each
    solver serves one thread.  ``a`` must be a writeable C-contiguous float64
    array; ``dsyevr`` overwrites it, and the returned vector is the solver's
    buffer, overwritten by its next call.  Without :func:`_openblas` (see
    :func:`eigpair_backend`), the pair is read off a full ``np.linalg.eigh``
    of ``a`` instead.  A ``size`` below 1 is refused by name.
    """
    require("size", size, size >= 1, ">= 1")
    lib = _openblas()
    if lib is None:
        def eigpair(a, desc):
            _check_eigpair_input(a, desc, size)
            w, v = np.linalg.eigh(a)
            return w[size - 1 - desc], v[:, size - 1 - desc]
        return eigpair

    dsyevr = lib.scipy_LAPACKE_dsyevr_work64_
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
    _call("dsyevr", size, *arguments(query.ctypes.data, work, iwork, -1, -1))
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
    ``ValueError``; a non-finite one ``NumericError``.  Symmetry is compared
    in chunks of rows, so no ``x``-sized temporary is made.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {x.shape}")
    size, largest = x.shape[0], np.maximum(x.max(), -x.min())  # no |x| temporary
    if not np.isfinite(largest):
        raise NumericError(f"symmetric eigensolver got a non-finite {size}x{size} matrix")
    step = max(1, _SYMMETRY_CHUNK // size)
    for lo in range(0, size, step):
        # rows lo:lo+step from column lo on, against those columns from row lo down
        if not np.array_equal(x[lo:lo + step, lo:], x[lo:, lo:lo + step].T):
            raise ValueError("matrix is not exactly symmetric")
    return x, largest


def _buffers(size: int):
    """Reduction buffers for matrices up to ``size x size``: see :func:`_carry_in_place`.

    ``(s, work, iwork)``: ``size**2`` floats, the ``size**2 + 4 size + 1``
    floats and ``5 size + 3`` integers LAPACK ``dstedc`` works in, all flat.
    """
    return (np.empty(size * size), np.empty(size * size + 4 * size + 1),
            np.empty(5 * size + 3, dtype=np.int64))


def _dormtr(a: np.ndarray, tau: np.ndarray, c: np.ndarray, trans: bytes):
    """Overwrite the Fortran-ordered columns ``c`` with ``Q c`` (``b"N"``) or ``Q^T c`` (``b"T"``).

    ``Q`` is given by ``tau`` and the Householder vectors ``dsytrd`` left
    below the diagonal of ``a`` (:func:`_tridiagonal`).
    """
    size = tau.size
    _lapack("dormtr", size, b"L", b"L", trans, size, c.shape[1], a.ctypes.data, size,
            tau.ctypes.data, c.ctypes.data, size)


def eig_sym(x: np.ndarray):
    """Every eigenpair of a symmetric matrix by ``eigh``: ``(eigenvalues, vectors)``.

    The eigenvalues descend, and the eigenvectors are the columns of a
    C-ordered ``N x N`` array, in the same order.  A non-square, empty or
    inexactly symmetric ``x`` raises ``ValueError``, a non-finite one, or an
    ``eigh`` failure, ``NumericError``.
    """
    x, largest = _checked_symmetric(x)
    try:
        w, v = np.linalg.eigh(x)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"symmetric eigensolver failed on {x.shape[0]}x{x.shape[0]} matrix "
            f"(|X|_inf={largest:.3e}): {exc}"
        ) from exc
    return w[::-1].copy(), np.ascontiguousarray(v[:, ::-1])  # products round by their layout


def reduced_eig(x: np.ndarray, request):
    """Every eigenvalue of a symmetric matrix and the eigenvectors ``request`` names.

    ``request`` names them by descending index: an int, a list, or a function
    that maps the descending eigenvalues to an int or a list.  Returns
    ``(eigenvalues, vectors)``: every eigenvalue, descending, and the
    eigenvectors at the sorted distinct indices requested, one column each,
    in that order.  LAPACK ``dsytrd`` reduces a copy of ``x``
    to tridiagonal ``T = Q^T x Q``, ``dsterf`` finds every eigenvalue of ``T``,
    as in ``eigvalsh``, whose eigenvalues it gives bit for bit (within ~1e-14
    relative of ``eigh``'s), ``dstein`` finds only the requested eigenvectors
    of ``T`` (:func:`_requested_tridiagonal`), and one ``dormtr`` call forms
    them.  Without :func:`_openblas`, or where ``eigh`` rescales ``x`` first
    (:func:`_takes_eigh`), this reads the same
    from :func:`eig_sym`.  Input is refused as by :func:`eig_sym`, and a
    requested index outside the spectrum raises ``IndexError``.
    """
    return _reduce_in_place(np.array(x, dtype=float, order="C"), request)


def _takes_eigh(largest: float) -> bool:
    """Whether to decompose by :func:`eig_sym`: no :func:`_openblas`, or ``eigh`` would rescale."""
    return _openblas() is None or 0.0 < largest < _RMIN or largest > _RMAX


def _tridiagonal(a: np.ndarray):
    """``(d, e, tau)`` of LAPACK ``dsytrd`` on ``a``, whose lower triangle it overwrites."""
    size = a.shape[0]
    d, e, tau = np.empty(size), np.empty(size), np.empty(size)
    _lapack("dsytrd", size, b"L", size, a.ctypes.data, size, d.ctypes.data, e.ctypes.data,
            tau.ctypes.data)
    return d, e, tau


def _reduce_in_place(a: np.ndarray, request):
    """:func:`reduced_eig` of ``a``, a C-contiguous float array it overwrites; free on return."""
    # symmetric, so its C order is its column-major order
    a, largest = _checked_symmetric(np.require(a, float, ["C", "W"]))
    if _takes_eigh(largest):
        w, v = eig_sym(a)
        return w, v[:, _requested(request, w)]
    d, e, tau = _tridiagonal(a)
    w, z = _requested_tridiagonal(d, e, request)
    vectors = np.array(z, order="F")
    _dormtr(a, tau, vectors, b"N")
    return w, vectors


def _carry_in_place(a: np.ndarray, reads: np.ndarray, buffers):
    """Every eigenvalue of ``a`` and the coefficients of ``reads`` on its eigenvectors.

    Returns ``(eigenvalues, coefficients)``, both descending, as ``w`` and
    ``v.T @ reads`` from :func:`eig_sym`'s ``(w, v)``, with no ``N x N``
    back-transform: ``dsytrd`` reduces ``a`` (C-contiguous, overwritten) to
    ``T = Q^T a Q``, ``dormtr`` overwrites ``reads`` (columns of ``a``'s
    size, copied unless Fortran-ordered) with ``Q^T reads``, and ``dstedc``
    finds ``T = S diag(w) S^T``, writing ``S`` into ``buffers[0]`` and
    working in the rest of ``buffers`` (:func:`_buffers`), which may hold
    ``a``.  These are ``eigh``'s calls in its order, so the eigenvalues equal
    :func:`eig_sym`'s bit for bit.  Where :func:`_takes_eigh`, both are read
    off :func:`eig_sym`.  Input is refused as by :func:`eig_sym`, and
    ``reads`` of another size raise ``ValueError``.
    """
    a, largest = _checked_symmetric(np.require(a, float, ["C", "W"]))
    reads = np.require(reads, float, ["F", "W"])
    if reads.ndim != 2 or reads.shape[0] != a.shape[0]:
        raise ValueError(f"reads of shape {reads.shape} are not columns of size {a.shape[0]}")
    if _takes_eigh(largest):
        w, v = eig_sym(a)
        return w, v.T @ reads
    size = a.shape[0]
    d, e, tau = _tridiagonal(a)
    _dormtr(a, tau, reads, b"T")
    s, work, iwork = buffers
    s = s[:size * size].reshape((size, size), order="F")
    _lapack("dstedc", size, b"I", size, d.ctypes.data, e.ctypes.data, s.ctypes.data, size,
            integer_work=True, workspace=(work, iwork))
    return d[::-1].copy(), (s.T @ reads)[::-1]


def _requested(request, eigenvalues: np.ndarray) -> np.ndarray:
    """The sorted distinct descending indices ``request`` names (see :func:`reduced_eig`)."""
    # sorted and deduplicated by hand: np.unique imports numpy.ma on its first call
    held = np.sort(np.asarray(request(eigenvalues) if callable(request) else request,
                              dtype=np.int64).ravel())
    distinct = np.ones(held.size, dtype=bool)
    distinct[1:] = held[1:] != held[:-1]
    held = held[distinct]
    outside = held[(held < 0) | (held >= eigenvalues.size)]
    if outside.size:
        raise IndexError(f"descending index {outside[0]} outside [0, {eigenvalues.size})")
    return held


def _requested_tridiagonal(d: np.ndarray, e: np.ndarray, request):
    """``(eigenvalues, vectors)`` of a tridiagonal ``T``: diagonal ``d``, off-diagonal ``e``.

    Every eigenvalue comes from ``dsterf``, descending; ``vectors`` are the
    eigenvectors of ``T`` at the sorted distinct descending indices
    ``request`` names, by inverse iteration (``dstein``), one column each.
    ``dsterf`` first splits ``T`` into blocks wherever
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
    return eigenvalues, z[:, np.searchsorted(where, wanted)]


def _audit_overlaps(values: np.ndarray, whole_rows: bool):
    """Audit squared overlaps laid out as grid rows (minor vectors) by columns (full vectors).

    Every entry must lie in ``[0, 1 + 1e-12]``, every column sum at most
    ``1 + 1e-10`` and, when the rows are whole, every row sum within 1e-10
    of 1; the checks run in that order.  A failed check raises
    ``NumericError``.
    """
    if values.min(initial=0.0) < 0 or values.max(initial=0.0) > 1 + 1e-12:
        raise NumericError("overlap grid entries escape [0, 1]")
    col_excess = values.sum(axis=0).max(initial=1.0) - 1.0
    if col_excess > 1e-10:
        raise NumericError(f"overlap grid column sum exceeds 1 by {col_excess:.3e}")
    row_err = float(np.max(np.abs(values.sum(axis=1) - 1.0))) if whole_rows else 0.0
    if row_err > 1e-10:
        raise NumericError(f"overlap grid row sums deviate from 1 by {row_err:.3e}")


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
    require("x", x, 0.0 <= x <= 1.0, "in [0, 1]")
    require("size", size, size >= 1, ">= 1")
    return int(np.clip(_round_half_up(x * size), 1, size))


def minor_size(q: float, n_dim: int) -> int:
    """Minor size ``n = round(q N)`` for minor fraction ``q``.

    Rounding is half-up, as in :func:`quantile_index`: ``q = 0.5`` at
    ``N = 81`` gives ``n = 41``.  Callers check that ``n`` fits their run.
    """
    return _round_half_up(q * n_dim)


def _round_half_up(v: float) -> int:
    return int(np.floor(v + 0.5))
