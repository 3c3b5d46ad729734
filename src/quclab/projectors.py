"""Universal projector construction: schedule arithmetic, deterministic
unitary-orbit joins of block codes, and the assembled block projectors with
their trace-rate bounds.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .codes import BlockCode, all_sequences, build_code
from .errors import ConfigError, ValidationError, check_budget, solving
from .operators import IDEMPOTENT_TOL, hermitian_eig
from .processes import IIDProcess
from .sources import QuantumSource

# Singular values below JOIN_RTOL (relative) are rounding, not new join directions.
JOIN_RTOL = 1e-10


@dataclass(frozen=True)
class Schedule:
    m: int
    d: int
    r: float
    i: int
    l: int
    n: int
    R: float


def schedule(m: int, d: int, r: float) -> Schedule:
    """Block-length schedule: the unique i with
    2^i d^(3 2^i) <= m < 2^(i+1) d^(3 2^(i+1))."""
    if d < 2:  # for d = 0 the bound is 0 for every i and the search never ends
        raise ValidationError(f"site dimension d = {d} must be >= 2")
    if m < d ** 3:
        raise ValidationError(f"m = {m} below the admissible minimum {d ** 3}")
    i = 0
    while not (2 ** i * d ** (3 * 2 ** i) <= m < 2 ** (i + 1) * d ** (3 * 2 ** (i + 1))):
        i += 1
        if 2 ** i * d ** (3 * 2 ** i) > m:
            raise ValidationError(f"no admissible schedule index for m = {m}")
    l = 2 ** i
    return Schedule(m=m, d=d, r=r, i=i, l=l, n=m // l, R=l * r)


def _type_classes(D: int, n: int):
    """Type classes (weight spaces) of the D^n computational basis: each
    class's symbol counts and member indices (ascending), and the moves
    (class, target class, src) of the Chevalley generators J_{b+1,b} in
    descending height h(c) = sum_a (D - a) c_a (lowering), then J_{b-1,b}
    in ascending height (raising), one a symbol b the class holds.  J_ab =
    sum_i E_ab^(i) maps counts c to c + e_a - e_b, and row y of the
    |target| x c_a table src holds the positions, within the class, of the
    sequences J_ab sends onto target member y: J_ab B = sum_j B[src[:, j]]."""
    digits = all_sequences(D, n)
    counts = np.stack([(digits == a).sum(axis=1) for a in range(D)], axis=1)
    order = np.lexsort(counts.T)
    starts = np.flatnonzero(np.diff(counts[order], axis=0, prepend=-1).any(axis=1))
    members = np.split(order, starts[1:])
    classes = [tuple(c) for c in counts[order[starts]].tolist()]
    position, class_of = np.empty((2, D ** n), dtype=np.int64)
    for t, idx in enumerate(members):
        position[idx] = np.arange(len(idx))
        class_of[idx] = t
    weight = D ** np.arange(n - 1, -1, -1)

    def move(t, a, b):  # the target holds class t's first member with one b read as a
        first = members[t][0]
        target = class_of[first + (a - b) * weight[np.argmax(digits[first] == b)]]
        dst = members[target]
        rows, sites = np.nonzero(digits[dst] == a)
        return t, int(target), position[dst[rows] + (b - a) * weight[sites]].reshape(len(dst), -1)

    down = np.argsort(digits[order[starts]].sum(axis=1), kind="stable")  # h = n D - digit sum
    held = [np.flatnonzero(counts[idx[0]]).tolist() for idx in members]
    return classes, members, ([move(t, b + 1, b) for t in down for b in held[t] if b < D - 1],
                              [move(t, b - 1, b) for t in down[::-1] for b in held[t] if b])


def _join_bytes(D: int, n: int, size: int) -> int:
    """Bytes the join of a size-member code over D^n sequences holds before
    its class blocks grow: the code's membership mask, one byte a sequence;
    the type-class tables with their temporaries, at most 3 n D int64 a
    sequence and 512 bytes of Python objects a move, one a J_{b+-1,b} and
    class holding b; and the start blocks, one float64 unit column a member
    over its class, at most multinomial(n; n/D, ..., n/D) rows."""
    # 2 (D - 1) generators, and C(n + D - 2, D - 1) classes hold each symbol b
    moves = 2 * (D - 1) * math.comb(n + D - 2, D - 1)
    largest = math.factorial(n) // math.prod(math.factorial(n // D + (a < n % D))
                                             for a in range(D))
    return D ** n * (1 + 24 * n * D) + 512 * moves + 8 * size * largest


def _svd_bytes(m: int, w: int) -> int:
    """Peak bytes of _orthonormal over an m x w stack, r = min(m, w): the
    stack, LAPACK's copy with U, S, V^T and its workspace (at most
    4 r^2 + 8 r doubles and 64 (m + w) of panels), the returned U and V^T."""
    r = min(m, w)
    return 8 * (2 * m * w + 2 * m * r + 2 * r * w + 4 * r * r + 9 * r + 64 * (m + w))


def _orthonormal(cols: np.ndarray) -> tuple[np.ndarray, float]:
    """Orthonormal basis of span(cols), cutting singular values at
    JOIN_RTOL * max(s_max, 1): a join direction has norm 1, so columns that
    are numerically zero add nothing (and need no SVD).  Also returns the
    Frobenius norm of the part cut off, the distance of cols from that span."""
    norm = float(np.linalg.norm(cols))
    if norm <= JOIN_RTOL:
        return cols[:, :0], norm
    with solving("orbit join: SVD of a class block"):
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
    keep = s > JOIN_RTOL * max(s[0], 1.0)
    return u[:, keep], float(np.linalg.norm(s[~keep]))


@dataclass
class JoinResult:
    """Orthonormal basis of the unitary-orbit join, the rank of each type
    class (keyed by symbol counts) and the invariance certificate of the
    2 (D - 1) Chevalley generators, whose commutators give every J_ab."""

    basis: np.ndarray
    class_ranks: dict[tuple[int, ...], int]
    invariance_residual: float

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def matrix(self) -> np.ndarray:
        return self.basis @ self.basis.T


def orbit_join_basis(members: np.ndarray, block_dim: int, n: int) -> JoinResult:
    """The unitary-orbit join of a code: the smallest subspace holding the
    computational basis vector of every sequence index in `members` (in
    [0, block_dim^n)) and invariant under U^{(x)n} for every block unitary U.

    By Schur-Weyl duality that is the smallest such subspace invariant under
    the collective generators J_ab, a != b, which represent gl_D.  As
    [J_ab, J_bc] = J_ac the Chevalley generators J_{a+1,a} and J_{a,a+1}
    suffice, and as U(gl_D) = U(n+) U(h) U(n-) (Poincare-Birkhoff-Witt) with
    U(h) keeping each type class, the join is the raising closure of the
    code's lowering closure.  A generator moves a class one step in height,
    so each closure is one sweep of class blocks, started as the unit
    columns of each class's members: a class pushes each move once, its
    block final, and the push, projected twice off the target block, extends
    it by an orthonormal basis of what is left.  The basis is real.

    `invariance_residual` bounds max_J ||(1 - QQ^T) J Q|| over the Chevalley
    J: each lowering move pushed again on the final blocks, each raising move
    by what its SVD cut off (its target only grows after that).

    The members are validated before any table is built.  The tables and
    start blocks are checked against the memory budget before they exist;
    each class SVD or certificate push, beside the blocks the join holds,
    before the push is formed; the D^n x rank basis before it is allocated.
    """
    members = np.asarray(members)
    if members.ndim != 1 or members.dtype.kind not in "iu":
        raise ValidationError(f"members must be a 1-D integer array, got {members.ndim}-D "
                              f"{members.dtype}")
    if members.size and (members.min() < 0 or members.max() >= block_dim ** n):
        raise ValidationError(f"a member index lies outside [0, {block_dim}^{n})")
    up_front = _join_bytes(block_dim, n, members.size)
    check_budget(up_front, f"orbit join over {block_dim}^{n} sequences")
    in_code = np.zeros(block_dim ** n, dtype=bool)
    in_code[members] = True
    classes, class_seqs, (lowering, raising) = _type_classes(block_dim, n)
    blocks = [np.equal.outer(seqs, seqs[in_code[seqs]]).astype(float) for seqs in class_seqs]
    held = up_front + sum(b.nbytes for b in blocks)

    def residual(t, target, src, passes):  # J B_t, projected off the target block
        pushed = blocks[t][src[:, 0]]
        for j in range(1, src.shape[1]):
            pushed += blocks[t][src[:, j]]
        for _ in range(passes):
            pushed -= blocks[target] @ (blocks[target].T @ pushed)
        return pushed

    for sweep in (lowering, raising):
        cut = 0.0
        for t, target, src in sweep:
            (m, w), p = blocks[target].shape, blocks[t].shape[1]
            if p and w < m:  # an empty block pushes nothing, a full one takes nothing
                check_budget(held + 8 * m * p + _svd_bytes(m, p) + 8 * m * (w + p),
                             f"orbit join: SVD of a {m} x {p} class block")
                new, dropped = _orthonormal(residual(t, target, src, 2))
                blocks[target] = np.hstack([blocks[target], new])
                held, cut = held + new.nbytes, max(cut, dropped)
    # cut holds the raising sweep's bounds; each lowering move is pushed again
    for t, target, src in lowering:
        (m, w), p = blocks[target].shape, blocks[t].shape[1]
        if p and w < m:
            check_budget(held + 16 * m * p, f"orbit join: certificate push of {m} x {p}")
            cut = max(cut, float(np.linalg.norm(residual(t, target, src, 1))))
    widths = [b.shape[1] for b in blocks]
    rank = sum(widths)
    check_budget(held + 8 * block_dim ** n * rank,
                 f"orbit join basis of rank {rank} over {block_dim}^{n} sequences")
    basis = np.zeros((block_dim ** n, rank))
    for seqs, block, col in zip(class_seqs, blocks, np.cumsum([0] + widths)):
        basis[seqs, col:col + block.shape[1]] = block
    return JoinResult(basis=basis, invariance_residual=cut, class_ranks={
        c: w for c, w in zip(classes, widths) if w})


def rate_upper_bound(d: int, l: int, n: int | None = None) -> float:
    """Additive excess over r in the trace-rate upper bound.

    With the paper schedule n >= d^(3l); passing an explicit n recomputes the
    bound for an override schedule.
    """
    if n is None:
        n = d ** (3 * l)
    return (d ** (2 * l) * math.log2(n + 1)) / (l * n) + math.log2(d) / n


@dataclass
class UniversalProjector:
    m: int
    d: int
    r: float
    l: int
    n: int
    R: float
    k_order: int
    join: JoinResult
    pad: int
    code: BlockCode

    @property
    def trace(self) -> float:
        return float(self.join.rank * self.d ** self.pad)

    @property
    def trace_log_rate(self) -> float:
        return math.log2(self.trace) / self.m

    def matrix(self) -> np.ndarray:
        q = self.join.matrix()
        if self.pad:
            q = np.kron(q, np.eye(self.d ** self.pad, dtype=complex))
        return q


def assemble_q(m: int, d: int, r: float | None, k_order: int = 0,
               override: tuple[int, int, float] | None = None) -> UniversalProjector:
    """Build q_r^(m): the orbit join of the code projector on l-blocks,
    identity-padded when l*n does not divide m exactly.

    `override` = (l, n, R) replaces the paper schedule for desk-scale runs;
    with it, r = None stands for R / l.  build_code checks n >= 1 and k >= 0.
    """
    if d < 2:
        raise ValidationError(f"site dimension d = {d} must be >= 2")
    if override is not None:
        l, n, R = override
        if l < 1:
            raise ValidationError(f"block length l = {l} must be >= 1")
        if l * n > m:
            raise ValidationError("override blocks exceed m sites")
        r = R / l if r is None else r
    else:
        sch = schedule(m, d, r)
        l, n, R = sch.l, sch.n, sch.R
    pad = m - l * n
    code = build_code(d ** l, R, n, k_order)
    join = orbit_join_basis(code.member_indices(), d ** l, n)
    return UniversalProjector(m=m, d=d, r=r, l=l, n=n, R=R, k_order=k_order,
                              join=join, pad=pad, code=code)


def trace_q_rho(b: np.ndarray, d: int, sites: int, s: QuantumSource) -> tuple[float, str]:
    """tr(q rho_m) and the path that computed it, for q = q_J (x) 1 with
    q_J = b b^dagger the join on the first `sites` = l n of the m sites of
    dimension d.  Every source is consistent (its last bond sums out), so
    tr(q rho_m) = tr(q_J rho_{ln}), computed from the real basis b alone:

    - "classical": the source is diagonal in the computational basis, so
      this is diag(q_J) against its classical marginal;
    - "invariant": the source has bond dimension 1, so rho_{ln} is
      rho_1^{(x)ln}, and q_J commutes with every U^{(x)ln} (for l > 1 too:
      U^{(x)l} is a block unitary).  With U diagonalising rho_1, this is
      the classical case for the i.i.d. process of rho_1's spectrum;
    - "dense": Re sum b (rho_{ln} b), from the source's sweep.
      The sweep returns rho b as the transpose of a C-ordered array, so each
      column's dot product with b reads it in place; vdot would first copy
      the whole product into b's layout.
    """
    if s.d != d:
        raise ValidationError("source dimension != projector site dimension")
    view, path = s.classical_view(), "classical"
    if view is None and len(s.left) == 1:
        view, path = IIDProcess(hermitian_eig(s.sites[0, 0])[0]), "invariant"
    if view is not None:
        return float(np.dot((b ** 2).sum(axis=1), view.marginal(sites).probs)), path
    products = s.apply(sites, b).real.T
    return float(np.matmul(products[:, None, :], b.T[:, :, None]).sum()), "dense"


def acceptance_probability(q: UniversalProjector, s: QuantumSource) -> float:
    """tr(q rho_m), as `trace_q_rho` computes it."""
    return trace_q_rho(q.join.basis, q.d, q.l * q.n, s)[0]


# Cells per row block of the grid writer: bounds its working arrays.
_GRID_BLOCK_CELLS = 1 << 16


def _write_grid(path: str, a: np.ndarray) -> None:
    """Write the real 2-D array `a` byte for byte as numpy's
    savetxt(path, a, delimiter=",") does: '%.18e' per cell, ',' between
    cells, one line per row.  A projector grid holds few distinct values, so
    each distinct bit pattern (-0.0 and NaNs included) is formatted once and
    the lines are joined from those tokens, one block of rows at a time."""
    step = max(1, _GRID_BLOCK_CELLS // max(1, a.shape[1]))

    def blocks():
        for i in range(0, a.shape[0], step):
            yield np.ascontiguousarray(a[i:i + step], dtype=float).view(np.int64)

    bits = np.unique(np.concatenate([np.unique(b) for b in blocks()]))
    tokens = np.array(["%.18e" % v for v in bits.view(float).tolist()], dtype=object)
    with open(path, "w", encoding="latin1") as fh:
        for b in blocks():
            fh.writelines([",".join(row) + "\n"
                           for row in tokens[np.searchsorted(bits, b)].tolist()])


def export_projector(q: UniversalProjector, path_prefix: str) -> None:
    """The join basis B (<prefix>.npz, one float64 array `basis`), the JSON
    sidecar and, for people and reference checks to read, q's CSV real/imag
    grids.

    The dense d^m x d^m grid is checked against the memory budget before it
    exists: 16 bytes a cell, as the real join matrix with its zero .imag
    copy or, with padding, as the complex Kronecker product beside the
    join's real D^n x D^n matrix; plus the writer's block of rows, under 64
    bytes a cell.
    """
    dim = q.d ** q.m
    join_cells = (q.d ** (q.l * q.n)) ** 2 if q.pad else 0
    check_budget(16 * dim ** 2 + 8 * join_cells + 64 * _GRID_BLOCK_CELLS,
                 f"projector grid of {dim} x {dim}")
    mat = q.matrix()
    _write_grid(path_prefix + ".real.csv", mat.real)
    _write_grid(path_prefix + ".imag.csv", mat.imag)
    np.savez(path_prefix + ".npz", basis=q.join.basis)  # a float64 array is never pickled
    sidecar = {
        "m": q.m, "d": q.d, "r": q.r, "l": q.l, "n": q.n, "R": q.R,
        "k_order": q.k_order, "pad": q.pad, "trace": q.trace,
        "rank": q.join.rank, "code_size": q.code.size,
        "metadata": {"rank_rtol": JOIN_RTOL,
                     "invariance_residual": q.join.invariance_residual,
                     "class_ranks": [[list(c), k] for c, k in q.join.class_ranks.items()],
                     "rate_lower_ok": q.trace_log_rate >= q.r - 1e-12},
    }
    with open(path_prefix + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)


def load_projector_matrix(path_prefix: str) -> tuple[np.ndarray, dict]:
    """The join basis B that export_projector wrote, with the sidecar, which
    sizes it before anything else is read: d, m, l, n, pad and rank are
    integers with l n + pad = m, and B is a real d^(l n) x rank array.  The
    check counts B, its rank x rank Gram matrix B^T B with one temporary of
    that size, and 512 KiB of reader buffers.  B^T B = 1 to IDEMPOTENT_TOL;
    a non-finite entry makes its column's Gram diagonal non-finite, so that
    check refuses it too.  Grid-only exports of earlier releases carry no B:
    build-projector writes one."""
    names = ("d", "m", "l", "n", "pad", "rank")
    js_path, npz_path = path_prefix + ".json", path_prefix + ".npz"
    for path in (js_path, npz_path):
        if not os.path.exists(path):
            raise ConfigError(f"projector file {path} not found; re-run quclab build-projector")
    with open(js_path) as fh:
        meta = json.load(fh)
    d, m, l, n, pad, rank = sizes = [meta.get(k) if isinstance(meta, dict) else None
                                     for k in names]
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in sizes) \
            or min(d, l, n) < 1 or l * n + pad != m:
        raise ConfigError(f"sidecar d, m, l, n, pad and rank must be integers >= 0, with d, "
                          f"l, n >= 1 and l n + pad = m, got {dict(zip(names, sizes))}")
    check_budget(8 * d ** (l * n) * rank + 16 * rank ** 2 + 2 ** 19,
                 f"projector basis of {d}^{l * n} x {rank}")
    with np.load(npz_path, allow_pickle=False) as archive:
        b = archive["basis"]
    if b.dtype != float or b.shape != (d ** (l * n), rank):
        raise ValidationError(f"projector basis must be a real {d}^{l * n} x {rank} array, "
                              f"got {b.dtype} {b.shape}")
    gram = b.T @ b
    gram.flat[::rank + 1] -= 1.0
    dev = float(np.abs(gram).max(initial=0.0))
    if not dev <= IDEMPOTENT_TOL:
        raise ValidationError(f"projector basis is not orthonormal (deviation {dev:.3e})")
    return b, meta
