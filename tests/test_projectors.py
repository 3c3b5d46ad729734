import dataclasses
import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quclab import projectors
from quclab.codes import all_sequences, build_code
from quclab.errors import ValidationError
from quclab.operators import span_basis
from quclab.processes import IIDProcess
from quclab.projectors import (JOIN_RTOL, JoinResult, _orthonormal, _type_classes,
                               _write_grid, assemble_q, acceptance_probability,
                               export_projector, load_projector_matrix, orbit_join_basis,
                               rate_upper_bound, schedule)
from quclab.sources import IIDSource
from randmat import haar_unitary
from reference import forbid, validate_projector


def test_schedule_examples():
    s = schedule(8, 2, 0.7)
    assert (s.i, s.l, s.n) == (0, 1, 8) and s.R == 0.7
    s = schedule(127, 2, 0.7)
    assert (s.i, s.l, s.n) == (0, 1, 127)
    s = schedule(128, 2, 0.7)
    assert (s.i, s.l, s.n) == (1, 2, 64) and abs(s.R - 1.4) < 1e-15


def test_schedule_below_minimum():
    with pytest.raises(ValidationError):
        schedule(7, 2, 0.7)


@pytest.mark.parametrize("d", [0, 1, -1])
def test_schedule_rejects_site_dimension_below_two(d):
    # d = 0 used to loop forever (the bound is 0 for every i); d = 1 returned
    # a meaningless schedule
    with pytest.raises(ValidationError, match=f"d = {d} must be >= 2"):
        schedule(4, d, 0.5)


def test_schedule_bracketing_holds():
    for m in (8, 20, 127, 128, 500, 10 ** 4):
        s = schedule(m, 2, 0.5)
        lo = 2 ** s.i * 2 ** (3 * 2 ** s.i)
        hi = 2 ** (s.i + 1) * 2 ** (3 * 2 ** (s.i + 1))
        assert lo <= m < hi
        assert s.l == 2 ** s.i and s.n == m // s.l


def unit_columns(members, dim):
    """The code projector's range: one computational basis vector a member."""
    b = np.zeros((dim, len(members)))
    b[members, np.arange(len(members))] = 1.0
    return b


def test_code_projector_full():
    b = unit_columns(build_code(2, 1.0, 3, 0).member_indices(), 8)
    assert np.allclose(b @ b.T, np.eye(8))


def test_code_projector_diagonal():
    b = unit_columns(build_code(2, 1 / 3, 3, 0).member_indices(), 8)  # size 2: {000, 111}
    p = b @ b.T
    assert np.allclose(np.diag(p), [1, 0, 0, 0, 0, 0, 0, 1])
    assert validate_projector(p)["rank"] == 2


def test_code_projector_of_a_typeclass_code():
    # a binary k = 0 code is a union of type classes; its members are the
    # enumeration oracle's, the first 2^floor(nR) indices by
    # (min(ones, zeros), index), taken in that order, and so is its orbit
    # join
    typeclass = build_code(2, 0.6, 10, 0)
    ones = np.array([bin(i).count("1") for i in range(2 ** 10)])
    oracle = np.lexsort((np.arange(2 ** 10), np.minimum(ones, 10 - ones)))[:typeclass.size]
    assert np.array_equal(typeclass.member_indices(), oracle)
    join = orbit_join_basis(typeclass.member_indices(), 2, 10)
    join_oracle = orbit_join_basis(oracle, 2, 10)
    assert join.rank == join_oracle.rank
    assert np.allclose(join.matrix(), join_oracle.matrix(), atol=1e-12)


def test_orbit_join_full_rank_is_identity():
    assert np.allclose(orbit_join_basis(np.arange(4), 2, 2).matrix(), np.eye(4))


def test_orbit_join_single_site_vector():
    assert np.allclose(orbit_join_basis([0], 2, 1).matrix(), np.eye(2), atol=1e-10)


def test_orbit_join_symmetric_subspace():
    w = orbit_join_basis([0], 2, 2).matrix()
    basis = [np.array([1, 0, 0, 0.0]),
             np.array([0, 1, 1, 0.0]) / np.sqrt(2),
             np.array([0, 0, 0, 1.0])]
    sym = sum(np.outer(v, v) for v in basis)
    assert np.max(np.abs(w - sym)) < 1e-6
    assert validate_projector(w)["rank"] == 3


def test_orbit_join_invariance():
    # the join is real, and commutes with complex U^{(x)n} at D = 2, 3 and 4
    rng = np.random.default_rng(99)
    for D, n, R, k in [(2, 4, 0.7, 0), (3, 4, 0.9, 1), (4, 4, 0.4, 1)]:
        res = orbit_join_basis(build_code(D, R, n, k).member_indices(), D, n)
        w = res.matrix()
        assert 0 < res.rank < D ** n
        for _ in range(5):
            big = functools.reduce(np.kron, [haar_unitary(D, rng)] * n)
            assert np.max(np.abs(big @ w @ big.conj().T - w)) < 1e-6
        assert res.invariance_residual <= 1e-10


@pytest.mark.parametrize("members, match", [
    (np.array([[0, 1]]), "1-D integer array, got 2-D"),
    (np.array(3), "1-D integer array, got 0-D"),
    (np.array([0.0, 1.0]), "1-D integer array, got 1-D float64"),
    (np.array([True, False]), "1-D integer array, got 1-D bool"),
    (np.array([0, 8]), "outside \\[0, 2\\^3\\)"),
    (np.array([-1, 2]), "outside \\[0, 2\\^3\\)")],
    ids=["2-D", "0-D", "float", "bool", "past-the-end", "negative"])
def test_orbit_join_rejects_bad_members_before_any_table(members, match, monkeypatch):
    forbid(monkeypatch, projectors, "_type_classes", why="built for invalid members")
    with pytest.raises(ValidationError, match=match):
        orbit_join_basis(members, 2, 3)


def collective_generator(D, n, a, b):
    """Dense J_ab = sum_i E_ab^(i): |a><b| at one site, the identity elsewhere."""
    e = np.zeros((D, D))
    e[a, b] = 1.0
    return sum(np.kron(np.kron(np.eye(D ** i), e), np.eye(D ** (n - 1 - i)))
               for i in range(n))


def dense_krylov_join(base, D, n):
    """Reference join: the span closure of base under dense collective
    generators J_ab = sum_i E_ab^(i), a != b, with no type-class blocking."""
    gens = [collective_generator(D, n, a, b) for a, b in itertools.permutations(range(D), 2)]
    q = span_basis(base)
    while True:
        grown = span_basis(np.hstack([q] + [g @ q for g in gens]), rtol=1e-10)
        if grown.shape[1] == q.shape[1]:
            return q
        q = grown


@pytest.mark.parametrize("D, n, k, R", [(2, 6, 0, 0.5), (2, 7, 1, 0.6), (3, 4, 0, 0.9),
                                        (3, 4, 1, 0.9), (3, 5, 1, 0.9), (4, 3, 0, 1.0),
                                        (4, 3, 1, 1.2)])
def test_orbit_join_matches_dense_krylov(D, n, k, R):
    members = build_code(D, R, n, k).member_indices()
    res = orbit_join_basis(members, D, n)
    ref = dense_krylov_join(unit_columns(members, D ** n), D, n)
    assert res.rank == ref.shape[1] == sum(res.class_ranks.values())
    assert np.max(np.abs(res.matrix() - ref @ ref.conj().T)) < 1e-10
    assert res.invariance_residual <= 1e-10
    if (D, n, k, R) == (3, 5, 1, 0.9):
        # keeping only residual directions once admitted a 1.4e-8 noise
        # direction here, giving rank 243 instead of 237
        assert res.rank == 237


@pytest.mark.parametrize("n", [6, 8, 10])
@pytest.mark.parametrize("g", [1, 2, 3])
def test_orbit_join_schur_weyl_rank(n, g):
    # the union of all binary type classes with min(#0, #1) < g joins to the
    # spin-j irreps with j >= n/2 - g + 1, each with its full multiplicity
    members = [x for x in range(2 ** n) if min(bin(x).count("1"), n - bin(x).count("1")) < g]
    expect = sum((math.comb(n, s) - (math.comb(n, s - 1) if s else 0)) * (n - 2 * s + 1)
                 for s in range(g))
    assert orbit_join_basis(members, 2, n).rank == expect


def per_site_join(base, D, n):
    """Reference join: orbit_join_basis with its earlier start and push.  Each
    class block starts as an SVD of the real base's rows in that class, and
    each push is one scatter-add per site and move, from the (source rows,
    target rows) pair of that site."""
    classes, members, _ = _type_classes(D, n)
    digits = all_sequences(D, n)
    index = {c: t for t, c in enumerate(classes)}
    position = np.empty(D ** n, dtype=np.int64)
    for idx in members:
        position[idx] = np.arange(len(idx))
    moves = []
    for t, idx in enumerate(members):
        for a, b in itertools.permutations(range(D), 2):
            if classes[t][b]:
                target = index[tuple(c + (s == a) - (s == b) for s, c in enumerate(classes[t]))]
                srcs = [np.flatnonzero(digits[idx, i] == b) for i in range(n)]
                moves.append((t, target, [(src, position[idx[src] + (a - b) * D ** (n - 1 - i)])
                                          for i, src in enumerate(srcs)]))
    blocks = [_orthonormal(base[idx])[0] for idx in members]
    grew = True
    while grew:
        grew, residual = False, 0.0
        for t, target, sites in moves:
            pushed = np.zeros((len(members[target]), blocks[t].shape[1]))
            for src, dst in sites:
                pushed[dst] += blocks[t][src]
            kept = blocks[target]
            leak = float(np.linalg.norm(pushed - kept @ (kept.T @ pushed)))
            if leak > JOIN_RTOL:
                grown = _orthonormal(np.hstack([kept, pushed]))[0]
                if grown.shape[1] > kept.shape[1]:
                    blocks[target], grew = grown, True
                    continue
            residual = max(residual, leak)
        moves.reverse()
    basis = np.zeros((D ** n, sum(b.shape[1] for b in blocks)))
    col = 0
    for idx, block in zip(members, blocks):
        basis[idx, col:col + block.shape[1]] = block
        col += block.shape[1]
    return JoinResult(basis=basis, invariance_residual=residual, class_ranks={
        c: b.shape[1] for c, b in zip(classes, blocks) if b.shape[1]})


@st.composite
def join_cases(draw):
    D = draw(st.integers(2, 8))
    n = draw(st.integers(1, 5 if D < 5 else 3))
    members = draw(st.lists(st.integers(0, D ** n - 1), min_size=1, max_size=8, unique=True))
    return D, n, members


@settings(max_examples=30)
@given(join_cases())
def test_orbit_join_matches_per_site_push(case):
    # random member sets: the two sweeps over the Chevalley moves, from unit
    # columns, against the fixed-point closure under every J_ab from the SVD
    # start of the dense unit columns
    D, n, members = case
    res = orbit_join_basis(members, D, n)
    ref = per_site_join(unit_columns(members, D ** n), D, n)
    assert res.class_ranks == ref.class_ranks
    assert np.max(np.abs(res.matrix() - ref.matrix())) <= 1e-12
    assert res.invariance_residual <= 1e-10


def test_move_tables_reproduce_dense_generator_blocks():
    for D, n in [(2, 5), (3, 4), (4, 3)]:
        classes, members, (lowering, raising) = _type_classes(D, n)
        gens = {(a, b): collective_generator(D, n, a, b)
                for a, b in itertools.permutations(range(D), 2)}
        height = [sum((D - a) * c for a, c in enumerate(counts)) for counts in classes]
        seen = []
        for sweep, step in ((lowering, 1), (raising, -1)):
            for t, target, src in sweep:
                b = int(np.argmin(np.subtract(classes[target], classes[t])))
                a = b + step
                assert classes[target] == tuple(c + (s == a) - (s == b)
                                                for s, c in enumerate(classes[t]))
                assert src.shape == (len(members[target]), classes[target][a])
                table = np.zeros((len(members[target]), len(members[t])))
                np.add.at(table, (np.arange(len(src))[:, None], src), 1.0)
                assert np.array_equal(table, gens[a, b][np.ix_(members[target], members[t])])
                seen.append((t, target, a, b))
            # lowering goes down in height and raising up, one step a move,
            # the classes in that order
            assert all(height[target] == height[t] - step for t, target, _ in sweep)
            heights = [height[t] for t, _, _ in sweep]
            assert heights == sorted(heights, reverse=step == 1)
        # every nonzero class block of a Chevalley J_{b+-1,b} is a move, once,
        # and no other J_ab has a move
        pairs = itertools.product(range(len(classes)), repeat=2)
        assert sorted(seen) == sorted((t, target, a, b) for t, target in pairs
                                      for (a, b), g in gens.items() if abs(a - b) == 1
                                      if g[np.ix_(members[target], members[t])].any())


def test_invariance_residual_catches_a_lowering_sweep_out_of_order(monkeypatch):
    # with the lowering sweep run upwards, each class pushes before the moves
    # into it: from |000> the join holds only the classes with 0 and 1 ones,
    # and the certificate, pushing the lowering moves again, sees J_10 leak
    # out of the 1-ones class
    type_classes = projectors._type_classes

    def upwards(D, n):
        classes, members, (lowering, raising) = type_classes(D, n)
        return classes, members, (lowering[::-1], raising)
    monkeypatch.setattr(projectors, "_type_classes", upwards)
    res = orbit_join_basis([0], 2, 3)
    assert res.class_ranks == {(3, 0): 1, (2, 1): 1}
    assert res.invariance_residual > 1


def test_invariance_residual_counts_what_the_cuts_leave_out(monkeypatch):
    # under a cut of JOIN_RTOL = 1 no push of |000> or |111> at n = 3 adds a
    # direction, and each leaks (|001> + |010> + |100>) or its complement,
    # of norm sqrt(3): |000>'s J_10 is found by pushing the lowering moves
    # again, |111>'s J_01 by the part the raising sweep's SVD cut off
    monkeypatch.setattr(projectors, "JOIN_RTOL", 1.0)
    for member, counts in [(0, (3, 0)), (7, (0, 3))]:
        res = orbit_join_basis([member], 2, 3)
        assert res.class_ranks == {counts: 1}
        assert abs(res.invariance_residual - math.sqrt(3)) < 1e-12


def test_join_bytes_count_the_moves_the_type_classes_make():
    # one move a (class, b +- 1, b) with b a symbol the class holds:
    # 2 (D - 1) C(n + D - 2, D - 1) of them at 512 bytes each, beside the
    # per-sequence tables (size 0: no start blocks)
    for D, n in [(2, 1), (2, 7), (3, 1), (3, 5), (4, 3), (5, 2), (8, 2), (1024, 1)]:
        lowering, raising = _type_classes(D, n)[2]
        moves = len(lowering) + len(raising)
        assert len(lowering) == len(raising) == (D - 1) * math.comb(n + D - 2, D - 1)
        assert projectors._join_bytes(D, n, 0) - D ** n * (1 + 24 * n * D) == 512 * moves
    # so a one-block join over D = 256 symbols (l = 8 at d = 2, a 16-member
    # code) is about 1.8 MB up front: 35 MB with the D (D - 1) moves of
    # every J_ab, and 8 GiB with D^2 (D - 1)
    assert 1.8e6 < projectors._join_bytes(256, 1, 16) < 1.9e6


def test_rate_upper_bound_paper_schedule():
    b = rate_upper_bound(2, 1)
    expect = 4 * math.log2(9) / 8 + 1 / 8
    assert abs(b - expect) < 1e-12


def test_assemble_q_exact_blocks():
    q = assemble_q(4, 2, 1, 0.7)
    assert q.pad == 0
    assert q.trace == q.join.rank
    assert q.r <= q.trace_log_rate <= q.r + rate_upper_bound(2, 1, 4)
    validate_projector(q.matrix())


@pytest.mark.parametrize("d, override, k, match", [
    (1, (1, 4, 0.5), 0, "d = 1"), (0, (1, 4, 0.5), 0, "d = 0"), (0, None, 0, "d = 0"),
    (2, (0, 4, 0.5), 0, "l = 0"), (2, (-1, 4, 0.5), 0, "l = -1"),
    (2, (1, 0, 0.5), 0, "n = 0"), (2, (5, 0, 0.5), 0, "n = 0"),
    (2, (1, 4, 0.5), -1, "k = -1")])
def test_assemble_q_rejects_bad_blocks(d, override, k, match):
    # override: blocks (l, n, R) on m = l n sites in place of the paper
    # schedule's, whose search for d = 0 used to loop forever
    with pytest.raises(ValidationError, match=match):
        if override is None:
            s = schedule(4, d, 0.5)
            override = (s.l, s.n, s.R)
        l, n, R = override
        assemble_q(l * n, d, l, R, k_order=k)


def test_assemble_q_stores_each_parameter_once():
    # q holds m, d, l, the code (n, R, k) and its join; pad and r = R / l
    # are derived, so with R = 1.2 on l = 2 blocks r is 0.6 whatever rate
    # an experiment's config names
    q = assemble_q(7, 2, 2, 1.2, k_order=1)
    assert [f.name for f in dataclasses.fields(q)] == ["m", "d", "l", "code", "join"]
    assert (q.n, q.pad, q.code.R, q.code.k, q.r) == (3, 1, 1.2, 1, 0.6)


@pytest.mark.parametrize("m, r, rank", [(8, 0.25, 23), (9, 0.5, 74), (12, 0.5, 476)])
def test_assemble_q_follows_the_paper_schedule(m, r, rank):
    # the paper's q takes schedule()'s blocks, m // l of them
    s = schedule(m, 2, r)
    q = assemble_q(m, 2, s.l, s.R)
    assert (q.l, q.n, q.code.R, q.pad, q.r, q.join.rank) == (
        s.l, s.n, s.R, m - s.l * s.n, r, rank)


def test_assemble_q_padding():
    q = assemble_q(7, 2, 2, 1.4)
    assert q.pad == 1
    base = assemble_q(6, 2, 2, 1.4)
    assert q.trace == base.trace * 2
    assert np.allclose(q.matrix(), np.kron(base.matrix(), np.eye(2)))


def test_acceptance_identity_projector():
    q = assemble_q(3, 2, 1, 1.0)
    s = IIDSource(np.diag([0.9, 0.1]))
    assert abs(acceptance_probability(q, s) - 1.0) < 1e-12


def test_acceptance_diag_matches_dense():
    q = assemble_q(4, 2, 1, 0.7)
    s = IIDSource(np.diag([0.9, 0.1]))
    fast = acceptance_probability(q, s)
    dense = float(np.trace(q.matrix() @ s.marginal(4)).real)
    assert abs(fast - dense) < 1e-10


def test_acceptance_pure_source():
    # pure source vector sits inside the code orbit, so it is always accepted
    q = assemble_q(4, 2, 1, 0.7)
    s = IIDSource(np.diag([1.0, 0.0]))
    assert acceptance_probability(q, s) >= 1.0 - 1e-8
    # and after an arbitrary single-site rotation too (basis covariance)
    u = haar_unitary(2, np.random.default_rng(7))
    rot = u @ np.diag([1.0, 0.0]).astype(complex) @ u.conj().T
    assert acceptance_probability(q, IIDSource(rot)) >= 1.0 - 1e-6


def test_acceptance_matches_code_measure_for_diagonal_projector():
    # diagonal (code) projector on a diagonal source reduces to the classical
    # code measure of the driving process
    from quclab.codes import code_measure
    c = build_code(2, 0.7, 6, 0)
    b = unit_columns(c.member_indices(), 2 ** 6)
    p = b @ b.T
    proc = IIDProcess([0.9, 0.1])
    rho = IIDSource(np.diag([0.9, 0.1])).marginal(6)
    assert abs(np.trace(p @ rho).real - code_measure(proc, c)) < 1e-12


def test_export_load_roundtrip(tmp_path):
    q = assemble_q(3, 2, 1, 0.7)
    prefix = str(tmp_path / "q")
    export_projector(q, prefix)
    b, meta = load_projector_matrix(prefix)
    assert np.array_equal(b, q.join.basis)
    assert np.max(np.abs(b @ b.T - q.matrix())) < 1e-12
    assert meta["m"] == 3 and meta["rank"] == q.join.rank
    with open(prefix + ".json") as fh:
        sidecar = json.load(fh)
    assert sidecar["rank"] == q.join.rank == 8
    assert sidecar["code_size"] == q.code.size
    assert sidecar["metadata"] == {
        "rank_rtol": JOIN_RTOL, "rate_lower_ok": True,
        "invariance_residual": q.join.invariance_residual,
        "class_ranks": [[list(c), k] for c, k in q.join.class_ranks.items()]}
    assert sidecar["metadata"]["invariance_residual"] <= 1e-10


def test_load_refuses_a_basis_of_the_wrong_type_or_shape(tmp_path):
    # the sidecar fixes B's shape and B is real; an object array is refused
    # unread, as pickled data
    q = assemble_q(3, 2, 1, 0.7)
    prefix = str(tmp_path / "q")
    export_projector(q, prefix)
    b = q.join.basis
    for bad in (b.astype(complex), b.astype(np.float32), b[:, 1:], b[:4], b.ravel()):
        np.savez(prefix + ".npz", basis=bad)
        with pytest.raises(ValidationError, match="must be a real 2\\^3 x 8 array"):
            load_projector_matrix(prefix)
    np.savez(prefix + ".npz", basis=np.array([None, 1.0], dtype=object))
    with pytest.raises(ValueError, match="allow_pickle=False"):
        load_projector_matrix(prefix)


def _savetxt_bytes(path, a):
    np.savetxt(path, a, delimiter=",")
    return path.read_bytes()


def test_grid_writer_matches_savetxt_on_projector(tmp_path):
    # q is real: the .real grid is savetxt of q.matrix(), the .imag grid of
    # zeros.  Each m = 9 grid spans four of the writer's row blocks: the
    # unpadded q holds 347 distinct bit patterns, the padded one is a real
    # Kronecker product with -0.0 cells
    for l, R in [(1, 0.5), (2, 1.0)]:
        q = assemble_q(9, 2, l, R)
        prefix = str(tmp_path / "q")
        export_projector(q, prefix)
        mat = q.matrix()
        assert mat.dtype == np.float64
        assert np.signbit(mat[mat == 0]).any() == bool(q.pad)
        for part, grid in (("real", mat), ("imag", np.zeros(mat.shape))):
            expected = _savetxt_bytes(tmp_path / f"ref.{part}.csv", grid)
            assert (tmp_path / f"q.{part}.csv").read_bytes() == expected, (l, part)


def test_grid_writer_matches_savetxt_on_special_values(tmp_path):
    a = np.array([[-0.25, -0.0, 0.0, 3.5e-300],
                  [np.nan, -1e-120, 1.0 / 3.0, -np.inf],
                  [0.0, np.nan, -0.0, 2.0]])
    path = tmp_path / "grid.csv"
    _write_grid(str(path), a)
    text = path.read_bytes()
    assert text == _savetxt_bytes(tmp_path / "ref.csv", a)
    assert b"-0.000000000000000000e+00" in text and b"e-300" in text and b"nan" in text


# bit patterns the writer must keep apart: +-0.0, NaNs with either sign bit
# (quiet, signalling, with a payload), +-inf, subnormals, the extremes and
# three-digit exponents
SPECIAL_BITS = [int(x) for x in np.array(
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
     1.7976931348623157e308, -1e300, 1e-100, 1.0, -1.0], dtype=float).view(np.int64)] + [
    0x7FF8000000000000, -0x0008000000000000, 0x7FF0000000000001, -0x000FFFFFFFFFFFFF,
    0x7FF80000DEADBEEF]


def _grid(pool: list, shape: tuple, fresh: float, seed: int) -> np.ndarray:
    """A grid over the bit patterns in `pool` (a projector grid's values
    repeat), with a `fresh` share of its cells random patterns."""
    rng = np.random.default_rng(seed)
    bits = rng.choice(np.array(pool, dtype=np.int64), size=shape)
    cells = rng.random(shape) < fresh
    bits[cells] = rng.integers(-2 ** 63, 2 ** 63 - 1, size=int(cells.sum()), endpoint=True)
    return bits.view(float)


@st.composite
def grid_cases(draw):
    """A small grid and a writer block of a few cells, so that the grid spans
    several blocks and its rows can be wider than one.  The layout is
    C-ordered, a transposed view, or the .real or .imag of a complex array
    (both strided)."""
    block = draw(st.sampled_from([1, 5, 64]))
    shape = draw(st.tuples(st.integers(1, 30), st.integers(1, 30)))
    pool = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_BITS),
                                   st.integers(-2 ** 63, 2 ** 63 - 1),
                                   st.floats(-1e3, 1e3).map(
                                       lambda v: int(np.float64(v).view(np.int64)))),
                         min_size=1, max_size=12))
    a = _grid(pool, shape, draw(st.sampled_from([0.0, 0.0, 0.05, 1.0])),
              draw(st.integers(0, 2 ** 32 - 1)))
    layout = draw(st.sampled_from(["c", "transposed", "real", "imag"]))
    if layout == "transposed":
        a = np.ascontiguousarray(a.T).T
    elif layout in ("real", "imag"):
        z = np.zeros(shape, dtype=complex)
        getattr(z, layout)[...] = a
        a = getattr(z, layout)
    return a, block


# the writer's own 2^16-cell blocks: constant grids of two blocks, rows over
# two blocks, and rows wider than a block
BLOCK = 1 << 16


@settings(max_examples=40)
@given(grid_cases())
@example((_grid([0], (70, 1000), 0.0, 0), BLOCK))  # all +0.0: no token searched
@example((_grid([SPECIAL_BITS[1]], (70, 1000), 0.0, 0), BLOCK))  # all -0.0
@example((_grid([-0x0008000000000000], (70, 1000), 0.0, 0), BLOCK))  # all NaN, sign bit set
@example((_grid(SPECIAL_BITS, (4, 16400), 0.05, 1), BLOCK))
@example((_grid(SPECIAL_BITS, (2, 65537), 0.05, 2), BLOCK))
def test_grid_writer_matches_savetxt_on_drawn_grids(tmp_path_factory, case):
    a, block = case
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projectors, "_GRID_BLOCK_CELLS", block)
        _write_grid(str(path), a)
    assert path.read_bytes() == _savetxt_bytes(path.with_suffix(".ref"), a)
