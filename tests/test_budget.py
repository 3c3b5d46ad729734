"""The memory budget.  Every size check passes the peak working set of what
it is about to allocate: at one small size per check that is at least the
tracemalloc peak of the construction, and past the budget the construction
is refused before it allocates."""

import json
import tracemalloc
from functools import partial

import numpy as np
import pytest

from quclab import channels, codes, errors, harness, processes, projectors, sources
from quclab.channels import apply_per_site, depolarizing
from quclab.cli import main
from quclab.codes import build_code, code_measure, empirical_entropy_scores
from quclab.errors import MEMORY_BUDGET, SizeError
from quclab.harness import ExperimentConfig, build_source, run_experiment
from quclab.processes import (ClassicalProcess, IIDProcess, MarkovProcess, MixtureProcess,
                              PeriodicProcess)
from quclab.projectors import (JoinResult, UniversalProjector, acceptance_probability,
                               assemble_q, export_projector, load_projector_matrix,
                               orbit_join_basis)
from quclab.sources import (ChannelTransformedSource, ClassicallyCorrelatedSource, IIDSource,
                            QuantumAlphabet, ergodicity_gap, lag_scan, transfer_observable)

CHECKED = (channels, codes, processes, projectors, sources)
# The formulas count array bytes; the interpreter's own objects (array
# headers, the check's message) add a few KiB on top.
OBJECTS = 2 ** 16
# A depolarized Markov source on a non-orthogonal real alphabet: bond
# dimension 2, the n = 14 row of the scale table in the README.
DEPOLARIZED_MARKOV = {
    "kind": "channel-transformed",
    "inner": {"kind": "classical",
              "process": {"kind": "markov", "transition": [[0.9, 0.1], [0.2, 0.8]]},
              "alphabet": {"re": [[1.0, 0.6], [0.0, 0.8]]}},
    "channel": {"name": "depolarizing", "p": 0.2}}


class Admitted(Exception):
    pass


def _peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _checked_bytes(monkeypatch, run) -> tuple[int, int]:
    """The largest working set any check passed during run(), and run()'s
    tracemalloc peak; run() goes once unmeasured to warm numpy up."""
    seen = []

    def record(nbytes, what):
        seen.append(nbytes)
        errors.check_budget(nbytes, what)

    run()
    for module in CHECKED:
        monkeypatch.setattr(module, "check_budget", record)
    peak = _peak(run)
    return max(seen), peak


def _admitted_bytes(monkeypatch, run) -> int:
    """The working set of the first check in run(), which must pass; run()
    stops there, before it allocates."""
    def admit(nbytes, what):
        errors.check_budget(nbytes, what)
        raise Admitted(nbytes)

    for module in CHECKED:
        monkeypatch.setattr(module, "check_budget", admit)
    with pytest.raises(Admitted) as admitted:
        run()
    return admitted.value.args[0]


def _apply(phase):
    # the source's site operators are real: a real operand is swept in
    # float64, a complex one in complex arithmetic, which the check counts
    def factory(tmp_path):
        s = build_source(DEPOLARIZED_MARKOV)
        v = phase * np.random.default_rng(3).standard_normal((2 ** 10, 40))
        return lambda: s.apply(10, v)
    return factory


def _export_and_load(m, l):
    def factory(tmp_path):
        q = assemble_q(m, 2, None, override=(l, m // l, 0.5 * l))
        prefix = str(tmp_path / "q")
        return lambda: (export_projector(q, prefix), load_projector_matrix(prefix))
    return factory


def _export_padded(tmp_path):
    # one padded site over a 2^10 join: the join's real matrix, 8 MiB, is
    # larger than the writer's block (4 MiB) beside the 64 MiB complex grid
    q = assemble_q(11, 2, 0.2, override=(1, 10, 0.2))
    return lambda: export_projector(q, str(tmp_path / "q"))


def _padded_row(tmp_path):
    # a padded c1 row: rho_10 B over the join's sites, then rho_11 f for the
    # one flag column
    q = assemble_q(11, 2, None, override=(2, 5, 1.0))
    s = build_source(DEPOLARIZED_MARKOV)
    return lambda: harness._orbit_row(q.join.basis, 2, 10, q.pad, s, "c1")


def _basis_export(tmp_path, m: int) -> str:
    """An m-site export of B and the sidecar; the grids, 2^m x 2^m cells of
    text that nothing here reads, are left unwritten."""
    prefix = str(tmp_path / "q")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projectors, "_write_grid", lambda path, a: None)
        export_projector(assemble_q(m, 2, None, override=(1, m, 0.5)), prefix)
    return prefix


def _compress(tmp_path):
    # compress reads B (2^11 x 176, 2.9 MB) and the sidecar
    argv = ["compress", "--scheme", "c1", "--projector", _basis_export(tmp_path, 11),
            "--source", json.dumps(DEPOLARIZED_MARKOV)]
    return lambda: main(argv)


def _cycle(phases: int) -> list:
    return [int(x) for x in np.random.default_rng(phases).integers(0, 2, phases)]


def _periodic_sites(tmp_path):
    # 200 phases: 96 chi^2 bytes of sites and their real copy, 3.7 MiB
    inner = ClassicallyCorrelatedSource(PeriodicProcess(_cycle(200)),
                                        QuantumAlphabet.computational(2))
    return lambda: ChannelTransformedSource(inner, depolarizing(0.2))


def _lag_terms(tmp_path):
    # 50000 terms hold 1.2 MB of arrays, past the 1 MiB the cover test asks for
    a = np.diag([1.0, 0.0])
    return lambda: ergodicity_gap(IIDSource(np.diag([0.9, 0.1])), a, a, 1, 50000)


# one small size per check, each a few MiB of arrays
SITES = {
    "quantum-marginal": lambda tmp_path: lambda: build_source(DEPOLARIZED_MARKOV).marginal(9),
    "quantum-apply": _apply(1.0),
    "quantum-apply-complex": _apply(1j),
    "apply-per-site": lambda tmp_path: lambda: apply_per_site(
        depolarizing(0.2).superoperator(), np.eye(2 ** 8), 8),
    "classical-marginal": lambda tmp_path: lambda: PeriodicProcess(
        [0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1]).marginal(16),
    "classical-block": lambda tmp_path: lambda: MarkovProcess([[0.9, 0.1], [0.2, 0.8]]).block(16),
    # at k = 1 the gathered scores set the peak; at k = 3 (two key chunks)
    # the candidates of the last sites
    "entropy-scores": lambda tmp_path: lambda: empirical_entropy_scores(2, 18, 1),
    "code-build": lambda tmp_path: lambda: build_code(2, 0.5, 14, 3),
    "code-members": lambda tmp_path: build_code(2, 0.9, 21).member_indices,
    # the backward recursion of a 200-phase cycle over the states of a k = 1
    # code at n = 40, 18 MiB
    "code-measure": lambda tmp_path: partial(
        code_measure, PeriodicProcess(_cycle(200)), build_code(2, 0.5, 40, 1)),
    # no state merges at k = 5: a 16-phase cycle's prefix rows of 15 sites
    # meet the 2^16 sequences' weights, 7.0 MiB
    "code-measure-unmerged": lambda tmp_path: partial(
        code_measure, PeriodicProcess(_cycle(16)), build_code(2, 0.5, 16, 5)),
    "markov-transfer": lambda tmp_path: partial(
        MarkovProcess, np.full((60, 60), 1 / 60)),
    "periodic-transfer": lambda tmp_path: partial(PeriodicProcess, _cycle(400)),
    "mixture-transfer": lambda tmp_path: partial(
        MixtureProcess, [0.5, 0.5], [PeriodicProcess(_cycle(200)), PeriodicProcess(_cycle(201))]),
    "correlated-sites": lambda tmp_path: partial(
        ClassicallyCorrelatedSource, PeriodicProcess(_cycle(200)),
        QuantumAlphabet.computational(2)),
    "channel-sites": _periodic_sites,
    "assemble-q": lambda tmp_path: lambda: assemble_q(11, 2, 0.5, override=(1, 11, 0.5)),
    "assemble-q-padded": lambda tmp_path: lambda: assemble_q(11, 2, 0.5, override=(2, 5, 1.0)),
    "assemble-q-d3": lambda tmp_path: lambda: assemble_q(7, 3, 0.5, override=(1, 7, 0.8)),
    "export-load": _export_and_load(8, 1),
    "export-load-padded": _export_and_load(9, 2),
    "export-padded": _export_padded,
    "padded-row": _padded_row,
    "load": lambda tmp_path: partial(load_projector_matrix, _basis_export(tmp_path, 11)),
    "compress": _compress,
    "lag-terms": _lag_terms,
}


@pytest.mark.parametrize("site", SITES)
def test_checked_bytes_cover_the_peak(site, monkeypatch, tmp_path):
    checked, peak = _checked_bytes(monkeypatch, SITES[site](tmp_path))
    assert peak > 2 ** 20  # arrays, not interpreter objects, dominate
    assert checked + OBJECTS >= peak


def _forbid(monkeypatch, owner, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} called past the memory budget")
    monkeypatch.setattr(owner, name, forbidden)


def _refused(run, match="memory budget"):
    """run() raises SizeError and allocates under 1 MiB on the way."""
    def refuse():
        with pytest.raises(SizeError, match=match):
            run()
    assert _peak(refuse) < 2 ** 20


def test_marginal_at_n14_is_refused_before_allocation(monkeypatch):
    # 16 (4^13 + 4^14) bytes = 5 GiB; n = 13 needs 1280 MiB and is admitted
    _forbid(monkeypatch, np, "einsum")
    _refused(lambda: IIDSource(np.diag([0.9, 0.1])).marginal(14))
    monkeypatch.undo()
    assert _admitted_bytes(monkeypatch, lambda: IIDSource(np.diag([0.9, 0.1])).marginal(13)) \
        == 1280 * 2 ** 20 + 2 ** 18


def test_apply_per_site_at_m14_is_refused_before_allocation(monkeypatch):
    # four complex 2^14 x 2^14 arrays, 16 GiB; the operand is a broadcast view
    _forbid(monkeypatch, np, "tensordot")
    op = np.broadcast_to(np.zeros(1, complex), (2 ** 14, 2 ** 14))
    _refused(lambda: apply_per_site(depolarizing(0.2).superoperator(), op, 14))


def test_apply_of_an_n14_row_is_admitted_and_past_the_budget_refused(monkeypatch):
    # the n = 14 row's join has rank 1031 and its sweep is real: three
    # float64 arrays of 2 * 2^14 * 1031 entries; the n = 15 row (rank 1292,
    # 1938 MiB) is admitted too, and refused once a complex operand makes
    # the sweep complex (3876 MiB)
    s = build_source(DEPOLARIZED_MARKOV)
    basis = np.broadcast_to(np.zeros(1), (2 ** 14, 1031))
    assert _admitted_bytes(monkeypatch, lambda: s.apply(14, basis)) == 24 * 2 * 2 ** 14 * 1031
    basis = np.broadcast_to(np.zeros(1), (2 ** 15, 1292))
    assert _admitted_bytes(monkeypatch, lambda: s.apply(15, basis)) == 24 * 2 * 2 ** 15 * 1292
    monkeypatch.undo()
    # np.matmul is the sweep's per-site product
    _forbid(monkeypatch, np, "matmul")
    _refused(lambda: s.apply(15, np.broadcast_to(np.zeros(1, complex), (2 ** 15, 1292))))
    wide = np.broadcast_to(np.zeros(1), (2 ** 16, 2 ** 11))
    _refused(lambda: s.apply(16, wide))


def test_block_and_scores_past_the_budget_are_refused_before_allocation(monkeypatch):
    _forbid(monkeypatch, np, "einsum")
    _refused(lambda: MarkovProcess([[0.9, 0.1], [0.2, 0.8]]).block(27))
    for name in ("zeros", "eye", "repeat"):
        _forbid(monkeypatch, np, name)
    _refused(lambda: empirical_entropy_scores(2, 20, 8))


def _closure_checks(monkeypatch, members, D, n) -> list:
    """The bytes of every class SVD check of the join, which runs whole."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(projectors, "check_budget", lambda nbytes, what: seen.append((nbytes, what)))
        orbit_join_basis(members, D, n)
    return [nbytes for nbytes, what in seen if "SVD" in what]


def test_join_past_the_budget_is_refused_before_allocation(monkeypatch):
    # a budget below the join's up-front bytes refuses the join before its
    # tables and start blocks exist, called directly or from assemble_q; one
    # past the closure's class SVDs but short of the assembled basis refuses
    # the D^n x rank basis
    code = build_code(2, 0.5, 10)
    members = code.member_indices()
    up_front = projectors._join_bytes(2, 10, code.size)
    monkeypatch.setattr(errors, "MEMORY_BUDGET", up_front - 1)
    _forbid(monkeypatch, projectors, "all_sequences")
    with pytest.raises(SizeError, match="orbit join over 2\\^10"):
        assemble_q(10, 2, 0.5, override=(1, 10, 0.5))
    _forbid(monkeypatch, np, "zeros")
    with pytest.raises(SizeError, match="orbit join over 2\\^10"):
        orbit_join_basis(members, 2, 10)
    monkeypatch.undo()
    monkeypatch.setattr(errors, "MEMORY_BUDGET", max(_closure_checks(monkeypatch, members, 2, 10)))
    zeros = np.zeros

    def no_basis(shape, *args, **kwargs):
        if shape == (2 ** 10, 162):
            raise AssertionError("D^n x rank basis allocated past the memory budget")
        return zeros(shape, *args, **kwargs)
    monkeypatch.setattr(np, "zeros", no_basis)
    with pytest.raises(SizeError, match="orbit join basis of rank 162"):
        orbit_join_basis(members, 2, 10)


def test_join_closure_past_the_budget_is_refused_before_the_svd(monkeypatch):
    # under a budget between the join's up-front bytes and its closure's
    # largest class SVD, the join passes its first check and is then
    # refused before an SVD whose operands, beside what the process holds,
    # would pass the budget: called directly, and as an experiment row
    code = build_code(2, 0.5, 10)
    members = code.member_indices()
    up_front = projectors._join_bytes(2, 10, code.size)
    closure = max(_closure_checks(monkeypatch, members, 2, 10))
    assert up_front < closure
    monkeypatch.setattr(errors, "MEMORY_BUDGET", (up_front + closure) // 2)
    svd = np.linalg.svd

    def bounded(a, *args, **kwargs):
        # the stack, LAPACK's copy and U beside what the process holds
        if tracemalloc.get_traced_memory()[0] + 3 * a.nbytes > errors.MEMORY_BUDGET:
            raise AssertionError("class SVD past the memory budget")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", bounded)
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match="orbit join: SVD of a .* class block"):
            orbit_join_basis(members, 2, 10)
    finally:
        tracemalloc.stop()
    cfg = ExperimentConfig.from_dict({"sources": [{"kind": "iid", "probs": [0.9, 0.1]}],
                                      "r": 0.5, "n_range": [10]})
    rows = run_experiment(cfg)
    assert rows[0].error.startswith("SizeError: orbit join: SVD of a")


def test_padded_basis_past_the_budget_is_refused_before_allocation(monkeypatch):
    # m = 15 with l = 2 blocks and one padded site: the n = 7 join over 4^7
    # sequences has rank 4552 at R = 1 (1.1 GiB), a broadcast view here.  The
    # row sweeps it through the 14 joined sites, rho_14 B, which the real
    # sweep refuses at 24 chi 2^14 4552 bytes (3.3 GiB) before it allocates
    basis = np.broadcast_to(np.zeros(1), (4 ** 7, 4552))
    q = UniversalProjector(m=15, d=2, r=0.5, l=2, n=7, R=1.0, k_order=0,
                           join=JoinResult(basis, {}, 0.0), pad=1,
                           code=build_code(4, 1.0, 7))
    source = build_source(DEPOLARIZED_MARKOV)
    _forbid(monkeypatch, np, "matmul")
    _refused(lambda: acceptance_probability(q, source),
             match="rho_14 V over 4552 columns needs 3414 MiB")
    # in an experiment the refusal is that row's error, and the batch goes on
    monkeypatch.undo()
    monkeypatch.setattr(harness, "assemble_q", lambda *args, **kwargs: q)
    cfg = ExperimentConfig.from_dict({"sources": [DEPOLARIZED_MARKOV], "r": 0.5,
                                      "n_range": [15, 15], "seed": 3,
                                      "override_schedule": {"l": 2, "R": 1.0}})
    rows = run_experiment(cfg)
    assert [r.error.split(":")[0] for r in rows] == ["SizeError"] * 2
    assert "rho_14 V over 4552 columns" in rows[0].error


def test_build_projector_past_the_budget_writes_nothing(monkeypatch, tmp_path, capsys):
    # the n = 14 grid is 2 GiB with a 2 GiB zero .imag (two CSV files of
    # about 6.7 GB); n = 13 is admitted
    q = assemble_q(13, 2, None, override=(1, 13, 0.5))
    assert _admitted_bytes(monkeypatch, lambda: export_projector(q, str(tmp_path / "q13"))) \
        < MEMORY_BUDGET
    monkeypatch.undo()
    _forbid(monkeypatch, UniversalProjector, "matrix")
    _forbid(monkeypatch, projectors, "_write_grid")
    out = str(tmp_path / "q14")
    assert main(["build-projector", "--l", "1", "--n", "14", "--R", "0.5", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: projector grid of 16384 x 16384 needs")
    assert "memory budget" in err
    assert list(tmp_path.iterdir()) == []


# the sidecar of the n = 14 row's join, rank 1031 (the apply test above);
# the .npz beside it is never opened
N14 = {"d": 2, "m": 14, "l": 1, "n": 14, "pad": 0, "rank": 1031}


def _sidecar(tmp_path, **sizes) -> str:
    (tmp_path / "q.npz").write_bytes(b"")
    (tmp_path / "q.json").write_text(json.dumps({**N14, **sizes}))
    return str(tmp_path / "q")


def test_load_sized_by_the_sidecar_before_reading(monkeypatch, tmp_path):
    _forbid(monkeypatch, np, "load")
    prefix = _sidecar(tmp_path, m=24, n=24)
    _refused(lambda: load_projector_matrix(prefix))
    for bad in ({"m": 1.5}, {"rank": True}, {"rank": None}, {"pad": -1}, {"d": 0},
                {"m": 15}):
        _sidecar(tmp_path, **bad)
        with pytest.raises(errors.ConfigError, match="sidecar d, m, l, n, pad and rank"):
            load_projector_matrix(prefix)


def test_compress_sized_by_the_sidecar_before_reading(monkeypatch, tmp_path, capsys):
    # B and its Gram matrix with one temporary, beside the reader's buffers:
    # the n = 14 basis is admitted at 129 MiB, and a 2^20 x 20000 one
    # (162 GiB) is refused before the .npz is opened
    prefix = _sidecar(tmp_path)
    assert _admitted_bytes(monkeypatch, lambda: load_projector_matrix(prefix)) \
        == 8 * 2 ** 14 * 1031 + 16 * 1031 ** 2 + 2 ** 19
    monkeypatch.undo()
    _sidecar(tmp_path, m=20, n=20, rank=20000)
    _forbid(monkeypatch, np, "load")
    assert main(["compress", "--scheme", "c1", "--projector", prefix,
                 "--source", '{"kind": "iid", "probs": [0.9, 0.1]}']) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: projector basis of 2^20 x 20000 needs 166105 MiB")
    assert "memory budget" in err


def test_lag_terms_past_the_budget_are_refused_before_allocation(monkeypatch, capsys):
    _forbid(monkeypatch, np, "empty")
    assert main(["check-ergodic", '{"kind": "iid", "probs": [0.9, 0.1]}',
                 "--N", "1000000000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 1000000000000 lag terms needs")
    assert "memory budget" in err
    # 24 bytes a term beside the scan's block of LAG_BLOCK rows, complex, its
    # successor and their products (chi = 2 here): 2^27 - 4096 terms are
    # admitted at exactly the budget
    s, a = build_source(DEPOLARIZED_MARKOV), np.diag([1.0, 0.0])
    most = 2 ** 27 - 4096
    assert 24 * most + 16 * sources.LAG_BLOCK * 6 == MEMORY_BUDGET
    _refused(lambda: ergodicity_gap(s, a, a, 1, most + 1))
    monkeypatch.undo()
    A = transfer_observable(s, a, 1)
    assert _admitted_bytes(monkeypatch, lambda: lag_scan(s, A, A, 1, most)) == MEMORY_BUDGET


def test_classical_marginals_are_sized_in_bytes(monkeypatch):
    # a 16 MiB marginal at n = 21 is admitted; n = 28 of an i.i.d. process
    # (3.3 GiB) is refused
    assert _admitted_bytes(monkeypatch, lambda: IIDProcess([0.9, 0.1]).marginal(21)) \
        == 8 * 2 ** 20 + 9 * 2 ** 21
    monkeypatch.undo()
    _refused(lambda: IIDProcess([0.9, 0.1]).marginal(28))


def _first_check(monkeypatch, run) -> int:
    """The bytes of the first check in run(), admitted or not; run() stops
    there, before it allocates."""
    def record(nbytes, what):
        raise Admitted(nbytes)

    with monkeypatch.context() as m:
        for module in CHECKED:
            m.setattr(module, "check_budget", record)
        with pytest.raises(Admitted) as admitted:
            run()
    return admitted.value.args[0]


@pytest.mark.parametrize("L", [2, 3, 4])
def test_dense_measure_admits_every_code_the_marginal_admitted(L, monkeypatch):
    # a code measure is admitted wherever the marginal was, for every code
    # that builds: where no state merges (the shape of such a code, a
    # broadcast view here, at the first k where no state merges) the
    # sequences' masses are the marginal's, beside the code's weights; k = 1
    # codes hold few states a site
    for chi in (1, 2, 6, 16, 64):
        p = ClassicalProcess(np.full(chi, 1 / chi), np.full((chi, chi, L), 1 / (chi * L)))
        for n in range(1, 40):
            if _first_check(monkeypatch, lambda: p.marginal(n)) > MEMORY_BUDGET:
                break
            k = next(k for k in range(n + 1) if codes._merge_from(L, n, k) is None)
            if codes._build_bytes(L, n, k) <= MEMORY_BUDGET:
                clusters = np.broadcast_to(np.zeros(1, np.uint8), (L ** n,))
                unmerged = codes.BlockCode(L, n, 0.5, k, None, [], clusters, 1, 0, 0)
                assert _first_check(monkeypatch, lambda: code_measure(p, unmerged)) \
                    <= MEMORY_BUDGET, (chi, n, k)
            if L ** n <= 2 ** 14:
                c = build_code(L, 0.5, n, 1)
                assert _first_check(monkeypatch, lambda: code_measure(p, c)) <= MEMORY_BUDGET
        assert n > 10


# the largest n the type-class and enumerated builds admitted at each (L, k),
# at R = 0.5: every binary k = 0 code up to n = 64, and every other code
# while its enumeration of the L^n sequences fit the budget
ENUMERATION_LIMITS = {
    2: [64, 27, 27, 24, 23, 22, 21, 20],
    3: [17, 17, 14, 13, 12, 11, 10, 9],
    4: [13, 12, 11, 10, 9, 8, 7, 6],
}


@pytest.mark.parametrize("L", ENUMERATION_LIMITS)
def test_build_admits_every_code_the_enumeration_admitted(L, monkeypatch):
    # checked by formula, without building
    for k, limit in enumerate(ENUMERATION_LIMITS[L]):
        for n in range(1, limit + 1):
            assert _first_check(monkeypatch, lambda: build_code(L, 0.5, n, k)) \
                <= MEMORY_BUDGET, (L, n, k)


def test_hidden_state_forms_past_the_budget_are_row_errors(monkeypatch):
    # under a 1 MiB budget: a 1500-phase cycle's transfer tensor (34 MiB), a
    # 20-letter chain's site tensor (3.7 MiB, its 63 KiB transfer tensor
    # admitted) and the transfer tensor of a mixture of three cycles of
    # about 100 phases (1.4 MiB, each component's 160 KB admitted) are
    # refused before they are allocated, each in its own row
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 2 ** 20)
    cycles = [{"kind": "periodic", "cycle": _cycle(100 + i)} for i in range(3)]
    specs = [{"kind": "periodic", "cycle": _cycle(1500)},
             {"kind": "markov", "transition": [[0.05] * 20] * 20},
             {"kind": "mixture", "weights": [0.2, 0.3, 0.5], "components": cycles}]
    cfg = ExperimentConfig.from_dict({
        "sources": [{"kind": "classical", "process": spec} for spec in specs],
        "r": 0.5, "n_range": [16], "projector_mode": "code"})
    rows = []
    assert _peak(lambda: rows.extend(run_experiment(cfg))) < 2 ** 20
    assert [r.error.split(" needs")[0] for r in rows] == [
        "SizeError: periodic transfer tensor of 1500 x 1500 x 2",
        "SizeError: site tensor of 20 hidden states over 20-dimensional sites",
        "SizeError: mixture transfer tensor of 303 x 303 x 2"]
