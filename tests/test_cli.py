import json

import numpy as np
import pytest

from quclab import harness, operators
from quclab.cli import main
from quclab.harness import (ExperimentConfig, build_source, compress_c2,
                            run_experiment)
from quclab.projectors import UniversalProjector, acceptance_probability, assemble_q
from quclab.sources import QuantumSource
from reference import export_basis, forbid

BERN = '{"kind":"iid","probs":[0.9,0.1]}'
BERN_SPEC = json.loads(BERN)


def test_entropy_command(capsys):
    assert main(["entropy", BERN, "--n", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "0.4689955936" in out
    assert "analytic" in out


def test_entropy_nonstationary_markov_prints_measured_values(capsys):
    src = ('{"kind":"classical","process":{"kind":"markov",'
           '"transition":[[0.9,0.1],[0.2,0.8]],"initial":[1,0]}}')
    assert main(["entropy", src]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the chain starts in |0>, so rho_1 is pure; there is no analytic rate
    assert lines[0] == "n=1  S(rho_n)/n = 0.0000000000 bits"
    assert [line.split()[0] for line in lines[:6]] == [f"n={n}" for n in range(1, 7)]
    assert lines[6].startswith("extrapolated:") and len(lines) == 7


def test_entropy_from_file(tmp_path, capsys):
    spec = tmp_path / "s.json"
    spec.write_text(BERN)
    assert main(["entropy", f"@{spec}"]) == 0


def test_check_ergodic_command(capsys):
    src = ('{"kind":"classical","process":{"kind":"markov",'
           '"transition":[[0.9,0.1],[0.2,0.8]]}}')
    assert main(["check-ergodic", src, "--N", "300"]) == 0
    out = capsys.readouterr().out
    assert "gap:" in out


@pytest.mark.parametrize("m", ["2", "3", "13"])
def test_check_ergodic_over_several_sites(m, capsys):
    # the observable is |0...0><0...0| on the m sites; it enters the scan as
    # the m-th power of |0><0|'s chi x chi matrix, so at m = 13 no
    # 2^13 x 2^13 array (4.5 GiB with its copies) is formed
    assert main(["check-ergodic", BERN, "--m", m, "--N", "100"]) == 0
    out = dict(line.split(":") for line in capsys.readouterr().out.splitlines()[1:])
    assert abs(float(out["product target"]) - 0.81 ** int(m)) < 1e-10
    assert float(out["gap"]) < 1e-12


def test_check_ergodic_rejects_a_non_finite_channel(capsys):
    chan = '{"name":"custom","kraus":[[[[NaN,0],[0,1]],[[0,0],[0,0]]]]}'
    assert main(["check-ergodic", BERN, "--channel", chan]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err


def test_check_ergodic_rejects_a_kraus_operator_that_is_no_matrix(capsys):
    # the one operator [1, 0] is two scalars, re and im: once an IndexError
    chan = '{"name":"custom","kraus":[[1,0]]}'
    assert main(["check-ergodic", BERN, "--channel", chan]) == 1
    assert capsys.readouterr().err == "error: Kraus operators must be square with equal dims\n"


def test_check_ergodic_with_channel(capsys):
    src = ('{"kind":"classical","process":{"kind":"markov",'
           '"transition":[[0.9,0.1],[0.2,0.8]]}}')
    chan = '{"name":"depolarizing","p":0.25}'
    assert main(["check-ergodic", src, "--channel", chan, "--N", "200"]) == 0


NONORTHOGONAL_MARKOV = {"kind": "classical",
                        "process": {"kind": "markov", "transition": [[0.9, 0.1], [0.2, 0.8]]},
                        "alphabet": {"re": [[1.0, 0.6], [0.0, 0.8]]}}
DEPOLARIZING = {"name": "depolarizing", "p": 0.25}


def _dense_marginal(n, kraus):
    """W diag(mu) W^dagger over the product alphabet vectors, then the
    channel's Kraus operators applied site by site."""
    from quclab.processes import MarkovProcess
    v = np.array(NONORTHOGONAL_MARKOV["alphabet"]["re"])
    w = np.ones((1, 1))
    for _ in range(n):
        w = np.kron(w, v)
    rho = (w * MarkovProcess([[0.9, 0.1], [0.2, 0.8]]).marginal(n).probs) @ w.T
    for i in range(n):
        ops = [np.kron(np.kron(np.eye(2 ** i), k), np.eye(2 ** (n - i - 1))) for k in kraus]
        rho = sum(a @ rho @ a.conj().T for a in ops)
    return rho


@pytest.mark.parametrize("channel", [None, DEPOLARIZING])
def test_check_ergodic_nonorthogonal_alphabet(channel, capsys):
    from quclab.harness import build_channel
    extra = ["--channel", json.dumps(channel)] if channel else []
    src = json.dumps(NONORTHOGONAL_MARKOV)
    assert main(["check-ergodic", src] + extra) == 0  # the default N = 200
    N = 6
    assert main(["check-ergodic", src, "--N", str(N)] + extra) == 0
    out = capsys.readouterr().out.split("m=1 N=6")[1]
    printed = dict(line.split(":") for line in out.strip().splitlines())
    kraus = build_channel(channel).kraus if channel else [np.eye(2)]
    a = np.diag([1.0, 0.0])
    terms = [np.trace(_dense_marginal(1 + j, kraus)
                      @ np.kron(np.kron(a, np.eye(2 ** (j - 1))), a)).real
             for j in range(1, N + 1)]
    rho1 = _dense_marginal(1, kraus)
    assert abs(float(printed["cesaro average"]) - np.mean(terms)) < 1e-9
    assert abs(float(printed["product target"]) - np.trace(rho1 @ a).real ** 2) < 1e-9


def test_build_and_compress(tmp_path, capsys):
    out = str(tmp_path / "q")
    assert main(["build-projector", "--l", "1", "--n", "4", "--R", "0.7",
                 "--seed", "1", "--out", out]) == 0
    sidecar = json.loads((tmp_path / "q.json").read_text())
    assert sidecar["m"] == 4
    capsys.readouterr()
    assert main(["compress", "--scheme", "c1", "--projector", out,
                 "--source", BERN]) == 0
    text = capsys.readouterr().out
    assert "entanglement_fidelity" in text
    assert "output_trace = 1.0000000000" in text
    assert main(["compress", "--scheme", "c2", "--projector", out,
                 "--source", BERN]) == 0


def test_compress_c2_prints_acceptance_as_squared_fidelity(tmp_path, capsys):
    # amplitude-damped i.i.d. qubit: the dense squared fidelity of the c2
    # output used to print 0.8294809020 next to accept_prob 0.8294808041
    out = str(tmp_path / "q")
    assert main(["build-projector", "--d", "2", "--l", "1", "--n", "8",
                 "--R", "0.5", "--out", out]) == 0
    src = json.dumps({"kind": "channel-transformed",
                      "inner": {"kind": "iid",
                                "rho_re": [[0.75, 0.2], [0.2, 0.25]],
                                "rho_im": [[0, -0.15], [0.15, 0]]},
                      "channel": {"name": "amplitude-damping", "gamma": 0.3}})
    capsys.readouterr()
    assert main(["compress", "--scheme", "c2", "--projector", out,
                 "--source", src]) == 0
    values = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert values["accept_prob"] == "0.8294808041"
    assert values["fidelity^2"] == values["accept_prob"]
    assert values["output_trace"] == "1.0000000000"


C2_SOURCES = {
    "depolarized-markov": {
        "kind": "channel-transformed",
        "inner": {"kind": "classical",
                  "process": {"kind": "markov", "transition": [[0.88, 0.12], [0.4, 0.6]]},
                  "alphabet": {"re": [[1.0, 0.6], [0.0, 0.8]]}},
        "channel": {"name": "depolarizing", "p": 0.2}},
    "damped-iid": {
        "kind": "channel-transformed",
        "inner": {"kind": "iid", "rho_re": [[0.75, 0.2], [0.2, 0.25]],
                  "rho_im": [[0.0, -0.15], [0.15, 0.0]]},
        "channel": {"name": "amplitude-damping", "gamma": 0.3}},
}

# the orbit-row path each source takes: the damped source is i.i.d. (chi = 1)
C2_PATHS = {"depolarized-markov": "dense", "damped-iid": "invariant"}


@pytest.mark.parametrize("name", sorted(C2_SOURCES))
def test_compress_c2_matches_library_scheme(name, tmp_path, capsys):
    out = str(tmp_path / "q")
    assert main(["build-projector", "--l", "1", "--n", "8", "--R", "0.5",
                 "--out", out]) == 0
    spec = C2_SOURCES[name]
    capsys.readouterr()
    assert main(["compress", "--scheme", "c2", "--projector", out,
                 "--source", json.dumps(spec)]) == 0
    printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    p = assemble_q(8, 2, 1, 0.5).matrix()
    rho = build_source(spec).marginal(8)
    accept = float(np.einsum("ij,ji->", p, rho).real)
    assert printed == {"accept_prob": f"{accept:.10f}", "fidelity^2": f"{accept:.10f}",
                       "output_trace": f"{float(np.trace(compress_c2(p, rho)).real):.10f}"}


def test_compress_c2_dimension_mismatch_exit_code(tmp_path, capsys):
    out = str(tmp_path / "q")
    assert main(["build-projector", "--l", "1", "--n", "3", "--R", "0.5",
                 "--out", out]) == 0
    capsys.readouterr()
    qutrit = '{"kind":"iid","probs":[0.5,0.3,0.2]}'
    assert main(["compress", "--scheme", "c2", "--projector", out, "--source", qutrit]) == 1
    assert capsys.readouterr().err == "error: source dimension != projector site dimension\n"
    # an empty or cut-off .npz is one error line, not a traceback
    for damaged in (b"", (tmp_path / "q.npz").read_bytes()[:200]):
        (tmp_path / "q.npz").write_bytes(damaged)
        assert main(["compress", "--scheme", "c1", "--projector", out, "--source", BERN]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
    (tmp_path / "q.json").unlink()
    assert main(["compress", "--scheme", "c1", "--projector", out, "--source", BERN]) == 1
    assert capsys.readouterr().err == (f"error: projector file {out}.json not found; "
                                       "re-run quclab build-projector\n")


def _compress(args, capsys) -> dict:
    capsys.readouterr()
    assert main(["compress"] + args) == 0
    return dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())


@pytest.fixture(scope="module")
def exports(tmp_path_factory) -> dict:
    """The m = 8 join and the l = 2 join at m = 11, with one identity-padded
    site, each exported once (B and the sidecar, which compress reads)."""
    out = tmp_path_factory.mktemp("exports")
    joins = {}
    for l, m in [(1, 8), (2, 11)]:
        q = assemble_q(m, 2, l, 0.5 * l)
        joins[l, m] = q, export_basis(q, str(out / f"q{m}"))
    return joins


@pytest.mark.parametrize("name", sorted(C2_SOURCES))
@pytest.mark.parametrize("scheme", ["c1", "c2"])
def test_compress_matches_experiment_row(name, scheme, exports, capsys):
    # the printed numbers are the row's: one _orbit_row computes both, the
    # i.i.d. row with tr(q rho) by U^{(x)n} invariance; the l = 2 join at
    # m = 11 leaves one identity-padded site.  A diagonal source prints q's
    # acceptance, where its experiment row reports the code's measure
    spec = C2_SOURCES[name]
    fe = "entanglement_fidelity" if scheme == "c1" else "fidelity^2"
    for (l, m), (q, out) in exports.items():
        printed = _compress(["--scheme", scheme, "--projector", out,
                             "--source", json.dumps(spec)], capsys)
        row, = run_experiment(ExperimentConfig.from_dict(
            {"sources": [spec], "r": 0.5, "n_range": [m], "scheme": scheme,
             "override_schedule": {"l": l}}))
        assert row.path == C2_PATHS[name] and not row.error
        assert printed["accept_prob"] == f"{row.accept_prob:.10f}"
        assert printed[fe] == f"{row.entanglement_fidelity:.10f}"
        assert printed["output_trace"] == "1.0000000000"
        diagonal = _compress(["--scheme", scheme, "--projector", out, "--source", BERN], capsys)
        assert diagonal["accept_prob"] == \
            f"{acceptance_probability(q, build_source(BERN_SPEC)):.10f}"


def test_compress_needs_no_eigendecomposition_or_dense_scheme(tmp_path, capsys,
                                                             monkeypatch):
    out = str(tmp_path / "q")
    assert main(["build-projector", "--l", "1", "--n", "6", "--R", "0.5",
                 "--out", out]) == 0

    # no grid is read, and no d^m x d^m projector or marginal is formed
    forbid(monkeypatch, operators, "hermitian_eig", why="called by compress")
    forbid(monkeypatch, harness, "compress_c1", "compress_c2", why="called by compress")
    forbid(monkeypatch, np, "loadtxt", why="called by compress")
    forbid(monkeypatch, QuantumSource, "marginal", why="called by compress")
    forbid(monkeypatch, UniversalProjector, "matrix", why="called by compress")
    spec = json.dumps(C2_SOURCES["depolarized-markov"])
    for scheme in ("c1", "c2"):
        printed = _compress(["--scheme", scheme, "--projector", out, "--source", spec],
                            capsys)
        assert printed["output_trace"] == "1.0000000000"


def _write_basis(tmp_path, basis) -> str:
    """A hand-written one-site projector B B^T: its .npz and sidecar."""
    basis = np.array(basis, dtype=float)
    np.savez(tmp_path / "q.npz", basis=basis)
    (tmp_path / "q.json").write_text(json.dumps(
        {"m": 1, "d": 2, "l": 1, "n": 1, "pad": 0, "rank": basis.shape[1]}))
    return str(tmp_path / "q")


def test_compress_c2_zero_overlap_exit_code(tmp_path, capsys):
    # a hand-written one-site projector |0><0| against the state |1><1|
    out = _write_basis(tmp_path, [[1.0], [0.0]])
    src = '{"kind":"iid","probs":[0,1]}'
    assert main(["compress", "--scheme", "c2", "--projector", out,
                 "--source", src]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: state has (numerically) zero overlap with the projector\n"
    printed = _compress(["--scheme", "c1", "--projector", out, "--source", src],
                        capsys)
    assert printed == {"accept_prob": "0.0000000000",
                       "entanglement_fidelity": "0.0000000000",
                       "output_trace": "1.0000000000"}


@pytest.mark.parametrize("args, match", [
    (["--l", "0", "--n", "4"], "l = 0"), (["--l", "-1", "--n", "4"], "l = -1"),
    (["--l", "1", "--n", "0"], "n = 0"), (["--l", "1", "--n", "4", "--k", "-1"], "k = -1"),
    (["--l", "1", "--n", "4", "--d", "0"], "d = 0"),
    (["--l", "1", "--n", "4", "--d", "1"], "d = 1")])
def test_build_projector_bad_blocks_exit_code(args, match, tmp_path, capsys):
    # these used to print tracebacks, and --d 0 "math domain error"
    out = str(tmp_path / "q")
    assert main(["build-projector", "--R", "0.5", "--out", out] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("fields", [{"n_range": [0, 4]}, {"n_range": [4.7]},
                                    {"k_order": -1}])
def test_experiment_bad_block_lengths_exit_code(fields, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sources": [BERN_SPEC], "r": 0.5, "n_range": [4],
                                    **fields}))
    assert main(["experiment", "run", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and next(iter(fields)) in err


@pytest.mark.parametrize("basis", [[[1.0, np.nan], [0.0, 1.0]], [[1.0, 0.6], [0.0, 0.8]]],
                         ids=["non-finite", "not-orthogonal"])
def test_compress_rejects_a_basis_that_is_not_finite_and_orthonormal(basis, tmp_path, capsys):
    # _orbit_row reads B B^T as q, which needs B^T B = 1
    out = _write_basis(tmp_path, basis)
    for scheme in ("c1", "c2"):
        assert main(["compress", "--scheme", scheme, "--projector", out,
                     "--source", BERN]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and "not orthonormal" in captured.err


def test_compress_rejects_a_basis_that_is_not_a_projector(tmp_path, capsys):
    # a column of norm 1/2 makes B B^T = diag(0.25, 0), Hermitian but not
    # idempotent: c2 used to print accept_prob 0.25 and exit 0, c1 to blame
    # the flag vector
    out = _write_basis(tmp_path, [[0.5], [0.0]])
    for scheme in ("c1", "c2"):
        assert main(["compress", "--scheme", scheme, "--projector", out,
                     "--source", BERN]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "not orthonormal (deviation 7.500e-01)" in captured.err


@pytest.mark.parametrize("raw, named", [([1, 2], "config must be a JSON object"),
                                        ({"r": None}, "r must be"),
                                        ({"seed": None}, "seed must be"),
                                        ({"output": 5}, "output must be"),
                                        ({"sources": "ab"}, "sources must be")])
def test_experiment_bad_config_exit_code(raw, named, tmp_path, capsys):
    if isinstance(raw, dict):
        raw = {"sources": [BERN_SPEC], "r": 0.5, "n_range": [4], **raw}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["experiment", "run", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {named}")
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_build_projector_ignores_seed(tmp_path, capsys):
    grids = []
    for seed in ("1", "2"):
        out = str(tmp_path / f"q{seed}")
        assert main(["build-projector", "--l", "1", "--n", "5", "--R", "0.5",
                     "--seed", seed, "--out", out]) == 0
        grids.append((tmp_path / f"q{seed}.real.csv").read_bytes())
    assert grids[0] == grids[1]


def test_experiment_run_and_reproducibility(tmp_path):
    cfg = {"sources": [{"id": "b", "kind": "iid", "probs": [0.9, 0.1]}],
           "r": 0.7, "n_range": [4, 6], "seed": 9,
           "output": str(tmp_path / "rep")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "run", str(cfg_path)]) == 0
    first = (tmp_path / "rep.csv").read_bytes()
    assert main(["experiment", "run", str(cfg_path)]) == 0
    assert (tmp_path / "rep.csv").read_bytes() == first


def test_experiment_stdout_when_no_output(tmp_path, capsys):
    cfg = {"sources": [{"kind": "iid", "probs": [0.5, 0.5]}],
           "r": 0.9, "n_range": [3], "seed": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "run", str(cfg_path)]) == 0
    assert capsys.readouterr().out.startswith("source,n,r,")


def test_config_error_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"sources": [], "r": 0.7, "n_range": [3],
                                    "wat": 1}))
    assert main(["experiment", "run", str(cfg_path)]) == 1
    assert main(["experiment", "run", str(tmp_path / "missing.json")]) == 1
    assert main(["entropy", "{not json"]) == 1


def test_bad_source_spec_exit_code(capsys):
    assert main(["entropy", '{"kind":"nope"}']) == 1


@pytest.mark.parametrize("schedule", [{"l": 0}, {"l": "x"}, {"l": 1.5}, {"R": "x"},
                                      {"R": float("nan")}, {"k": 1}, [1]])
def test_bad_override_schedule_exit_code(schedule, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sources": [BERN_SPEC], "r": 0.5, "n_range": [4],
                                    "override_schedule": schedule}))
    assert main(["experiment", "run", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "override_schedule" in err
