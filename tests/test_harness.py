import json

import numpy as np
import pytest

from quclab import codes, errors, harness, projectors
from quclab.errors import ConfigError, ValidationError
from quclab.harness import (ExperimentConfig, _orbit_row, build_process, build_source,
                            compress_c1, compress_c2, report_csv,
                            run_experiment, CSV_HEADER)
from quclab.processes import MarkovProcess, PeriodicProcess
from quclab.projectors import acceptance_probability, assemble_q, trace_q_rho
from quclab.sources import IIDSource, QuantumSource
from randmat import random_density, random_projector


def test_c1_identity():
    rng = np.random.default_rng(0)
    rho = random_density(4, rng)
    out, fe = compress_c1(np.eye(4), rho)
    assert np.max(np.abs(out - rho)) < 1e-12
    assert abs(fe - 1.0) < 1e-12


def test_c1_qubit_example():
    p = np.diag([1.0, 0.0])
    rho = np.diag([0.9, 0.1])
    out, fe = compress_c1(p, rho)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
    assert abs(fe - 0.81) < 1e-12


def test_c1_trace_preserved_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = random_projector(4, int(rng.integers(1, 4)), rng)
        rho = random_density(4, rng)
        out, fe = compress_c1(p, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert -1e-9 <= fe <= 1 + 1e-9


def test_c1_fe_matches_kraus_formula():
    # independent oracle: build the explicit Kraus set and sum |tr(A rho)|^2
    from quclab.operators import hermitian_eig
    from quclab.info import entanglement_fidelity
    rng = np.random.default_rng(2)
    p = random_projector(4, 2, rng)
    rho = random_density(4, rng)
    out, fe = compress_c1(p, rho)
    w, v = hermitian_eig(p)
    flag = v[:, 0]
    kraus = [p] + [np.outer(flag, v[:, i].conj()) for i in range(4) if w[i] < 0.5]
    comp = sum(a.conj().T @ a for a in kraus)
    assert np.max(np.abs(comp - np.eye(4))) < 1e-10  # trace preserving
    assert abs(fe - entanglement_fidelity(rho, kraus)) < 1e-10
    assert abs(fe - entanglement_fidelity(rho, kraus, method="purification")) < 1e-9


def test_c1_flag_outside_range():
    p = np.diag([1.0, 0.0])
    with pytest.raises(ConfigError):
        compress_c1(p, np.eye(2) / 2, flag_vector=np.array([0.0, 1.0]))


def test_c2_examples():
    rng = np.random.default_rng(3)
    rho = random_density(3, rng)
    assert np.max(np.abs(compress_c2(np.eye(3), rho) - rho)) < 1e-12
    out = compress_c2(np.diag([1.0, 0.0]), np.diag([0.9, 0.1]))
    assert np.allclose(out, np.diag([1.0, 0.0]))


def test_c2_zero_overlap():
    with pytest.raises(ValidationError):
        compress_c2(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


def test_config_unknown_field_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"sources": [], "r": 0.7, "n_range": [4],
                                    "bogus": 1})


def test_config_missing_field():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"sources": [], "r": 0.7})


def test_config_bad_scheme():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"sources": [], "r": 0.7, "n_range": [4],
                                    "scheme": "c3"})


@pytest.mark.parametrize("schedule", [{"l": 0}, {"l": -1}, {"l": "x"}, {"l": True},
                                      {"R": "x"}, {"R": float("inf")}, {"l": 2, "n": 3}])
def test_config_bad_override_schedule(schedule):
    # l = 0 used to raise ZeroDivisionError out of run_experiment at n // l
    with pytest.raises(ConfigError, match="override_schedule"):
        ExperimentConfig.from_dict({"sources": [], "r": 0.7, "n_range": [4],
                                    "override_schedule": schedule})


@pytest.mark.parametrize("fields", [{"n_range": [0]}, {"n_range": [-1]}, {"n_range": [4.7]},
                                    {"n_range": [4, True]}, {"n_range": ["4"]},
                                    {"n_range": 4}, {"k_order": -1}, {"k_order": 1.9},
                                    {"k_order": "1"}, {"k_order": False}])
def test_config_bad_block_lengths_and_order(fields):
    # n_range [0] used to raise ZeroDivisionError out of run_experiment, -1 a
    # TypeError, and 4.7 and 1.9 were truncated
    raw = {"sources": [], "r": 0.7, "n_range": [4], **fields}
    with pytest.raises(ConfigError, match=next(iter(fields))):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("fields, named", [
    ({"r": None}, "r"), ({"r": True}, "r"), ({"r": "0.5"}, "r"), ({"r": float("nan")}, "r"),
    ({"r": 10 ** 400}, "r"), ({"seed": None}, "seed"), ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"), ({"output": 5}, "output"), ({"sources": "ab"}, "sources"),
    ({"sources": {"kind": "iid"}}, "sources")])
def test_config_bad_scalar_fields(fields, named):
    # r and seed null used to raise TypeError, output 5 a TypeError after every
    # row was computed, "ab" made one row per character and r true ran at r = 1
    raw = {"sources": [], "r": 0.7, "n_range": [4], **fields}
    with pytest.raises(ConfigError, match=f"^{named} must be"):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("raw", [[1, 2], "cfg", None, 3])
def test_config_must_be_an_object(raw):
    with pytest.raises(ConfigError, match="config must be a JSON object"):
        ExperimentConfig.from_dict(raw)


def test_config_integer_seed_and_output_accepted():
    cfg = ExperimentConfig.from_dict({"sources": [], "r": 1, "n_range": [4],
                                      "seed": -3, "output": None})
    assert (cfg.r, cfg.seed, cfg.output) == (1.0, -3, None)


def test_code_mode_needs_only_a_classical_view():
    # l = 11 is past orbit mode's d^l <= 2^10 gate for its diagonal path;
    # code mode used to inherit that gate and refuse the diagonal source
    rows = run_experiment(ExperimentConfig.from_dict(
        {"sources": [{"kind": "iid", "probs": [0.9, 0.1]}], "r": 0.5, "n_range": [11],
         "projector_mode": "code", "override_schedule": {"l": 11, "R": 5.5}}))
    # k = 0 on one block: every symbol ties, so the code is the 32
    # lexicographically first symbols, those with six leading zeros
    assert rows[0].error == "" and rows[0].path == "code"
    assert abs(rows[0].accept_prob - 0.9 ** 6) < 1e-12
    assert abs(rows[0].achieved_rate - 5 / 11) < 1e-12
    dense = {"kind": "iid", "rho_re": [[0.5, 0.4], [0.4, 0.5]]}
    rows = _rows([dense], projector_mode="code")
    assert rows[0].error == "ConfigError: projector_mode=code needs a diagonal source"


def test_code_mode_gram_count_past_the_cap_is_a_row_error():
    # k = 12 at n = 16 used to raise MemoryError (a 4 GiB count) out of the batch
    markov = {"kind": "classical",
              "process": {"kind": "markov", "transition": [[0.9, 0.1], [0.2, 0.8]]}}
    rows = _rows([GOOD_IID, markov], n_range=[16], projector_mode="code", k_order=12)
    assert len(rows) == 2
    for row in rows:
        assert row.error.startswith("SizeError") and "memory budget" in row.error
        assert row.accept_prob is None


@pytest.mark.parametrize("mode", ["orbit", "code"])
def test_fewer_than_one_block_is_a_row_error(mode):
    # l = 5 at n = 4 leaves no block; the row used to report achieved_rate
    # 1.0 from a zero-block projector
    rows = run_experiment(ExperimentConfig.from_dict(
        {"sources": [{"kind": "iid", "probs": [0.9, 0.1]}], "r": 0.5, "n_range": [4, 5],
         "override_schedule": {"l": 5}, "projector_mode": mode}))
    assert rows[0].error.startswith("ValidationError") and "n = 0" in rows[0].error
    assert rows[0].achieved_rate is None and rows[0].accept_prob is None
    assert not rows[1].error and rows[1].achieved_rate is not None


def test_config_override_schedule_accepted():
    cfg = ExperimentConfig.from_dict({"sources": [], "r": 0.7, "n_range": [4],
                                      "override_schedule": {"l": 2, "R": 1}})
    assert cfg.override_schedule == {"l": 2, "R": 1}


def test_build_process_kinds():
    assert isinstance(build_process({"kind": "markov",
                                     "transition": [[0.9, 0.1], [0.2, 0.8]]}),
                      MarkovProcess)
    assert isinstance(build_process({"kind": "periodic", "cycle": [0, 1]}),
                      PeriodicProcess)
    with pytest.raises(ConfigError):
        build_process({"kind": "nope"})


def test_build_source_kinds():
    s = build_source({"kind": "iid", "probs": [0.9, 0.1]})
    assert s.d == 2
    s = build_source({"kind": "classical",
                      "process": {"kind": "markov",
                                  "transition": [[0.9, 0.1], [0.2, 0.8]]}})
    assert s.classical_view() is not None
    s = build_source({"kind": "channel-transformed",
                      "inner": {"kind": "iid", "probs": [0.5, 0.5]},
                      "channel": {"name": "depolarizing", "p": 0.25}})
    assert s.d == 2
    with pytest.raises(ConfigError):
        build_source({"kind": "nope"})


def test_empty_source_list():
    cfg = ExperimentConfig.from_dict({"sources": [], "r": 0.7, "n_range": [4]})
    assert run_experiment(cfg) == []


def test_experiment_rows_and_csv():
    cfg = ExperimentConfig.from_dict({
        "sources": [{"id": "b", "kind": "iid", "probs": [0.9, 0.1]}],
        "r": 0.7, "n_range": [4, 6], "seed": 1})
    rows = run_experiment(cfg)
    assert [r.n for r in rows] == [4, 6]
    for r in rows:
        assert 0 <= r.accept_prob <= 1 + 1e-9
        assert 0 <= r.entanglement_fidelity <= 1 + 1e-9
        assert r.achieved_rate >= 0.7
        assert r.error == ""
    csv_text = report_csv(rows)
    assert csv_text.splitlines()[0] == ",".join(CSV_HEADER)


def test_fe_trend():
    # classical typical-set behavior: F_e climbs with n, modulo small type-class
    # steps (observed worst step 0.0204 at n = 6 -> 8)
    cfg = ExperimentConfig.from_dict({
        "sources": [{"kind": "iid", "probs": [0.9, 0.1]}],
        "r": 0.7, "n_range": [4, 6, 8, 10], "seed": 2})
    fes = [r.entanglement_fidelity for r in run_experiment(cfg)]
    assert all(b >= a - 0.021 for a, b in zip(fes, fes[1:]))
    assert fes[-1] > fes[0]


def test_per_row_error_recorded():
    cfg = ExperimentConfig.from_dict({
        "sources": [{"id": "bad", "kind": "iid", "probs": [0.9, 0.2]},
                    {"id": "good", "kind": "iid", "probs": [0.5, 0.5]}],
        "r": 0.7, "n_range": [4], "seed": 3})
    rows = run_experiment(cfg)
    assert rows[0].error != "" and rows[0].accept_prob is None
    assert rows[1].error == ""


def _classical(process, **fields):
    return {"kind": "classical", "process": process, **fields}


def _channel(channel):
    return {"kind": "channel-transformed", "inner": {"kind": "iid", "probs": [0.9, 0.1]},
            "channel": channel}


@pytest.mark.parametrize("bad, error, named", [
    (_classical({"kind": "iid", "probs": [float("nan"), 0.5]}), "ValidationError",
     "probability vector"),
    (_classical({"kind": "markov", "transition": [[float("nan"), 0.5], [0.5, 0.5]]}),
     "ValidationError", "transition row"),
    (_classical({"kind": "mixture", "weights": [float("nan"), 0.5],
                 "components": [{"kind": "iid", "probs": [0.9, 0.1]},
                                {"kind": "iid", "probs": [0.5, 0.5]}]}), "ValidationError",
     "mixture weights"),
    (_classical({"kind": "iid", "probs": [0.9, 0.1]},
                alphabet={"re": [[1.0, float("nan")], [0.0, 1.0]]}), "ValidationError",
     "alphabet"),
    (_classical({"kind": "markov", "transition": [[1.0, 0.0], [0.0, 1.0]]}),
     "ValidationError", "no unique stationary distribution"),
    (_channel({"name": "custom", "kraus": [[[[float("nan"), 0], [0, 1]], [[0, 0], [0, 0]]]]}),
     "ValidationError", "Kraus"),
    # no truncation or parsing: a float or bool is not an integer, and a
    # string or bool is not a number
    (_classical({"kind": "periodic", "cycle": [0, 1.9]}), "ConfigError", "'cycle'"),
    (_classical({"kind": "periodic", "cycle": [0, True]}), "ConfigError", "'cycle'"),
    (_classical({"kind": "periodic", "cycle": [0, 1], "alphabet_size": 2.7}), "ConfigError",
     "'alphabet_size'"),
    (_channel({"name": "identity", "d": 2.7}), "ConfigError", "'d'"),
    (_channel({"name": "depolarizing", "p": "0.1"}), "ConfigError", "'p'"),
    (_channel({"name": "dephasing", "p": True}), "ConfigError", "'p'"),
    (_channel({"name": "amplitude-damping", "gamma": "0.1"}), "ConfigError", "'gamma'"),
    (_channel({"name": "amplitude-damping", "gamma": True}), "ConfigError", "'gamma'"),
], ids=["iid-nan", "markov-nan", "mixture-nan", "alphabet-nan", "reducible-markov",
        "kraus-nan", "cycle-float", "cycle-bool", "alphabet-size-float", "identity-d-float",
        "depolarizing-p-string", "dephasing-p-bool", "damping-gamma-string",
        "damping-gamma-bool"])
def test_invalid_source_values_are_row_errors(bad, error, named):
    good = {"id": "good", "kind": "iid", "probs": [0.9, 0.1]}
    cfg = {"r": 0.5, "n_range": [4], "seed": 3}
    rows = run_experiment(ExperimentConfig.from_dict({"sources": [bad, good], **cfg}))
    alone = run_experiment(ExperimentConfig.from_dict({"sources": [good], **cfg}))
    assert rows[0].error.startswith(error + ":") and named in rows[0].error
    assert rows[0].accept_prob is None
    assert report_csv(rows[1:]) == report_csv(alone) and alone[0].error == ""


@pytest.mark.parametrize("bad, named", [
    ({"kind": "iid"}, "'rho_re'"),
    ({"kind": "classical", "process": {"kind": "markov"}}, "'transition'"),
    ({"kind": "iid", "rho_re": [[0.5, 0.0], [0.5]]}, "'rho_re'"),
    ({"kind": "channel-transformed", "inner": {"kind": "iid", "probs": [0.5, 0.5]},
      "channel": {"name": "depolarizing"}}, "'p'"),
    ({"kind": "classical", "process": {"kind": "mixture", "weights": [1.0],
                                       "components": ["markov"]}}, "'components'"),
    ("markov", "JSON object"),
])
def test_malformed_source_spec_is_a_row_error(bad, named):
    good = {"id": "good", "kind": "classical",
            "process": {"kind": "markov", "transition": [[0.9, 0.1], [0.2, 0.8]]},
            "alphabet": {"re": [[1.0, 0.6], [0.0, 0.8]]}}
    cfg = {"r": 0.5, "n_range": [4, 5], "seed": 3}
    rows = run_experiment(ExperimentConfig.from_dict({"sources": [bad, good], **cfg}))
    alone = run_experiment(ExperimentConfig.from_dict({"sources": [good], **cfg}))
    for row in rows[:2]:
        assert row.source == "source0"
        assert row.error.startswith("ConfigError") and named in row.error
        assert row.accept_prob is None
    assert report_csv(rows[2:]) == report_csv(alone)
    assert all(r.error == "" for r in alone)


def test_output_files(tmp_path):
    out = str(tmp_path / "rep")
    cfg = ExperimentConfig.from_dict({
        "sources": [{"kind": "iid", "probs": [0.9, 0.1]}],
        "r": 0.7, "n_range": [4], "seed": 4, "output": out})
    run_experiment(cfg)
    csv_text = (tmp_path / "rep.csv").read_text()
    assert csv_text.startswith("source,n,r,")
    mirror = json.loads((tmp_path / "rep.json").read_text())
    assert mirror["config"]["seed"] == 4
    assert len(mirror["rows"]) == 1
    assert len(mirror["wall_ms_measured"]) == 1
    assert mirror["tolerances"] == {"join_rank_rtol": 1e-10,
                                    "memory_budget_bytes": errors.MEMORY_BUDGET}
    assert errors.MEMORY_BUDGET == 3 * 2 ** 30
    row = mirror["rows"][0]
    assert row["join_rank"] == 11
    assert abs(2 ** (4 * row["achieved_rate"]) - 11) < 1e-9
    assert row["invariance_residual"] <= 1e-10
    assert row["path"] == "diagonal"
    assert "path" not in csv_text


def test_code_mode_rate():
    cfg = ExperimentConfig.from_dict({
        "sources": [{"kind": "iid", "probs": [0.9, 0.1]}],
        "r": 0.7, "n_range": [6], "seed": 5, "projector_mode": "code"})
    row = run_experiment(cfg)[0]
    assert abs(row.achieved_rate - np.floor(6 * 0.7 + 1e-9) / 6) < 1e-12
    assert row.path == "code"


def test_c2_scheme_reports_fidelity():
    cfg = ExperimentConfig.from_dict({
        "sources": [{"kind": "iid", "rho_re": [[0.6, 0.2], [0.2, 0.4]]}],
        "r": 0.9, "n_range": [3], "seed": 6, "scheme": "c2"})
    row = run_experiment(cfg)[0]
    assert row.error == ""
    assert 0 <= row.entanglement_fidelity <= 1 + 1e-9


MIXED_D = [{"id": "d2", "kind": "iid", "probs": [0.9, 0.1]},
           {"id": "d3", "kind": "iid", "probs": [0.8, 0.1, 0.1]}]


def _rows(sources, **fields):
    return run_experiment(ExperimentConfig.from_dict(
        {"sources": sources, "r": 0.5, "n_range": [4], **fields}))


def test_projector_cache_keyed_on_site_dimension():
    mixed = _rows(MIXED_D)
    alone = _rows(MIXED_D[1:])
    assert mixed[1].error == "" and abs(mixed[1].achieved_rate - 1.2267) < 1e-4
    assert mixed[1].achieved_rate == alone[0].achieved_rate
    assert mixed[0].achieved_rate != mixed[1].achieved_rate


def test_mixed_dimension_dense_sources():
    d2 = {"id": "d2", "kind": "iid", "rho_re": [[0.7, 0.2], [0.2, 0.3]]}
    d3 = {"id": "d3", "kind": "iid",
          "rho_re": [[0.6, 0.1, 0.0], [0.1, 0.3, 0.05], [0.0, 0.05, 0.1]]}
    mixed = _rows([d2, d3])
    assert [r.error for r in mixed] == ["", ""]
    alone = _rows([d3])[0]
    assert mixed[1].accept_prob == alone.accept_prob
    assert mixed[1].entanglement_fidelity == alone.entanglement_fidelity


def test_c2_diagonal_row_reports_squared_fidelity():
    from quclab.codes import build_code
    from quclab.info import fidelity
    from quclab.sources import IIDSource
    row = _rows(MIXED_D[:1], scheme="c2")[0]
    assert abs(row.accept_prob - 0.802) < 1e-12
    # F(rho, P rho P / tr(P rho))^2 = tr(P rho), here for the code projector
    rho = IIDSource(np.diag([0.9, 0.1])).marginal(4)
    p = np.diag(np.isin(np.arange(16), build_code(2, 0.5, 4).member_indices()).astype(float))
    dense = fidelity(rho, compress_c2(p, rho)) ** 2
    assert abs(row.entanglement_fidelity - 0.802) < 1e-12
    assert abs(dense - row.entanglement_fidelity) < 1e-8


def test_one_code_build_per_block_code(monkeypatch):
    from quclab import codes, harness, projectors
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return codes.build_code(*args, **kwargs)
    monkeypatch.setattr(harness, "build_code", counting)
    monkeypatch.setattr(projectors, "build_code", counting)
    sources = [{"kind": "iid", "probs": [0.9, 0.1]},
               {"kind": "classical", "process": {"kind": "markov",
                                                 "transition": [[0.9, 0.1], [0.2, 0.8]]}}]
    for mode in ("code", "orbit"):
        calls.clear()
        run_experiment(ExperimentConfig.from_dict(
            {"sources": sources, "r": 0.7, "n_range": [4, 6], "projector_mode": mode}))
        assert len(calls) == 2, mode


def test_one_source_build_per_spec(monkeypatch):
    from quclab import harness
    built = []

    def counting(spec):
        built.append(spec)
        return build_source(spec)
    monkeypatch.setattr(harness, "build_source", counting)
    sources = [{"kind": "iid", "probs": [0.9, 0.1]},
               {"kind": "classical", "process": {"kind": "markov",
                                                 "transition": [[0.9, 0.1], [0.2, 0.8]]}}]
    rows = run_experiment(ExperimentConfig.from_dict(
        {"sources": sources, "r": 0.6, "n_range": [4, 5, 6], "projector_mode": "code"}))
    assert built == sources
    assert len(rows) == 6 and all(r.error == "" for r in rows)
    # a spec that fails to build fails each of its rows the same way
    bad = {"kind": "classical", "process": {"kind": "markov", "transition": [[1, 0], [0, 1]]}}
    rows = run_experiment(ExperimentConfig.from_dict(
        {"sources": [bad], "r": 0.6, "n_range": [4, 5, 6], "projector_mode": "code"}))
    assert len(built) == 3
    assert rows[0].error.startswith("ValidationError: transition matrix has no unique")
    assert rows[1].error == rows[2].error == rows[0].error


def test_block_dimension_32_row_is_recorded():
    # l = 5 gives block dimension 32: the D = 32 join over n = 2 blocks, with
    # 528 type classes, the most of any join the tests build
    row = _rows([{"kind": "iid", "probs": [0.9, 0.1]}], n_range=[10],
                override_schedule={"l": 5})[0]
    assert row.error == ""
    assert 0 < row.accept_prob <= 1


def test_diagonal_row_past_block_dimension_1024_is_the_joins_size_error():
    # l = 14 gives block dimension 16384: the join's per-sequence type-class
    # tables, 24 n D bytes a sequence (about 6 GiB), are refused before any
    # path is taken, so a diagonal row never reaches trace_q_rho's classical
    # path.  l = 12 (D = 4096, about 0.4 GB) is admitted since the join
    # makes only the 2 (D - 1) C(n + D - 2, D - 1) Chevalley moves.  At
    # r = 1 the code holds every sequence and is built without a type-state
    # graph, whose start table at n = 1 would hold 16384^2 counts
    row = _rows([{"kind": "iid", "probs": [0.9, 0.1]}], r=1.0, n_range=[14],
                override_schedule={"l": 14})[0]
    assert row.error.startswith("SizeError: orbit join over 16384^1 sequences")
    assert row.path is None and row.accept_prob is None


def test_join_svd_failure_is_a_row_error(monkeypatch):
    # the first SVD of the join fails; its row records the error and the
    # next row (another n, so another join) is the same as when run alone
    source = [{"id": "bern", "kind": "iid", "probs": [0.9, 0.1]}]
    alone = _rows(source, n_range=[5])
    svd = projectors.np.linalg.svd
    calls = []

    def failing_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(*args, **kwargs)

    monkeypatch.setattr(projectors.np.linalg, "svd", failing_once)
    rows = _rows(source, n_range=[4, 5])
    assert rows[0].error.startswith("ValidationError: orbit join")
    assert rows[0].accept_prob is None and rows[0].join_rank is None
    assert report_csv(rows[1:]) == report_csv(alone) and alone[0].error == ""


# basis-native scheme rows: non-diagonal orbit rows come from the join basis

DENSE_SOURCES = [
    {"id": "depolarized-markov", "kind": "channel-transformed",
     "inner": {"kind": "classical",
               "process": {"kind": "markov", "transition": [[0.88, 0.12], [0.4, 0.6]]},
               "alphabet": {"re": [[1.0, 0.6], [0.0, 0.8]]}},
     "channel": {"name": "depolarizing", "p": 0.2}},
    {"id": "damped-iid", "kind": "channel-transformed",
     "inner": {"kind": "iid", "rho_re": [[0.75, 0.2], [0.2, 0.25]],
               "rho_im": [[0.0, -0.15], [0.15, 0.0]]},
     "channel": {"name": "amplitude-damping", "gamma": 0.3}},
]
# the i.i.d. source has bond dimension 1: tr(q rho) by U^{(x)n} invariance
DENSE_PATHS = {"depolarized-markov": "dense", "damped-iid": "invariant"}


def _flag_reference(b):
    from quclab.operators import range_basis
    return range_basis(b @ b.conj().T)[:, 0]


def test_range_flag_matches_range_basis():
    from quclab.operators import range_flag
    from quclab.projectors import assemble_q
    rng = np.random.default_rng(11)
    g = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    # zero leading rows: the flag comes from row 3, and the phase fix matters
    random_basis = np.vstack([np.zeros((3, 3)), np.linalg.qr(g)[0]])
    # the second join has one identity-padded site: b (x) 1_2, whose flag is
    # the unpadded flag with a zero appended to each entry, as rows pad it
    join = assemble_q(7, 2, 0.5, override=(1, 6, 0.6)).join.basis
    bases = [assemble_q(6, 2, 0.5, override=(1, 6, 0.5)).join.basis,
             np.kron(join, np.eye(2)), random_basis]
    for b in bases:
        assert np.max(np.abs(range_flag(b) - _flag_reference(b))) < 1e-12
    padded = np.kron(range_flag(join), [1.0, 0.0])
    assert np.max(np.abs(range_flag(np.kron(join, np.eye(2))) - padded)) < 1e-12


def test_basis_row_matches_dense_c1():
    from quclab.projectors import assemble_q
    up = assemble_q(6, 2, 0.5, override=(1, 6, 0.5))
    rows = _rows(DENSE_SOURCES, n_range=[6])
    for spec, row in zip(DENSE_SOURCES, rows):
        assert row.error == "" and row.path == DENSE_PATHS[spec["id"]]
        rho = build_source(spec).marginal(6)
        _, fe = compress_c1(up.matrix(), rho)
        assert abs(row.entanglement_fidelity - fe) < 1e-12
        assert abs(row.accept_prob - np.trace(up.matrix() @ rho).real) < 1e-12


def test_dense_c2_row_reports_acceptance():
    from quclab.info import fidelity
    from quclab.projectors import assemble_q
    up = assemble_q(6, 2, 0.5, override=(1, 6, 0.5))
    for spec, row in zip(DENSE_SOURCES, _rows(DENSE_SOURCES, n_range=[6], scheme="c2")):
        assert row.error == ""
        assert row.entanglement_fidelity == row.accept_prob
        rho = build_source(spec).marginal(6)
        dense = fidelity(rho, compress_c2(up.matrix(), rho)) ** 2
        assert abs(row.entanglement_fidelity - dense) < 1e-6


def test_dense_rows_build_no_dense_projector(monkeypatch):
    from quclab import operators
    from quclab.projectors import UniversalProjector

    def forbidden(*args, **kwargs):
        raise AssertionError("dense projector or eigendecomposition built")
    monkeypatch.setattr(UniversalProjector, "matrix", forbidden)
    monkeypatch.setattr(operators, "hermitian_eig", forbidden)
    for scheme in ("c1", "c2"):
        # l = 2: n = 7 is three blocks and one padded site
        rows = _rows(DENSE_SOURCES, n_range=[6, 7], scheme=scheme,
                     override_schedule={"l": 2})
        assert [r.error for r in rows] == [""] * 4
        assert [r.path for r in rows] == [DENSE_PATHS[r.source] for r in rows]


def test_dense_rows_form_no_dense_state(monkeypatch):
    from quclab.projectors import acceptance_probability, assemble_q
    from quclab.sources import QuantumSource
    q = assemble_q(5, 2, 0.5, override=(1, 5, 0.5))
    dense = float(np.trace(q.matrix() @ build_source(DENSE_SOURCES[0]).marginal(5)).real)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense source marginal formed")
    monkeypatch.setattr(QuantumSource, "marginal", forbidden)
    for scheme in ("c1", "c2"):
        # l = 2: n = 7 is three blocks and one padded site
        rows = _rows(DENSE_SOURCES, n_range=[6, 7], scheme=scheme,
                     override_schedule={"l": 2})
        assert [r.error for r in rows] == [""] * 4
        assert [r.path for r in rows] == [DENSE_PATHS[r.source] for r in rows]
    assert abs(acceptance_probability(q, build_source(DENSE_SOURCES[0])) - dense) < 1e-12


# i.i.d. rows by U^{(x)n} invariance, against the kept sweep

def _iid_sources(d):
    """Bond-dimension-1 sources at site dimension d, none diagonal."""
    if d == 3:
        return [IIDSource(random_density(3, np.random.default_rng(5)))]
    process = {"kind": "iid", "probs": [0.7, 0.3]}
    return [build_source(DENSE_SOURCES[1]),  # amplitude-damped, complex rho_1
            build_source({"kind": "classical", "process": process,
                          "alphabet": {"re": [[1.0, 0.6], [0.0, 0.8]]}})]


def _dense_row(up, rho, scheme):
    """A row's (accept, F_e) from the dense projector and marginal."""
    q = up.matrix()
    accept = float(np.trace(q @ rho).real)
    return accept, (compress_c1(q, rho)[1] if scheme == "c1" else accept)


@pytest.mark.parametrize("d, l, n_blocks, m", [
    (2, 1, 5, 6), (2, 2, 3, 7), (2, 3, 2, 8), (3, 1, 4, 5), (3, 2, 2, 5), (3, 3, 1, 4)])
@pytest.mark.parametrize("scheme", ["c1", "c2"])
def test_invariant_rows_match_the_sweep(d, l, n_blocks, m, scheme):
    # every case pads m - l * n_blocks > 0 sites with the identity; the
    # sweep over the join's l n sites and the dense row are the references
    up = assemble_q(m, d, None, override=(l, n_blocks, 0.5 * l))
    assert up.pad > 0
    b = up.join.basis
    for source in _iid_sources(d):
        assert len(source.left) == 1 and source.classical_view() is None
        *row, path = _orbit_row(b, d, l * n_blocks, up.pad, source, scheme)
        assert path == "invariant"
        assert abs(row[0] - np.vdot(b, source.apply(l * n_blocks, b)).real) <= 1e-12
        dense = _dense_row(up, source.marginal(m), scheme)
        assert np.max(np.abs(np.subtract(row, dense))) <= 1e-12
        assert abs(acceptance_probability(up, source) - dense[0]) <= 1e-12


def test_acceptance_probability_takes_the_row_paths(monkeypatch):
    up = assemble_q(7, 2, None, override=(2, 3, 1.0))
    paths = [trace_q_rho(up.join.basis, 2, 6, build_source(spec))[1]
             for spec in DENSE_SOURCES + [{"kind": "iid", "probs": [0.9, 0.1]}]]
    assert paths == ["dense", "invariant", "classical"]
    source = build_source(DENSE_SOURCES[1])
    dense = float(np.trace(up.matrix() @ source.marginal(7)).real)

    def forbidden(*args, **kwargs):
        raise AssertionError("rho B swept for an i.i.d. source")
    monkeypatch.setattr(QuantumSource, "apply", forbidden)
    assert abs(acceptance_probability(up, source) - dense) <= 1e-12


# padded rows: q = q_J (x) 1 on l n + pad sites, computed from the join basis
# on the first l n sites, against the dense q and rho_m

MARKOV = {"id": "markov", "kind": "classical",
          "process": {"kind": "markov", "transition": [[0.9, 0.1], [0.2, 0.8]]}}
# The other sources are symmetric under reversing the sites, so q_J (x) 1 and
# 1 (x) q_J give them the same rows; this cycle is not its own reversal.
PERIODIC = {"id": "periodic", "kind": "classical",
            "process": {"kind": "periodic", "cycle": [0, 0, 1, 0, 1, 1]},
            "alphabet": {"re": [[1.0, 0.6], [0.0, 0.8]]}}


@pytest.mark.parametrize("l, m", [(2, 7), (2, 9), (3, 7), (3, 8)])
@pytest.mark.parametrize("scheme", ["c1", "c2"])
def test_padded_rows_match_the_dense_row(l, m, scheme, monkeypatch):
    up = assemble_q(m, 2, 0.5, override=(l, m // l, 0.5 * l))
    assert up.pad >= 1
    dense = {spec["id"]: _dense_row(up, build_source(spec).marginal(m), scheme)
             for spec in DENSE_SOURCES + [MARKOV, PERIODIC]}
    # the classical path: a diagonal source's rows take the code measure, so
    # its q row is computed here as run_experiment computes the others
    markov = build_source(MARKOV)
    *row, path = _orbit_row(up.join.basis, 2, l * up.n, up.pad, markov, scheme)
    assert path == "classical"
    assert np.max(np.abs(np.subtract(row, dense["markov"]))) <= 1e-12
    # no row forms the padded basis, a 2^m x rank 2^pad Kronecker product:
    # the only Kronecker products left are the channels' d^2 x d^2 ones
    kron = np.kron

    def small_kron(a, b):
        assert np.size(a) * np.size(b) <= 16, "np.kron called on a basis"
        return kron(a, b)
    monkeypatch.setattr(np, "kron", small_kron)
    rows = _rows(DENSE_SOURCES + [PERIODIC], n_range=[m], scheme=scheme,
                 override_schedule={"l": l})
    assert [r.path for r in rows] == ["dense", "invariant", "dense"]
    for row in rows:
        assert row.error == "" and row.join_rank == up.join.rank
        assert max(abs(row.accept_prob - dense[row.source][0]),
                   abs(row.entanglement_fidelity - dense[row.source][1])) <= 1e-12


def test_invariant_row_eigensolver_failure_is_a_row_error(monkeypatch):
    # rho_1's spectrum cannot be computed: that row records a ValidationError
    # and the next source's row (a chi = 2 sweep) is the same as alone
    alone = _rows(DENSE_SOURCES[:1], n_range=[6])

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigh", failing)
    rows = _rows(DENSE_SOURCES[::-1], n_range=[6])
    assert rows[0].error.startswith("ValidationError: Hermitian eigendecomposition failed")
    assert rows[0].accept_prob is None and rows[0].entanglement_fidelity is None
    assert rows[1].path == "dense" and rows[1].error == ""
    assert report_csv(rows[1:]) == report_csv(alone)


BERNOULLI = {"id": "bernoulli", "kind": "iid", "probs": [0.9, 0.1]}
DEPOLARIZED_COMPUTATIONAL = {"id": "depolarized", "kind": "channel-transformed",
                             "inner": MARKOV, "channel": {"name": "depolarizing", "p": 0.2}}


@pytest.mark.parametrize("call, bad, good, message", [
    # validate_density's spectrum; the Markov source takes no eigvalsh
    ("eigvalsh", BERNOULLI, MARKOV, "density operator eigenvalues failed"),
    # validate_channel's Choi spectrum; the inner Markov source takes none
    ("eigvalsh", DEPOLARIZED_COMPUTATIONAL, MARKOV, "Choi matrix eigenvalues failed"),
    # QuantumAlphabet's condition number; the i.i.d. source has no alphabet
    ("cond", MARKOV, BERNOULLI, "alphabet Gram matrix condition number failed"),
], ids=["density", "choi", "alphabet"])
def test_source_linalg_failure_is_a_row_error(call, bad, good, message, monkeypatch):
    # building the bad source raises LinAlgError inside numpy: its rows
    # record a ValidationError and the good source's rows are as alone
    alone = _rows([good], n_range=[5, 6])

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")
    monkeypatch.setattr(np.linalg, call, failing)
    rows = _rows([bad, good], n_range=[5, 6])
    for row in rows[:2]:
        assert row.error.startswith(f"ValidationError: {message} (did not converge)")
        assert row.accept_prob is None and row.entanglement_fidelity is None
    assert report_csv(rows[2:]) == report_csv(alone)
    assert [r.error for r in alone] == ["", ""]


def test_memory_error_in_a_row_is_that_rows_size_error(monkeypatch, tmp_path):
    # an allocation no budget check foresaw fails at n = 5 only: that row
    # records a SizeError, and the rows around it are as alone
    alone = _rows([BERNOULLI], n_range=[4, 6])
    assemble = harness.assemble_q

    def failing(m, *args, **kwargs):
        if m == 5:
            raise MemoryError("Unable to allocate 8.00 GiB for an array")
        return assemble(m, *args, **kwargs)
    monkeypatch.setattr(harness, "assemble_q", failing)
    out = str(tmp_path / "rep")
    rows = _rows([BERNOULLI], n_range=[4, 5, 6], output=out)
    assert [r.error for r in rows] == [
        "", "SizeError: Unable to allocate 8.00 GiB for an array", ""]
    assert report_csv(rows[::2]) == report_csv(alone)
    assert len((tmp_path / "rep.csv").read_text().splitlines()) == 1 + 3


def test_mirror_names_the_invariant_path(tmp_path):
    out = str(tmp_path / "rep")
    run_experiment(ExperimentConfig.from_dict(
        {"sources": DENSE_SOURCES, "r": 0.5, "n_range": [6], "output": out}))
    mirror = json.loads((tmp_path / "rep.json").read_text())
    assert [r["path"] for r in mirror["rows"]] == ["dense", "invariant"]
    csv_text = (tmp_path / "rep.csv").read_text()
    assert "invariant" not in csv_text and "dense" not in csv_text


# block regrouping serves every process kind, and size limits are row errors

GOOD_IID = {"id": "good", "kind": "iid", "probs": [0.8, 0.2]}


@pytest.mark.parametrize("mode", ["orbit", "code"])
def test_mixture_rows_at_block_length_two(mode):
    from quclab.codes import build_code, code_measure
    from quclab.processes import IIDProcess
    mixture = {"id": "mixture", "kind": "classical",
               "process": {"kind": "mixture", "weights": [0.5, 0.5],
                           "components": [{"kind": "periodic", "cycle": [0, 1, 1]},
                                          {"kind": "iid", "probs": [0.9, 0.1]}]}}
    fields = {"n_range": [6], "override_schedule": {"l": 2}, "projector_mode": mode}
    rows = _rows([GOOD_IID, mixture], **fields)
    assert [r.error for r in rows] == ["", ""]
    # l = 2, R = 2r = 1: a code of 8 of the 64 block sequences of length 3
    code = build_code(4, 1.0, 3)
    expected = (0.5 * code_measure(PeriodicProcess([0, 1, 1]).block(2), code)
                + 0.5 * code_measure(IIDProcess([0.9, 0.1]).block(2), code))
    assert abs(expected - 0.358304) < 1e-12
    assert abs(rows[1].accept_prob - expected) < 1e-12
    assert abs(rows[1].entanglement_fidelity - expected ** 2) < 1e-12
    assert report_csv(rows[:1]) == report_csv(_rows([GOOD_IID], **fields))


def test_dense_cap_limits_of_code_mode_are_row_errors():
    markov = {"id": "markov", "kind": "classical",
              "process": {"kind": "markov", "transition": [[0.9, 0.1], [0.2, 0.8]]}}
    # code-mode rows hold no L^n array: binary k = 0 codes run past n = 64
    # and k = 1 codes past n = 27, where enumerating every sequence stopped,
    # each measured for every process with no marginal
    fields = {"n_range": [21, 28, 64, 65], "projector_mode": "code"}
    rows = _rows([GOOD_IID, markov], **fields)
    assert [r.error for r in rows] == [""] * 8
    assert all(0 < r.accept_prob < 1 for r in rows[4:])
    assert report_csv(rows[:4]) == report_csv(_rows([GOOD_IID], **fields))
    fields = {"n_range": [4, 28], "projector_mode": "code", "k_order": 1}
    rows = _rows([GOOD_IID, markov], **fields)
    assert [r.error for r in rows] == [""] * 4
    assert all(0 < r.accept_prob < 1 for r in rows[2:])
    # where no state merges every sequence is its own state: at k = 8 and
    # n = 20 its counts and scores are past the memory budget
    assert codes._build_bytes(2, 20, 8) > errors.MEMORY_BUDGET
    fields = {"n_range": [4, 20], "projector_mode": "code", "k_order": 8}
    rows = _rows([GOOD_IID, markov], **fields)
    assert [r.error.split(":")[0] for r in rows] == ["", "SizeError"] * 2
    assert report_csv(rows[::2]) == report_csv(
        _rows([GOOD_IID, markov], **{**fields, "n_range": [4]}))
