"""The gate-output digest script: its body digest ignores the header line,
its array digests hash raw bytes, and its config-file command sets every key."""

import hashlib
import importlib.util
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from csiguard.config import CONFIG_KEYS, ScenarioConfig, config_from_mapping, parse_config_text

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "check_outputs.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("check_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_body_digest_ignores_line_one(script, tmp_path):
    body = b"detector,step,statistic\r\nkalman,1,12.5\r\n"
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    a.write_bytes(b"# config_hash=aaaaaaaaaaaa seed=3\n" + body)
    b.write_bytes(b"# config_hash=bbbbbbbbbbbb seed=3\n" + body)
    c.write_bytes(b"# config_hash=aaaaaaaaaaaa seed=3\n" + body + b"kalman,2,1\r\n")
    assert script.digest(a) == ("aaaaaaaaaaaa", hashlib.sha256(body).hexdigest())
    assert script.digest(b) == ("bbbbbbbbbbbb", script.digest(a)[1])
    assert script.digest(c)[1] != script.digest(a)[1]


def test_needs_one_argument(script, capsys):
    assert script.main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_config_file_sets_every_key_off_default(script):
    mapping = parse_config_text(script.CONFIG_TEXT)
    assert sorted(mapping) == sorted(CONFIG_KEYS)
    cfg = config_from_mapping(mapping)
    default = ScenarioConfig()
    assert all(getattr(cfg, f) != getattr(default, f) for f in vars(cfg))


def test_array_digests_hash_each_array_over_every_batch(script):
    names = ("lam", "mag", "phase_est", "mse")
    a = SimpleNamespace(**{n: np.arange(6.0).reshape(2, 3) + i for i, n in enumerate(names)})
    b = SimpleNamespace(**{n: -getattr(a, n).T for n in names})
    digests = script.array_digests([a, b])
    assert list(digests) == list(names) == list(script.ARRAYS)
    for name in names:
        raw = getattr(a, name).tobytes() + np.ascontiguousarray(getattr(b, name)).tobytes()
        assert digests[name] == hashlib.sha256(raw).hexdigest()
    # The raw bytes decide: -0.0 is not 0.0, and NaNs count by position.
    c = SimpleNamespace(**{n: np.array([0.0, np.nan]) for n in names})
    d = SimpleNamespace(**{n: np.array([-0.0, np.nan]) for n in names})
    assert script.array_digests([c])["lam"] != script.array_digests([d])["lam"]


def _saved(lam, mse, phase_est, decisions, label="run"):
    """A one-shape mapping as saved_arrays builds it (mag left equal)."""
    arrays = dict(lam=lam, mag=np.zeros(2), mse=mse, phase_est=phase_est,
                  kalman_decisions=decisions)
    return {f"{label}.{name}": np.asarray(a) for name, a in arrays.items()}


def test_compare_reports_largest_deviations(script):
    theirs = _saved([[1.0, 4.0]], [0.0, 2.0], [-np.pi, 0.25], [True, False, True])
    ours = _saved([[1.0, 4.0 * (1 + 3e-12)]], [0.0, 2.0 * (1 - 5e-13)],
                  [np.pi - 2e-10, 0.25 + 1e-12], [True, True, False])
    [line] = script.compare(ours, theirs)
    # The offsets at -pi and just below pi are 2e-10 rad apart around the circle.
    lam, mag, mse, phase = (float(f.split("=")[1]) for f in line.split() if "max_" in f)
    assert line.startswith("run against: ") and line.endswith(" rad kalman_flips=2")
    assert lam == pytest.approx(3e-12, rel=1e-3) and mse == pytest.approx(5e-13, rel=1e-3)
    assert phase == pytest.approx(2e-10, rel=1e-3) and mag == 0.0
    # Equal arrays, NaNs at the same places, and a zero that stays zero read 0.
    same = _saved([[np.nan, 0.0]], [0.0, 2.0], [-np.pi, 0.25], [True, False, True])
    assert script.compare(same, same) == [
        "run against: lam max_rel=0.000e+00 mag max_rel=0.000e+00 mse max_rel=0.000e+00"
        " phase_est max_abs=0.000e+00 rad kalman_flips=0"
    ]
    # A zero that moves, or a NaN on one side only, is infinitely far; a
    # shape missing from OTHER_DIR is named.
    assert "lam max_rel=inf" in script.compare(ours, same)[0]
    assert script._max_rel(np.array([np.nan, 1.0]), np.array([2.0, 1.0])) == np.inf
    assert script._max_rel(np.array([2.0, 1.0]), np.array([np.nan, 1.0])) == np.inf
    assert script.compare(ours, {}) == ["run against: missing from OTHER_DIR or of another shape"]


def test_compare_reports_the_magnitude_statistic(script):
    # mag is NaN at every trial's first step: NaN on both sides is equal,
    # NaN on one side is infinitely far, and a moved value reads relative.
    def saved(mag):
        return _saved([[1.0]], [1.0], [0.0], [False]) | {"run.mag": np.asarray(mag)}

    theirs = saved([[np.nan, 0.5, 2.0]])
    ours = saved([[np.nan, 0.5, 2.0 * (1 + 4e-13)]])
    [line] = script.compare(ours, theirs)
    mag = float(line.split(" mag max_rel=")[1].split()[0])
    assert mag == pytest.approx(4e-13, rel=1e-3)
    assert " mag max_rel=0.000e+00 " in script.compare(theirs, theirs)[0]
    assert " mag max_rel=inf " in script.compare(saved([[0.1, 0.5, 2.0]]), theirs)[0]
    assert " mag max_rel=inf " in script.compare(theirs, saved([[0.1, 0.5, 2.0]]))[0]


def test_against_an_earlier_run(script, tmp_path, monkeypatch, capsys):
    # Two runs of one tree: the second prints the same digest lines, then a
    # report of no deviation; each saves its arrays.
    monkeypatch.setattr(script, "COMMANDS", ())
    monkeypatch.setattr(script, "ARRAY_RUNS", (("run_batch_t1", 1, 202, (10.0,)),))
    first, second = tmp_path / "first", tmp_path / "second"
    assert script.main([str(first)]) == 0
    digests = capsys.readouterr().out
    assert script.main([str(second), "--against", str(first)]) == 0
    out = capsys.readouterr().out
    assert out == digests + (
        "run_batch_t1 against: lam max_rel=0.000e+00 mag max_rel=0.000e+00"
        " mse max_rel=0.000e+00"
        " phase_est max_abs=0.000e+00 rad kalman_flips=0\n"
    )
    with np.load(second / "arrays.npz") as saved:
        assert sorted(saved) == sorted(
            f"run_batch_t1.{name}" for name in (*script.ARRAYS, "kalman_decisions")
        )
        assert saved["run_batch_t1.lam"].shape == (1, 1, 202, 2)
        assert saved["run_batch_t1.kalman_decisions"].dtype == bool


def test_against_fails_on_a_flip_or_a_missing_shape(script, tmp_path, monkeypatch, capsys):
    # The digest lines and the report print as they do without a flip; the
    # exit code is 1, and stderr names the shape.
    monkeypatch.setattr(script, "COMMANDS", ())
    monkeypatch.setattr(script, "ARRAY_RUNS", (("run_batch_t1", 1, 202, (10.0,)),))
    first, flipped, missing = tmp_path / "first", tmp_path / "flipped", tmp_path / "missing"
    assert script.main([str(first)]) == 0
    digests = capsys.readouterr().out
    with np.load(first / "arrays.npz") as npz:
        saved = dict(npz)
    saved["run_batch_t1.kalman_decisions"][0, 0, 5, 1] ^= True
    flipped.mkdir()
    np.savez(flipped / "arrays.npz", **saved)
    missing.mkdir()
    np.savez(missing / "arrays.npz", other=np.zeros(1))
    assert script.main([str(tmp_path / "a"), "--against", str(flipped)]) == 1
    out = capsys.readouterr()
    assert out.out == digests + (
        "run_batch_t1 against: lam max_rel=0.000e+00 mag max_rel=0.000e+00"
        " mse max_rel=0.000e+00"
        " phase_est max_abs=0.000e+00 rad kalman_flips=1\n"
    )
    assert "run_batch_t1" in out.err
    assert script.main([str(tmp_path / "b"), "--against", str(missing)]) == 1
    out = capsys.readouterr()
    assert out.out.endswith("run_batch_t1 against: missing from OTHER_DIR or of another shape\n")
    assert "run_batch_t1" in out.err


def test_against_needs_a_saved_run(script, tmp_path, capsys):
    assert script.main([str(tmp_path / "out"), "--against", str(tmp_path / "none")]) == 2
    assert "--against: cannot read" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert script.main([str(tmp_path / "out"), "--against"]) == 2
    assert "usage" in capsys.readouterr().err
