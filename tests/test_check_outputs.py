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
