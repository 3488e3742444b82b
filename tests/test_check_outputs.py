"""The gate-output digest script: its body digest ignores the header line,
and its config-file command sets every key."""

import hashlib
import importlib.util
import pathlib

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
