"""Golden outputs at seed 7: `pipeline` on every golden config, the
600-frame phantom_f (about 8 s) included, against tests/golden/seed7.json.
scripts/check_golden.py holds the comparison and regenerates the file
(`--write`) when numerics change on purpose.

The metrics are always checked. The artifact hashes are checked only where
numpy, scipy and the machine match the recorded ones.
"""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_golden.py"
_spec = importlib.util.spec_from_file_location("check_golden", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

RECORD = golden.load_golden()["configs"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Golden-file entry of a fresh run of a config, each run once."""
    done: dict[str, dict] = {}

    def run(name: str) -> dict:
        if name not in done:
            done[name] = golden.run(name, tmp_path_factory.mktemp(name))
        return done[name]

    return run


@pytest.mark.parametrize("name", list(golden.CONFIGS))
def test_golden_metrics(runs, name):
    assert golden.metric_problems(runs(name)["metrics"],
                                  RECORD[name]["metrics"]) == []


@pytest.mark.parametrize("name", list(golden.CONFIGS))
def test_golden_hashes(runs, name):
    reason = golden.hash_skip_reason(RECORD[name])
    if reason:
        pytest.skip(reason)
    assert golden.hash_problems(runs(name)["artifacts"],
                                RECORD[name]["artifacts"]) == []
