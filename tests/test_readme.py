"""The examples in README.md run as written, so a renamed API cannot leave
them stale."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from hieram import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_python_quick_example_runs():
    (source,) = _blocks("python")
    scope = {}
    exec(source, scope)
    assert scope["column"].shape == (1024,)
    assert scope["moment"] == pytest.approx(4.734987052910504, rel=1e-12)
    assert scope["moment"] == pytest.approx(np.sum(np.abs(scope["column"]) ** 2), rel=1e-15)


def test_json_config_example_is_valid():
    (source,) = _blocks("json")
    cli.validate_config(json.loads(source))
