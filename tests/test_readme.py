"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

from lutpool import read_pnm, write_pnm

README = Path(__file__).resolve().parent.parent / "README.md"


def section_code(title: str) -> str:
    """The first python code block of the README section ``## title``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    image = np.random.default_rng(5).integers(0, 241, (12, 10)).astype(np.uint8)
    write_pnm(tmp_path / "image.pgm", image)
    exec(compile(section_code("Library"), str(README), "exec"), {})
    # identity tables are exact up to 240
    np.testing.assert_array_equal(read_pnm(tmp_path / "out.pgm"), image)
    assert (tmp_path / "run" / "pipeline.json").exists()
