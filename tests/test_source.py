"""Rules of the package's source text."""

from pathlib import Path

import ltcsim

MAX_LINE = 99


def test_no_line_over_99_characters():
    long = [f"{path.name}:{n}: {len(line)} characters"
            for path in sorted(Path(ltcsim.__file__).parent.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_LINE]
    assert long == []
