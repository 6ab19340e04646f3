"""Rules of the package's source text and of the README that documents it."""

import re
from pathlib import Path

import ltcsim
from ltcsim import ViolationKind

MAX_LINE = 99
README = Path(__file__).resolve().parent.parent / "README.md"


def test_no_line_over_99_characters():
    long = [f"{path.name}:{n}: {len(line)} characters"
            for path in sorted(Path(ltcsim.__file__).parent.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_LINE]
    assert long == []


def test_readme_lists_every_violation_kind():
    # the one sentence that lists verify's kinds names exactly the enum's values
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentences = re.findall(r"The kinds are ([^;.]*)[;.]", text)
    assert len(sentences) == 1
    assert re.findall(r"`(\w+)`", sentences[0]) == [kind.value for kind in ViolationKind]
