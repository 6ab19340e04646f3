"""Rules of the package's source text and of the README that documents it."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import ltcsim
from ltcsim import ViolationKind

MAX_LINE = 99
README = Path(__file__).resolve().parent.parent / "README.md"
SOURCES = sorted(Path(ltcsim.__file__).parent.glob("*.py"))
# Error templates allowed to be raised from more than one place: none, since
# a rule written twice is a rule whose copies can drift apart.
SHARED_TEMPLATES = {}


def test_no_line_over_99_characters():
    long = [f"{path.name}:{n}: {len(line)} characters"
            for path in SOURCES
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_LINE]
    assert long == []


def test_readme_lists_every_violation_kind():
    # the one sentence that lists verify's kinds names exactly the enum's values
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentences = re.findall(r"The kinds are ([^;.]*)[;.]", text)
    assert len(sentences) == 1
    assert re.findall(r"`(\w+)`", sentences[0]) == [kind.value for kind in ViolationKind]


def _template(message):
    """A string or f-string literal with each ``{...}`` as ``{}``; None otherwise."""
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return message.value
    if isinstance(message, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in message.values)
    return None


def test_each_error_message_raised_from_one_place():
    # one rule, one home: a message template raised at two places is a rule
    # stated twice
    places = defaultdict(list)
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                template = _template(node.exc.args[0])
                if template is not None:
                    places[template].append(f"{path.name}:{node.lineno}")
    shared = {t: p for t, p in places.items() if len(p) > 1 and t not in SHARED_TEMPLATES}
    assert shared == {}
    assert len(places) > 50  # the scan found the package's raises
