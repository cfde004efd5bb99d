"""The README's export paragraph and ``signednet.__all__`` name the same
functions, so deleting or adding an export without the docs fails here."""

import inspect
import re
from pathlib import Path

import signednet as sn

README = Path(__file__).resolve().parents[1] / "README.md"


def test_export_paragraph_matches_exported_functions():
    paragraph = next(p for p in README.read_text().split("\n\n") if p.startswith("The package exports"))
    named = set(re.findall(r"`(\w+)`", paragraph))
    exported_functions = {name for name in sn.__all__ if inspect.isfunction(getattr(sn, name))}
    assert named - set(sn.__all__) == set()  # every name in the paragraph is exported
    assert exported_functions - named == set()  # every exported function is named
