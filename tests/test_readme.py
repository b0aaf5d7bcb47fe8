"""The README's library example runs as printed, and its catalog names are the catalog's."""

import re
from pathlib import Path

from gcdmorphic.catalog import PARAMETERIZED_FORMS, entries

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_catalog_names_sentence_names_the_catalog():
    # the names in backquotes, outside parentheses, of the sentence "Catalog names: ..."
    sentence = re.search(r"^Catalog names: (.*?)\.\n", README.read_text(encoding="utf-8"),
                         re.MULTILINE | re.DOTALL).group(1)
    named = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", sentence))
    assert named == [e.name for e in entries()] + [form for form, _, _ in PARAMETERIZED_FORMS]
