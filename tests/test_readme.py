"""The README's library example runs as printed, its catalog names are the catalog's, and the
tests that it and PAPER.md cite exist."""

import re
from pathlib import Path

from gcdmorphic.catalog import PARAMETERIZED_FORMS, entries

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_cited_tests_exist():
    # each test_... or Test... name in backquotes, as in `TestA.test_b` or `TestA::test_b[id]`
    cited = {name for doc in (README, ROOT / "PAPER.md")
             for span in re.findall(r"`((?:test_|Test)[^`]*)`", doc.read_text(encoding="utf-8"))
             for name in re.findall(r"\b(?:test_|Test)\w*", re.sub(r"\[.*?\]", "", span))}
    tests = "".join(path.read_text(encoding="utf-8") for path in (ROOT / "tests").glob("*.py"))
    defined = set(re.findall(r"^ *(?:def |class )?((?:test_|Test)\w*)(?:\(|:| = )", tests, re.M))
    assert cited and cited <= defined, sorted(cited - defined)
