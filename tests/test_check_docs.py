"""The strict-docs gate (scripts/check_docs.py) passes and actually bites."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_docs.py"


def load_check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_public_api_fully_documented(capsys):
    mod = load_check_docs()
    assert mod.main([]) == 0
    assert "documented" in capsys.readouterr().out


def test_api_doc_snippets_are_executed():
    # main() runs docs/api.md's snippets with the guides'; the page's
    # narrative needs at least eight of them.
    mod = load_check_docs()
    assert mod.API_DOC in mod.EXECUTED_DOCS
    assert len(mod._SNIPPET.findall(mod.API_DOC.read_text())) >= 8


def test_guide_snippets_execute(tmp_path):
    mod = load_check_docs()
    good = tmp_path / "good.md"
    good.write_text("intro\n```python\nx = 1\n```\nmore\n"
                    "```python\nassert x == 1  # shared namespace\n```\n")
    assert mod.run_snippets([good]) == []
    bad = tmp_path / "bad.md"
    bad.write_text("```python\nraise RuntimeError('rotten example')\n```\n")
    problems = mod.run_snippets([bad, tmp_path / "absent.md"])
    assert any("rotten example" in p for p in problems)
    assert any("missing guide page" in p for p in problems)


def test_check_detects_missing_docstring_and_doc_entry():
    mod = load_check_docs()

    def undocumented(x):  # noqa: D103 - deliberately bare
        return x

    problems = mod.check(symbols=[("repro", "undocumented", undocumented)],
                         doc_text="# nothing here")
    assert any("missing docstring" in p for p in problems)
    assert any("docs/api.md" in p for p in problems)
    # A documented symbol with a doc entry is clean.
    problems = mod.check(symbols=[("repro", "check", mod.check)],
                         doc_text="has a `check` entry")
    assert problems == []
