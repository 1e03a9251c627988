"""docs/api.md stays runnable: every ```python block executes as written.

Blocks share one namespace top to bottom (the page builds on its own
earlier snippets, e.g. ``cfg`` and ``mix``), so this also catches
reordering that breaks the narrative flow.  The page runs through
``scripts/check_docs.py``'s snippet runner, the one that executes every
guide page, so a failure here names the page and snippet the docs gate
would.
"""

from .test_check_docs import load_check_docs


def test_api_doc_snippets_run():
    mod = load_check_docs()
    assert mod.run_snippets([mod.API_DOC]) == []
