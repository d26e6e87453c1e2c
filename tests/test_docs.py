"""Documentation honesty: every tutorial snippet must run.

The tutorial's python blocks are executed in order within one shared
namespace (later blocks may use names defined earlier), so the
document can never drift from the API.
"""

import re
from pathlib import Path

import pytest

DOCS = Path(__file__).resolve().parent.parent / "docs"
README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(path: Path):
    text = path.read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, re.S)


def test_tutorial_snippets_execute():
    blocks = python_blocks(DOCS / "tutorial.md")
    assert len(blocks) >= 6
    namespace = {}
    for index, block in enumerate(blocks):
        try:
            exec(block, namespace)  # noqa: S102 - doc verification
        except Exception as exc:  # pragma: no cover - failure detail
            pytest.fail(
                f"tutorial block {index} failed: "
                f"{type(exc).__name__}: {exc}\n{block}"
            )


def test_readme_quickstart_executes():
    blocks = python_blocks(README)
    assert blocks, "README has no python blocks?"
    namespace = {}
    for index, block in enumerate(blocks):
        try:
            exec(block, namespace)  # noqa: S102 - doc verification
        except Exception as exc:  # pragma: no cover
            pytest.fail(
                f"README block {index} failed: "
                f"{type(exc).__name__}: {exc}\n{block}"
            )


def test_extending_guide_snippets_are_syntactic():
    """The extending guide's snippets reference user-defined stubs, so
    only compile them — still catches API-name drift at parse level."""
    for block in python_blocks(DOCS / "extending.md"):
        compile(block, "<extending.md>", "exec")


def test_static_analysis_guide_snippets_are_syntactic():
    """The prover guide's snippet certifies a protocol run: it must
    compile and run."""
    blocks = python_blocks(DOCS / "static_analysis.md")
    assert blocks
    for block in blocks:
        exec(compile(block, "<static_analysis.md>", "exec"), {})  # noqa: S102
