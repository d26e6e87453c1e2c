"""Repository linter: ruff when available, a stdlib fallback otherwise.

CI installs ruff and gets the full E/F/I rule set from pyproject.toml.
Developer machines (and the hermetic test container) may not have it;
rather than failing the ``make lint`` target there, fall back to the
checks the standard library can do on its own:

* every Python file byte-compiles (``compileall`` — catches syntax
  errors, the bulk of ruff's E9xx class);
* no file mixes tabs and spaces in indentation (``tokenize``).

Exit status 0 means clean under whichever linter ran.
"""

from __future__ import annotations

import compileall
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGETS = ("src", "tests", "benchmarks", "tools")


def _ruff_command() -> "list[str] | None":
    """The invocation for ruff, module or standalone binary, if any."""
    try:
        import ruff  # noqa: F401
    except ImportError:
        pass
    else:
        return [sys.executable, "-m", "ruff"]
    try:
        probe = subprocess.run(
            ["ruff", "--version"], capture_output=True, cwd=ROOT
        )
    except OSError:
        return None
    return ["ruff"] if probe.returncode == 0 else None


def run_ruff(command: "list[str]") -> int:
    print("lint: ruff check", " ".join(TARGETS))
    return subprocess.run([*command, "check", *TARGETS], cwd=ROOT).returncode


def run_fallback() -> int:
    print("lint: ruff not installed; running stdlib fallback checks")
    failures = 0
    for target in TARGETS:
        ok = compileall.compile_dir(
            str(ROOT / target), quiet=1, force=False
        )
        if not ok:
            print(f"lint: compileall failed under {target}/")
            failures += 1
    for target in TARGETS:
        for path in sorted((ROOT / target).rglob("*.py")):
            failures += _check_indentation(path)
    status = "clean" if not failures else f"{failures} problem(s)"
    print(f"lint: fallback checks {status}")
    return 1 if failures else 0


def _check_indentation(path: Path) -> int:
    """Flag indentation that mixes tabs and spaces (ruff W191-ish)."""
    try:
        with tokenize.open(path) as handle:
            for line_number, line in enumerate(handle, start=1):
                indent = line[: len(line) - len(line.lstrip())]
                if " \t" in indent or "\t " in indent:
                    print(
                        f"{path.relative_to(ROOT)}:{line_number}: "
                        "mixed tabs and spaces in indentation"
                    )
                    return 1
    except (OSError, SyntaxError, UnicodeDecodeError) as exc:
        print(f"{path.relative_to(ROOT)}: unreadable: {exc}")
        return 1
    return 0


def main() -> int:
    command = _ruff_command()
    if command is not None:
        return run_ruff(command)
    return run_fallback()


if __name__ == "__main__":
    sys.exit(main())
