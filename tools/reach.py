"""Print each executable line of src/plmkit that no tier-1 test reaches.

Run by hand from anywhere, with the tier-1 test requirements installed:

    python tools/reach.py [extra pytest arguments]

The tier-1 tests run in a child process under ``sys.settrace``.  The tracer is
a temporary ``sitecustomize`` module placed first on PYTHONPATH, so every
Python process the tests start (the CLI children included, which inherit the
test process's ``sys.path``) traces itself too.  Each process writes the
plmkit lines it reached when it exits; a line counts as reached if any process
reached it.  The executable lines of a file are those its code objects map
bytecode to (``co_lines``).  Stdlib only; not part of tier-1.

Exit status: pytest's own when the tests fail, else 1 when a line is listed
and 0 when every line is reached, so the script can gate a change.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "plmkit"

# the tracer each traced process runs at start-up; it imports no third-party
# module, since tests check which modules a process has loaded
SITECUSTOMIZE = """\
import atexit, os, sys, threading

_PACKAGE, _OUT = {package!r}, {out!r}
_traced, _reached = {{}}, set()


def _line(frame, event, arg):
    if event == "line":
        _reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _traced:
        _traced[name] = os.path.abspath(name).startswith(_PACKAGE)
    return _line if _traced[name] else None


def _dump():
    sys.settrace(None)
    path = os.path.join(_OUT, f"{{os.getpid()}}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{{os.path.abspath(name)}}\\t{{line}}\\n" for name, line in _reached)


sys.settrace(_call)
threading.settrace(_call)
atexit.register(_dump)
"""


def executable_lines(path: Path) -> set[int]:
    """The lines that some code object compiled from ``path`` maps bytecode to."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        # line 0 (or None) marks bytecode of no source line, such as a module's RESUME
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def reached_lines(out: Path) -> dict[str, set[int]]:
    """Per file, the lines any traced process reached."""
    reached: dict[str, set[int]] = {}
    for dump in out.glob("*.txt"):
        for record in dump.read_text(encoding="utf-8").splitlines():
            name, line = record.rsplit("\t", 1)
            reached.setdefault(name, set()).add(int(line))
    return reached


def main(pytest_args: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(package=str(PACKAGE) + os.sep, out=str(out)), encoding="utf-8"
        )
        paths = [str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", *pytest_args],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        )  # fmt: skip
        reached = reached_lines(out)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - reached.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines not reached")
    if tests.returncode:
        print(f"pytest exited {tests.returncode}: the lines above may be incomplete", file=sys.stderr)
    return tests.returncode or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
