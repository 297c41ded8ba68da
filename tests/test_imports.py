"""Import hygiene: the package loads only its declared runtime dependencies."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the runtime lines of requirements.txt; the rest of it (pytest, hypothesis,
#: mypy, ...) is test and lint tooling the package itself never imports
RUNTIME_PACKAGES = {"numpy"}

#: imports every ``repro`` module in a fresh interpreter and prints the
#: top-level packages that appeared, outside the standard library.  What was
#: already in ``sys.modules`` at interpreter start (site hooks can preload
#: packages) does not count, nor do dunder aliases such as multiprocessing's
#: ``__mp_main__``.
IMPORT_ALL = """
import sys
before = set(sys.modules)
import importlib, json, pkgutil
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
third_party = loaded - set(sys.stdlib_module_names) - {"repro"}
print(json.dumps(sorted(name for name in third_party if not name.startswith("__"))))
"""


def requirement_names() -> set[str]:
    names = set()
    for line in (ROOT / "requirements.txt").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            names.add(re.split(r"[<>=!~\[; ]", line, maxsplit=1)[0].lower())
    return names


def test_every_module_imports_only_runtime_requirements():
    assert RUNTIME_PACKAGES <= requirement_names()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL], env=env, capture_output=True, text=True,
        timeout=25,
    )
    assert done.returncode == 0, done.stderr
    assert set(json.loads(done.stdout)) == RUNTIME_PACKAGES
