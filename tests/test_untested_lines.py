"""scripts/untested_lines.py, on a toy package with one untested branch."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "untested_lines.py"

TOY = """\
def sign(x):
    if x >= 0:
        return 1
    return -1


def twice(f, x):
    return [f(x) for _ in range(2)]
"""

TOY_TESTS = """\
import threading

from pidlab.signs import sign, twice


def test_positive():
    assert sign(2) == 1


def test_in_a_thread():
    # twice runs only here: threads started under the tracer are traced too
    worker = threading.Thread(target=twice, args=(sign, 0))
    worker.start()
    worker.join()
"""


def test_reports_the_one_untested_line(tmp_path):
    (tmp_path / "src" / "pidlab").mkdir(parents=True)
    (tmp_path / "src" / "pidlab" / "__init__.py").write_text("")
    (tmp_path / "src" / "pidlab" / "signs.py").write_text(TOY)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_signs.py").write_text(TOY_TESTS)
    done = subprocess.run([sys.executable, str(SCRIPT), "-q", "-p", "no:cacheprovider", "tests"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    report = done.stdout.splitlines()
    assert "2 passed" in report[-3]
    assert report[-2:] == ["src/pidlab/signs.py: 4", "1 of 6 executable lines untested"]


def test_ranges_join_consecutive_executable_lines():
    import importlib.util

    spec = importlib.util.spec_from_file_location("untested_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # line 5 is no executable line, so 4 and 6 are consecutive
    assert module.ranges([2, 4, 6, 9], [1, 2, 3, 4, 6, 7, 9]) == "2, 4-6, 9"
