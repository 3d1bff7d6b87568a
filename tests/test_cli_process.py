"""The CLI's own process and OpenBLAS's worker threads.

granulens makes no BLAS call, so the CLI's process (``python -m granulens.cli``
or the ``granulens`` console script) sets OPENBLAS_NUM_THREADS=1 before numpy
loads, unless the variable is set already. Any other program that imports
granulens keeps its environment as it was.

The thread counts are read from ``/proc`` while the CLI waits to read its
table from a FIFO, so every import has run by then. They need Linux, at least
two CPUs (OpenBLAS starts one thread per CPU, so one CPU shows nothing) and
numpy on OpenBLAS.
"""

import errno
import os
import pathlib
import subprocess
import sys
import time

import pytest

import granulens

from conftest import DATA_DIR

SRC = str(pathlib.Path(granulens.__file__).resolve().parents[1])
LINUX = pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads /proc")
THREADS_SHOW = pytest.mark.skipif(
    not os.path.exists("/proc/self/maps") or len(os.sched_getaffinity(0)) < 2
    or "openblas" not in pathlib.Path("/proc/self/maps").read_text().lower(),
    reason="needs Linux, 2 or more CPUs and numpy on OpenBLAS")

#: the shape of the launcher pip writes for the ``granulens`` console script
PIP_WRAPPER = """\
import re
import sys
from granulens.cli import main
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit(main())
"""


def _env(**extra):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return dict(env, PYTHONPATH=SRC, **extra)


def _threads_while_reading(tmp_path, program, env):
    """(threads, stdout) of ``program inspect <FIFO>``, threads counted once the
    CLI has opened the FIFO to read toy8 from it."""
    fifo = tmp_path / "toy8.csv"
    os.mkfifo(fifo)
    with subprocess.Popen([*program, "inspect", str(fifo), "--decision", "d"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            deadline = time.monotonic() + 60
            while True:
                try:
                    fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                    break
                except OSError as exc:  # ENXIO: the CLI has not opened it to read yet
                    if exc.errno != errno.ENXIO or time.monotonic() > deadline:
                        raise
                    if proc.poll() is not None:
                        pytest.fail(f"the CLI exited {proc.returncode}: {proc.stderr.read()!r}")
                    time.sleep(0.01)
            status = pathlib.Path(f"/proc/{proc.pid}/status").read_text()
            threads = int(status.split("\nThreads:")[1].split()[0])
            os.set_blocking(fd, True)
            with open(fd, "wb") as fh:
                fh.write((DATA_DIR / "toy8.csv").read_bytes())
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
    assert (proc.returncode, err) == (0, b"")
    return threads, out


def _pip_wrapper(tmp_path):
    script = tmp_path / "bin" / "granulens"
    script.parent.mkdir()
    script.write_text(PIP_WRAPPER)
    return [sys.executable, str(script)]


@THREADS_SHOW
@pytest.mark.parametrize("program", ["-m", "-Bm", "console script"])
def test_cli_process_starts_no_blas_threads(tmp_path, program):
    argv = (_pip_wrapper(tmp_path) if program == "console script"
            else [sys.executable, program, "granulens.cli"])
    threads, out = _threads_while_reading(tmp_path, argv, _env())
    assert threads == 1
    assert out.startswith(b"toy8.csv: n=8, 2 condition attributes")


@THREADS_SHOW
def test_a_thread_count_the_user_set_wins(tmp_path):
    argv = [sys.executable, "-m", "granulens.cli"]
    threads, _ = _threads_while_reading(tmp_path, argv, _env(OPENBLAS_NUM_THREADS="2"))
    assert threads == 2


_SHOW = "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"


@pytest.mark.parametrize("how", ["-c", "-m otherpkg.m"])
def test_other_programs_that_import_granulens_set_nothing(tmp_path, how):
    """Neither form takes the default, even with ``granulens.cli`` among its arguments."""
    (tmp_path / "otherpkg").mkdir()
    (tmp_path / "otherpkg" / "__init__.py").write_text("import granulens\n")
    (tmp_path / "otherpkg" / "m.py").write_text(_SHOW + "\n")
    argv = ([sys.executable, "-c", "import granulens; " + _SHOW] if how == "-c"
            else [sys.executable, "-m", "otherpkg.m"])
    done = subprocess.run(argv + ["granulens.cli"], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "None\n", "")


@LINUX
def test_the_test_process_keeps_its_environment():
    """pytest's own process imported granulens and still has the variable it started with."""
    started = dict(item.split(b"=", 1)
                   for item in pathlib.Path("/proc/self/environ").read_bytes().split(b"\0")
                   if b"=" in item)
    assert "granulens" in sys.modules
    assert os.environb.get(b"OPENBLAS_NUM_THREADS") == started.get(b"OPENBLAS_NUM_THREADS")
