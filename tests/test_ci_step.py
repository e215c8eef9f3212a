"""The stdlib-only step of the CI workflow, run here as CI runs it.

CI runs that step first, on each Python it tests, without click or numpy
installed.  This test takes the script between ``python - <<'EOF'`` and
``EOF`` out of ``.github/workflows/tier1.yml`` and runs it in a fresh
interpreter with ``PYTHONPATH=src`` from the repository root, so a change
that breaks the step fails tier-1 too.  It runs the step again under every
other CPython 3.10-3.13 that it finds and can start, since the step needs no
package beyond the standard library, and skips that run when it finds none.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
VERSIONS = [(3, minor) for minor in range(10, 14)]
PROBE = "import platform, sys; print(platform.python_implementation(), *sys.version_info[:2])"


def stdlib_step() -> str:
    """The heredoc of the step, dedented as the YAML block scalar that holds it is."""
    found = re.search(r"python - <<'EOF'\n(.*?\n)[ ]*EOF\n", WORKFLOW.read_text(), re.S)
    assert found, "no python heredoc in the workflow"
    return textwrap.dedent(found.group(1))


def step_process(python, script: str) -> subprocess.Popen:
    """The step started under `python` from the repository root, its script on stdin."""
    env = {**os.environ, "PYTHONPATH": "src"}
    process = subprocess.Popen([str(python), "-"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    process.stdin.write(script)
    process.stdin.close()
    return process


def finish(process: subprocess.Popen) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of a started step; both outputs are a few lines."""
    with process:
        try:
            process.wait(timeout=120)
        except subprocess.TimeoutExpired:
            process.kill()
            raise
        return process.returncode, process.stdout.read(), process.stderr.read()


def other_pythons() -> dict:
    """{(3, minor): path}: for each CPython 3.10-3.13 other than this one, the first of
    `python3.<minor>` in each PATH directory, then `$PYENV_ROOT/versions/3.<minor>*/bin/python3`,
    that starts and reports that version (a pyenv shim of a version not selected exits 127)."""
    folders = [Path(d) for d in os.environ.get("PATH", "").split(os.pathsep) if d]
    candidates = [(v, folder / f"python{v[0]}.{v[1]}") for v in VERSIONS for folder in folders]
    if os.environ.get("PYENV_ROOT"):
        candidates += [(v, path) for v in VERSIONS for path in
                       sorted(Path(os.environ["PYENV_ROOT"]).glob(f"versions/{v[0]}.{v[1]}*/bin/python3"))]
    found: dict = {}
    for version, path in candidates:
        if version in found or version == sys.version_info[:2] or not (path.is_file() and os.access(path, os.X_OK)):
            continue
        try:
            done = subprocess.run([str(path), "-c", PROBE], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if done.returncode == 0 and done.stdout.split() == ["CPython", *map(str, version)]:
            found[version] = path
    return found


def test_the_stdlib_only_step_passes():
    script = stdlib_step()
    assert "import wavemult" in script and "compose_power" in script
    # sigma and dimension load on first use, not with the package
    assert ('import wavemult as wm\nassert "wavemult.sigma" not in sys.modules'
            ' and "wavemult.dimension" not in sys.modules\n') in script
    assert "(11, 12, 16)" in script  # overlapping dilates in one base row, exact on ints
    assert "wm.compose_power(mirror, 3) == wm.dyadic_extension(mirror.mapping, squared)" in script
    assert "wm.dimension_values(W, pts) == [wm.dimension_function(W).value_at(p) for p in pts]" in script
    # past the budget, D's Fraction row starts read just below by the points' own coefficients
    assert "wm.dimension_values(V, below) == [D.value_at(p) for p in below]" in script
    # a failure region and a witness, read after their verdicts, on Fractions and on ints
    assert "deep.tau_witness.coefs == ((-a, -a / 2, 0), (2 - a / 2, 3, -2), (3, 4 - a, -4))" in script
    assert "rejected.failure_regions.coefs == ((-2, -1), (1, Fraction(3, 2)))" in script
    assert "deep.tau_witness.is_two_pi_integral" in script and "rejected.tau_witness.is_two_pi_integral" in script
    # past the budget, a failure with a gap and an overlap; a cache hit across two equal sets
    assert "gap_and_overlap.failure_regions.coefs == ((-1 - a, -1), (2 - 2 * a, 2))" in script
    assert "wm.is_wavelet_set(wm.parse_set(t)) is wm.is_wavelet_set(wm.parse_set(t))" in script
    # past the budget, a restriction of D by bisection and a cover of its Fraction rows
    assert "cut.coefs == ((-1, -a, 1), (a / 3, Fraction(1, 2), 1))" in script
    assert "wm.core_equivalence_regions(W, W, window).is_empty" in script
    code, out, err = finish(step_process(sys.executable, script))
    assert code == 0, err
    assert "stdlib-only exact check passed" in out


def test_the_stdlib_only_step_passes_on_other_pythons():
    others = other_pythons()
    if not others:
        pytest.skip("no other CPython 3.10-3.13 starts here")
    script = stdlib_step()
    started = {version: step_process(python, script) for version, python in sorted(others.items())}
    finished = {version: finish(process) for version, process in started.items()}
    for version, (code, out, err) in finished.items():
        assert code == 0, (version, others[version], err)
        assert "stdlib-only exact check passed" in out, (version, others[version])
