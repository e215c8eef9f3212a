"""The stdlib-only step of the CI workflow, run here as CI runs it.

CI runs that step first, on each Python it tests, without click or numpy
installed.  This test takes the script between ``python - <<'EOF'`` and
``EOF`` out of ``.github/workflows/tier1.yml`` and runs it in a fresh
interpreter with ``PYTHONPATH=src`` from the repository root, so a change
that breaks the step fails tier-1 too.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def stdlib_step() -> str:
    """The heredoc of the step, dedented as the YAML block scalar that holds it is."""
    found = re.search(r"python - <<'EOF'\n(.*?\n)[ ]*EOF\n", WORKFLOW.read_text(), re.S)
    assert found, "no python heredoc in the workflow"
    return textwrap.dedent(found.group(1))


def test_the_stdlib_only_step_passes():
    script = stdlib_step()
    assert "import wavemult" in script and "compose_power" in script
    # sigma and dimension load on first use, not with the package
    assert ('import wavemult as wm\nassert "wavemult.sigma" not in sys.modules'
            ' and "wavemult.dimension" not in sys.modules\n') in script
    assert "(11, 12, 16)" in script  # overlapping dilates in one base row, exact on ints
    assert "wm.compose_power(mirror, 3) == wm.dyadic_extension(mirror.mapping, squared)" in script
    assert "wm.dimension_values(W, pts) == [wm.dimension_function(W).value_at(p) for p in pts]" in script
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
    env = {**os.environ, "PYTHONPATH": "src"}
    done = subprocess.run([sys.executable, "-"], input=script, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "stdlib-only exact check passed" in done.stdout
