import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_passes_runs_a_tree_against_itself():
    """Two passes of small-batch, HEAD against HEAD (the checkout itself where it
    is not a git work tree): every report passes its check, and the summary
    names each subcommand, gives each side's p50 call (the median over passes
    of each pass's median call) with its ratio, and the passes each side won."""
    in_git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                            capture_output=True).returncode == 0
    tree = "HEAD" if in_git else str(ROOT)
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_passes.py"), tree, tree,
                          "--workload", "small-batch", "--passes", "2", "--seed", "1"],
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
    for cmd in ("approx-check", "check-meas", "check-states", "fixpoints", "pvm-embed"):
        assert f"  {cmd} " in out.stdout
    assert "pass ratio B/A" in out.stdout
    p50 = re.search(r"^  p50 call  A +([\d.]+) ms  B +([\d.]+) ms  B/A ([\d.]+)$",
                    out.stdout, re.MULTILINE)
    assert p50, out.stdout
    a, b, ratio = map(float, p50.groups())
    assert a > 0 and b > 0 and abs(ratio - b / a) <= 1e-3 * max(1.0, b / a) + 5e-4
    assert "of 2" in out.stdout.splitlines()[-1]
