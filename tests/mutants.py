"""Mutation ledger: which tests kill a small, plausible edit of ``src/``.

Each entry of ``MUTANTS`` is (file, old text, new text, why).  Run

    python3 tests/mutants.py [PYTEST ARGS]

For each mutant it copies ``src/`` to a temporary directory, replaces the
old text there, and runs pytest against the copy, with PYTEST ARGS or else
every test of ``tests/``.  ``src/`` itself runs first, the same way; a test
failing there is left out of every verdict.  Each mutant gets one line:

    killed      a test failed outside the pins
    pins-only   only tests of ``PINS``, the stream and network digests, failed
    survived    no test failed

and one line per test module with failures; the run exits 1 if a mutant
survived.  A mutant that computes the same results is equivalent, so it
stays out of ``MUTANTS``, and ROADMAP item 15 names it with its reason.
PYTEST ARGS narrow the run: ``-k law`` asks whether the exact laws alone
kill a mutant.  Tests that run ucadiv in a subprocess put the repository's
``src/`` first on its path, so they see the unmutated code; ``--ignore
tests/test_demos.py`` leaves out the slowest of them.  pytest does not
collect this file; ``tests/test_mutants.py`` checks that each old text
occurs exactly once in ``src/``.
"""

import collections
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

from test_source_size import SRC

ROOT = SRC.parents[1]
TESTS = ROOT / "tests"
PINS = ("tests/test_stream_contract.py", "tests/test_network_contract.py")

MUTANTS = [
    ("channel.py", "    w /= np.sqrt(2.0)\n", "",
     "_white without / sqrt 2: taps of twice the power"),
    ("frontend.py", "return FrontEnd(gamma=gamma)",
     "return FrontEnd(gamma=gamma ** 2)",
     "Gamma squared twice in build_frontend"),
    ("frontend.py", "diag = (ta - tr) * r", "diag = ta * r",
     "noise_cov's load noise (T_A - T_r) R -> T_A R"),
    ("capacity.py", "weight = 1.0 - np.asarray(gamma) ** 2",
     "weight = 1.0 - np.asarray(gamma)",
     "realization_capacity weighs by 1 - Gamma, not 1 - Gamma^2"),
    ("capacity.py", "lanes *= sqrt_p\n", "lanes *= sqrt_p ** 2\n",
     "_simulate scales the taps by the power profile, not its root"),
    ("frontend.py", "+ temps.t_reverse * g2", "+ temps.t_reverse",
     "n0_normalize drops the reverse noise's Gamma^2"),
    ("capacity.py", "max(_binom_ppf(0.025, m, p), 1)",
     "_binom_ppf(0.025, m, p)",
     "outage's lower rank may be 0, which indexes the largest sample"),
    ("channel.py", "indices[first:first + span]",
     "indices[first:first + span - 1]",
     "draw_tap_blocks skips the last index of every key span"),
    ("capacity.py", "samples[start:stop] = part",
     "samples[:stop - start] = part",
     "the pool writes every chunk at the start of the samples"),
    ("capacity.py", "_BLOCK_BYTES // (16 * k * n)",
     "_BLOCK_BYTES // (8 * k * n)",
     "the block budget counts 8 bytes per complex entry, not 16"),
    ("capacity.py", "dft_beamformer(n).conj()", "dft_beamformer(n)",
     "the eigen-basis product uses Q, not its conjugate"),
    ("fano.py", "math.sqrt(self.gamma0_sq)", "self.gamma0_sq",
     "MatchSpec.gamma0 returns |Gamma0|^2, not |Gamma0|"),
]


def failures(src, args):
    """Node ids that fail (or error) in pytest ``args`` run on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--tb=no", "-rfE", *args],
        cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: some test failed
        raise RuntimeError(f"pytest exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {line.split(" ", 1)[1].split(" - ")[0]
            for line in proc.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def mutated_failures(mutant, args):
    """``failures`` on a copy of ``src/`` with ``mutant`` applied."""
    name, old, new, _ = mutant
    copy = pathlib.Path(tempfile.mkdtemp())
    try:
        shutil.copytree(SRC, copy / "ucadiv",
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / "ucadiv" / name
        text = path.read_text()
        if text.count(old) != 1:
            raise ValueError(f"{name}: the old text does not occur once")
        path.write_text(text.replace(old, new))
        return failures(copy, args)
    finally:
        shutil.rmtree(copy)


def main(args):
    """Print the ledger; 1 if a mutant survived, else 0."""
    known = failures(SRC.parent, args)
    survived = False
    print(f"unmutated: {len(known)} failing" + "".join(
        f"\n    {t}" for t in sorted(known)))
    for i, mutant in enumerate(MUTANTS):
        name, _, _, why = mutant
        failed = mutated_failures(mutant, args) - known
        beyond = {t for t in failed if not t.startswith(PINS)}
        verdict = ("killed" if beyond else "pins-only" if failed
                   else "survived")
        print(f"[{i}] {name}: {why}: {verdict}, {len(failed)} tests "
              f"({len(beyond)} beyond the pins)")
        counts = collections.Counter(t.split("::")[0] for t in failed)
        for module, count in sorted(counts.items()):
            print(f"    {module}: {count}")
        survived = survived or not failed
    return int(survived)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
