"""Print one sha256 over the analytic reports of the same-output laws.

Run from the repository root:

    PYTHONPATH=src python tests/same_output.py

A change that keeps every report bit for bit prints the digest of its parent.  The
digest covers ``repr(analytic_checks(f))`` of 1,093 laws, in this order:

- the 480 ``verify-exact`` members of seeds 1-5 (``bench/workloads.py``, read, not
  changed: 96 members per seed, built by ``parse_distribution``);
- 400 three-decimal uniform laws (``decimal_uniforms``, rng 12);
- 200 ``random_cdf(rng, 30, 30, 10)`` (rng 5);
- the four defect laws: the span that overflows, the ramp narrower than the float
  grid, the sub-ulp atom and the uniform law whose ramp solve overshoots;
- the four other sub-ulp laws (rises too small to move F);
- fb, fm and fu (``bernoulli_half``, ``ramp_plateau_atom``, ``uniform_01``);
- ``mixed(2000)`` and ``mixed(20000)``;

then ``repr(stochastic_checks(f, 3, 2000))`` of the four defect laws and fm.  Numpy's
floating-point warnings are off: the span that overflows raises them.  The filename
keeps pytest from collecting the script.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

import stepdist as sd

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from test_check_oracle import DEFECT_LAWS, mixed  # noqa: E402
from test_vector_oracle import SUB_ULP_CASES, decimal_uniforms  # noqa: E402
from workloads import VERIFY_POPULATION, mixed_spec  # noqa: E402

LAW_COUNT = 1093


def laws() -> list:
    """The same-output laws, in the order the digest reads them."""
    rng = np.random.default_rng(5)
    out = [
        *(
            sd.parse_distribution(mixed_spec(seed, i), name=f"member{i}")
            for seed in range(1, 6)
            for i in range(VERIFY_POPULATION)
        ),
        *decimal_uniforms(np.random.default_rng(12), 400),
        *(sd.random_cdf(rng, 30, 30, 10) for _ in range(200)),
        *DEFECT_LAWS,
        *SUB_ULP_CASES[1:],
        sd.bernoulli_half(),
        sd.ramp_plateau_atom(),
        sd.uniform_01(),
        mixed(2000),
        mixed(20000),
    ]
    assert len(out) == LAW_COUNT, len(out)
    return out


def digest() -> str:
    h = hashlib.sha256()
    with np.errstate(all="ignore"):
        for f in laws():
            h.update(repr(sd.analytic_checks(f)).encode())
        for f in (*DEFECT_LAWS, sd.ramp_plateau_atom()):
            h.update(repr(sd.stochastic_checks(f, 3, 2000)).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
