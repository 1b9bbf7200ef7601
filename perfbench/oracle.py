"""Regenerate perfbench/reference.json, the frozen outputs the checks use.

    python3 perfbench/oracle.py

- census: SHA-256 of the `--json` payload, its loop, self map and verdict
  counts, taken from the current ttlab.  Rerun only when a change is meant
  to alter the census.
- certify-large: for each map, the incidence matrix counted directly from
  the atlas images, and its Perron root computed without ttlab: sympy gives
  the characteristic polynomial, mpmath its roots, and an exact sign change
  of the polynomial confirms the frozen digits.

Needs sympy and mpmath; the benchmark run itself does not.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction

import mpmath
import sympy

from run import HERE, SRC
from workloads import CENSUS_ARGV, CERTIFY_SPECS, run_cli

TOL = 1e-10
DIGITS = 50
ERROR_EXP = 45   # the frozen root is within 10**-ERROR_EXP of the true one


def count_matrix(m) -> list[list[int]]:
    """M[e][e'] = occurrences of e' in the image of e, labels sorted."""
    rows = sorted(lab for lab, _ in m.images)
    cols = sorted(m.target.edges)
    images = dict(m.images)
    return [[sum(1 for lab, _ in images[r] if lab == c) for c in cols]
            for r in rows]


def perron_root(matrix: list[list[int]]) -> str:
    x = sympy.Symbol("x")
    poly = sympy.Matrix(matrix).charpoly(x)
    coeffs = [int(c) for c in poly.all_coeffs()]
    mpmath.mp.dps = 3 * DIGITS
    roots = mpmath.polyroots(coeffs, maxsteps=500, extraprec=20 * DIGITS)
    real = [r.real for r in roots if abs(r.imag) < mpmath.mpf(10) ** (-DIGITS)]
    root = max(real)
    text = mpmath.nstr(root, DIGITS, strip_zeros=False)
    # the digits must straddle a sign change of the exact polynomial
    eps = Fraction(1, 10 ** ERROR_EXP)
    r = Fraction(text)
    lo = poly.as_expr().subs(x, sympy.Rational(r - eps))
    hi = poly.as_expr().subs(x, sympy.Rational(r + eps))
    if lo * hi >= 0:
        raise SystemExit(f"no sign change around {text}")
    if any(abs(complex(z)) > float(root) + 1e-9 for z in roots):
        raise SystemExit("the largest real root is not the spectral radius")
    return text


def main() -> int:
    sys.path.insert(0, str(SRC))
    from ttlab import atlas

    payload = run_cli(CENSUS_ARGV)
    loops = json.loads(payload)
    verdicts: dict[str, int] = {}
    for e in loops:
        for v in e.get("verdicts", ()):
            verdicts[v] = verdicts.get(v, 0) + 1
    ref = {
        "census": {
            "argv": CENSUS_ARGV,
            "sha256": hashlib.sha256(payload.encode()).hexdigest(),
            "loops": len(loops),
            "self_maps": sum(len(e["selfMaps"]) for e in loops),
            "verdicts": verdicts,
        },
        "certify-large": {"tol": TOL},
    }
    for spec in CERTIFY_SPECS:
        matrix = count_matrix(atlas.atlas(spec.split(":", 1)[1]))
        ref["certify-large"][spec] = {
            "matrix": matrix,
            "perron_root": perron_root(matrix),
            "perron_root_error_exp": ERROR_EXP,
        }
    out = HERE / "reference.json"
    out.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
