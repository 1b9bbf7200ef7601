"""The benchmark's workloads: what one operation runs and how its output is
checked.

Every workload drives ttlab through a public entry point.  `prepare` builds
the operation's inputs and returns the callable that is timed; `render`
turns its result into plain JSON data; `check` lists what is wrong with that
data, judged against references frozen in reference.json or computed by
`expected`; `corrupt` damages a good output so that a run can prove its
checker rejects it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable


@functools.cache
def reference() -> dict:
    """The frozen outputs in reference.json (written by oracle.py)."""
    return json.loads(Path(__file__).with_name("reference.json").read_text())


# what "ready" means for setup_s; the probe and the forking parent both run it
SETUP_CODE = (
    "import ttlab.cli\n"
    "from ttlab import atlas\n"
    "atlas.base_track(); atlas.twisted_track(); atlas.initial_track()\n"
)


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[random.Random], Callable[[], object]]
    render: Callable[[object], object]
    check: Callable[[object, object], list[str]]
    corrupt: Callable[[object], object]
    expected: Callable[[], object] | None = None


def run_cli(argv: list[str]) -> str:
    import ttlab.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ttlab.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ttlab {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _same(x):
    return x


# ----------------------------------------------------------------------
# census: the depth-4 loop census from tau_prime, byte for byte

CENSUS_ARGV = ["search", "loops", "atlas:tau_prime", "--depth", "4", "--json"]


def _census_prepare(rng: random.Random):
    return lambda: run_cli(CENSUS_ARGV)


def _census_check(out: str, expected) -> list[str]:
    ref = reference()["census"]
    problems = []
    if hashlib.sha256(out.encode()).hexdigest() != ref["sha256"]:
        problems.append("census payload differs from the frozen SHA-256")
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        return problems + [f"census payload is not JSON: {exc}"]
    loops = len(payload)
    maps = sum(len(e["selfMaps"]) for e in payload)
    verdicts: dict[str, int] = {}
    for e in payload:
        for v in e.get("verdicts", ()):
            verdicts[v] = verdicts.get(v, 0) + 1
    if loops != ref["loops"]:
        problems.append(f"{loops} loops, want {ref['loops']}")
    if maps != ref["self_maps"]:
        problems.append(f"{maps} self maps, want {ref['self_maps']}")
    if verdicts != ref["verdicts"]:
        problems.append(f"verdict counts {verdicts}, want {ref['verdicts']}")
    return problems


def _census_corrupt(out: str) -> str:
    """Flip the first verdict."""
    payload = json.loads(out)
    v = payload[0]["verdicts"]
    v[0] = "reducible" if v[0] == "pA" else "pA"
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# certify-large: two certificates with wide exact Perron brackets

CERTIFY_SPECS = ("atlas:phi:161", "atlas:psi:40")


def _certify_prepare(rng: random.Random):
    specs = list(CERTIFY_SPECS)
    rng.shuffle(specs)
    return lambda: {s: run_cli(["map", "certify", s, "--json"])
                    for s in specs}


def _certify_check(out: dict, expected) -> list[str]:
    tol = Fraction(reference()["certify-large"]["tol"])
    problems = []
    for spec in CERTIFY_SPECS:
        ref = reference()["certify-large"][spec]
        if spec not in out:
            problems.append(f"{spec}: no certificate")
            continue
        cert = json.loads(out[spec])
        if cert["verdict"] != "pA":
            problems.append(f"{spec}: verdict {cert['verdict']}, want pA")
        if cert["fixedPointFree"] is not True:
            problems.append(f"{spec}: fixedPointFree is {cert['fixedPointFree']}")
        if cert["matrix"] != ref["matrix"]:
            problems.append(f"{spec}: incidence matrix changed")
        if not cert["dilatation"]:
            problems.append(f"{spec}: no dilatation bracket")
            continue
        lower = Fraction(cert["dilatation"]["lower"])
        upper = Fraction(cert["dilatation"]["upper"])
        root = Fraction(ref["perron_root"])
        slack = Fraction(1, 10 ** ref["perron_root_error_exp"])
        if not upper - lower < tol:
            problems.append(f"{spec}: bracket width {float(upper - lower):g} "
                            f"not below {float(tol):g}")
        if not (lower <= root - slack and root + slack <= upper):
            problems.append(f"{spec}: bracket misses the reference Perron root")
    return problems


def _certify_corrupt(out: dict) -> dict:
    """Slide the first bracket just above itself, keeping its width."""
    spec = CERTIFY_SPECS[0]
    cert = json.loads(out[spec])
    lower = Fraction(cert["dilatation"]["lower"])
    upper = Fraction(cert["dilatation"]["upper"])
    width = upper - lower
    cert["dilatation"]["lower"] = str(upper + width)
    cert["dilatation"]["upper"] = str(upper + 2 * width)
    return {**out, spec: json.dumps(cert)}


# ----------------------------------------------------------------------
# replay-long: one linear chain of 2,572 moves, composition heavy

REPLAY_N = 641


def _images(m) -> list[list[str]]:
    from ttlab.words import format_word

    return [[lab, format_word(w)] for lab, w in m.images]


def _replay_expected():
    from ttlab import atlas

    return _images(atlas.phi(REPLAY_N))


def _replay_prepare(rng: random.Random):
    from ttlab import atlas
    from ttlab.search import SearchConfig, replay

    seed = atlas.initial_track()
    moves = atlas.splitting_sequence(REPLAY_N)
    ident = atlas.identification_ii()
    cfg = SearchConfig(certify=False)
    return lambda: replay(seed, moves, ident, cfg)


def _replay_render(result) -> list:
    return [_images(sm) for sm in result.self_maps]


def _replay_check(out: list, expected) -> list[str]:
    if len(out) != 1:
        return [f"{len(out)} self maps, want 1"]
    if out[0] != expected:
        bad = [lab for (lab, w), (_, x) in zip(out[0], expected) if w != x]
        return [f"self map differs from phi:{REPLAY_N} on edges {bad or 'labels'}"]
    return []


def _replay_corrupt(out: list) -> list:
    """Drop the last letter of the longest image."""
    images = [list(pair) for pair in out[0]]
    longest = max(images, key=lambda pair: len(pair[1]))
    longest[1] = longest[1].rsplit(" ", 1)[0]
    return [images]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("census", _census_prepare, _same, _census_check,
                 _census_corrupt),
        Workload("certify-large", _certify_prepare, _same, _certify_check,
                 _certify_corrupt),
        Workload("replay-long", _replay_prepare, _replay_render,
                 _replay_check, _replay_corrupt, expected=_replay_expected),
    )
}
