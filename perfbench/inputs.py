"""Seeded benchmark inputs, written as problem and spec files.

Everything the program under test receives is derived here from the
workload seed: corpus instances come from ``sample_corpus`` with that seed,
the oscillator is fixed, and the generator spec's exponent is drawn from a
seeded ``random.Random``. Files are written with sorted keys, so the same
seed gives byte-identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import varcert.generator
from varcert import Extremal, Grid, certify, parse, sample_corpus, unparse
from varcert.generator import GeneratorSpec

CORPUS_INTERVAL = (0.0, 0.6)
OSCILLATOR = {"integrand": "z^2-y^2", "interval": {"a": 0.0, "b": 4.0}, "extremal": "0"}

# corpus instances written per workload, and the grid size in their files
CORPUS_FILES = {"cli-cold": 3, "corpus-screen": 1}
GRID_N = {"cli-cold": 512, "corpus-screen": 512, "fine-grid": 65536}


def screen_seed(seed: int, k: int) -> int:
    """Seed of the k-th corpus-screen draw."""
    return seed * 100_000 + k


def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")


# fine-grid's corpus-family instances: (y0, qfun, pfun, rho, P monomials).
# The cost of an op at n=65536 follows an instance's structure, not its
# coefficients, so fixing the structures and seeding only the coefficients
# keeps the workload's cost the same from seed to seed; every family choice
# of the corpus generator appears at least once.
FINE_SLOTS = (
    (None, "x*y", "2+sin(x)", "0", 6),
    ("sin(x)", "0", "1+x^2", "y*z", 10),
    ("x*(0.6-x)", "sin(x)*y", "1", "0.1*sin(y)*z", 6),
    (None, "sin(x)*y", "1+x^2", "0.1*sin(y)*z", 10),
)
_MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))
_SCREEN_N = 256
_MAX_DRAWS = 64
_MINIMA = ("MinimumUnconditional", "MinimumUnderLength")


def _fine_instance(seed: int, slot: int) -> tuple:
    """First seeded coefficient draw for the slot that certifies as a minimum."""
    y0_text, qfun, pfun, rho, monomials = FINE_SLOTS[slot]
    a, b = CORPUS_INTERVAL
    rng = random.Random(seed * len(FINE_SLOTS) + slot)
    extremal = Extremal.zero(a, b) if y0_text is None else Extremal.from_text(y0_text, a, b)
    for _ in range(_MAX_DRAWS):
        terms = [f"{rng.uniform(-2.0, 2.0)!r}*x^{i}*y^{j}" for i, j in _MONOMIALS[:monomials]]
        spec = GeneratorSpec(P=parse("+".join(terms)), qfun=parse(qfun), pfun=parse(pfun),
                             rho=parse(rho), C=rng.choice((-1.0, 0.0, 1.0)), a=a, b=b,
                             y0=None if y0_text is None else extremal)
        # looked up on the module, so a traced run sees every draw
        built = varcert.generator.build(spec)
        integrand = built[0] if isinstance(built, tuple) else built
        cert = certify(integrand, extremal, Grid(a, b, _SCREEN_N))
        # like the corpus screen, skip draws within 1e-7 of the length threshold
        bound = cert.verdict.length_bound
        if cert.verdict.kind.value in _MINIMA and (bound is None or bound > (b - a) * (1 + 1e-7)):
            return spec, integrand, extremal
    raise RuntimeError(f"no certifying draw for fine-grid slot {slot}")


def draw_corpus(workload: str, seed: int) -> list:
    """The workload's corpus instances, as (spec, integrand, extremal) triples."""
    if workload == "fine-grid":
        return [_fine_instance(seed, slot) for slot in range(len(FINE_SLOTS))]
    return sample_corpus(seed, CORPUS_FILES[workload], *CORPUS_INTERVAL)


def write_inputs(workdir: Path, workload: str, seed: int, triples: list) -> dict:
    """Write every problem and spec file of one workload; return their paths."""
    workdir.mkdir(parents=True, exist_ok=True)
    grid_n = GRID_N[workload]
    a, b = CORPUS_INTERVAL
    corpus = []
    for index, (_, integrand, extremal) in enumerate(triples):
        path = workdir / f"corpus-{index:02d}.json"
        _write(path, {"integrand": unparse(integrand.f), "interval": {"a": a, "b": b},
                      "extremal": unparse(extremal.y0), "grid_n": grid_n})
        corpus.append(path)
    oscillator = workdir / "oscillator.json"
    _write(oscillator, dict(OSCILLATOR, grid_n=grid_n))
    # P_y(x, 0) = exp(c x^2) has no closed-form antiderivative
    exponent = round(random.Random(seed).uniform(0.5, 1.5), 3)
    spec = workdir / "spec.json"
    _write(spec, {"P": f"exp({exponent!r}*x^2)*y", "a": 0.0, "b": 1.0})
    return {"corpus": corpus, "oscillator": oscillator, "spec": spec}


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def read_problem(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
