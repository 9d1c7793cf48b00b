"""Seeded inputs, job lists and exact output checks of the three workloads.

A workload's set-up draws its inputs through `nseries.samples`, writes them
as table files, and returns the job list.  The support of every input table
(which monomials each generator image touches, which slot and monomial a
planted defect hits) comes from the fixed SHAPE_SEED, and `--seed` draws the
coefficients.  A run therefore measures the same problem sizes on every seed:
with random supports the cost of one exp/log job varies tenfold between
inputs, and the median job of a run would follow the draw, not the code.
Each job is one `nseries` command line and a check that recomputes the
expected result by a different route than the one the job ran.  Checks run
outside the timed region; `check` returns None on success or a reason.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

# (label, context descriptor, bound) per context of a workload.
CORR_CONTEXTS = (("lex1", "lex:1", 10), ("w12", "weighted:1,2", 8), ("p2", "prod:2", 8))
# mu per context: swap on product:2, a 3-cycle on product:3, identity on weighted:1,2.
VAUT_CONTEXTS = (
    ("p2", "prod:2", 8, ((0, 1), (1, 0))),
    ("p3", "prod:3", 5, ((0, 0, 1), (1, 0, 0), (0, 1, 0))),
    ("w12", "weighted:1,2", 8, ((1, 0), (0, 1))),
)
VERIFY_SUITES = ("free", "bch", "hahn", "order", "operator", "correspondence", "vaut")
VERIFY_ORDER = 8
VERIFY_TRIALS = 5

SHAPE_SEED = 240305827
CORR_PAIRS = 3  # derivation pairs per context in one corr cycle
VAUT_TABLES = 12  # decompose inputs per context, a quarter of them planted-invalid
VERIFY_CYCLES = 64  # distinct verify seeds in the job list


@dataclass
class Job:
    argv: list[str]
    kind: str
    check: Callable[[int, str], str | None]


@dataclass
class Setup:
    jobs: list[Job]
    trace_jobs: int  # the first `trace_jobs` jobs form one traced pass
    digest: str


def load_modules():
    """The nseries modules the workloads use, imported fresh by the caller."""
    import nseries.correspondence
    import nseries.hahn_series
    import nseries.operators
    import nseries.samples
    import nseries.support_order
    import nseries.textio
    import nseries.vaut_factors

    return SimpleNamespace(
        corr=nseries.correspondence,
        hahn=nseries.hahn_series,
        ops=nseries.operators,
        samples=nseries.samples,
        order=nseries.support_order,
        textio=nseries.textio,
        vaut=nseries.vaut_factors,
    )


class _Files:
    """Writes input files under one directory and digests what it wrote."""

    def __init__(self, root: Path):
        self.root = root
        self.root.mkdir(parents=True, exist_ok=True)
        self.written: dict[str, bytes] = {}

    def write(self, name: str, text: str) -> str:
        data = text.encode("utf-8")
        (self.root / name).write_bytes(data)
        self.written[name] = data
        return str(self.root / name)

    def digest(self, argvs: list[list[str]]) -> str:
        h = hashlib.sha256()
        for name in sorted(self.written):
            h.update(name.encode() + b"\0" + self.written[name] + b"\0")
        prefix = str(self.root) + "/"
        for argv in argvs:
            h.update("\x1f".join(a.replace(prefix, "") for a in argv).encode() + b"\n")
        return h.hexdigest()


def _ok_table(rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    if not out:
        return "empty output"
    return None


def _derivation(ns, shape, values, ctx, bound: int, density: int = 2):
    """Contracting derivation whose generator images have `density` terms
    strictly above the generator, placed by `shape`, valued by `values`."""
    universe = ns.order.weight_universe(ctx, bound)
    gen_images = {}
    for i in range(ctx.dim):
        g = tuple(int(i == j) for j in range(ctx.dim))
        above = [
            q for q in universe
            if ctx.weight(q) > ctx.weight(g) and ctx.cmp(g, q) is ns.order.Cmp.LESS
        ]
        picks = shape.sample(above, min(density, len(above)))
        terms = {q: ns.samples.nonzero_fraction(values) for q in picks}
        gen_images[i] = ns.hahn.HahnPoly(ctx, bound, terms)
    return ns.samples.derivation_from_generator_images(ctx, bound, gen_images)


# -- corr ------------------------------------------------------------------

def setup_corr(ns, seed: int, root: Path) -> Setup:
    shape, values = random.Random(SHAPE_SEED), random.Random(seed)
    files = _Files(root)
    fmt, parse = ns.textio.format_op_table, ns.textio.parse_op_table
    jobs: list[Job] = []

    def check_exp(rc, out, path):
        bad = _ok_table(rc, out)
        want = fmt(ns.corr.op_exp_via_series(parse(Path(path).read_text())))
        return bad or (None if out == want else "exp-der differs from op_exp_via_series")

    def check_log(rc, out, path):
        bad = _ok_table(rc, out)
        want = fmt(ns.corr.op_log_via_series(parse(Path(path).read_text())))
        return bad or (None if out == want else "log-aut differs from op_log_via_series")

    def check_star(rc, out, left, right):
        bad = _ok_table(rc, out)
        if bad:
            return bad
        got = parse(out)
        if fmt(got) != out:
            return "star output is not in canonical table form"
        if not ns.ops.op_is_derivation(got):
            return "star output is not a derivation"
        e1 = ns.corr.op_exp(parse(Path(left).read_text()))
        e2 = ns.corr.op_exp(parse(Path(right).read_text()))
        if ns.corr.op_exp(got) != ns.ops.op_compose(e1, e2):
            return "exp(star) != exp(d1) o exp(d2)"
        return None

    def check_half(rc, out, path):
        bad = _ok_table(rc, out)
        if bad:
            return bad
        half = parse(out)
        if fmt(half) != out:
            return "iterate output is not in canonical table form"
        if ns.ops.op_compose(half, half) != parse(Path(path).read_text()):
            return "half iterate composed with itself is not s"
        return None

    for p in range(CORR_PAIRS):
        for label, descr, bound in CORR_CONTEXTS:
            ctx = ns.textio.parse_ctx(descr)
            d1 = _derivation(ns, shape, values, ctx, bound)
            d2 = _derivation(ns, shape, values, ctx, bound)
            stem = f"{label}-{p}"
            f_d1 = files.write(f"{stem}-d1.tbl", fmt(d1))
            f_d2 = files.write(f"{stem}-d2.tbl", fmt(d2))
            f_s1 = files.write(f"{stem}-s1.tbl", fmt(ns.corr.op_exp_via_series(d1)))
            f_s2 = files.write(f"{stem}-s2.tbl", fmt(ns.corr.op_exp_via_series(d2)))

            for d, s in ((f_d1, f_s1), (f_d2, f_s2)):
                jobs += [
                    Job(["exp-der", d], "exp-der", partial(check_exp, path=d)),
                    Job(["log-aut", s], "log-aut", partial(check_log, path=s)),
                    Job(["iterate", s, "--c", "1/2"], "iterate", partial(check_half, path=s)),
                ]
            for left, right in ((f_d1, f_d2), (f_d2, f_d1)):
                check = partial(check_star, left=left, right=right)
                jobs.append(Job(["star", left, right], "star", check))
    # The traced pass is the first pair of every context: all job kinds, and
    # short enough for several alternating traced/untraced pairs in one run.
    return Setup(jobs, len(jobs) // CORR_PAIRS, files.digest([j.argv for j in jobs]))


# -- vaut ------------------------------------------------------------------

def _factor_json(mu, chi, residual_text: str) -> str:
    """The factor file `nseries vaut decompose` prints for these factors."""
    payload = {
        "schema": 1,
        "mu": [list(row) for row in mu],
        "chi": [str(v) for v in chi],
        "residual": residual_text,
    }
    return json.dumps(payload, sort_keys=True, separators=(", ", ": ")) + "\n"


def _perturb(ns, shape, values, sigma):
    """Change one image coefficient of a basis monomial with two or more
    generator factors.  sigma(t^m) then differs from sigma(t^e) sigma(t^(m-e))
    for a generator e dividing m, so the table is no unital endomorphism."""
    basis = [m for m in sigma.basis() if sum(m) >= 2]
    m = shape.choice(basis)
    img = sigma.images[m]
    exp = shape.choice(sorted(img.terms))
    terms = dict(img.terms)
    terms[exp] = terms[exp] + ns.samples.nonzero_fraction(values)
    images = dict(sigma.images)
    images[m] = type(img)(img.ctx, img.bound, terms)
    return type(sigma)(sigma.ctx, sigma.bound, images)


def _check_rejected(rc: int, out: str) -> str | None:
    if rc != 2:
        return f"planted-invalid table not rejected (exit code {rc})"
    return None if out == "" else "output printed for a rejected table"


def setup_vaut(ns, seed: int, root: Path) -> Setup:
    shape, values = random.Random(SHAPE_SEED), random.Random(seed)
    files = _Files(root)
    fmt, parse = ns.textio.format_op_table, ns.textio.parse_op_table
    jobs: list[Job] = []
    invalid = {
        label: set(shape.sample(range(VAUT_TABLES), VAUT_TABLES // 4)) for label, *_ in VAUT_CONTEXTS
    }
    mus = {
        label: ns.vaut.ExponentAut(ns.textio.parse_ctx(descr), mu)
        for label, descr, _, mu in VAUT_CONTEXTS
    }
    for k in range(VAUT_TABLES):
        for label, descr, bound, mu in VAUT_CONTEXTS:
            ctx = ns.textio.parse_ctx(descr)
            chi = ns.samples.random_character(values, ctx)
            d = _derivation(ns, shape, values, ctx, bound)
            residual = ns.corr.op_exp_via_series(d)
            sigma = ns.vaut.compose_factors(ns.vaut.FactorAut(mus[label], chi, residual))
            stem = f"{label}-{k}"
            if k in invalid[label]:
                bad_path = files.write(f"{stem}-invalid.tbl", fmt(_perturb(ns, shape, values, sigma)))
                jobs.append(Job(["vaut", "decompose", bad_path], "decompose-invalid", _check_rejected))
                continue
            sigma_text = fmt(sigma)
            sigma_path = files.write(f"{stem}-sigma.tbl", sigma_text)
            factor_path = files.write(
                f"{stem}-factors.json", _factor_json(mu, chi.values, fmt(residual))
            )

            def check_decompose(rc, out, want_mu=mu, want_text=sigma_text, descr=descr):
                bad = _ok_table(rc, out)
                if bad:
                    return bad
                data = json.loads(out)
                if [tuple(r) for r in data["mu"]] != [tuple(r) for r in want_mu]:
                    return f"recovered mu {data['mu']} is not the planted {want_mu}"
                ctx = ns.textio.parse_ctx(descr)
                split = ns.vaut.FactorAut(
                    ns.vaut.ExponentAut(ctx, tuple(tuple(r) for r in data["mu"])),
                    ns.vaut.CharacterX(ctx, tuple(Fraction(v) for v in data["chi"])),
                    parse(data["residual"]),
                )
                if fmt(ns.vaut.compose_factors(split)) != want_text:
                    return "compose_factors(decompose output) differs from the input"
                return None

            def check_compose(rc, out, want_text=sigma_text):
                bad = _ok_table(rc, out)
                return bad or (None if out == want_text else "compose output differs from sigma")

            jobs.append(Job(["vaut", "decompose", sigma_path], "decompose", check_decompose))
            jobs.append(Job(["vaut", "compose", factor_path], "compose", check_compose))
    return Setup(jobs, len(jobs), files.digest([j.argv for j in jobs]))


# -- verify ----------------------------------------------------------------

def _check_verify(suite: str):
    def check(rc, out):
        if rc != 0:
            return f"verify {suite} exit code {rc}"
        lines = out.splitlines()
        if len(lines) < 2 or lines[-1] != f"PASS suite {suite}":
            return f"verify {suite} did not report a passing suite"
        failed = [ln for ln in lines if not ln.startswith("PASS ")]
        return f"verify {suite} step failed: {failed[0]}" if failed else None

    return check


def setup_verify(ns, seed: int, root: Path) -> Setup:
    del ns
    rng = random.Random(seed)
    files = _Files(root)
    jobs = []
    for _ in range(VERIFY_CYCLES):
        cycle_seed = str(rng.randrange(2**31))
        for suite in VERIFY_SUITES:
            argv = [
                "verify", suite,
                "--order", str(VERIFY_ORDER),
                "--trials", str(VERIFY_TRIALS),
                "--seed", cycle_seed,
            ]
            jobs.append(Job(argv, f"verify-{suite}", _check_verify(suite)))
    return Setup(jobs, len(VERIFY_SUITES), files.digest([j.argv for j in jobs]))


SETUPS = {"corr": setup_corr, "vaut": setup_vaut, "verify": setup_verify}
