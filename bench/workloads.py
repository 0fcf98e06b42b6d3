"""Seeded inputs, the timed call and the output check for each workload.

Every workload is a list of whole rounds; a round has a fixed composition
(one operation per stratum), and `--seconds` only sets how many rounds run.
The seed picks the concrete inputs inside each stratum, so the cost mix and
the share of repeated cache keys are the same for every seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import oracle

# numbers-cold: at n = 26 one Segre or Verlinde number takes 0.15-0.35 s on a
# 2-core Xeon host; every (rho, s|r, n) key is new, so no lru_cache entry is hit
COLD_N = 26
COLD_RHOS = (2, 3, 4, 5)
COLD_ROUND_S = 2.0

# tables-warm: small n.  Per round and kind, one revisited builder key for
# each (rho, n) in WARM_RHOS x WARM_NS (warm after round 0), and one new key
# whose (rho, n) cycles through NEW_RHOS x WARM_NS, so the cost mix is the
# same for every seed and cold calls are a fixed share spread over the run.
# The seed picks s (or r) and the exponents.  New keys skip s or r divisible
# by rho, whose integral bases make them cheap.  The 60 cheaper calls per
# round (12 cross-checks, 24 dim2, 24 reduce, 1-3 ms) outnumber the 32
# Segre and Verlinde calls (3-10 ms), so the median sits inside the cheap
# cluster, well away from the gap between the two.
WARM_RHOS = (1, 2, 3)
WARM_S = (1, 2, 3, 4)
WARM_R = (-2, -1, 1, 2)
WARM_NS = (2, 3, 4, 5, 6)
NEW_RHOS = (4, 5, 6, 7)
NEW_S = range(-6, 13)
NEW_R = range(-9, 10)
WARM_ROUND_S = 0.3

# sv-grid: one mid order, one distinct (rho, r) point per stratum and round
SV_ORDER = 28
SV_RHOS = (2, 3, 4, 5, 6, 7)
SV_ROUND_S = 1.1

# lattice-span: per round, one operation on one list per radical dimension
LATTICE_RADICAL_DIMS = (0, 1, 2)
LATTICE_EXTRA = 4
LATTICE_ROUND_S = 0.13


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


def rounds(seconds: float, round_s: float) -> int:
    return max(1, round(seconds / round_s))


def _distinct_near(rng: random.Random, center: int, modulus: int, count: int) -> list[int]:
    """`count` distinct integers not divisible by `modulus`, drawn from the
    ceil(1.25 * count) candidates nearest to `center`."""
    pool, step = [], 0
    want = math.ceil(1.25 * count)
    while len(pool) < want:
        for x in dict.fromkeys((center + step, center - step)):
            if x % modulus and len(pool) < want:
                pool.append(x)
        step += 1
    return rng.sample(pool, count)


# -- generators --------------------------------------------------------------------


def gen_numbers_cold(seed: int, seconds: float) -> list[Op]:
    rng = random.Random(seed)
    n_rounds = rounds(seconds, COLD_ROUND_S)
    # a = 1 - s/rho and q = r^2/rho^2 stay non-integers, as on the expensive path
    s_of = {rho: _distinct_near(rng, rho, rho, n_rounds) for rho in COLD_RHOS}
    r_of = {rho: _distinct_near(rng, 0, rho, n_rounds) for rho in COLD_RHOS}
    ops = []
    for i in range(n_rounds):
        block = []
        for rho in COLD_RHOS:
            block.append(Op("segre", (rho, s_of[rho][i], rng.randint(-10, 10),
                                      rng.randint(-10, 10), COLD_N)))
            block.append(Op("verlinde", (rho, r_of[rho][i], rng.randint(-6, 12), COLD_N)))
        rng.shuffle(block)
        ops += block
    return ops


def _rand_q(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))


def _rand_alpha(rng: random.Random) -> tuple:
    """(rank, c1sq, c1L, v2) of a K-theory class."""
    return tuple(_rand_q(rng) for _ in range(4))


def _keys(rng: random.Random, warm_values, new_values, n_rounds: int):
    """Revisited keys (rho, x, n), one per (rho, n) in WARM_RHOS x WARM_NS,
    and one new key per round, its (rho, n) cycling through NEW_RHOS x
    WARM_NS; x is drawn from the values for rho and never repeats."""
    warm = [(rho, rng.choice(warm_values), n) for rho in WARM_RHOS for n in WARM_NS]
    cells = list(itertools.product(NEW_RHOS, WARM_NS))
    pools = {cell: rng.sample([x for x in new_values if x % cell[0]],
                              math.ceil(n_rounds / len(cells))) for cell in cells}
    new = [(rho, pools[rho, n].pop(), n)
           for rho, n in itertools.islice(itertools.cycle(cells), n_rounds)]
    return warm, new


def gen_tables_warm(seed: int, seconds: float) -> list[Op]:
    rng = random.Random(seed)
    n_rounds = rounds(seconds, WARM_ROUND_S)
    segre_warm, segre_new = _keys(rng, WARM_S, NEW_S, n_rounds)
    verlinde_warm, verlinde_new = _keys(rng, WARM_R, NEW_R, n_rounds)
    cross_keys = [(rho, s) for rho in WARM_RHOS for s in WARM_S]
    ops = []
    for i in range(n_rounds):
        block = []
        for rho, s, n in [*segre_warm, segre_new[i]]:
            block.append(Op("cli-segre", (rho, s, rng.randint(-8, 8), rng.randint(-8, 8), n)))
        for rho, r, n in [*verlinde_warm, verlinde_new[i]]:
            block.append(Op("cli-verlinde", (rho, r, rng.randint(-5, 10), n)))
        for rho, s in cross_keys:
            block.append(Op("cross-check", (rho, s, rng.randint(-8, 8), rng.randint(-8, 8))))
        for rho in WARM_RHOS * 8:
            block.append(Op("cli-dim2", (rho, _rand_alpha(rng),
                                         Fraction(2 * rng.randint(-4, 4)), _rand_q(rng))))
            block.append(Op("cli-reduce", (rho, rng.choice(WARM_NS), _rand_alpha(rng),
                                           Fraction(2 * rng.randint(-4, 4)), _rand_q(rng))))
        rng.shuffle(block)
        ops += block
    return ops


def gen_sv_grid(seed: int, seconds: float) -> list[Op]:
    rng = random.Random(seed)
    n_rounds = rounds(seconds, SV_ROUND_S)
    # r = 0 or r a multiple of rho makes a, b or q an integer, a far cheaper path
    r_of = {rho: _distinct_near(rng, 0, rho, n_rounds) for rho in SV_RHOS}
    ops = []
    for i in range(n_rounds):
        block = [Op("cli-check-sv", (rho, r_of[rho][i], SV_ORDER)) for rho in SV_RHOS]
        rng.shuffle(block)
        ops += block
    return ops


def _sparse(rng: random.Random, allowed) -> list[int]:
    """Coordinates (rank, c1_0..c1_21, v2): four small entries at allowed places."""
    coords = [0] * 24
    for i in rng.sample(sorted(allowed), 4):
        coords[i] = rng.choice((-2, -1, 1, 2))
    return coords


def _combine(rng: random.Random, vectors) -> tuple:
    coeffs = [rng.choice((-1, 1)) for _ in vectors]
    return tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(24))


def gen_lattice_span(seed: int, seconds: float) -> list[Op]:
    """One operation per round: three lists (v, xs), one per planted radical
    dimension, so every operation has the same mix of reduction work.

    The isotropic class f_j = (0, e_j, 0), with e_j the first basis vector of
    the j-th hyperbolic plane, pairs to zero with every vector that has no
    component on its partner e_j'.  Mixing f_1..f_d into the xs plants a
    d-dimensional radical for the reduction to remove.  The last two
    entries of each list pick the isometry its span is mapped by (`image`).
    """
    rng = random.Random(seed)
    e8_coords = set(range(7, 23))
    ops = []
    for _ in range(rounds(seconds, LATTICE_ROUND_S)):
        lists = []
        for dim in LATTICE_RADICAL_DIMS:
            partners = {2 + 2 * j for j in range(dim)}
            planted = [tuple(int(i == 1 + 2 * j) for i in range(24)) for j in range(dim)]
            # v = (1, D, v2) with D in E8(-1)^2 and v.v = D.D - 2 v2 >= 2
            v = _sparse(rng, e8_coords)
            v[0] = 1
            v[23] = (oracle.pairing(v, v) - 2) // 2 - rng.randint(0, 3)
            free = [tuple(_sparse(rng, set(range(24)) - partners)) for _ in range(LATTICE_EXTRA)]
            xs = [_combine(rng, [f, *free[: 1 + k]]) for k, f in enumerate(planted)] + free
            rng.shuffle(xs)
            lists.append((tuple(v), tuple(xs), rng.randrange(16), rng.randrange(2)))
        rng.shuffle(lists)
        ops.append(Op("span", tuple(lists)))
    return ops


GENERATORS = {
    "numbers-cold": gen_numbers_cold,
    "tables-warm": gen_tables_warm,
    "sv-grid": gen_sv_grid,
    "lattice-span": gen_lattice_span,
}


def image(coords, root: int, swap: int) -> tuple:
    """A K3-lattice isometry: reflect in the E8(-1) simple root `root`
    (x -> x + (x.e) e, as e.e = -2), then swap the first two hyperbolic
    planes when `swap` is set."""
    e = tuple(int(i == 7 + root) for i in range(24))
    xe = oracle.pairing(coords, e)
    out = [x + xe * ei for x, ei in zip(coords, e)]
    if swap:
        out[1:3], out[3:5] = out[3:5], out[1:3]
    return tuple(out)


# -- the timed calls ----------------------------------------------------------------


def _cli(cli, argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _alpha(alpha) -> str:
    return ",".join(str(x) for x in alpha)


def _span(api, v, xs, root, swap):
    space = v.space
    fp = api.fingerprint(v, xs)
    ys = api.nondegenerate_reduction(v, xs)
    full = [v, *ys]
    rank = api.gram_rank(api.gram_matrix(full))
    dim = api.span_dim(full)
    ws = [api.MukaiVector.from_coords(space, image(x.coords, root, swap)) for x in full]
    iso = api.span_isometry(full, ws)
    return fp, ys, rank, dim, ws, iso


def prepare(api, op: Op):
    """The operation as a call with no arguments; everything it needs is
    built here, in set-up, so the timed region holds only the call."""
    a = op.args
    if op.kind == "segre":
        params = api.SegreParams(rho=a[0], s=Fraction(a[1]), c2=a[2], c1sq=a[3], n=a[4])
        return lambda: api.segre_number(params)
    if op.kind == "verlinde":
        params = api.VerlindeParams(rho=a[0], r=a[1], chiL=a[2], n=a[3])
        return lambda: api.verlinde_number(params)
    if op.kind == "cross-check":
        return lambda: api.segre_cross_check(*a)
    if op.kind == "span":
        space = api.k3_lattice()
        lists = [(api.MukaiVector.from_coords(space, v),
                  [api.MukaiVector.from_coords(space, x) for x in xs], root, swap)
                 for v, xs, root, swap in a]
        return lambda: [_span(api, *item) for item in lists]
    if op.kind == "cli-segre":
        argv = ["segre", "--rho", a[0], "--s", a[1], "--c2", a[2], "--c1sq", a[3], "--n", a[4]]
    elif op.kind == "cli-verlinde":
        argv = ["verlinde", "--rho", a[0], "--r", a[1], "--chiL", a[2], "--n", a[3]]
    elif op.kind == "cli-dim2":
        argv = ["dim2", "--rho", a[0], "--alpha", _alpha(a[1]), "--Lsq", a[2], "--u", a[3]]
    elif op.kind == "cli-reduce":
        argv = ["reduce", "--rho", a[0], "--n", a[1], "--alpha", _alpha(a[2]),
                "--Lsq", a[3], "--u", a[4]]
    elif op.kind == "cli-check-sv":
        argv = ["check-sv", "--rho", a[0], "--r", a[1], "--order", a[2]]
    else:
        raise ValueError(f"unknown operation kind {op.kind!r}")
    argv = [str(x) for x in argv]
    return lambda: _cli(api.cli, argv)


# -- checks, run after the timed region ---------------------------------------------


def _cli_doc(out, expected: dict) -> bool:
    code, text = out
    return code == 0 and json.loads(text) == expected


def _check_span(api, args, out) -> bool:
    v, xs, root, swap = args
    fp, ys, rank, dim, ws, iso = out
    before = oracle.pairing_matrix([v, *xs])
    full = [v, *(y.coords for y in ys)]
    pairings = oracle.pairing_matrix(full)
    if [list(row) for row in fp.matrix] != before or pairings != before:
        return False
    if not rank == dim == oracle.gauss_rank(pairings) == oracle.gauss_rank(full):
        return False
    images = [w.coords for w in ws]
    if images != [image(x, root, swap) for x in full]:
        return False
    # the isometry must also map a combination of the basis to its image
    mixed = tuple(sum((k + 1) * x[i] for k, x in enumerate(full)) for i in range(24))
    mixed_vec = api.MukaiVector.from_coords(ws[0].space, mixed)
    if iso.apply(mixed_vec).coords != image(mixed, root, swap):
        return False
    return oracle.pairing_matrix(images) == pairings


def check(api, op: Op, out) -> bool:
    """True when `out` is the right output of `op`, by an independent route."""
    a = op.args
    if op.kind == "segre":
        return out == oracle.segre_value(*a)
    if op.kind == "verlinde":
        return out == oracle.verlinde_value(*a)
    if op.kind == "cross-check":
        rho, s, c2, c1sq = a
        closed = oracle.dim2_value(rho, s, c1sq, 0, s + Fraction(c1sq, 2) - c2, 0, 0)
        return out is True and oracle.segre_value(rho, s, c2, c1sq, 1) == closed
    if op.kind == "cli-segre":
        return _cli_doc(out, {"value": str(oracle.segre_value(*a))})
    if op.kind == "cli-verlinde":
        return _cli_doc(out, {"value": str(oracle.verlinde_value(*a))})
    if op.kind == "cli-dim2":
        rho, alpha, lsq, u = a
        return _cli_doc(out, {"value": str(oracle.dim2_value(rho, *alpha, lsq, u))})
    if op.kind == "cli-reduce":
        rho, n, alpha, lsq, u = a
        if not _cli_doc(out, oracle.reduction_doc(rho, n, *alpha, lsq, u)):
            return False
        doc = json.loads(out[1])
        moduli = api.ModuliData(rho=rho, n=n, alpha=api.KClassInvariants(*alpha), Lsq=lsq, u=u)
        target = api.ReductionTarget(
            n=doc["n"], beta=api.KClassInvariants(**{k: Fraction(x) for k, x in doc["beta"].items()}),
            Lsq=Fraction(doc["Lsq"]), u_prime=Fraction(doc["u_prime"]))
        return api.dependence_pairings(moduli) == api.hilbert_pairings(target)
    if op.kind == "cli-check-sv":
        rho, r, order = a
        return _cli_doc(out, {"rho": rho, "r": r, "order": order, "g_identity": True,
                              "f_identity": True, "first_discrepant_order": None})
    if op.kind == "span":
        return len(out) == len(a) and all(_check_span(api, x, y) for x, y in zip(a, out))
    raise ValueError(f"unknown operation kind {op.kind!r}")


def negative_control(api, workload: str) -> bool:
    """True when a deliberately wrong input is reported as wrong.

    On sv-grid, perturbing the exponent on V in the F-identity by 1/7 must
    make the correspondence check fail."""
    if workload != "sv-grid":
        return True
    report = api.check_correspondence(2, 1, 8, f_exponent_offset=Fraction(1, 7))
    return not report.f_identity_holds and report.g_identity_holds
