"""The benchmark's workloads: fixed op lists, why each exists, and the seed defects they keep.

An op is one ``momentbounds`` command line, run in-process through
``momentbounds.cli.main(argv)``.  A workload is a closed loop: one caller
issues its ops one after another in one process.  The workload seed only
permutes the order of the ops (except in ``high-moments``) and, where the
result is symmetric in them, the order of the slot functions inside an
op; it never changes which numbers are computed, so every seed does the same work and reaches the
same bounds.  The reasons the seed does not reach further are given next
to each workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

NAIVE = "naive:v=1/3"


@dataclass(frozen=True)
class Workload:
    why: str
    loads: str
    bypasses: str
    build: Callable[[random.Random], list[dict]]


def _op(label: str, *argv: str, scale_ref: str | None = None) -> dict:
    op = {"label": label, "argv": list(argv)}
    if scale_ref is not None:
        op["scale_ref"] = scale_ref
    return op


def _testfns(specs) -> list[str]:
    return [arg for spec in specs for arg in ("--testfn", spec)]


def _tables(rng: random.Random) -> list[dict]:
    ops = [_op(f"table-{t}", "table", t) for t in ("T1", "T2", "T3", "T4", "T5")]
    # Rank sweeps in with_R: R is recomputed for every rank.
    sweeps = [
        ("so-even", "4,6,8,10,12", "moment4", NAIVE),
        ("so-odd", "5,7,9,11", "moment4", NAIVE),
        ("so-even", "6,8,10,12", "moment2m:3", "naive:v=1/5"),
        ("so-odd", "9,11", "moment2m:4", "naive:v=1/7"),
        ("so-even", "10,12", "moment2m:5", "naive:v=1/9"),
        ("so-even", "12", "moment2m:6", "naive:v=1/11"),
    ]
    for family, ranks, method, spec in sweeps:
        ops.append(
            _op(
                f"sweep-{method}-{family}-{spec}",
                "bound", "--family", family, "--ranks", ranks, "--method", method,
                "--testfn", spec, "--regime", "with_R",
            )
        )
    # Generator slots at amplitudes c in {1e-2, 1, 3}: the bound must not
    # depend on c, and the seed cost of a generator grows with c.
    for c in ("1", "0.01", "3"):
        ops.append(
            _op(
                f"sweep-moment4-poly-c{c}",
                "bound", "--family", "so-even", "--ranks", "20,22,24", "--method", "moment4",
                "--testfn", f"gen:poly:{c}:half=1/6", "--regime", "with_R",
                scale_ref=None if c == "1" else "sweep-moment4-poly-c1",
            )
        )
    ops += [
        _op(
            "moment4-sinx2-R0",
            "bound", "--family", "so-even", "--rank", "20", "--method", "moment4",
            "--testfn", "gen:sinx2:half=1/8", "--regime", "with_R",
        ),
        _op(
            "moment6-sinx2",
            "bound", "--family", "so-even", "--ranks", "12,14", "--method", "moment2m:3",
            "--testfn", "gen:sinx2:half=1/10", "--regime", "with_R",
        ),
        _op(
            "moment10-distinct-naive",
            "moment", "--family", "so-even", "--regime", "with_R",
            *_testfns(f"naive:v=1/{q}" for q in range(10, 20)),
        ),
        _op(
            "moment4-naive-R5040",
            "moment", "--family", "so-even", "--regime", "with_R", *_testfns([NAIVE] * 4),
        ),
        _op(
            "level1-naive",
            "bound", "--family", "so-even", "--ranks", "6,8,10,12", "--method", "level1",
            "--testfn", "naive:v=1",
        ),
        _op(
            "level1-naive-odd",
            "bound", "--family", "so-odd", "--ranks", "5,7,9", "--method", "level1",
            "--testfn", "naive:v=1/2",
        ),
        _op(
            "level2-naive",
            "bound", "--family", "so-odd", "--ranks", "5,7,9,11", "--method", "level2",
            "--testfn", "naive:v=1/2",
        ),
        _op(
            "level2-naive-pair",
            "bound", "--family", "so-even", "--ranks", "6,8,10", "--method", "level2",
            "--testfn", "naive:v=1/3", "--testfn", "naive:v=1/2",
        ),
    ]
    rng.shuffle(ops)
    return ops


# Slot functions for the high moments: every transform support is at most
# 1/10, inside the mock-Gaussian threshold 3/(2n) for every 2m <= 14.
_HM_NAIVE = [f"naive:v=1/{q}" for q in range(10, 17)]
_HM_GEN = [
    "gen:cos:1:half=1/20",
    "gen:cos:1,0.3:half=1/20",
    "gen:poly:1,-2:half=1/20",
    "gen:cos:1,-0.2,0.1:half=1/20",
    "gen:poly:1,0,-50:half=1/20",
    "gen:cos:1,0.5:half=1/20",
    "gen:poly:2,3:half=1/20",
]


def _high_moments(rng: random.Random) -> list[dict]:
    ops = []
    for two_m in (8, 10, 12, 14):
        m = two_m // 2
        family, rank = ("so-even", "30") if two_m % 4 == 0 else ("so-odd", "31")
        # Identical slots: 2m parsed copies of a naive function through
        # `moment`, or one generator function doubled by `bound` (one build).
        if two_m % 4 == 0:
            identical = _op(
                f"identical-{two_m}",
                "moment", "--family", family, "--regime", "mock_gaussian",
                *_testfns([_HM_NAIVE[0]] * two_m),
            )
        else:
            identical = _op(
                f"identical-{two_m}",
                "bound", "--family", family, "--rank", rank, "--method", f"moment2m:{m}",
                "--testfn", _HM_GEN[1], "--regime", "mock_gaussian",
            )
        doubled = _HM_NAIVE[: (m + 1) // 2] + _HM_GEN[: m // 2]
        distinct = _HM_NAIVE[:m] + _HM_GEN[:m]
        rng.shuffle(doubled)
        rng.shuffle(distinct)
        ops += [
            identical,
            _op(
                f"doubled-{two_m}",
                "bound", "--family", family, "--rank", rank, "--method", f"moment2m:{m}",
                *_testfns(doubled), "--regime", "mock_gaussian",
            ),
            _op(
                f"distinct-{two_m}",
                "moment", "--family", family, "--regime", "mock_gaussian",
                *_testfns(distinct),
            ),
        ]
    # The ops keep this order.  The peak memory of a pass depends on it:
    # ten shuffled orders gave 143-162 MB, while five seeds in this order
    # stayed within 1.1 MB, so peak_rss_mb compares like with like.
    return ops


def _search(rng: random.Random) -> list[dict]:
    # The optimizer seed stays fixed: it decides the path, and with it
    # both the cost of each evaluation and the bound reached (optimizer
    # seeds 1..5 gave 7.0-8.1 s and best bounds 2.8e-9..4.0e-9 here).
    return [
        _op(
            "optimize-readme",
            "optimize", "--family", "so-even", "--rank", "100", "--support", "1/4",
            "--basis", "cos:dim=4:half=1/8", "--basis", "fixed:naive:v=1/4",
            "--regime", "mock_gaussian", "--restarts", "2", "--max-evals", "30", "--seed", "1",
        )
    ]


def _montecarlo(rng: random.Random) -> list[dict]:
    # Sampling seeds stay fixed: a 3-sigma band fails about one comparison
    # in a few hundred by chance, and a seed-driven failure would read as
    # a defect.
    runs = [
        ("so-even", "40", NAIVE, "11"),
        ("so-even", "40", "gen:cos:1:half=1/6", "12"),
        ("so-odd", "20", NAIVE, "13"),
        ("u", "40", NAIVE, "14"),
    ]
    ops = [
        _op(
            f"rmt-{group}-N{n}-{spec}",
            "rmt-verify", "--group", group, "--N", n, "--samples", "600", "--testfn", spec,
            "--orders", "2,3,4", "--seed", seed, "--workers", "1",
        )
        for group, n, spec, seed in runs
    ]
    # The bound each verified split-family moment underwrites.
    for family, rank, spec in (("so-even", "20", NAIVE), ("so-even", "20", "gen:cos:1:half=1/6"),
                               ("so-odd", "21", NAIVE)):
        ops.append(
            _op(
                f"bound-{family}-{spec}",
                "bound", "--family", family, "--rank", rank, "--method", "moment4",
                "--testfn", spec, "--regime", "mock_gaussian",
            )
        )
    rng.shuffle(ops)
    return ops


WORKLOADS: dict[str, Workload] = {
    "tables": Workload(
        why="table T1..T5 (108 cells), with_R rank sweeps up to n=12 with naive and "
        "generator slots at amplitudes 1e-2, 1, 3, and level1/level2 bounds",
        loads="moments.r_term (a naive with_R R costs ~0.1 s and is recomputed for every "
        "rank), bounds.bound_moment, kernels.expectation, testfunc.build",
        bypasses="the matching sum (only 3 matchings per 4th moment); rmt; optimize",
        build=_tables,
    ),
    "high-moments": Workload(
        why="moment and bound moment2m:m in mock_gaussian at 2m in {8,10,12,14}, each with "
        "identical slots, m distinct slots doubled, and 2m distinct slots",
        loads="the matching sum inside moments.centered_moment (135,135 matchings at 2m=14) "
        "and testfunc.sigma2 (one value per distinct slot pair)",
        bypasses="moments.r_term (mock_gaussian has no R); rmt; optimize",
        build=_high_moments,
    ),
    "search": Workload(
        why="optimize on the README problem (cos:dim=4:half=1/8 plus fixed naive v=1/4, "
        "rank 100, mock_gaussian), 2 restarts x 30 evaluations (62 objective calls), optimizer "
        "seed 1",
        loads="optimize.objective, which is nearly all testfunc.build (phihat tabulation)",
        bypasses="moments.r_term and the large matching sums; rmt",
        build=_search,
    ),
    "montecarlo": Workload(
        why="rmt-verify at orders 2,3,4 on so-even N=40 (naive and generator phi), so-odd "
        "N=20 and u N=40 at 600 samples, plus the moment-4 bounds they underwrite",
        loads="rmt.sample_haar_batch (QR + eigen-solve), testfunc.phi (generator phi is "
        "a 512-node transform per point) and, through rmt.predicted_moment, moments.r_term",
        bypasses="optimize; reproduce_table; large matching sums",
        build=_montecarlo,
    ),
}

# Defects of the program that the workloads keep on purpose.  An op listed
# here still counts as failed when its checks fail; it does not make the
# run incorrect, because the failure is the known state of the code.
KNOWN_DEFECTS: dict[tuple[str, str], str] = {
    ("tables", "moment4-sinx2-R0"): "with_R moment of gen:sinx2:half=1/8 at rank 20 gives "
    "1.19e-5, but the supports sum to 1 so R=0 and the bound is 3.09e-5",
    ("tables", "sweep-moment4-poly-c0.01"): "gen:poly:c:half=1/6 gives -1.42e-6 at c=0.01 "
    "(fixed absolute quadrature tolerance)",
    ("tables", "sweep-moment4-poly-c3"): "bounds of gen:poly:c:half=1/6 at c=3 and c=1 "
    "differ by 1.2e-8 relative (the same fixed absolute tolerance in R)",
    ("montecarlo", "rmt-so-even-N40-gen:cos:1:half=1/6"): "predicted 3rd moment of "
    "gen:cos:1:half=1/6 is -1.1e-13, 4e-10 of sigma^3, but the supports sum to 1 so R=0",
    ("tables", "moment10-distinct-naive"): "with_R with 10 distinct naive functions raises "
    "ValueError: decay_bound is not integrable",
    ("tables", "moment6-sinx2"): "sinx2 with_R moments come out negative at n >= 6",
}


def build(name: str, seed: int) -> list[dict]:
    return WORKLOADS[name].build(random.Random(seed))
