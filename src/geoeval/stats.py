"""Significance tests and fold construction for system comparison.

McNemar's test (chi-squared, 1 dof) compares two geotaggers on matched
per-toponym outcomes; the two-tailed Wilcoxon signed-rank test compares
paired geocoding error lists; the paired t-test compares per-fold scores
from k-fold cross-validation. Folds are dealt at the article level from
a seeded shuffle, never within articles, so they stay independent.

Tail probabilities use closed forms (erfc for the chi-squared(1) and
normal tails, a regularised incomplete beta for Student's t) rather than
table interpolation, so results are bit-reproducible across platforms.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

# Below this many disagreements the chi-squared approximation is poor.
MCNEMAR_RELIABLE_MIN = 25

# Below this many nonzero differences the normal approximation is weak.
WILCOXON_SMALL_N = 10


@dataclass(frozen=True)
class StatTestResult:
    """A paired test's outcome as the report carries it.

    `note`, when set, is the caveat the report prints as a warning.
    """

    name: str
    statistic: float
    p_value: float
    n: int
    note: Optional[str] = None


def chi2_sf_1dof(statistic: float) -> float:
    """Upper tail of chi-squared with one degree of freedom."""
    if statistic < 0:
        raise ValueError("chi-squared statistic must be non-negative")
    return math.erfc(math.sqrt(statistic / 2.0))


def normal_sf_two_tailed(z: float) -> float:
    """Two-tailed standard-normal tail probability."""
    return math.erfc(abs(z) / math.sqrt(2.0))


@dataclass(frozen=True)
class McNemarTable:
    """Discordant counts: b = A correct / B wrong, c = A wrong / B correct."""

    b: int
    c: int

    def __post_init__(self):
        if self.b < 0 or self.c < 0:
            raise ValueError("discordant counts must be non-negative")


def mcnemar(table: McNemarTable, corrected: bool = True) -> StatTestResult:
    """McNemar's test on a discordant-pair table; n is b + c.

    Applies the continuity correction by default; pass corrected=False
    for the plain (|b - c|)^2 / (b + c) statistic.
    """
    n = table.b + table.c
    note = None
    if n < MCNEMAR_RELIABLE_MIN:
        note = (
            f"only {n} disagreements; "
            f"chi-squared approximation unreliable below {MCNEMAR_RELIABLE_MIN}"
        )
    if n == 0:
        return StatTestResult("mcnemar", 0.0, 1.0, 0, note)
    diff = abs(table.b - table.c)
    if corrected:
        diff = max(0.0, diff - 1.0)
    statistic = diff * diff / n
    return StatTestResult("mcnemar", statistic, chi2_sf_1dof(statistic), n, note)


def wilcoxon_signed_rank(
    errors_a: Sequence[float],
    errors_b: Sequence[float],
    tie_corrected_variance: bool = False,
) -> StatTestResult:
    """Two-tailed Wilcoxon signed-rank test over paired error lists.

    Zero differences are dropped (n counts the pairs left). Each run of t
    equal |d| shares the mean of the t ranks it spans and adds t^3 - t to
    the tie term; W+ sums the ranks of the positive d. The statistic is z,
    from the plain variance n(n+1)(2n+1)/24 by default; tie_corrected_variance
    subtracts tie term / 48, as common library implementations do. z is
    positive when errors_a tend to exceed errors_b, and flips sign exactly
    when the arguments swap.
    """
    if len(errors_a) != len(errors_b):
        raise ValueError("paired samples must have equal length")
    diffs = sorted((a - b for a, b in zip(errors_a, errors_b) if a != b), key=abs)
    n = len(diffs)
    if n == 0:
        return StatTestResult("wilcoxon", 0.0, 1.0, 0, "all differences zero")

    rank_sums, tie_term, below = [], 0.0, 0
    for _, run in itertools.groupby(diffs, key=abs):
        positive = [d > 0 for d in run]
        t = len(positive)
        rank_sums.append((2 * below + t + 1) / 2.0 * sum(positive))  # mean of ranks below+1 .. below+t
        tie_term += t * t * t - t
        below += t
    w_plus = math.fsum(rank_sums)

    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    if tie_corrected_variance:
        variance -= tie_term / 48.0
    z = (w_plus - mean) / math.sqrt(variance)
    note = None
    if n < WILCOXON_SMALL_N:
        note = f"only {n} nonzero differences; normal approximation is weak"
    return StatTestResult("wilcoxon", z, normal_sf_two_tailed(z), n, note)


@dataclass(frozen=True)
class PairedTResult:
    t: float
    p_value: float
    dof: int
    degenerate: bool = False  # zero variance of the differences
    note: Optional[str] = None


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularised incomplete beta (Lentz)."""
    max_iterations = 300
    eps = 3e-16
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < fpmin:
                d = fpmin
            c = 1.0 + aa / c
            if abs(c) < fpmin:
                c = fpmin
            d = 1.0 / d
            h *= d * c
        if abs(d * c - 1.0) < eps:
            break
    return h


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_tailed(t: float, dof: int) -> float:
    """Two-tailed Student's t tail probability.

    p = I_x(dof/2, 1/2) with x = dof / (dof + t^2). Both x and its
    complement are formed directly from t^2 so neither tail suffers
    cancellation.
    """
    if dof < 1:
        raise ValueError("dof must be >= 1")
    tt = t * t
    x = dof / (dof + tt)
    if x <= 0.5:
        return betainc_reg(dof / 2.0, 0.5, x)
    y = tt / (dof + tt)  # 1 - x, computed without cancellation
    return 1.0 - betainc_reg(0.5, dof / 2.0, y)


def paired_t_test(scores_a: Sequence[float], scores_b: Sequence[float]) -> PairedTResult:
    """Two-tailed paired t-test over per-fold scores (k - 1 dof).

    Constant nonzero differences have zero sample variance; that case is
    reported as p -> 0 with the degenerate flag instead of dividing by
    zero.
    """
    if len(scores_a) != len(scores_b):
        raise ValueError("paired samples must have equal length")
    k = len(scores_a)
    if k < 2:
        raise ValueError("need at least 2 folds")
    diffs = [a - b for a, b in zip(scores_a, scores_b)]
    mean = math.fsum(diffs) / k
    var = math.fsum((d - mean) ** 2 for d in diffs) / (k - 1)
    sd = math.sqrt(var)
    dof = k - 1
    if sd < 1e-12 * max(1.0, abs(mean)):
        if mean == 0.0:
            return PairedTResult(0.0, 1.0, dof, degenerate=True, note="all differences zero")
        t = math.copysign(math.inf, mean)
        return PairedTResult(t, 0.0, dof, degenerate=True, note="zero variance of differences")
    t = mean / (sd / math.sqrt(k))
    return PairedTResult(t=t, p_value=student_t_two_tailed(t, dof), dof=dof)


@dataclass
class FoldPlan:
    k: int
    seed: int
    folds: list[list[str]]


def make_folds(doc_ids: Sequence[str], k: int, seed: int) -> FoldPlan:
    """Deal document ids into k near-equal folds from a seeded shuffle.

    Shuffling happens at the document level only, so folds come from
    disjoint articles. Deterministic for a given (doc_ids, k, seed).
    """
    ids = list(doc_ids)
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > len(ids):
        raise ValueError(f"cannot split {len(ids)} documents into {k} folds")
    if len(set(ids)) != len(ids):
        raise ValueError("document ids must be unique")
    rng = random.Random(seed)
    rng.shuffle(ids)
    base, extra = divmod(len(ids), k)
    folds: list[list[str]] = []
    cursor = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(ids[cursor : cursor + size])
        cursor += size
    return FoldPlan(k=k, seed=seed, folds=folds)
