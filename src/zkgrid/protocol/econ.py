"""Marketplace economics: parameter validation, griefing thresholds,
expected gains, audit sample sizes, and the dollar-cost model.

All money amounts are exact fractions; floats given by callers are
normalized through their decimal string form so 0.05 means 1/20, not the
nearest binary float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class EconError(ValueError):
    pass


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    if isinstance(x, str):
        return Fraction(x)
    raise EconError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class EconParams:
    """Marketplace-wide constants.

    E: cost of obtaining one labeled test example
    Z: cost of proving plus verifying one example
    P: cost of one plain inference
    N1/N2: audit split of the N = N1 + N2 test examples
    K/K1: serving round size and contest subset size
    beta: serving escrow multiplier agreed between the parties
    epsilon: escrow-service fee; defaults to the baseline N1*P/99
    accuracy_target: required fraction of correct predictions
    """

    E: Fraction
    Z: Fraction
    P: Fraction
    N1: int
    N2: int
    K: int = 100
    K1: int = 10
    beta: Fraction = Fraction(2)
    epsilon: Fraction | None = None
    accuracy_target: Fraction = Fraction(4, 5)

    def __post_init__(self):
        for name in ("E", "Z", "P", "beta", "accuracy_target"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        if not self.E > self.Z > self.P >= 0:
            raise EconError(f"cost ordering violated: need E > Z > P >= 0, got {self.E}, {self.Z}, {self.P}")
        if self.N1 <= 0 or self.N2 < 0:
            raise EconError("N1 must be positive and N2 nonnegative")
        if not self.K >= self.K1 > 0:
            raise EconError(f"need K >= K1 > 0, got K={self.K}, K1={self.K1}")
        if self.beta < 2:
            raise EconError(f"beta must be >= 2, got {self.beta}")
        if not 0 <= self.accuracy_target <= 1:
            raise EconError("accuracy target must lie in [0, 1]")

    @property
    def N(self) -> int:
        return self.N1 + self.N2

    @property
    def stake(self) -> Fraction:
        return 1000 * self.N1 * self.E

    def resolved_epsilon(self) -> Fraction:
        if self.epsilon is not None:
            return self.epsilon
        return Fraction(self.N1) * self.P / 99

    @classmethod
    def from_json(cls, doc) -> "EconParams":
        if type(doc) is not dict:
            raise EconError(f"econ params must be an object, not {type(doc).__name__}")
        known = {"E", "Z", "P", "N1", "N2", "K", "K1", "beta", "epsilon", "accuracy_target"}
        extra = set(doc) - known
        if extra:
            raise EconError(f"unknown econ param fields: {sorted(extra)}")
        missing = {"E", "Z", "P", "N1", "N2"} - set(doc)
        if missing:
            raise EconError(f"missing econ param fields: {sorted(missing)}")
        for k in ("N1", "N2", "K", "K1"):
            if k in doc and type(doc[k]) is not int:
                raise EconError(f"econ param {k} must be an integer, not {type(doc[k]).__name__}")
        return cls(**{k: doc[k] for k in known & set(doc)})


@dataclass(frozen=True)
class GriefPoint:
    epsilon: Fraction
    alpha_bound: Fraction


def grief_thresholds(p: EconParams) -> dict[str, GriefPoint]:
    """Both published parameterizations of the fee and abort threshold.

    baseline: fee epsilon = N1*P/99 with the participation bound
              alpha > 49*N1*P / (49*N1*P + 99*N*E)
    anti_griefing: epsilon = N1*P with
              alpha = (N*E/50 - 2*N2*Z) / (N1*P - N2*Z)
    """
    n1p = p.N1 * p.P
    base_eps = n1p / 99
    base_alpha = 49 * n1p / (49 * n1p + 99 * p.N * p.E)
    out = {"baseline": GriefPoint(base_eps, base_alpha)}
    n2z = p.N2 * p.Z
    if n1p == n2z:
        raise EconError("anti-griefing threshold degenerate: N1*P equals N2*Z")
    anti_alpha = (Fraction(p.N) * p.E / 50 - 2 * n2z) / (n1p - n2z)
    out["anti_griefing"] = GriefPoint(n1p, anti_alpha)
    return out


def expected_gain_mp(p: EconParams, alpha) -> Fraction:
    """Provider's expected gain from finishing an accuracy verification:
    (1 - alpha) * (N1*P + 2*N2*Z - epsilon) + alpha * N1*P."""
    alpha = as_fraction(alpha)
    if not 0 <= alpha <= 1:
        raise EconError("alpha must lie in [0, 1]")
    eps = p.resolved_epsilon()
    return (1 - alpha) * (p.N1 * p.P + 2 * p.N2 * p.Z - eps) + alpha * p.N1 * p.P


def retrieval_sample_size(p_tamper, delta) -> int:
    """Smallest audit sample N whose zero-failure exact binomial upper
    bound (two-sided, level delta) is at most p_tamper.

    Closed form ceil(ln(delta/2) / ln(1 - p)), then adjusted with exact
    rational arithmetic so boundary cases round correctly.
    """
    pt = as_fraction(p_tamper)
    dl = as_fraction(delta)
    if not 0 < pt < 1 or not 0 < dl < 1:
        raise EconError("tamper fraction and confidence must lie in (0, 1)")
    # Divided as fractions, so that no quotient overflows a float.
    n = max(1, math.ceil(_log(dl / 2) / _log(1 - pt)))
    if n <= 100_000:  # exact boundary adjustment is cheap at sane sizes
        target = dl / 2
        miss = 1 - pt
        while miss**n > target:
            n += 1
        while n > 1 and miss ** (n - 1) <= target:
            n -= 1
    return n


def hoeffding_sample_size(epsilon, delta) -> int:
    """N = ceil(ln(1/delta) / (2 * epsilon^2)) for a one-sided accuracy
    deviation bound of epsilon at confidence delta."""
    eps = as_fraction(epsilon)
    dl = as_fraction(delta)
    if not 0 < eps <= 1 or not 0 < dl < 1:
        raise EconError("epsilon must lie in (0, 1] and delta in (0, 1)")
    # As fractions: a tiny epsilon squares to 0 in floats.
    return math.ceil(-_log(dl) / (2 * eps * eps))


def _log(x: Fraction) -> Fraction:
    """ln x for a fraction x in (0, 1), to a float's precision also where x
    or 1 - x lies below the float range."""
    q = 1 - x
    if q < Fraction(1, 1 << 64):
        return -q   # ln(1 - q) = -q - q**2 / 2 - ..., the rest below a float's precision
    if x < Fraction(1, 2):   # math.log takes ints of any size
        return Fraction(math.log(x.numerator) - math.log(x.denominator))
    return Fraction(math.log1p(-float(q)))


def cost_estimate(n: int, unit_cost) -> Fraction:
    """n * unit_cost rounded to whole cents (returned in currency units)."""
    if n < 0:
        raise EconError("sample size must be nonnegative")
    c = as_fraction(unit_cost)
    if c < 0:
        raise EconError("unit cost must be nonnegative")
    cents = round(n * c * 100)
    return Fraction(cents, 100)


def format_currency(x: Fraction) -> str:
    cents = round(x * 100)
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}${cents // 100}.{cents % 100:02d}"
