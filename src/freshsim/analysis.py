"""Probability analysis of the stealth-version reset scheme.

Three questions are answered here, analytically and by Monte Carlo:

* How likely is a long stretch of version updates to see no reset?
* How likely is an attacker driving updates for a long time to exhaust the
  stealth space (drive a version all the way around without an intervening
  reset, producing a nonce reuse)?
* How likely is a replayed record captured at a random past stealth value to
  match the current one?

All probability arithmetic is done in the log domain.  The interesting
quantities are far below double-precision underflow if computed as naive
products: with the default parameters the per-interval no-reset probability
is ``(1 - 2^-20)^(2^26) = e^(2^26 * ln(1 - 2^-20)) ~= e^-64.00003 ~=
1.604e-28``.  Note the exponent: this constant is sometimes misquoted as
``~1.6e-26``, which is off by two orders of magnitude; the final exhaustion
bound ``~1.7e-19 = 2^30 * 1.6e-28`` is consistent only with the ``e-28``
value, and that is what the log-domain evaluation below produces.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import MAX_ARRAY_ITEMS, ConfigError, bounded, check_fields

RUN_MODEL_DRAWS = 10**7  # the most draws the exact run model takes


class RunModelCapError(ConfigError):
    """More draws than the exact run model takes; use ``exhaustion_bound``."""


@dataclass(frozen=True)
class ExhaustionQuery:
    """Attack budget: ``total_updates`` split into ``interval_count``
    disjoint intervals of ``interval_updates`` each."""

    total_updates: int = 1 << 56
    interval_updates: int = bounded(1 << 26, low=1)
    interval_count: int = bounded(1 << 30, low=1)
    reset_exp: int = bounded(20)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.interval_updates * self.interval_count != self.total_updates:
            raise ConfigError(
                "interval_updates x interval_count must equal total_updates "
                f"({self.interval_updates} x {self.interval_count} "
                f"!= {self.total_updates})"
            )


def log_no_reset_prob(n: int, reset_exp: int) -> float:
    """ln of the probability that n updates all miss the 2^-reset_exp check."""
    if n < 0:
        raise ConfigError("update count must be non-negative")
    if n == 0:
        return 0.0
    if reset_exp == 0:
        return -math.inf
    return n * math.log1p(-(2.0 ** -reset_exp))


def no_reset_prob(n: int, reset_exp: int) -> float:
    """Probability that n consecutive updates trigger no reset."""
    lp = log_no_reset_prob(n, reset_exp)
    return math.exp(lp) if lp > -math.inf else 0.0


def exhaustion_bound(query: ExhaustionQuery | None = None) -> float:
    """Upper bound on stealth-space exhaustion over the query's budget.

    A wrap-around needs twice the interval length of consecutive reset-free
    updates, so it would contain at least one entirely reset-free aligned
    interval; the intervals are disjoint, hence independent, giving
    ``1 - (1 - p0)^K`` with ``p0 = no_reset_prob(interval_updates)`` and
    ``K = interval_count``.  Defaults evaluate to ~1.7e-19.
    """
    if query is None:
        query = ExhaustionQuery()
    log_p0 = log_no_reset_prob(query.interval_updates, query.reset_exp)
    if log_p0 == -math.inf:
        return 0.0
    p0 = math.exp(log_p0)
    if p0 >= 1.0:
        return 1.0
    return -math.expm1(query.interval_count * math.log1p(-p0))


def replay_success_prob(stealth_bits: int) -> float:
    """Chance a captured stealth value equals an independent current one."""
    if stealth_bits < 1:
        raise ConfigError("stealth_bits must be positive")
    return math.ldexp(1.0, -stealth_bits)  # 0.0, not OverflowError, past float range


# -- exact run-length model ----------------------------------------------------------
#
# The run model, per update to a block at the leading version, as
# ``mc_exhaustion`` simulates it:
#   1. the version advances (stealth value +1 mod 2^S);
#   2. if the value just returned to the interval's starting value the
#      nonce has been reused -- exhaustion;
#   3. the reset check fires with probability 2^-R and, if it fires, the
#      value is redrawn uniformly and a new interval begins.
# Reuse at update k therefore requires the 2^S - 1 reset checks at updates
# k-2^S+1 .. k-1 to all miss; over n updates that is exactly "the first
# n-1 reset draws contain a run of at least 2^S - 1 misses".
# ``VersionStore`` runs step 3 before it returns the advanced version, so the
# reusing update's own check must miss too: reuse there needs a run of 2^S
# misses, and the model's value is an upper bound for the store, high by one
# reset check.


def _run_prob(draws: int, run_len: int, p: float) -> float:
    """P(a run of >= run_len misses occurs in `draws` Bernoulli(p) draws).

    Exact O(draws) recurrence on g(i) = P(run present within first i draws):
    a new run can first complete at draw i only as [no run in i-L-1] [hit]
    [L misses], so g(i) = g(i-1) + p q^L (1 - g(i-L-1)).  Accumulated with
    Kahan compensation: the increments are tiny and numerous.
    """
    if run_len <= 0:
        return 1.0
    if draws < run_len:
        return 0.0
    if p >= 1.0:
        return 0.0
    if draws > RUN_MODEL_DRAWS:
        raise RunModelCapError("run model capped at 1e7 draws; use exhaustion_bound")
    q = 1.0 - p
    q_run = math.exp(run_len * math.log(q)) if q > 0 else 0.0
    g = np.zeros(draws + 1)
    g[run_len] = q_run
    step = p * q_run
    acc = q_run
    comp = 0.0
    for i in range(run_len + 1, draws + 1):
        inc = step * (1.0 - g[i - run_len - 1])
        y = inc - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        g[i] = acc
    return min(acc, 1.0)


def analytic_exhaustion_prob(
    stealth_bits: int,
    reset_exp: int,
    updates_per_address: int,
    addresses: int = 1,
) -> float:
    """Exhaustion probability of the run model above: exact for what
    ``mc_exhaustion`` simulates, an upper bound for ``VersionStore``."""
    if stealth_bits < 1:
        raise ConfigError("stealth_bits must be positive")
    if addresses < 1:
        raise ConfigError("addresses must be positive")
    if updates_per_address < 0:
        raise ConfigError("updates_per_address must be non-negative")
    space = 1 << stealth_bits
    p = 2.0 ** -reset_exp
    per_addr = _run_prob(max(updates_per_address - 1, 0), space - 1, p)
    if per_addr <= 0.0:
        return 0.0
    if per_addr >= 1.0:
        return 1.0
    return -math.expm1(addresses * math.log1p(-per_addr))


# -- Monte Carlo ---------------------------------------------------------------------


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo rate estimate with its binomial standard error, and the
    ``parameters`` (every argument, defaults filled in) it was run with."""

    estimate: float
    stderr: float
    trials: int
    parameters: dict


def _binomial_estimate(successes: int, parameters: dict) -> McEstimate:
    trials = parameters["trials"]
    est = successes / trials
    return McEstimate(
        estimate=est,
        stderr=math.sqrt(est * (1.0 - est) / trials),
        trials=trials,
        parameters=parameters,
    )


@dataclass(frozen=True)
class ExhaustionRun:
    """What ``mc_exhaustion`` runs with, each range refused by key before any
    draw.  ``stealth_bits`` is at most 24: at full width exhaustion is far
    too rare to sample, and ``exhaustion_bound`` answers instead.

    ``updates_per_address`` left None is ``4 << stealth_bits``.  Given or
    not, it is refused past the run model's cap, whatever its closed form
    answers, so 22-24 need an explicit count."""

    stealth_bits: int = bounded(low=1, high=24)
    reset_exp: int = bounded()
    addresses: int = bounded(1, low=1)
    updates_per_address: int = bounded(None)  # None: resolved here, as above
    trials: int = bounded(100_000, low=1)
    seed: int = bounded(1)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.trials * self.addresses > MAX_ARRAY_ITEMS:  # one array element per stream
            raise ConfigError(f"trials x addresses must be at most {MAX_ARRAY_ITEMS}, "
                              f"got {self.trials} x {self.addresses}")
        key = "updates_per_address"  # as the refusal names it: a key the caller gave
        if self.updates_per_address is None:
            object.__setattr__(self, "updates_per_address", 4 << self.stealth_bits)
            key = f"stealth_bits {self.stealth_bits}: its default updates_per_address"
        if self.updates_per_address - 1 > RUN_MODEL_DRAWS:  # the analytic value's draws
            raise RunModelCapError(f"{key} {self.updates_per_address} is too many: "
                                   "run model capped at 1e7 draws; use exhaustion_bound")


@dataclass(frozen=True)
class ReplayRun:
    """What ``mc_replay`` runs with, each range refused by key before any
    draw.  ``stealth_bits`` is at most 20: a 2^-S match rate needs far more
    than 2^S trials to resolve, and ``replay_success_prob`` answers instead."""

    stealth_bits: int = bounded(low=1, high=20)
    trials: int = bounded(1_000_000, low=1, high=MAX_ARRAY_ITEMS)  # one array element each
    seed: int = bounded(1)

    def __post_init__(self) -> None:
        check_fields(self)


def mc_exhaustion(
    stealth_bits: int,
    reset_exp: int,
    addresses: int = ExhaustionRun.addresses,
    updates_per_address: int | None = ExhaustionRun.updates_per_address,
    trials: int = ExhaustionRun.trials,
    seed: int = ExhaustionRun.seed,
) -> McEstimate:
    """Simulate the run model at scaled-down parameters.

    Each trial runs `addresses` independent version streams for
    `updates_per_address` updates each: the stealth value starts uniform,
    advances by one per update, and after each advance the reset check
    redraws it with probability 2^-reset_exp.  A trial counts as exhausted
    if any stream revisits its interval's starting value, i.e. survives
    2^stealth_bits - 1 consecutive missed checks.  Expected rate:
    analytic_exhaustion_prob at the same parameters.
    """
    run = ExhaustionRun(stealth_bits, reset_exp, addresses, updates_per_address, trials, seed)
    space = 1 << stealth_bits
    p_reset = 2.0 ** -reset_exp
    rng = np.random.default_rng(seed)
    streams = trials * addresses
    try:
        value = rng.integers(0, space, size=streams, dtype=np.int64)
        run_len = np.zeros(streams, dtype=np.int64)
        wrapped = np.zeros(streams, dtype=bool)
        for _ in range(run.updates_per_address):
            value += 1
            value &= space - 1
            run_len += 1
            np.bitwise_or(wrapped, run_len >= space, out=wrapped)
            fired = rng.random(streams) < p_reset
            n_fired = int(fired.sum())
            if n_fired:
                value[fired] = rng.integers(0, space, size=n_fired, dtype=np.int64)
                run_len[fired] = 0
    except MemoryError:
        raise ConfigError(f"trials x addresses = {trials} x {addresses} streams need more "
                          "memory than the host grants") from None
    hits = int(wrapped.reshape(trials, addresses).any(axis=1).sum())
    return _binomial_estimate(hits, asdict(run))


def mc_replay(stealth_bits: int, trials: int = ReplayRun.trials,
              seed: int = ReplayRun.seed) -> McEstimate:
    """Replay a record captured at a random past stealth value against an
    independent current one; success means the values match (rate 2^-S)."""
    run = ReplayRun(stealth_bits, trials, seed)
    rng = np.random.default_rng(seed)
    space = 1 << stealth_bits
    try:
        captured = rng.integers(0, space, size=trials, dtype=np.int64)
        current = rng.integers(0, space, size=trials, dtype=np.int64)
        hits = int((captured == current).sum())
    except MemoryError:
        raise ConfigError(f"trials {trials} needs more memory than the host grants") from None
    return _binomial_estimate(hits, asdict(run))
