import ast
import dataclasses
import inspect
import math
import textwrap

import pytest

from freshsim.analysis import (
    ExhaustionQuery,
    ExhaustionRun,
    McEstimate,
    ReplayRun,
    _run_prob,
    analytic_exhaustion_prob,
    exhaustion_bound,
    log_no_reset_prob,
    mc_exhaustion,
    mc_replay,
    no_reset_prob,
    replay_success_prob,
)
from freshsim.core import ConfigError


class TestNoResetProb:
    def test_small_example(self):
        assert no_reset_prob(128, 7) == pytest.approx(0.3664377159220373, rel=1e-15)
        assert no_reset_prob(128, 7) == pytest.approx((1 - 1 / 128) ** 128, rel=1e-14)

    def test_interval_constant(self):
        assert no_reset_prob(1 << 26, 20) == pytest.approx(1.6037619468402034e-28, rel=1e-12)

    def test_edges(self):
        assert log_no_reset_prob(0, 20) == 0.0
        assert no_reset_prob(0, 20) == 1.0
        assert log_no_reset_prob(5, 0) == -math.inf
        assert no_reset_prob(5, 0) == 0.0
        with pytest.raises(ConfigError):
            log_no_reset_prob(-1, 20)

    def test_log_domain_survives_extreme_counts(self):
        # the plain probability underflows to zero; its log stays finite
        lp = log_no_reset_prob(1 << 40, 20)
        assert math.isfinite(lp) and lp < -1e6
        assert no_reset_prob(1 << 40, 20) == 0.0


class TestExhaustionBound:
    def test_default_budget(self):
        assert exhaustion_bound() == pytest.approx(1.722026278061991e-19, rel=1e-12)

    def test_matches_independent_recompute(self):
        q = ExhaustionQuery()
        p0 = no_reset_prob(q.interval_updates, q.reset_exp)
        expect = -math.expm1(q.interval_count * math.log1p(-p0))
        assert exhaustion_bound(q) == pytest.approx(expect, rel=1e-12)

    def test_monotone_in_budget_and_reset_rate(self):
        small = ExhaustionQuery(total_updates=1 << 55, interval_updates=1 << 26,
                                interval_count=1 << 29, reset_exp=20)
        assert exhaustion_bound(small) < exhaustion_bound()
        lazy = ExhaustionQuery(reset_exp=21)
        assert exhaustion_bound(lazy) > exhaustion_bound()

    def test_query_validation(self):
        with pytest.raises(ConfigError):
            ExhaustionQuery(total_updates=100, interval_updates=7, interval_count=15)
        with pytest.raises(ConfigError):
            ExhaustionQuery(reset_exp=-1)
        with pytest.raises(ConfigError):
            ExhaustionQuery(total_updates=0, interval_updates=0, interval_count=0)

    def test_certain_reset_means_no_exhaustion(self):
        q = ExhaustionQuery(total_updates=64, interval_updates=8,
                            interval_count=8, reset_exp=0)
        assert exhaustion_bound(q) == 0.0


def brute_force_run_prob(draws: int, run_len: int, p: float) -> float:
    """Enumerate every reset/miss sequence; used as the oracle for _run_prob."""
    total = 0.0
    for mask in range(1 << draws):
        run = best = 0
        for i in range(draws):
            if mask >> i & 1:  # reset fired
                run = 0
            else:
                run += 1
                best = max(best, run)
        if best >= run_len:
            fired = bin(mask).count("1")
            total += (p ** fired) * ((1 - p) ** (draws - fired))
    return total


class TestRunModel:
    @pytest.mark.parametrize("draws,run_len,p", [
        (12, 3, 0.3),
        (12, 1, 0.5),
        (12, 12, 0.2),
        (10, 4, 0.05),
        (14, 5, 0.5),
    ])
    def test_matches_exhaustive_enumeration(self, draws, run_len, p):
        assert _run_prob(draws, run_len, p) == pytest.approx(
            brute_force_run_prob(draws, run_len, p), rel=1e-12
        )

    def test_closed_form_edges(self):
        assert _run_prob(20, 1, 0.25) == pytest.approx(1 - 0.25 ** 20, rel=1e-12)
        assert _run_prob(20, 20, 0.25) == pytest.approx(0.75 ** 20, rel=1e-12)
        assert _run_prob(5, 6, 0.5) == 0.0
        assert _run_prob(5, 0, 0.5) == 1.0
        assert _run_prob(8, 3, 0.0) == 1.0
        assert _run_prob(8, 3, 1.0) == 0.0

    def test_draw_count_is_capped(self):
        with pytest.raises(ConfigError, match="exhaustion_bound"):
            _run_prob(10 ** 7 + 1, 100, 0.5)


class TestAnalyticExhaustion:
    def test_monotone_in_updates_and_reset_exp(self):
        a = analytic_exhaustion_prob(4, 2, 100)
        b = analytic_exhaustion_prob(4, 2, 200)
        c = analytic_exhaustion_prob(4, 3, 100)
        assert 0.0 < a < b <= 1.0
        assert c > a  # rarer resets, easier wrap

    def test_multi_address_is_union_of_streams(self):
        one = analytic_exhaustion_prob(3, 2, 64)
        four = analytic_exhaustion_prob(3, 2, 64, addresses=4)
        assert four == pytest.approx(-math.expm1(4 * math.log1p(-one)), rel=1e-12)

    def test_interval_bound_dominates_exact_probability(self):
        # a wrap needs a miss-run of 2W-1 (W = half the stealth space), which
        # always contains one fully-missed aligned W-interval, so the
        # disjoint-interval bound is conservative for the same draw budget
        space = 16  # stealth_bits=4
        w = space // 2
        for reset_exp in (1, 2):
            for k in (4, 16):
                exact = analytic_exhaustion_prob(4, reset_exp, k * w + 1)
                bound = exhaustion_bound(ExhaustionQuery(
                    total_updates=k * w, interval_updates=w,
                    interval_count=k, reset_exp=reset_exp,
                ))
                assert exact <= bound * (1 + 1e-12)

    def test_zero_updates(self):
        assert analytic_exhaustion_prob(4, 2, 0) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            analytic_exhaustion_prob(0, 2, 10)
        with pytest.raises(ConfigError):
            analytic_exhaustion_prob(4, 2, 10, addresses=0)
        with pytest.raises(ConfigError):
            analytic_exhaustion_prob(4, 2, -1)


class TestMonteCarlo:
    def test_exhaustion_agrees_at_harsh_parameters(self):
        expect = analytic_exhaustion_prob(3, 2, 64)
        est = mc_exhaustion(stealth_bits=3, reset_exp=2, updates_per_address=64,
                            trials=20_000, seed=7)
        assert est.trials == 20_000
        assert abs(est.estimate - expect) <= 3 * max(est.stderr, 1e-6)

    def test_exhaustion_multi_address_agrees(self):
        expect = analytic_exhaustion_prob(3, 2, 24, addresses=4)
        est = mc_exhaustion(stealth_bits=3, reset_exp=2, updates_per_address=24,
                            addresses=4, trials=20_000, seed=7)
        # sigma from the analytic rate: the sample stderr collapses when the
        # estimate sits near 1
        sigma = math.sqrt(expect * (1 - expect) / est.trials)
        assert abs(est.estimate - expect) <= 3.5 * sigma
        single = mc_exhaustion(stealth_bits=3, reset_exp=2, updates_per_address=24,
                               trials=20_000, seed=7)
        assert est.estimate > single.estimate

    def test_estimates_report_the_parameters_they_ran_with(self):
        est = mc_exhaustion(3, 2, trials=100, seed=4)
        assert est.parameters == {"stealth_bits": 3, "reset_exp": 2, "addresses": 1,
                                  "updates_per_address": 32, "trials": 100, "seed": 4}
        est = mc_exhaustion(3, 2, addresses=2, updates_per_address=5, trials=100)
        assert est.parameters == {"stealth_bits": 3, "reset_exp": 2, "addresses": 2,
                                  "updates_per_address": 5, "trials": 100, "seed": 1}
        assert mc_replay(4, trials=100).parameters == {"stealth_bits": 4, "trials": 100,
                                                       "seed": 1}

    def test_top_stealth_bits_run_with_an_explicit_count(self):
        # the default 4 << stealth_bits updates pass the run model's 1e7 draws
        # from 22 on, so the refusal names stealth_bits; a small explicit
        # count runs at the top of the scaled range
        for bits in (22, 24):
            with pytest.raises(ConfigError, match=f"^stealth_bits {bits}: its default "
                                                  f"updates_per_address {4 << bits} is too many"):
                mc_exhaustion(bits, 20, trials=1)
        assert ExhaustionRun(21, 20, trials=1).updates_per_address == 4 << 21
        est = mc_exhaustion(24, 20, updates_per_address=1000, trials=50, seed=3)
        assert est.parameters["updates_per_address"] == 1000
        assert est.estimate == 0.0  # 1000 updates cannot wrap a 2^24 space

    def test_replay_agrees_with_uniform_match_rate(self):
        est = mc_replay(8, trials=200_000, seed=3)
        assert abs(est.estimate - replay_success_prob(8)) <= 3.5 * est.stderr
        assert est.stderr > 0

    def test_determinism_and_seed_sensitivity(self):
        a = mc_replay(8, trials=50_000, seed=5)
        b = mc_replay(8, trials=50_000, seed=5)
        assert a == b
        c = mc_replay(8, trials=50_000, seed=6)
        assert c.estimate != a.estimate
        x = mc_exhaustion(3, 2, updates_per_address=32, trials=5_000, seed=5)
        y = mc_exhaustion(3, 2, updates_per_address=32, trials=5_000, seed=5)
        assert x == y

    def test_stderr_shrinks_like_root_trials(self):
        small = mc_replay(8, trials=10_000, seed=2)
        large = mc_replay(8, trials=160_000, seed=2)
        ratio = large.stderr / small.stderr
        assert 0.15 < ratio < 0.35  # ideal 1/4

    def test_scaled_parameter_guards(self):
        with pytest.raises(ConfigError, match=r"^stealth_bits must lie in \[1, 24\], got 25$"):
            mc_exhaustion(stealth_bits=25, reset_exp=20)
        with pytest.raises(ConfigError, match=r"^stealth_bits must lie in \[1, 20\], got 21$"):
            mc_replay(21)
        with pytest.raises(ConfigError):
            mc_exhaustion(3, 2, trials=0)
        with pytest.raises(ConfigError):
            mc_replay(8, trials=0)

    @pytest.mark.parametrize("run, kw, key", [
        (mc_exhaustion, {"stealth_bits": 3, "reset_exp": -3}, "reset_exp"),
        (mc_exhaustion, {"stealth_bits": 3, "reset_exp": 2, "updates_per_address": -1},
         "updates_per_address"),
        (mc_exhaustion, {"stealth_bits": 3, "reset_exp": 2, "seed": -1}, "seed"),
        (mc_replay, {"stealth_bits": 3, "seed": -1}, "seed"),
    ], ids=["exhaustion_reset_exp", "exhaustion_updates", "exhaustion_seed", "replay_seed"])
    def test_negative_input_refused_before_any_draw(self, monkeypatch, run, kw, key):
        import freshsim.analysis as mod

        def no_draws(seed):
            raise AssertionError("drew before checking its inputs")

        monkeypatch.setattr(mod.np.random, "default_rng", no_draws)
        with pytest.raises(ConfigError, match=rf"^{key} must lie in \[0, inf\), got -"):
            run(**kw)

    @pytest.mark.parametrize("run, klass", [(mc_exhaustion, ExhaustionRun),
                                            (mc_replay, ReplayRun)],
                             ids=["exhaustion", "replay"])
    def test_signature_defaults_are_the_run_classes(self, run, klass):
        fields = dataclasses.fields(klass)
        params = inspect.signature(run).parameters
        assert list(params) == [f.name for f in fields]
        assert [p.default for p in params.values()] == [
            inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
            for f in fields]
        # each default reads the class attribute, so it is stated once
        node = ast.parse(textwrap.dedent(inspect.getsource(run))).body[0]
        assert [ast.unparse(d) for d in node.args.defaults] == [
            f"{klass.__name__}.{f.name}" for f in fields
            if f.default is not dataclasses.MISSING]

    def test_estimate_record_shape(self):
        est = mc_replay(4, trials=1000, seed=1)
        assert isinstance(est, McEstimate)
        assert est.stderr == pytest.approx(
            math.sqrt(est.estimate * (1 - est.estimate) / 1000)
        )


class TestReplayProb:
    def test_values(self):
        assert replay_success_prob(8) == 1 / 256
        assert replay_success_prob(27) == 2.0 ** -27
        # an exponent past 1074 underflows to 0; one past float range is
        # refused by name, as every bounded field refuses it
        assert replay_success_prob(2000) == 0.0
        with pytest.raises(ConfigError, match=r"^stealth_bits must lie in \[1, inf\), got 10{400}$"):
            replay_success_prob(10 ** 400)
        with pytest.raises(ConfigError):
            replay_success_prob(0)


def test_misquoted_constant_is_documented():
    import freshsim.analysis as mod

    doc = mod.__doc__
    assert "1.6e-26" in doc and "1.604e-28" in doc
