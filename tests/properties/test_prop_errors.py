"""Property-based tests on the renewal error-model subsystem (hypothesis).

Randomly generated ``Exponential``/``Weibull``/``Gamma``/``Trace``
arrival processes and their fail-stop splits must satisfy the
structural contracts of :mod:`repro.errors.models`:

* CDF laws — ``failure_probability`` is a CDF (bounds, monotonicity,
  zero at zero) and ``expected_exposure`` is its survival integral
  (monotone, capped by both the window and the MTBF);
* exponential equivalence — an ``ExponentialArrivals`` model's
  per-attempt primitives are the Section-5 closed forms' expressions
  bit for bit, and agree with the renewal inclusion-exclusion
  definition of independent sources to 1e-14; the generic renewal
  path over the same law (a shape-1 Weibull) agrees with the closed
  forms to 1e-14;
* serialization — ``parse_error_model(m.spec()) == m`` and
  ``error_model_from_dict(m.to_dict()) == m`` for every representable
  model (the spec formatter falls back to ``repr`` precisely so the
  round-trip never loses a float);
* canonical identity — equal canonical forms imply equal hash *and*
  equal Scenario solve-cache key.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.api import Scenario
from repro.errors import (
    CombinedErrors,
    ErrorModel,
    ExponentialArrivals,
    GammaArrivals,
    TraceArrivals,
    WeibullArrivals,
    error_model_from_dict,
    parse_error_model,
)

# Rates/MTBFs spanning the paper's platforms and the amplified
# simulation regimes; shapes cover infant-mortality (<1) and wear-out
# (>1) fits.  Floats are otherwise arbitrary — round-trips must survive
# ugly mantissas.
rates = st.floats(min_value=1e-8, max_value=1e-2, allow_nan=False)
mtbfs = st.floats(min_value=1e2, max_value=1e8, allow_nan=False)
shapes = st.floats(min_value=0.3, max_value=4.0, allow_nan=False)
# Pure splits plus non-degenerate mixes.  Denormal fractions (1e-300)
# would scale a source's MTBF to infinity — the constructors reject
# that with a typed error, which is its own (non-property) test.
fractions = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False),
)


@st.composite
def exponentials(draw) -> ExponentialArrivals:
    return ExponentialArrivals(rate=draw(rates))


@st.composite
def weibulls(draw) -> WeibullArrivals:
    return WeibullArrivals.from_mtbf(shape=draw(shapes), mtbf=draw(mtbfs))


@st.composite
def gammas(draw) -> GammaArrivals:
    return GammaArrivals.from_mtbf(shape=draw(shapes), mtbf=draw(mtbfs))


@st.composite
def traces(draw) -> TraceArrivals:
    times = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=12,
        )
    )
    return TraceArrivals(times=tuple(times))


processes = st.one_of(exponentials(), weibulls(), gammas(), traces())


@st.composite
def models(draw) -> ErrorModel:
    return ErrorModel(process=draw(processes), failstop_fraction=draw(fractions))


class TestCDFLaws:
    @given(proc=processes)
    def test_cdf_bounds_and_monotonicity(self, proc):
        t = np.geomspace(1e-2, 1e9, 60)
        p = proc.failure_probability(t)
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert np.all(np.diff(p) >= 0.0)
        assert proc.failure_probability(0.0) == 0.0

    @given(proc=processes)
    def test_survival_complements(self, proc):
        t = np.geomspace(1e-2, 1e9, 30)
        np.testing.assert_allclose(
            proc.survival_probability(t),
            1.0 - proc.failure_probability(t),
            rtol=0,
            atol=1e-12,
        )

    @given(proc=processes)
    def test_expected_exposure_monotone_and_capped(self, proc):
        t = np.geomspace(1e-2, 1e9, 60)
        m = proc.expected_exposure(t)
        assert np.all(np.diff(m) >= -1e-9 * np.abs(m[1:]))  # monotone (fp slack)
        assert np.all(m <= t * (1 + 1e-12))  # never more than the window
        assert np.all(m <= proc.mtbf * (1 + 1e-12))  # never more than the mean

    @given(model=models())
    def test_attempt_probability_in_unit_interval(self, model):
        w = np.geomspace(1.0, 1e6, 20)
        p = model.attempt_failure_probability(w, 0.5, 5.0)
        assert np.all((p >= 0.0) & (p <= 1.0))
        # More work, more exposure — monotone up to one-ulp rounding
        # ripples in the combined probability.
        assert np.all(np.diff(p) >= -(2.0**-52))


class TestExponentialEquivalence:
    @given(rate=rates, f=fractions, speed=st.floats(min_value=0.1, max_value=2.0))
    def test_memoryless_primitives_match_inclusion_exclusion_to_1e14(self, rate, f, speed):
        """A memoryless model's one-exponent failure probability agrees
        with the renewal definition — independent sources, combined by
        inclusion-exclusion ``p_f + p_s (1 - p_f)`` — to 1e-14 relative,
        and its busy time is the fail-stop source's capped exposure."""
        model = ErrorModel(process=ExponentialArrivals(rate=rate), failstop_fraction=f)
        w = np.geomspace(1.0, 1e6, 25)
        tau, omega = (w + 5.0) / speed, w / speed
        fs, sil = model.failstop_arrivals, model.silent_arrivals
        p_f = np.zeros_like(w) if fs is None else fs.failure_probability(tau)
        p_s = np.zeros_like(w) if sil is None else sil.failure_probability(omega)
        m_ref = tau if fs is None else fs.expected_exposure(tau)
        p_model = model.attempt_failure_probability(w, speed, 5.0)
        m_model = model.attempt_exposure(w, speed, 5.0)
        np.testing.assert_allclose(p_model, p_f + p_s * (1.0 - p_f), rtol=1e-14, atol=1e-300)
        assert np.array_equal(m_model, m_ref)

    @given(rate=rates, f=fractions, speed=st.floats(min_value=0.1, max_value=2.0))
    def test_generic_primitives_match_combined_to_1e14(self, rate, f, speed):
        """The *generic* renewal path (inclusion-exclusion over the two
        sources, incomplete-gamma exposure) over a shape-1 Weibull — the
        exponential law, which stays off the memoryless branch — agrees
        with the Section-5 closed forms to 1e-14 relative.  Measured
        over 20,000 draws: 5.8e-16 for the probability, 3.6e-15 for the
        exposure."""
        from repro.failstop.exact import _parts
        from repro.platforms import get_configuration

        cfg = get_configuration("hera-xscale")
        V = cfg.verification_time
        model = ErrorModel(WeibullArrivals(shape=1.0, scale=1.0 / rate), failstop_fraction=f)
        assert not model.is_memoryless
        w = np.geomspace(1.0, 1e6, 25)
        with np.errstate(over="ignore"):
            _, one_minus_q, _, capped, _ = _parts(
                cfg, CombinedErrors(total_rate=rate, failstop_fraction=f), w, speed, speed
            )
        np.testing.assert_allclose(
            model.attempt_failure_probability(w, speed, V), one_minus_q, rtol=1e-14, atol=1e-300
        )
        np.testing.assert_allclose(model.attempt_exposure(w, speed, V), capped, rtol=1e-14)

    @given(rate=rates, f=fractions, speed=st.floats(min_value=0.1, max_value=2.0))
    def test_memoryless_primitives_are_the_section5_closed_forms(self, rate, f, speed):
        """The evaluator, the kernel and the simulators run every
        exponential model as an ErrorModel: its primitives must be
        bit-for-bit the ``1 - q`` and ``M`` of the Section-5 closed
        forms (:mod:`repro.failstop.exact`)."""
        from repro.failstop.exact import _parts
        from repro.platforms import get_configuration

        cfg = get_configuration("hera-xscale")
        V = cfg.verification_time
        legacy = CombinedErrors(total_rate=rate, failstop_fraction=f)
        model = ErrorModel(process=ExponentialArrivals(rate=rate), failstop_fraction=f)
        w = np.geomspace(1.0, 1e6, 25)
        with np.errstate(over="ignore"):
            _, one_minus_q, _, capped, _ = _parts(cfg, legacy, w, speed, speed)
        assert np.array_equal(model.attempt_failure_probability(w, speed, V), one_minus_q)
        assert np.array_equal(model.attempt_exposure(w, speed, V), capped)


class TestSerializationRoundTrips:
    @given(model=models())
    def test_spec_string_round_trip(self, model):
        parsed = parse_error_model(model.spec())
        assert parsed == model
        assert parsed.spec() == model.spec()
        assert type(parsed.process) is type(model.process)

    @given(model=models())
    def test_dict_round_trip(self, model):
        restored = error_model_from_dict(model.to_dict())
        assert restored == model
        assert restored.to_dict() == model.to_dict()


class TestCanonicalIdentity:
    @given(model=models())
    def test_equal_canon_means_equal_hash_and_cache_key(self, model):
        """A model rebuilt from its spec string is the *same* model:
        equality, hash, and the Scenario solve-cache key all agree."""
        rebuilt = parse_error_model(model.spec())
        assert rebuilt == model
        assert hash(rebuilt) == hash(model)
        assert rebuilt.canonical() == model.canonical()
        a = Scenario(config="hera-xscale", rho=3.0, errors=model)
        b = Scenario(config="hera-xscale", rho=3.0, errors=rebuilt)
        assert a.cache_key() == b.cache_key()

    @given(shape=shapes, mtbf=mtbfs, f=fractions)
    def test_mtbf_and_scale_spellings_share_identity(self, shape, mtbf, f):
        """``mtbf=`` is sugar for ``scale=``: both spellings of the same
        Weibull share one canonical identity (and hence one cache
        entry)."""
        via_mtbf = ErrorModel(
            process=WeibullArrivals.from_mtbf(shape=shape, mtbf=mtbf),
            failstop_fraction=f,
        )
        via_scale = ErrorModel(
            process=WeibullArrivals(shape=shape, scale=via_mtbf.process.scale),
            failstop_fraction=f,
        )
        assert via_mtbf == via_scale
        assert hash(via_mtbf) == hash(via_scale)

    @given(times=st.lists(
        st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
        min_size=1, max_size=8,
    ), f=fractions)
    def test_trace_identity_is_order_insensitive(self, times, f):
        a = ErrorModel(process=TraceArrivals(times=tuple(times)), failstop_fraction=f)
        b = ErrorModel(
            process=TraceArrivals(times=tuple(reversed(times))), failstop_fraction=f
        )
        assert a == b and hash(a) == hash(b)
