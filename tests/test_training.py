"""Curriculum schedule, difficulty buckets, batch sampling, and AdamW."""

import math

import numpy as np
import pytest

from claimforge.numerics import Rng, Tensor
from claimforge.training import (
    AdamW,
    CurriculumSchedule,
    bucket_corpus,
    clip_grad_norm,
    curriculum_progress,
    difficulty_level,
    sample_batch,
)
from claimforge.training.curriculum import difficulty_key


class TestCurriculumProgress:
    def test_midpoint_exact(self):
        assert curriculum_progress(5000) == 0.5

    def test_start_near_zero(self):
        assert curriculum_progress(0) < 1e-20

    def test_t5200(self):
        expected = 1.0 / (1.0 + math.exp(-2.0))
        assert curriculum_progress(5200) == pytest.approx(expected, abs=1e-15)
        assert abs(curriculum_progress(5200) - 0.880797) < 1e-6

    def test_strictly_increasing_until_float_saturation(self):
        schedule = CurriculumSchedule()
        grid = range(0, 20001, 97)
        vals = [curriculum_progress(t, schedule) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        # strict increase holds wherever 64-bit tau has not yet rounded to 1
        for a, b in zip(vals, vals[1:]):
            if b < 1.0:
                assert b > a

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            curriculum_progress(-1)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            CurriculumSchedule(gamma=0.0)

    @pytest.mark.parametrize("setting, value", [
        ("gamma", math.inf), ("gamma", math.nan), ("t0", math.inf), ("t0", math.nan),
    ])
    def test_non_finite_schedule_rejected_naming_the_value(self, setting, value):
        # gamma = inf read a progress of 0.0 at step 0, and t0 = nan failed in
        # difficulty_level with "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match=f"^{setting} must be finite, got {value}"):
            CurriculumSchedule(**{setting: value})


class TestDifficultyLevel:
    def test_level_values(self):
        assert difficulty_level(0) == 1
        assert difficulty_level(5000) == 2
        assert difficulty_level(5691) == 3

    def test_default_threshold_step(self):
        # tau(t) >= 0.999 first at t = ceil(t0 + ln(999)/gamma) = 5691
        assert difficulty_level(5690) == 2
        assert difficulty_level(5691) == 3

    def test_non_decreasing_and_in_range(self):
        schedule = CurriculumSchedule()
        levels = [difficulty_level(t, schedule) for t in range(0, 20001, 50)]
        assert all(l in (1, 2, 3) for l in levels)
        assert all(b >= a for a, b in zip(levels, levels[1:]))

    def test_verbatim_mode_caps_at_two_until_tau_rounds_to_one(self):
        schedule = CurriculumSchedule(verbatim_mode=True)
        # find the first step where 64-bit tau rounds to exactly 1.0
        t = 5000
        while curriculum_progress(t, schedule) < 1.0:
            t += 1
        threshold = t
        # floor(1 + 2*tau) stays at 2 while tau < 1, jumps to 3 at tau == 1
        assert difficulty_level(threshold - 3, schedule) == 2
        assert difficulty_level(threshold + 2, schedule) == 3
        # the transition happens within +/- 2 steps of the precomputed value:
        # exp(-gamma*(t - t0)) underflows below 2^-53 near t0 + 53*ln2/gamma
        predicted = 5000 + 53 * math.log(2) / 0.01
        assert abs(threshold - predicted) <= 200  # same underflow region
        levels = {difficulty_level(tt, schedule)
                  for tt in range(threshold - 2, threshold + 3)}
        assert levels <= {2, 3} and 3 in levels


class TestBuckets:
    def test_three_samples_one_per_bucket(self):
        buckets = bucket_corpus([("a", 1.0), ("b", 2.0), ("c", 3.0)])
        assert buckets == [["a"], ["b"], ["c"]]

    def test_equal_keys_split_by_id(self):
        items = [(f"s{i}", 5.0) for i in range(7)]
        buckets = bucket_corpus(items)
        assert [len(b) for b in buckets] == [3, 2, 2]
        assert buckets[0] == ["s0", "s1", "s2"]

    def test_sixty_samples_match_sort_oracle(self):
        rng = Rng(0, ("keys",))
        items = [(f"s{i:02d}", float(rng.integers(1, 500))) for i in range(60)]
        buckets = bucket_corpus(items)
        assert [len(b) for b in buckets] == [20, 20, 20]
        ordered = sorted(items, key=lambda kv: (kv[1], kv[0]))
        expected = [sid for sid, _ in ordered]
        got = buckets[0] + buckets[1] + buckets[2]
        assert got == expected

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            bucket_corpus([("a", 1.0), ("b", 2.0)])

    def test_difficulty_key(self):
        assert difficulty_key(10, 0) == 10.0
        assert difficulty_key(10, 3) == 40.0


class TestSampleBatch:
    def _buckets(self):
        return bucket_corpus([(f"s{i:02d}", float(i)) for i in range(30)])

    def test_t0_draws_only_easiest(self):
        buckets = self._buckets()
        schedule = CurriculumSchedule()
        rng = Rng(0, ("draw",))
        easy = set(buckets[0])
        for _ in range(50):
            batch = sample_batch(buckets, 0, schedule, 4, rng)
            assert set(batch) <= easy

    def test_large_t_all_buckets_eligible(self):
        buckets = self._buckets()
        schedule = CurriculumSchedule()
        rng = Rng(1, ("draw",))
        seen = set()
        for _ in range(200):
            seen.update(sample_batch(buckets, 20000, schedule, 4, rng))
        assert seen & set(buckets[2])

    def test_monte_carlo_frequencies_at_midpoint(self):
        buckets = self._buckets()
        schedule = CurriculumSchedule()
        rng = Rng(0, ("mc",))
        counts = {1: 0, 2: 0, 3: 0}
        member = {}
        for level, b in enumerate(buckets, start=1):
            for sid in b:
                member[sid] = level
        draws = 10000
        for _ in range(draws // 4):
            for sid in sample_batch(buckets, 5000, schedule, 4, rng):
                counts[member[sid]] += 1
        total = sum(counts.values())
        assert counts[3] == 0
        assert abs(counts[1] / total - 0.5) < 0.02
        assert abs(counts[2] / total - 0.5) < 0.02

    def test_empty_bucket_error(self):
        buckets = self._buckets()
        buckets[1] = []
        with pytest.raises(ValueError, match="bucket 2"):
            sample_batch(buckets, 20000, CurriculumSchedule(), 4, Rng(0, ("d",)))


class TestAdamW:
    def test_lr_zero_no_op(self):
        p = {"w": Tensor(np.array([1.0, 2.0]), requires_grad=True)}
        opt = AdamW(p, lr=0.0, weight_decay=0.5)
        opt.step({"w": np.array([1.0, 1.0])})
        np.testing.assert_array_equal(p["w"].data, [1.0, 2.0])

    def test_zero_grad_zero_decay_no_op(self):
        p = {"w": Tensor(np.array([1.0, 2.0]), requires_grad=True)}
        opt = AdamW(p, lr=1e-3, weight_decay=0.0)
        for _ in range(5):
            opt.step({"w": np.zeros(2)})
        np.testing.assert_array_equal(p["w"].data, [1.0, 2.0])

    def test_three_step_scalar_trajectory_oracle(self):
        # hand-stepped AdamW with defaults on a constant gradient of 1.0
        lr, b1, b2, eps, wd = 5e-5, 0.9, 0.999, 1e-8, 0.01
        w = 1.0
        m = v = 0.0
        expected = []
        for t in range(1, 4):
            m = b1 * m + (1 - b1) * 1.0
            v = b2 * v + (1 - b2) * 1.0
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            w = w - lr * (m_hat / (math.sqrt(v_hat) + eps) + wd * w)
            expected.append(w)

        p = {"w": Tensor(np.array(1.0), requires_grad=True)}
        opt = AdamW(p, lr=lr, betas=(b1, b2), eps=eps, weight_decay=wd)
        got = []
        for _ in range(3):
            opt.step({"w": np.array(1.0)})
            got.append(float(p["w"].data))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("setting", ["lr", "beta1", "beta2", "eps", "weight_decay"])
    def test_non_finite_setting_rejected_naming_it(self, setting, value):
        # lr = nan used to fail one step later, in a softmax, naming no setting
        kw = {setting: value}
        if setting.startswith("beta"):
            kw = {"betas": (value, 0.999) if setting == "beta1" else (0.9, value)}
        p = {"w": Tensor(np.array([1.0, 2.0]), requires_grad=True)}
        with pytest.raises(ValueError, match=f"^{setting} must be finite, got {value}"):
            AdamW(p, **kw)

    @pytest.mark.parametrize("setting", ["lr", "weight_decay"])
    def test_negative_setting_rejected_naming_it(self, setting):
        # lr = -1 climbed the loss; a negative weight decay grows the weights
        p = {"w": Tensor(np.array([1.0, 2.0]), requires_grad=True)}
        with pytest.raises(ValueError, match=f"^{setting} must be non-negative, got -1.0"):
            AdamW(p, **{setting: -1.0})

    def test_unknown_parameter_rejected(self):
        opt = AdamW({"w": Tensor(np.zeros(2), requires_grad=True)})
        with pytest.raises(KeyError):
            opt.step({"nope": np.zeros(2)})

    def test_shape_mismatch_rejected(self):
        opt = AdamW({"w": Tensor(np.zeros(2), requires_grad=True)})
        with pytest.raises(ValueError, match="shape"):
            opt.step({"w": np.zeros(3)})

    def test_non_finite_gradient_rejects_whole_step(self):
        p = {
            "a": Tensor(np.array([1.0]), requires_grad=True),
            "b": Tensor(np.array([2.0]), requires_grad=True),
        }
        opt = AdamW(p, lr=1e-2)
        with pytest.raises(ValueError, match="step rejected"):
            opt.step({"a": np.array([1.0]), "b": np.array([np.nan])})
        # validate-then-mutate: nothing moved, not even the valid gradient
        np.testing.assert_array_equal(p["a"].data, [1.0])
        np.testing.assert_array_equal(p["b"].data, [2.0])
        assert opt.t == 0

    def test_determinism_100_steps(self):
        def run():
            rng = Rng(9, ("adamw",))
            p = {"w": Tensor(rng.normal((4, 4)), requires_grad=True)}
            opt = AdamW(p, lr=1e-3)
            g_rng = Rng(10, ("grads",))
            for _ in range(100):
                opt.step({"w": g_rng.normal((4, 4))})
            return p["w"].data.copy()

        assert np.array_equal(run(), run())


class PerParameterAdamW:
    """AdamW as it was, one parameter at a time: the oracle of the flat update."""

    def __init__(self, params, lr, betas, eps, weight_decay):
        self.params, self.lr, (self.beta1, self.beta2) = params, lr, betas
        self.eps, self.weight_decay, self.t = eps, weight_decay, 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, g in grads.items():
            p = self.params[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.data = p.data - self.lr * (
                m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p.data
            )


class TestFlatAdamW:
    SHAPES = {"w": (3, 4), "b": (4,), "s": (), "t": (2, 1, 3)}

    def _params(self):
        rng = Rng(21, ("flat-adamw",))
        return {name: Tensor(rng.normal(shape), requires_grad=True)
                for name, shape in self.SHAPES.items()}

    def test_equals_the_per_parameter_update_bit_for_bit(self):
        flat_params, ref_params = self._params(), self._params()
        settings = dict(lr=3e-2, betas=(0.8, 0.95), eps=1e-8, weight_decay=0.05)
        flat = AdamW(flat_params, **settings)
        ref = PerParameterAdamW(ref_params, **settings)
        rng = Rng(22, ("flat-adamw-grads",))
        for _ in range(50):
            # gradients of every scale, zeros included
            grads = {name: rng.normal(shape) * 10.0 ** float(rng.integers(-6, 3))
                     for name, shape in self.SHAPES.items()}
            grads["b"][0] = 0.0
            flat.step({name: g.copy() for name, g in grads.items()})
            ref.step(grads)
            for name in self.SHAPES:
                assert flat_params[name].data.shape == self.SHAPES[name]
                assert np.array_equal(flat_params[name].data, ref_params[name].data), name

    def test_missing_gradient_is_a_key_error_and_changes_nothing(self):
        params = self._params()
        before = {name: p.data.copy() for name, p in params.items()}
        opt = AdamW(params, lr=1e-2)
        grads = {name: np.ones(shape) for name, shape in self.SHAPES.items() if name != "s"}
        with pytest.raises(KeyError, match="'s'"):
            opt.step(grads)
        assert opt.t == 0
        for name, p in params.items():
            assert np.array_equal(p.data, before[name])

    def test_non_finite_gradient_names_its_parameter(self):
        opt = AdamW(self._params())
        grads = {name: np.zeros(shape) for name, shape in self.SHAPES.items()}
        grads["t"][1, 0, 2] = np.inf
        with pytest.raises(ValueError, match="'t'"):
            opt.step(grads)


class TestAdamWBuffer:
    """The flat parameter buffer that AdamW updates in place."""

    SHAPES = TestFlatAdamW.SHAPES
    SETTINGS = dict(lr=3e-2, betas=(0.8, 0.95), eps=1e-8, weight_decay=0.05)

    def _grads(self, rng):
        return {name: rng.normal(shape) for name, shape in self.SHAPES.items()}

    def test_every_parameter_is_a_view_of_one_buffer(self):
        params = TestFlatAdamW()._params()
        opt = AdamW(params, **self.SETTINGS)
        rng = Rng(23, ("adamw-buffer",))
        for _ in range(2):
            opt.step(self._grads(rng))
        assert all(p.data.base is opt.data for p in params.values())

    def test_rebound_data_is_taken_in_bit_for_bit(self):
        flat_params, ref_params = TestFlatAdamW()._params(), TestFlatAdamW()._params()
        flat = AdamW(flat_params, **self.SETTINGS)
        ref = PerParameterAdamW(ref_params, **self.SETTINGS)
        rng = Rng(24, ("adamw-rebound",))
        for step in range(6):
            if step in (2, 4):
                # a checkpoint load or a restack rebinds data between steps
                for name in ("w", "s"):
                    fresh = rng.normal(self.SHAPES[name])
                    flat_params[name].data, ref_params[name].data = fresh, fresh.copy()
            grads = self._grads(rng)
            flat.step({name: g.copy() for name, g in grads.items()})
            ref.step(grads)
            for name in self.SHAPES:
                assert np.array_equal(flat_params[name].data, ref_params[name].data), name
                assert np.shares_memory(flat_params[name].data, flat.data), name

    def test_rebound_to_another_shape_is_rejected(self):
        params = TestFlatAdamW()._params()
        opt = AdamW(params, **self.SETTINGS)
        params["w"].data = np.zeros(12)
        grads = {name: np.zeros(shape) for name, shape in self.SHAPES.items()}
        with pytest.raises(ValueError, match="'w' was rebound to shape"):
            opt.step(grads)
        assert opt.t == 0

    def test_rejected_step_leaves_the_buffer_untouched(self):
        params = TestFlatAdamW()._params()
        opt = AdamW(params, **self.SETTINGS)
        rng = Rng(25, ("adamw-rejected",))
        opt.step(self._grads(rng))
        rebound = rng.normal(self.SHAPES["b"])
        params["b"].data = rebound
        state = [a.tobytes() for a in (opt.data, opt.m, opt.v)]
        grads = self._grads(rng)
        grads["t"][0, 0, 1] = np.nan
        with pytest.raises(ValueError, match="step rejected"):
            opt.step(grads)
        assert [a.tobytes() for a in (opt.data, opt.m, opt.v)] == state
        assert opt.t == 1
        assert params["b"].data is rebound


class TestClipGradNorm:
    def test_small_gradients_untouched(self):
        grads = {"w": np.array([0.3, 0.4])}
        norm = clip_grad_norm(grads, 1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_array_equal(grads["w"], [0.3, 0.4])

    def test_large_gradients_scaled_to_max_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = clip_grad_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert total == pytest.approx(1.0)

    def test_scales_each_gradient_in_place(self):
        rng = Rng(26, ("clip-in-place",))
        grads = {"a": rng.normal((3, 4)), "b": rng.normal((5,)) * 100.0}
        arrays = dict(grads)
        before = {name: g.copy() for name, g in grads.items()}
        norm = clip_grad_norm(grads, 0.5)
        scale = 0.5 / norm
        for name, g in grads.items():
            assert g is arrays[name]
            assert np.array_equal(g, before[name] * scale)

    @pytest.mark.parametrize("max_norm, rule", [(-1.0, "positive"), (0.0, "positive"),
                                                (math.nan, "finite"), (math.inf, "finite")])
    def test_max_norm_not_positive_and_finite_rejected(self, max_norm, rule):
        # max_norm = -1 used to flip every gradient: [300, 400] became [-0.6, -0.8]
        grads = {"w": np.array([300.0, 400.0])}
        with pytest.raises(ValueError, match=f"^max_norm must be {rule}, got {max_norm}"):
            clip_grad_norm(grads, max_norm)
        np.testing.assert_array_equal(grads["w"], [300.0, 400.0])
