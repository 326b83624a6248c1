"""Coherent weights, kernels, truncation windows, level tables and mode-set
construction."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dirac_cyclotron
from dirac_cyclotron import (
    KahanAccumulator,
    ModelParams,
    branch_coefficients,
    build_mode_set,
    coherent_coefficient,
    levels,
    phi,
    q_kernel,
    q_kernel_stack,
    spin_z_plateau_jc,
    truncation_window,
)
from dirac_cyclotron.basis import (
    _BLOCK_POINTS,
    MODE_SET_KINDS,
    QA_MAX,
    _log_weight_sq,
    _pair_log_weight,
    _window,
    block_sums,
    float_kahan_sum,
    q_kernel_walk,
)


class TestCoherentCoefficients:
    def test_normalization(self):
        mass = math.fsum(coherent_coefficient(n, 8.0) ** 2 for n in range(1, 401))
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_sign_alternation(self):
        signs = [math.copysign(1.0, coherent_coefficient(n, 3.0)) for n in range(1, 11)]
        assert signs == [1.0, -1.0] * 5

    def test_one_indexed(self):
        with pytest.raises(ValueError):
            coherent_coefficient(0, 5.0)

    def test_large_index_finite(self):
        # log-space evaluation must not overflow for indices in the hundreds
        v = coherent_coefficient(800, 30.0)
        assert math.isfinite(v)


class TestQKernel:
    def test_stack_matches_closed_form(self):
        p = ModelParams(lambda_over_a=0.1, qa=5.0)
        x = np.linspace(-3, 3, 11)
        y = np.linspace(2, 8, 11)
        xx, yy = np.meshgrid(x, y)
        stack = q_kernel_stack(12, xx, yy, p)
        for k in (0, 1, 5, 12):
            np.testing.assert_allclose(stack[k], q_kernel(k, xx, yy, p), atol=1e-14)

    @pytest.mark.parametrize("k_max", [0, 1, 9, 12])
    def test_walk_and_stack_keep_every_bit(self, k_max):
        # the recurrence as first written: out of place, one new array per order
        p = ModelParams(lambda_over_a=0.5, qa=10.0)
        xx, yy = np.meshgrid(np.linspace(-4, 4, 9), np.linspace(6, 14, 7))
        u = (yy - p.qa) - 1j * xx
        q = np.exp((2j * xx * (yy + p.qa) - xx**2 - (yy - p.qa) ** 2) / 4.0) / math.sqrt(2 * math.pi)
        ref = [q]
        for k in range(1, k_max + 1):
            ref.append(ref[-1] * u / math.sqrt(2.0 * k))
        walked = [order.copy() for order in q_kernel_walk(k_max, xx, yy, p)]
        assert np.array(walked).tobytes() == np.array(ref).tobytes()
        assert q_kernel_stack(k_max, xx, yy, p).tobytes() == np.array(ref).tobytes()

    def test_walk_steps_one_buffer_in_place(self):
        p = ModelParams(lambda_over_a=0.1, qa=5.0)
        buffers = list(q_kernel_walk(3, np.zeros(4), np.full(4, 6.0), p))
        assert len(buffers) == 4 and all(q is buffers[0] for q in buffers)

    def test_ratio_recurrence(self):
        p = ModelParams(lambda_over_a=0.1, qa=5.0)
        x, y = 1.3, 6.2
        for k in range(6):
            lhs = q_kernel(k + 1, x, y, p)
            u = (y - p.qa) - 1j * x
            rhs = q_kernel(k, x, y, p) * u / math.sqrt(2.0 * (k + 1))
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_vanishes_at_branch_point_for_positive_k(self):
        # u = 0 at x = 0, y = qa: Q_k = 0 for k >= 1, finite for k = 0
        p = ModelParams(lambda_over_a=0.1, qa=5.0)
        assert q_kernel(3, 0.0, p.qa, p) == 0.0
        assert abs(q_kernel(0, 0.0, p.qa, p)) > 0.0

    def test_negative_order_rejected(self):
        p = ModelParams(lambda_over_a=0.1, qa=5.0)
        with pytest.raises(ValueError):
            q_kernel(-1, 0.0, 0.0, p)


def dropped_mass(win, qa):
    """Coherent mass outside the window, summed from the dropped c_n^2 themselves."""
    below = (coherent_coefficient(n, qa) ** 2 for n in range(1, win.n_min))
    above = (coherent_coefficient(n, qa) ** 2 for n in itertools.count(win.n_max + 1))
    return math.fsum(itertools.chain(below, itertools.takewhile(lambda w: w > 0.0, above)))


def weights_outwards(ks, qa):
    """The weights the window search sums, exp(_log_weight_sq(k, qa)), over ks
    until they underflow."""
    return list(itertools.takewhile(lambda w: w > 0.0, (math.exp(_log_weight_sq(k, qa)) for k in ks)))


def search_dropped_mass(lo, hi, qa):
    """Mass outside [lo, hi] of the weights the window search sums, each
    dropped weight summed at once (exactly rounded)."""
    return math.fsum(weights_outwards(range(lo - 1, 0, -1), qa) + weights_outwards(itertools.count(hi + 1), qa))


class TestTruncationWindow:
    @given(
        qa=st.floats(min_value=1.0, max_value=QA_MAX),
        tol=st.sampled_from([1e-6, 1e-9, 1e-12, 1e-13, 1e-14]),
    )
    # 1 - fsum of the kept c_n^2 reads 1.062e-12 at this draw, from rounding
    # the large weights; the dropped c_n^2 sum to 9.92e-13
    @example(qa=14.785653528916392, tol=1e-12)
    @settings(max_examples=40, deadline=None)
    def test_tail_mass_below_tolerance(self, qa, tol):
        p = ModelParams(lambda_over_a=0.1, qa=qa, trunc_tol=tol)
        win = truncation_window(p)
        assert dropped_mass(win, qa) < tol
        assert win.n_min >= 1

    @pytest.mark.parametrize("qa", [12.728099596556834, 30.0])
    def test_dropped_mass_below_tolerance_near_the_threshold(self, qa):
        # a search that stopped once its running 1 - covered read below tol
        # left a dropped mass of 1.0076 and 1.0117 tol here
        win = truncation_window(ModelParams(lambda_over_a=0.1, qa=qa))
        assert dropped_mass(win, qa) < 1e-12

    def test_window_contains_weight_peak(self):
        p = ModelParams(lambda_over_a=0.1, qa=5.0)
        win = truncation_window(p)
        assert win.n_min <= int(0.5 * p.qa**2) + 1 <= win.n_max

    def test_window_shared_by_packets_differing_in_weights(self):
        a = ModelParams(lambda_over_a=0.1, qa=5.0, alpha=1.0, beta=1.0)
        b = ModelParams(lambda_over_a=0.1, qa=5.0, alpha=0.5, beta=-2.0)
        assert truncation_window(a) is truncation_window(b)
        c = ModelParams(lambda_over_a=0.1, qa=5.0, trunc_tol=1e-6)
        assert truncation_window(c) != truncation_window(a)

    @pytest.mark.parametrize("qa", [2.0, 10.0, 20.0, 100.0])
    def test_tiny_tolerance_ends(self, qa):
        # at 1e-300 the search absorbs all but the last few weights before
        # they underflow, and at the smallest positive tol all of them, so it
        # drops nothing; run apart so that a loop that never ends fails the test
        code = (
            "import math\nfrom dirac_cyclotron.basis import _window\n"
            f"for tol in (1e-300, math.ulp(0.0)):\n    w = _window({qa!r}, tol)\n    print(w.n_min, w.n_max)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(dirac_cyclotron.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
        )
        assert proc.returncode == 0, proc.stderr
        (lo, hi), (lo_all, hi_all) = [tuple(map(int, line.split())) for line in proc.stdout.splitlines()]
        assert (lo, hi) == {2.0: (1, 193), 10.0: (1, 494), 20.0: (1, 922), 100.0: (2620, 7841)}[qa]
        assert 0.0 < search_dropped_mass(lo, hi, qa) < 1e-300
        assert lo_all <= lo and hi <= hi_all
        assert search_dropped_mass(lo_all, hi_all, qa) == 0.0

    def test_qa_above_maximum_raises(self):
        # the window search at qa = 1e7 took over 45 s before the ceiling;
        # run apart so that a slow search fails the test
        code = "from dirac_cyclotron.basis import _window\n_window(1e7, 1e-12)"
        env = dict(os.environ, PYTHONPATH=str(Path(dirac_cyclotron.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
        )
        assert proc.returncode == 1
        assert "ValueError: qa = 10000000.0" in proc.stderr

    def test_windows_of_the_search_that_resummed_every_step(self):
        # the search keeps each side's dropped mass as tail sums added
        # smallest first; resumming the dropped weights at every step, as
        # search_dropped_mass does, gives these same windows
        qas = [*np.linspace(1.0, 24.0, 300).tolist(), 12.728099596556834, 14.785653528916392, 23.5]
        for qa in qas:
            peak = max(1, int(math.floor(0.5 * qa**2)) + 1)
            # the dropped weights of [lo, hi] are below[peak - lo:] and above[hi - peak:]
            below = weights_outwards(range(peak - 1, 0, -1), qa)
            above = weights_outwards(itertools.count(peak + 1), qa)
            lo = hi = peak
            for tol in (1e-6, 1e-9, 1e-12):  # one greedy path serves every tol
                while math.fsum(below[peak - lo:] + above[hi - peak:]) >= tol:
                    w_lo = math.exp(_log_weight_sq(lo - 1, qa)) if lo > 1 else -1.0
                    w_hi = math.exp(_log_weight_sq(hi + 1, qa))
                    if w_hi >= w_lo:
                        hi += 1
                    else:
                        lo -= 1
                win = _window.__wrapped__(qa, tol)
                assert (win.n_min, win.n_max) == (lo, hi), (qa, tol)

    @pytest.mark.parametrize(
        "qa", [*np.linspace(1.0, QA_MAX, 430).tolist(), 51.9427135678392, 61.39497487437186, 95.0]
    )
    def test_default_tolerance_window_has_no_spare_level(self, qa):
        # uncached: the search itself, not a window an earlier test cached
        win = _window.__wrapped__(qa, ModelParams.trunc_tol)
        dropped = dropped_mass(win, qa)
        assert dropped < 1e-12
        lighter_edge = min(coherent_coefficient(n, qa) ** 2 for n in (win.n_min, win.n_max))
        assert dropped + lighter_edge >= 1e-12

    def test_qa_at_maximum_has_a_window(self):
        win = truncation_window(ModelParams(lambda_over_a=0.1, qa=QA_MAX))
        assert (win.n_min, win.n_max) == (4505, 5513)
        assert dropped_mass(win, QA_MAX) < 1e-12


# the two validation sets and a packet below one Landau level (n0 = 0)
LEVEL_SETS = {
    "SET1": ModelParams(lambda_over_a=0.1, qa=5.0),
    "SET2": ModelParams(lambda_over_a=0.5, qa=10.0),
    "qa1": ModelParams(lambda_over_a=0.3, qa=1.0, alpha=1.5, beta=0.5),
}


class TestLevelTable:
    @pytest.mark.parametrize("name", LEVEL_SETS)
    def test_bitwise_equal_to_scalar_functions(self, name):
        p = LEVEL_SETS[name]
        table = levels(p)
        assert table.window is truncation_window(p)
        # every per-level vector ends at the window's top level n_max
        n_max = table.window.n_max
        assert len(table.phi) == len(table.d) == len(table.b) == len(table.c) == n_max + 1
        for n in range(n_max + 1):
            d, b = branch_coefficients(n, p)
            expected = [phi(n, p), float(d), float(b)]
            got = [float(table.phi[n]), float(table.d[n]), float(table.b[n])]
            assert [x.hex() for x in got] == [x.hex() for x in expected]
        assert len(table.c2) == n_max + 1 and len(table.pair) == n_max
        for k in range(1, n_max + 1):
            assert table.c[k].hex() == coherent_coefficient(k, p.qa).hex()
            assert table.c2[k].hex() == math.exp(_log_weight_sq(k, p.qa)).hex()
        for n in range(n_max):
            assert table.pair[n].hex() == math.exp(_pair_log_weight(n, p.qa)).hex()

    @pytest.mark.parametrize("name", ["SET1", "SET2"])
    def test_window_instance_survives_many_other_windows(self, name):
        # a cached table keeps the instance that truncation_window returns,
        # however many other windows were requested since it was built
        p = LEVEL_SETS[name]
        levels(p)
        for qa in np.linspace(1.0, 24.0, 300).tolist():
            truncation_window(ModelParams(lambda_over_a=0.1, qa=qa, trunc_tol=1e-7))
        assert levels(p).window is truncation_window(p)

    def test_arrays_read_only(self):
        table = levels(LEVEL_SETS["SET1"])
        for a in (table.phi, table.d, table.b):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert all(isinstance(w, tuple) for w in (table.c, table.c2, table.pair))

    def test_shared_by_packets_differing_in_weights(self):
        a = ModelParams(lambda_over_a=0.1, qa=5.0, alpha=1.0, beta=1.0)
        b = ModelParams(lambda_over_a=0.1, qa=5.0, alpha=0.5, beta=-2.0)
        assert levels(a) is levels(b)
        assert levels(ModelParams(lambda_over_a=0.2, qa=5.0)) is not levels(a)
        assert levels(ModelParams(lambda_over_a=0.1, qa=5.0, trunc_tol=1e-6)) is not levels(a)


class TestModeSets:
    # sha256 of repr of each kind's entries, recorded before the projected
    # cat kinds, the table's level above the window and the entry sort went
    ENTRY_DIGESTS = {
        ("SET1", "positive_only"): "05a49771b5e4ac655fdedf8b243e3cafda14611715a3c6b1629cc832b5ab9545",
        ("SET1", "two_band"): "91ab18c0c4aebd33b6559b2e5bce19c8cfdca7ffe48a28d1ef447b475fb47be2",
        ("SET2", "positive_only"): "1a0aa3568da73b7fcaceb8c86f69f5ea5dd9511c63b72d90cec4b658499d3c42",
        ("SET2", "two_band"): "bed822bf6aff8e122f5c635cd3a97a3055e97b47440bb65efaab61f234d67ad4",
        ("qa1", "positive_only"): "4a8e47b5558f29aeff12a7c7d00138ad26f93d3248941e07739b02d99565f1f9",
        ("qa1", "two_band"): "7f536032f8a983bc8f1241d273c92c003b0524fa2801115eb583f84ce523938f",
    }

    @pytest.mark.parametrize("kind", MODE_SET_KINDS)
    @pytest.mark.parametrize("name", LEVEL_SETS)
    def test_entries_pinned(self, name, kind):
        text = repr(build_mode_set(kind, LEVEL_SETS[name]).entries)
        assert hashlib.sha256(text.encode()).hexdigest() == self.ENTRY_DIGESTS[name, kind]

    @pytest.mark.parametrize("kind", MODE_SET_KINDS)
    def test_normalized(self, kind):
        p = ModelParams(lambda_over_a=0.5, qa=10.0)
        ms = build_mode_set(kind, p)
        assert float_kahan_sum(abs(a) ** 2 for _, a in ms.entries) == pytest.approx(1.0, abs=1e-9)

    @given(
        qa=st.floats(min_value=1.0, max_value=40.0),
        lam=st.floats(min_value=0.01, max_value=1.0),
        weights=st.sampled_from([(1.0, 1.0), (1.3, 0.7), (1.0, 0.0), (0.0, 1.0)]),
        tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
    )
    @settings(max_examples=60, deadline=None)
    def test_entries_sorted_by_level(self, qa, lam, weights, tol):
        # the order mode_sum_field requires, with no sort after the build
        p = ModelParams(lambda_over_a=lam, qa=qa, alpha=weights[0], beta=weights[1], trunc_tol=tol)
        for kind in MODE_SET_KINDS:
            ms = build_mode_set(kind, p)
            keys = [(idx.n, -idx.s, -idx.lambda_k) for idx, _ in ms.entries]
            assert keys == sorted(set(keys))
            assert ms.n_max == keys[-1][0]

    def test_positive_only_band_content(self):
        p = ModelParams(lambda_over_a=0.1, qa=5.0)
        ms = build_mode_set("positive_only", p)
        assert all(idx.s == +1 for idx, _ in ms.entries)

    def test_single_subspace_weights(self):
        # beta = 0 keeps only the lambda_k = +1 branch
        p = ModelParams(lambda_over_a=0.1, qa=5.0, alpha=1.0, beta=0.0)
        ms = build_mode_set("positive_only", p)
        assert all(idx.lambda_k == +1 for idx, _ in ms.entries)
        assert float_kahan_sum(abs(a) ** 2 for _, a in ms.entries) == pytest.approx(1.0, abs=1e-9)

    def test_unknown_kind_rejected(self):
        p = ModelParams(lambda_over_a=0.1, qa=5.0)
        with pytest.raises(ValueError):
            build_mode_set("negative_only", p)


class TestKahanSum:
    def test_small_terms_on_large_base(self):
        # a naive sum loses all the unit terms against the 1e16 base
        terms = [1e16] + [1.0] * 1000 + [-1e16]
        assert float_kahan_sum(terms) == math.fsum(terms) == 1000.0
        assert sum(terms) != 1000.0

    def test_accumulated_rounding(self):
        terms = [0.1] * 10000
        assert float_kahan_sum(terms) == math.fsum(terms)

    def test_array_terms(self):
        acc = KahanAccumulator(np.zeros(2))
        for x in [np.array([0.1, 0.3])] * 10000:
            acc.add(x)
        expected = [math.fsum([0.1] * 10000), math.fsum([0.3] * 10000)]
        np.testing.assert_allclose(acc.total, expected, rtol=0, atol=0)


def _kahan_reference(terms, like):
    """The out-of-place four-op compensated sum, term by term."""
    s = np.zeros_like(like)
    c = np.zeros_like(like)
    for x in terms:
        y = x - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


class TestKahanAccumulator:
    @staticmethod
    def _ill_conditioned_terms(shape):
        # big, tiny and cancelling complex terms in both parts, with a sign
        # pattern that varies over the array
        rng = np.random.default_rng(7)
        sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        terms = []
        for j in range(300):
            scale = (1e16, 1.0, 1e-9, -1e16, 3.7e-3)[j % 5]
            re = scale * (1.0 + rng.random(shape)) * sign
            im = scale * (1.0 - rng.random(shape)) * sign[::-1]
            terms.append(re + 1j * im)
        return terms

    @pytest.mark.parametrize("shape", [(7,), (5, 6), (2, 3, 4)])
    def test_in_place_array_add_keeps_every_bit(self, shape):
        terms = self._ill_conditioned_terms(shape)
        acc = KahanAccumulator(np.zeros(shape, dtype=complex))
        for x in terms:
            acc.add(x)
        reference = _kahan_reference(terms, np.zeros(shape, dtype=complex))
        assert acc.total.tobytes() == reference.tobytes()
        naive = np.sum(terms, axis=0)
        assert naive.tobytes() != reference.tobytes()  # the sequence is ill-conditioned

    def test_real_array_and_broadcast_terms(self):
        terms = [np.array([1e16, -1e16, 0.1]), 1.0, np.array([-1e16, 1e16, 0.2]), 1e-3]
        acc = KahanAccumulator(np.zeros(3))
        for x in terms:
            acc.add(x)
        assert acc.total.tobytes() == _kahan_reference(terms, np.zeros(3)).tobytes()

    def test_terms_are_left_unchanged(self):
        terms = self._ill_conditioned_terms((4,))
        copies = [t.copy() for t in terms]
        acc = KahanAccumulator(terms[0])
        for x in terms:
            acc.add(x)
        assert all(np.array_equal(t, c) for t, c in zip(terms, copies, strict=True))

    def test_scalar_sums_keep_values_and_types(self, set2):
        floats = [0.1] * 1000 + [1e16, 1.0, -1e16]
        total = float_kahan_sum(floats)
        assert type(total) is float
        assert total == _kahan_reference(floats, np.float64(0.0))
        acc = KahanAccumulator(0.0)
        for x in floats:
            acc.add(x)
        assert type(acc.total) is np.float64
        assert acc.total == total
        # the two-band S_z plateau is a 0-d compensated sum
        table = levels(set2)
        win, p, c = table.window, table.phi, table.c
        terms = [c[n] ** 2 / p[n] ** 2 for n in range(win.n_min, win.n_max + 1)]
        plateau = spin_z_plateau_jc(set2)
        assert type(plateau) is float
        assert plateau == float(_kahan_reference(terms, np.float64(0.0)))

    @pytest.mark.parametrize("sequence", ["set1", "set2", "ill_conditioned"])
    def test_float_sum_keeps_every_bit_of_a_0d_accumulator(self, request, sequence):
        if sequence == "ill_conditioned":
            terms = [float(t.real[0]) for t in self._ill_conditioned_terms((1,))]
            assert math.fsum(terms) != sum(terms)
            total = float_kahan_sum(terms)
        else:
            # the two-band S_z plateau, as the 0-d accumulator once summed it
            params = request.getfixturevalue(sequence)
            table = levels(params)
            win, p, c = table.window, table.phi, table.c
            terms = [c[n] ** 2 / p[n] ** 2 for n in range(win.n_min, win.n_max + 1)]
            total = spin_z_plateau_jc(params)
            assert total.hex() == float_kahan_sum(float(x) for x in terms).hex()
        acc = KahanAccumulator(0.0)
        for x in terms:
            acc.add(x)
        assert type(total) is float
        assert total.hex() == float(acc.total).hex()

    def test_shared_scratch_keeps_every_bit(self):
        # four sums fed interleaved through one scratch buffer, as the oracle's
        # block sums are: each term is written into the scratch, and its add
        # then overwrites it
        shape = (3, 5)
        terms = self._ill_conditioned_terms(shape)
        sequences = [terms[j::4] for j in range(4)]
        scratch = np.empty(shape, dtype=complex)
        shared = [KahanAccumulator(scratch, _scratch=scratch) for _ in range(4)]
        own = [KahanAccumulator(np.zeros(shape, dtype=complex)) for _ in range(4)]
        for step in zip(*sequences, strict=True):
            for x, a, b in zip(step, shared, own, strict=True):
                np.copyto(scratch, x)
                a.add(scratch)
                b.add(x)
        for seq, a, b in zip(sequences, shared, own, strict=True):
            reference = _kahan_reference(seq, np.zeros(shape, dtype=complex))
            assert a.total.tobytes() == b.total.tobytes() == reference.tobytes()
            assert np.sum(seq, axis=0).tobytes() != reference.tobytes()
            assert not np.shares_memory(a.total, scratch)

    def test_accumulators_never_share_a_buffer(self):
        like = np.zeros((3, 4), dtype=complex)
        a, b = KahanAccumulator(like), KahanAccumulator(like)
        for j in range(5):
            a.add(np.full(like.shape, 1e16 + j))
            b.add(np.full(like.shape, -1.0 - 1j))
            buffers = [a._s, a._c, a._y, b._s, b._c, b._y, like]
            for i, u in enumerate(buffers):
                for v in buffers[i + 1:]:
                    assert not np.shares_memory(u, v)
        assert np.all(like == 0)
        assert np.all(b.total == -5.0 - 5j)
        assert np.all(a.total == 5e16 + 10)


def _block_inputs(kind: str, n: int, m: int, points: int) -> tuple[np.ndarray, ...]:
    """Two inputs of one kind whose broadcast sum numbers the points in order."""
    rows = np.arange(n, dtype=float)[:, None] * m
    if kind == "0-d":
        return np.array(2.0), np.array(3.0)
    if kind == "1-D":
        return np.arange(n, dtype=float), np.array(0.0)
    if kind == "wide row":  # one row holds more points than a block may
        m = points + m
        rows = np.arange(n, dtype=float)[:, None] * m
    cols = np.arange(m, dtype=float)[None, :]
    if kind == "mesh":
        return tuple(a.copy() for a in np.broadcast_arrays(rows, cols))
    return rows, cols


class TestRowBlocks:
    """``block_sums`` cuts the leading axis into runs of rows, in order."""

    @given(
        kind=st.sampled_from(["0-d", "1-D", "axes", "mesh", "wide row"]),
        n=st.integers(min_value=0, max_value=30),
        m=st.integers(min_value=1, max_value=30),
        points=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=200, deadline=None)
    def test_blocks_cover_every_point_once_in_order(self, kind, n, m, points):
        arrays = _block_inputs(kind, n, m, points)
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
        totals = np.full((2,) + shape, np.nan, dtype=complex)
        seen, freed = [], []

        def add_terms(term, sums, *views):
            # the previous block's term buffer and sums are gone
            assert all(ref() is None for ref in freed)
            block = np.add(*views)
            assert term.shape == block.shape and len(sums) == 2
            assert all(acc._y is term for acc in sums)
            assert block.size <= points or block.shape[0] == 1
            for view, a in zip(views, arrays, strict=True):
                # an input that does not span the leading axis stays whole, and broadcast
                spans = a.ndim == len(shape) > 0 and a.shape[0] != 1
                assert view.shape == ((block.shape[0],) + a.shape[1:] if spans else a.shape)
            seen.extend(block.ravel().tolist())
            np.copyto(term, block)
            sums[0].add(term)
            term.fill(1.0)
            sums[1].add(term)
            freed[:] = [weakref.ref(b) for b in (term, *sums)]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dirac_cyclotron.basis, "_BLOCK_POINTS", points)
            block_sums(totals, add_terms, *arrays)
        if kind == "0-d":
            assert seen == [5.0]
        else:
            assert seen == list(range(math.prod(shape)))
        # each block's totals land on its own points
        assert totals[0].tobytes() == np.add(*arrays).astype(complex).tobytes()
        assert np.all(totals[1] == 1.0)

    @given(size=st.integers(min_value=0, max_value=3000), n_tau=st.integers(min_value=1, max_value=20000))
    @settings(max_examples=100, deadline=None)
    def test_oracle_blocks_keep_their_point_ranges(self, size, n_tau):
        # mode_sum_field's call: a (point, tau) view of its output and (P, 1)
        # point columns, in runs of _BLOCK_POINTS // n_tau points (at least one)
        out = np.lib.stride_tricks.as_strided(
            np.empty(1, dtype=complex), (n_tau, 1, size), (0, 0, 0), writeable=True)
        x = np.arange(size, dtype=float)[:, None]
        got = []

        def add_terms(term, sums, xb):
            assert term.shape == (len(xb), n_tau)
            got.append((int(xb[0, 0]), len(xb)))

        block_sums(out.transpose(1, 2, 0), add_terms, x)
        points = max(1, _BLOCK_POINTS // n_tau)
        assert got == [(s, min(points, size - s)) for s in range(0, size, points)]
