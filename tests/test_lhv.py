"""Local deterministic strategies: evaluation, exhaustive bounds, witnesses."""

import dataclasses
import math
import re
from functools import cache
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hyperbell import bell, lhv, model
from hyperbell.lhv import FACTORIZABLE, UNRESTRICTED, LhvStrategy
from reference import NOT_OPERATORS, setting_labels, term_settings, traced_peak

U_TOKENS_N2 = ("A_pi", "a_pi", "A_k", "a_k")
D_CONTEXTS_N2 = ("B_pi B_k", "B_pi b_k", "b_pi B_k", "b_pi b_k")


def _index(vals) -> int:
    """The assignment index of +-1 values, slot 0 the most significant bit,
    bit 0 meaning +1, read as a binary numeral."""
    return int("".join("1" if v == -1 else "0" for v in vals), 2)


def _index_values(index: int, n_slots: int) -> list:
    """The +-1 values of an assignment index, slot 0 first."""
    return [-1 if bit == "1" else 1 for bit in format(index, f"0{n_slots}b")]


def _strategy(cls, u_vals, d_vals):
    return LhvStrategy(cls, _index(u_vals), _index(d_vals))


def _n_slots(cls, n):
    return 2 * n if cls == FACTORIZABLE else 2**n


class TestEvaluateStrategy:
    def test_chsh_all_plus_one(self):
        """Direct substitution into the sign pattern (-,+,+,+): -1+1+1+1 = 2."""
        op = bell.canonical_product(1)
        assert lhv.evaluate_strategy(op, LhvStrategy(FACTORIZABLE, 0, 0)) == 2

    def test_product_all_plus_one_is_sign_sum(self):
        """With every outcome +1 the value is the sum of the 16 term signs,
        (-1+1+1+1) * (1-1+1+1) = 4."""
        op = bell.canonical_product(2)
        assert sum(op.term_signs) == 4
        assert lhv.evaluate_strategy(op, LhvStrategy(FACTORIZABLE, 0, 0)) == 4

    def test_unrestricted_all_plus_one_matches(self):
        op = bell.canonical_product(2)
        assert lhv.evaluate_strategy(op, LhvStrategy(UNRESTRICTED, 0, 0)) == 4

    def test_every_chsh_strategy_gives_plus_minus_two(self):
        """Exhaustive check over all 16 factorizable CHSH strategies."""
        op = bell.canonical_product(1)
        seen = {lhv.evaluate_strategy(op, LhvStrategy(FACTORIZABLE, ui, di))
                for ui in range(4) for di in range(4)}
        assert seen == {-2, 2}

    @pytest.mark.parametrize("photon", model.PHOTONS)
    @pytest.mark.parametrize("cls", [FACTORIZABLE, UNRESTRICTED])
    @pytest.mark.parametrize("bad", ["bool", "float", "numpy bool", "-1", "2^slots", "str"])
    def test_bad_index_rejected_naming_the_photon(self, photon, cls, bad):
        """An assignment index must be an integer in [0, 2^slots - 1]: True
        and 1.0 equal 1, so a check by value alone would let both through."""
        op = bell.canonical_product(2)
        top = 2 ** _n_slots(cls, 2) - 1
        value, why = {
            "bool": (True, "be an integer (got True)"),
            "float": (1.0, "be an integer (got 1.0)"),
            "numpy bool": (np.True_, f"be an integer (got {np.True_!r})"),
            "-1": (-1, f"be in [0, {top}] (got -1)"),
            "2^slots": (top + 1, f"be in [0, {top}] (got {top + 1})"),
            "str": ("0", "be an integer (got '0')"),
        }[bad]
        witness = lhv.max_bound(op, cls).witness
        strategy = dataclasses.replace(witness, **{f"{photon}_index": value})
        message = f"the assignment index of photon {photon} must {why}"
        with pytest.raises(ValueError, match=re.escape(message)):
            lhv.evaluate_strategy(op, strategy)
        with pytest.raises(ValueError, match=re.escape(message)):
            lhv.witness_sides(op, strategy)

    @pytest.mark.parametrize("cls", [FACTORIZABLE, UNRESTRICTED])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.int32])
    def test_numpy_integer_index_accepted(self, cls, dtype):
        op = bell.canonical_product(2)
        res = lhv.max_bound(op, cls)
        strategy = LhvStrategy(cls, dtype(res.witness.u_index), dtype(res.witness.d_index))
        assert lhv.evaluate_strategy(op, strategy) == res.bound
        assert lhv.witness_sides(op, strategy) == lhv.witness_sides(op, res.witness)

    def test_witness_sides_pair_tokens_with_index_bits(self):
        """Slot or context 0 is the most significant bit, and bit 0 means +1."""
        op = bell.canonical_product(2)
        u_side, _ = lhv.witness_sides(op, LhvStrategy(FACTORIZABLE, 0b0110, 0))
        assert u_side == tuple(zip(U_TOKENS_N2, (1, -1, -1, 1)))
        _, d_side = lhv.witness_sides(op, LhvStrategy(UNRESTRICTED, 0, 0b1000))
        assert d_side == tuple(zip(D_CONTEXTS_N2, (-1, 1, 1, 1)))

    @pytest.mark.parametrize("cls", [FACTORIZABLE, UNRESTRICTED])
    def test_unknown_class_rejected(self, cls):
        """It was read as unrestricted, or refused for a missing context token."""
        op = bell.canonical_product(2)
        strategy = dataclasses.replace(lhv.max_bound(op, cls).witness, strategy_class="contextual")
        with pytest.raises(ValueError, match="unknown strategy class 'contextual'"):
            lhv.evaluate_strategy(op, strategy)
        with pytest.raises(ValueError, match="unknown strategy class 'contextual'"):
            lhv.witness_sides(op, strategy)

    def test_strategy_that_is_no_lhv_strategy_rejected(self):
        """It escaped as an AttributeError on ``strategy_class``."""
        with pytest.raises(ValueError, match="must be an LhvStrategy, got dict"):
            lhv.evaluate_strategy(bell.canonical_product(1), {"A_pi": 1})

    @pytest.mark.parametrize("type_name", sorted(NOT_OPERATORS))
    def test_operator_that_is_no_bell_operator_rejected(self, type_name):
        """It escaped as an AttributeError on ``kinds``; it is named before the
        strategy's class is read."""
        op = bell.canonical_product(2)
        witness = lhv.max_bound(op, FACTORIZABLE).witness
        message = f"the operator must be a BellOperator, got {type_name}"
        for strategy in (witness, dataclasses.replace(witness, strategy_class="contextual")):
            with pytest.raises(ValueError, match=re.escape(message)):
                lhv.evaluate_strategy(NOT_OPERATORS[type_name](op), strategy)
            with pytest.raises(ValueError, match=re.escape(message)):
                lhv.witness_sides(NOT_OPERATORS[type_name](op), strategy)


class TestSignSymmetry:
    def test_unrestricted_full_side_flip_negates(self):
        op = bell.canonical_product(2)
        rng = np.random.default_rng(2)
        for _ in range(20):
            u_vals = rng.choice([1, -1], size=4)
            d_vals = rng.choice([1, -1], size=4)
            s = _strategy(UNRESTRICTED, u_vals, d_vals)
            flipped = _strategy(UNRESTRICTED, -u_vals, d_vals)
            assert lhv.evaluate_strategy(op, flipped) == -lhv.evaluate_strategy(op, s)

    def test_factorizable_single_dof_flip_negates(self):
        """Flipping one degree of freedom's two values on one side negates the
        value; flipping the whole side (an even number of per-context flips
        at N=2) leaves it unchanged."""
        op = bell.canonical_product(2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            u_vals = rng.choice([1, -1], size=4)
            d_vals = rng.choice([1, -1], size=4)
            base = lhv.evaluate_strategy(op, _strategy(FACTORIZABLE, u_vals, d_vals))
            pol_flip = u_vals * np.array([-1, -1, 1, 1])
            assert lhv.evaluate_strategy(op, _strategy(FACTORIZABLE, pol_flip, d_vals)) == -base
            assert lhv.evaluate_strategy(op, _strategy(FACTORIZABLE, -u_vals, d_vals)) == base

    def test_pinned_search_equals_full_search(self):
        """Pinning the first u value to +1 halves the search without changing
        the maximum of |value| (N <= 2)."""
        for n, cls in ((1, FACTORIZABLE), (2, FACTORIZABLE), (2, UNRESTRICTED)):
            op = bell.canonical_product(n)
            full = []
            pinned = []
            for u_vals in product((1, -1), repeat=_n_slots(cls, n)):
                for d_vals in product((1, -1), repeat=_n_slots(cls, n)):
                    v = abs(lhv.evaluate_strategy(op, _strategy(cls, u_vals, d_vals)))
                    full.append(v)
                    if u_vals[0] == 1:
                        pinned.append(v)
            assert max(full) == max(pinned) == lhv.max_bound(op, cls).bound


class TestMaxBound:
    def test_chsh_factorizable_bound(self):
        res = lhv.max_bound(bell.canonical_product(1), FACTORIZABLE)
        assert res.bound == 2
        assert res.strategies_evaluated == 16

    def test_product_factorizable_bound(self):
        res = lhv.max_bound(bell.canonical_product(2), FACTORIZABLE)
        assert res.bound == 4
        assert res.strategies_evaluated == 256

    def test_three_dof_factorizable_bound(self):
        res = lhv.max_bound(bell.canonical_product(3), FACTORIZABLE)
        assert res.bound == 8
        assert res.strategies_evaluated == 64 * 64

    def test_four_dof_factorizable_bound(self):
        res = lhv.max_bound(bell.canonical_product(4), FACTORIZABLE)
        assert res.bound == 16
        assert res.strategies_evaluated == 256 * 256

    def test_product_unrestricted_bound_equals_quantum_value(self):
        """Without the factorization assumption the bound climbs to the
        quantum value 8 and the violation disappears."""
        op = bell.canonical_product(2)
        res = lhv.max_bound(op, UNRESTRICTED)
        assert res.bound == 8
        quantum = abs(bell.quantum_value(op, bell.ideal_state(2)))
        assert abs(quantum - res.bound) < 1e-10

    def test_unrestricted_bound_against_direct_enumeration(self):
        """Independent oracle: brute-force the full 16 x 16 value matrix."""
        op = bell.canonical_product(2)
        best = 0
        for u_vals in product((1, -1), repeat=4):
            for d_vals in product((1, -1), repeat=4):
                s = _strategy(UNRESTRICTED, u_vals, d_vals)
                best = max(best, abs(lhv.evaluate_strategy(op, s)))
        assert best == lhv.max_bound(op, UNRESTRICTED).bound == 8

    @pytest.mark.parametrize(
        "cls,op_builder",
        [
            (FACTORIZABLE, lambda: bell.canonical_product(1)),
            (FACTORIZABLE, lambda: bell.canonical_product(2)),
            (FACTORIZABLE, lambda: bell.canonical_product(3)),
            pytest.param(
                FACTORIZABLE, lambda: bell.canonical_product(4), id="factorizable-dof4"
            ),
            (UNRESTRICTED, lambda: bell.canonical_product(2)),
            *(
                pytest.param(
                    UNRESTRICTED, lambda n=n: bell.canonical_product(n), id=f"unrestricted-dof{n}"
                )
                for n in (1, 3, 4)
            ),
        ],
    )
    def test_witness_replays_to_bound(self, cls, op_builder):
        op = op_builder()
        res = lhv.max_bound(op, cls)
        assert lhv.evaluate_strategy(op, res.witness) == res.bound

    @pytest.mark.parametrize(
        "n,bound,pairs", [(1, 2, 2**4), (2, 8, 2**8), (3, 20, 2**16), (4, 64, 2**32)]
    )
    def test_unrestricted_bound_per_dof(self, n, bound, pairs):
        res = lhv.max_bound(bell.canonical_product(n), UNRESTRICTED)
        assert (res.bound, res.strategies_evaluated) == (bound, pairs)

    def test_class_containment(self):
        for n in (1, 2, 3, 4):
            op = bell.canonical_product(n)
            assert (
                lhv.max_bound(op, FACTORIZABLE).bound
                <= lhv.max_bound(op, UNRESTRICTED).bound
            )

    def test_deterministic_witness(self):
        op = bell.canonical_product(2)
        first = lhv.max_bound(op, FACTORIZABLE)
        second = lhv.max_bound(op, FACTORIZABLE)
        assert first.witness == second.witness
        assert first.bound == second.bound

    def test_guard_refuses_oversized_search(self, monkeypatch):
        monkeypatch.setattr(lhv, "MAX_STRATEGY_PAIRS", 10)
        op = bell.canonical_product(2)
        with pytest.raises(lhv.EnumerationGuardError) as err:
            lhv.max_bound(op, FACTORIZABLE)
        assert err.value.count == 256
        assert "256" in str(err.value)

    def test_factorizable_guard_refuses_before_building_side_table(self, monkeypatch):
        def refuse(_t):
            raise AssertionError("side table built before the guard check")

        lhv._search.cache_clear()  # else the guard is tested against a cache hit
        monkeypatch.setattr(lhv, "_factorizable_search", refuse)
        monkeypatch.setattr(lhv, "MAX_STRATEGY_PAIRS", 10)
        with pytest.raises(lhv.EnumerationGuardError) as err:
            lhv.max_bound(bell.canonical_product(2), FACTORIZABLE)
        assert err.value.count == 256

    def test_unrestricted_memory_is_small(self):
        op = bell.canonical_product(4)
        lhv._search.cache_clear()  # measure the search, not a cache hit
        peak, error = traced_peak(lambda: lhv.max_bound(op, UNRESTRICTED))
        assert error is None and peak < 4 * 2**20

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="strategy class"):
            lhv.max_bound(bell.canonical_product(1), "nonlocal")

    @pytest.mark.parametrize("type_name", sorted(NOT_OPERATORS))
    def test_operator_that_is_no_bell_operator_rejected(self, type_name, monkeypatch):
        """It escaped as an AttributeError on ``dof_count``; it is named before
        the class check and before the guard."""
        bad = NOT_OPERATORS[type_name](bell.canonical_product(2))
        message = f"the operator must be a BellOperator, got {type_name}"
        monkeypatch.setattr(lhv, "MAX_STRATEGY_PAIRS", 0)
        for cls in (FACTORIZABLE, "nonlocal"):
            with pytest.raises(ValueError, match=re.escape(message)):
                lhv.max_bound(bad, cls)

    @pytest.mark.parametrize(
        "cls,search", [(FACTORIZABLE, "_factorizable_search"), (UNRESTRICTED, "_unrestricted_search")]
    )
    def test_search_and_replay_run_once(self, cls, search, monkeypatch):
        """The search and the replay of its witness run once per (kinds,
        class), also for an operator that is not the shared one, and every
        call's witness holds the cached indices."""
        searches, replays = [], []
        run_search, replay = getattr(lhv, search), lhv.evaluate_strategy
        monkeypatch.setattr(lhv, search, lambda t: searches.append(t) or run_search(t))
        monkeypatch.setattr(
            lhv, "evaluate_strategy", lambda op, s: replays.append(s) or replay(op, s)
        )
        lhv._search.cache_clear()
        op = bell.canonical_product(3)
        first = lhv.max_bound(op, cls)
        second = lhv.max_bound(op, cls)
        third = lhv.max_bound(bell.BellOperator(kinds=op.kinds), cls)
        assert first == second == third
        assert lhv._search(op.kinds, cls) == (
            first.bound, first.witness.u_index, first.witness.d_index
        )
        assert (len(searches), len(replays)) == (1, 1)

    def test_guard_refuses_with_the_search_cached(self, monkeypatch):
        op = bell.canonical_product(2)
        lhv.max_bound(op, FACTORIZABLE)
        monkeypatch.setattr(lhv, "MAX_STRATEGY_PAIRS", 10)
        with pytest.raises(lhv.EnumerationGuardError) as err:
            lhv.max_bound(op, FACTORIZABLE)
        assert err.value.count == 256

    @pytest.mark.parametrize("cls", [FACTORIZABLE, UNRESTRICTED])
    def test_witness_is_frozen_cached_ints(self, cls):
        """The witness is the cached Python ints and cannot be changed, so no
        caller reaches what the next call returns."""
        op = bell.canonical_product(2)
        first = lhv.max_bound(op, cls)
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.witness.u_index = 0
        cached = lhv._search(op.kinds, cls)
        assert cached == (first.bound, first.witness.u_index, first.witness.d_index)
        assert [type(x) for x in cached] == [int, int, int]
        assert lhv.max_bound(op, cls) == first
        assert lhv.evaluate_strategy(op, first.witness) == first.bound

    @pytest.mark.parametrize("n", range(1, bell.MAX_DOF + 1))
    @pytest.mark.parametrize("cls", [FACTORIZABLE, UNRESTRICTED])
    @pytest.mark.parametrize("wrong", ["bound", "witness"])
    def test_wrong_cached_search_is_caught(self, n, cls, wrong, monkeypatch):
        """The replay reads tables of its own, so a search that reports a
        bound 2 too high, or a witness whose u side is negated (factor 0's
        pair flipped, or every context), fails the call; nothing is cached,
        so a second call searches again and fails too."""
        run_search = lhv._factorizable_search if cls == FACTORIZABLE else lhv._unrestricted_search
        searches = []

        def wrong_search(t):
            bound, ui, di = run_search(t)
            searches.append(t)
            if wrong == "bound":
                return bound + 2, ui, di
            flip = 0b11 << (2 * n - 2) if cls == FACTORIZABLE else 2 ** (2**n) - 1
            return bound, ui ^ flip, di

        monkeypatch.setattr(lhv, run_search.__name__, wrong_search)
        lhv._search.cache_clear()
        op = bell.canonical_product(n)
        for calls in (1, 2):
            with pytest.raises(AssertionError, match="does not reproduce the bound"):
                lhv.max_bound(op, cls)
            assert (len(searches), lhv._search.cache_info().currsize) == (calls, 0)

    @pytest.mark.parametrize("cls,tokens", [(FACTORIZABLE, 2 * 4), (UNRESTRICTED, 2**4)])
    def test_side_tokens_built_once_per_labels(self, cls, tokens, monkeypatch):
        """max_bound labels no token, even on cold caches; the first printed
        witness labels each side's tokens once, a second print none."""
        calls, side_label = [], model.side_label

        def counting(names, labels):
            calls.append(names)
            return side_label(names, labels)

        lhv._side_tokens.cache_clear()
        lhv._search.cache_clear()
        monkeypatch.setattr(model, "side_label", counting)
        op = bell.canonical_product(4)
        first = lhv.max_bound(op, cls)
        assert calls == []
        printed = lhv.witness_sides(op, first.witness)
        assert len(calls) == 2 * tokens
        assert lhv.witness_sides(op, first.witness) == printed
        assert len(calls) == 2 * tokens


_BOUNDS = {FACTORIZABLE: (2, 4, 8, 16), UNRESTRICTED: (2, 8, 20, 64)}  # at N = 1..4


@pytest.mark.parametrize("cls", [FACTORIZABLE, UNRESTRICTED])
@pytest.mark.parametrize(
    "kinds",
    [
        pytest.param(kinds, id="-".join(kinds))
        for n in range(1, bell.MAX_DOF + 1)
        for kinds in product(model.KINDS, repeat=n)
    ],
)
def test_every_kinds_tuple_replays_its_witness(kinds, cls):
    """At each of the 30 kinds tuples the bound is the canonical one of its N
    and class, over the whole search; the printed witness pairs the reference
    tokens (slot or context order) with the index bits, and replays to the
    bound in both replays."""
    op = bell.BellOperator(kinds=kinds)
    res = lhv.max_bound(op, cls)
    n = len(kinds)
    n_side = 4**n if cls == FACTORIZABLE else 2 ** (2**n)
    assert (res.bound, res.strategies_evaluated) == (_BOUNDS[cls][n - 1], n_side**2)
    sides = []
    printed = lhv.witness_sides(op, res.witness)
    for photon, index, pairs in zip(
        model.PHOTONS, (res.witness.u_index, res.witness.d_index), printed
    ):
        assert [token for token, _ in pairs] == _reference_tokens(kinds, cls, photon)
        assert [value for _, value in pairs] == _index_values(index, _n_slots(cls, n))
        sides.append(dict(pairs))
    assert lhv.evaluate_strategy(op, res.witness) == res.bound
    assert _reference_evaluate(op, cls, *sides) == res.bound


def _reference_tokens(kinds, cls, photon):
    """A side's tokens read off the string term table: its contexts in term
    order, or each factor's two observable tokens, factor 0 first."""
    contexts = [setting_labels(kinds, s)[photon == model.PHOTON_D] for s in term_settings(kinds)]
    if cls == FACTORIZABLE:
        contexts = [c.split()[f] for f in range(len(kinds)) for c in contexts]
    return list(dict.fromkeys(contexts))


def _reference_unrestricted(t):
    """Full search: every u assignment's weight row u^T t, no symmetry used."""
    weights = lhv._assignment_values(t.shape[0]) @ t
    row_best = np.abs(weights).sum(axis=1)
    ui = int(np.argmax(row_best))
    return int(row_best[ui]), ui, lhv._min_matching_sign_index(weights[ui])


_CHSH = {
    "pi": lambda: bell.canonical_product(1),
    "k": lambda: bell.canonical_product(2).factors[1],
}


@st.composite
def _sign_tables(draw):
    n_ctx = draw(st.integers(1, 16))
    return draw(arrays(np.int64, (n_ctx, n_ctx), elements=st.integers(-1, 1)))


class TestUnrestrictedSearch:
    """The split-half search returns the full search's (bound, u index, d index)."""

    @pytest.mark.parametrize(
        "kinds",
        [
            pytest.param(kinds, id="-".join(kinds))
            for n in range(1, bell.MAX_DOF + 1)
            for kinds in product(_CHSH, repeat=n)
        ],
    )
    def test_matches_full_search_on_products(self, kinds):
        op = bell.build_beta_product([_CHSH[k]() for k in kinds])
        assert lhv._unrestricted_search(op.signs) == _reference_unrestricted(op.signs)

    @settings(max_examples=300, deadline=None)
    @given(_sign_tables())
    @example(np.zeros((1, 1), dtype=np.int64))
    @example(np.zeros((16, 16), dtype=np.int64))
    @example(np.eye(3, dtype=np.int64))
    @example(np.ones((5, 5), dtype=np.int64))
    def test_matches_full_search_on_tables(self, t):
        assert lhv._unrestricted_search(t) == _reference_unrestricted(t)


@cache
def _reference_side(n):
    """Context values of every factorizable side assignment, int64, by loops:
    row = assignment (slot 2f + 1 is factor f's alternate name, slot 0 most
    significant, bit 0 = +1), column = context (factor 0 most significant)."""
    contexts = list(product((0, 1), repeat=n))
    return np.array([
        [math.prod(slots[2 * f + alt] for f, alt in enumerate(ctx)) for ctx in contexts]
        for slots in product((1, -1), repeat=2 * n)
    ], dtype=np.int64)


def _reference_factorizable(t):
    """The int64 search, which numpy runs without BLAS."""
    side = _reference_side(t.shape[0].bit_length() - 1)
    values = side @ t @ side.T
    ui, di = np.unravel_index(int(np.argmax(values)), values.shape)
    return int(values[ui, di]), int(ui), int(di)


@st.composite
def _square_sign_tables(draw):
    side = 2 ** draw(st.integers(1, bell.MAX_DOF))
    return draw(arrays(np.int64, (side, side), elements=st.integers(-1, 1)))


class TestFactorizableSearch:
    """The float64 BLAS search returns the int64 search's (bound, u index, d index)."""

    @pytest.mark.parametrize(
        "kinds",
        [
            pytest.param(kinds, id="-".join(kinds))
            for n in range(1, bell.MAX_DOF + 1)
            for kinds in product(_CHSH, repeat=n)
        ],
    )
    def test_matches_integer_search_on_products(self, kinds):
        op = bell.build_beta_product([_CHSH[k]() for k in kinds])
        assert lhv._factorizable_search(op.signs) == _reference_factorizable(op.signs)

    @settings(max_examples=200, deadline=None)
    @given(_square_sign_tables())
    @example(np.zeros((2, 2), dtype=np.int64))
    @example(np.ones((16, 16), dtype=np.int64))
    @example(-np.ones((16, 16), dtype=np.int64))
    @example(np.eye(8, dtype=np.int64))
    def test_matches_integer_search_on_tables(self, t):
        result = lhv._factorizable_search(t)
        assert result == _reference_factorizable(t)
        assert all(type(x) is int for x in result)


def _reference_evaluate(op, cls, u_side, d_side):
    """The former string replay over token dicts: every term's tokens looked
    up per term, from the reference term table."""
    total = 0
    for term, sign in zip(term_settings(op.kinds), op.term_signs, strict=True):
        if cls == FACTORIZABLE:
            u_val, d_val = (
                math.prod(side[f"{model.NAMES[x]}_{lab}"] for x, lab in zip(xs, op.factor_labels))
                for side, xs in zip((u_side, d_side), term)
            )
        else:
            u_label, d_label = setting_labels(op.kinds, term)
            u_val, d_val = u_side[u_label], d_side[d_label]
        total += sign * u_val * d_val
    return total


@st.composite
def _random_strategies(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_CHSH)), min_size=1, max_size=bell.MAX_DOF))
    op = bell.build_beta_product([_CHSH[k]() for k in kinds])
    cls = draw(st.sampled_from([FACTORIZABLE, UNRESTRICTED]))
    n_slots = _n_slots(cls, len(kinds))
    indices = [draw(st.integers(0, 2**n_slots - 1)) for _ in model.PHOTONS]
    return op, LhvStrategy(cls, *indices)


class TestIntegerReplay:
    """The index replay gives every strategy the value of the string replay
    over token dicts, each side's reference tokens paired with its index bits."""

    @settings(max_examples=300, deadline=None)
    @given(_random_strategies())
    @example((bell.canonical_product(4), LhvStrategy(UNRESTRICTED, 2**16 - 1, 0)))
    @example((bell.canonical_product(4), LhvStrategy(FACTORIZABLE, 0, 2**8 - 1)))
    def test_equals_string_replay(self, case):
        op, strategy = case
        cls, n_slots = strategy.strategy_class, _n_slots(strategy.strategy_class, op.dof_count)
        sides = [dict(zip(_reference_tokens(op.kinds, cls, photon), _index_values(index, n_slots)))
                 for photon, index in zip(model.PHOTONS, (strategy.u_index, strategy.d_index))]
        value = lhv.evaluate_strategy(op, strategy)
        assert type(value) is int
        assert value == _reference_evaluate(op, cls, *sides)
        assert lhv.witness_sides(op, strategy) == tuple(tuple(side.items()) for side in sides)
