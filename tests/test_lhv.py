"""Local deterministic strategies: evaluation, exhaustive bounds, witnesses."""

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
from reference import setting_labels, term_settings, traced_peak

# A non-operator of each refused type, made from the operator ``op``.
_NOT_OPERATORS = {
    "NoneType": lambda op: None, "str": lambda op: "pi", "ndarray": lambda op: op.matrix
}

U_TOKENS_CHSH = ("A_pi", "a_pi")
D_TOKENS_CHSH = ("B_pi", "b_pi")
U_TOKENS_N2 = ("A_pi", "a_pi", "A_k", "a_k")
D_TOKENS_N2 = ("B_pi", "b_pi", "B_k", "b_k")
U_CONTEXTS_N2 = ("A_pi A_k", "A_pi a_k", "a_pi A_k", "a_pi a_k")
D_CONTEXTS_N2 = ("B_pi B_k", "B_pi b_k", "b_pi B_k", "b_pi b_k")


def _strategy(cls, u_tokens, u_vals, d_tokens, d_vals):
    return LhvStrategy(
        strategy_class=cls,
        side_u=dict(zip(u_tokens, u_vals)),
        side_d=dict(zip(d_tokens, d_vals)),
    )


def _all_plus(cls, u_tokens, d_tokens):
    return _strategy(cls, u_tokens, [1] * len(u_tokens), d_tokens, [1] * len(d_tokens))


class TestEvaluateStrategy:
    def test_chsh_all_plus_one(self):
        """Direct substitution into the sign pattern (-,+,+,+): -1+1+1+1 = 2."""
        val = lhv.evaluate_strategy(
            bell.canonical_product(1), _all_plus(FACTORIZABLE, U_TOKENS_CHSH, D_TOKENS_CHSH)
        )
        assert val == 2

    def test_product_all_plus_one_is_sign_sum(self):
        """With every outcome +1 the value is the sum of the 16 term signs,
        (-1+1+1+1) * (1-1+1+1) = 4."""
        op = bell.canonical_product(2)
        assert sum(op.term_signs) == 4
        val = lhv.evaluate_strategy(op, _all_plus(FACTORIZABLE, U_TOKENS_N2, D_TOKENS_N2))
        assert val == 4

    def test_unrestricted_all_plus_one_matches(self):
        op = bell.canonical_product(2)
        val = lhv.evaluate_strategy(
            op, _all_plus(UNRESTRICTED, U_CONTEXTS_N2, D_CONTEXTS_N2)
        )
        assert val == 4

    def test_every_chsh_strategy_gives_plus_minus_two(self):
        """Exhaustive check over all 16 factorizable CHSH strategies."""
        op = bell.canonical_product(1)
        seen = set()
        for u_vals in product((1, -1), repeat=2):
            for d_vals in product((1, -1), repeat=2):
                s = _strategy(FACTORIZABLE, U_TOKENS_CHSH, u_vals, D_TOKENS_CHSH, d_vals)
                seen.add(lhv.evaluate_strategy(op, s))
        assert seen == {-2, 2}

    def test_missing_assignment_rejected(self):
        op = bell.canonical_product(1)
        incomplete = LhvStrategy(FACTORIZABLE, side_u={"A_pi": 1}, side_d={"B_pi": 1, "b_pi": 1})
        with pytest.raises(ValueError, match="no assignment for 'a_pi'"):
            lhv.evaluate_strategy(op, incomplete)

    def test_non_sign_value_rejected(self):
        op = bell.canonical_product(1)
        bad = _strategy(FACTORIZABLE, U_TOKENS_CHSH, [1, 0], D_TOKENS_CHSH, [1, 1])
        with pytest.raises(ValueError, match="must be \\+-1"):
            lhv.evaluate_strategy(op, bad)

    @pytest.mark.parametrize("value", [True, 1.0, np.float64(1.0), np.True_])
    def test_plus_one_that_is_no_integer_rejected(self, value):
        """True == 1 and 1.0 == 1, so a check by value alone let both
        replay the N = 2 witness to its bound 4."""
        op = bell.canonical_product(2)
        witness = lhv.max_bound(op, FACTORIZABLE).witness
        token = next(tok for tok, val in witness.side_u.items() if val == 1)
        bad = LhvStrategy(FACTORIZABLE, {**witness.side_u, token: value}, witness.side_d)
        with pytest.raises(ValueError, match=re.escape(
            f"assignment for {token!r} must be +-1 as an integer, got {value!r}"
        )):
            lhv.evaluate_strategy(op, bad)

    @pytest.mark.parametrize(
        "cls,foreign", [(FACTORIZABLE, "A_pi A_k"), (FACTORIZABLE, "B_pi3"), (UNRESTRICTED, "b_k")]
    )
    def test_foreign_token_rejected(self, cls, foreign):
        """A key that is no slot of the class was ignored before."""
        op = bell.canonical_product(2)
        witness = lhv.max_bound(op, cls).witness
        bad = LhvStrategy(cls, witness.side_u, {**witness.side_d, foreign: 1})
        message = f"{foreign!r} is no {cls} token of photon d"
        with pytest.raises(ValueError, match=re.escape(message)):
            lhv.evaluate_strategy(op, bad)

    @pytest.mark.parametrize("photon", ["u", "d"])
    def test_side_that_is_no_dict_rejected(self, photon):
        """A list side escaped as TypeError: list indices must be integers."""
        op = bell.canonical_product(1)
        listed, side_u, side_d = ["A_pi", "a_pi"], {"A_pi": 1, "a_pi": 1}, {"B_pi": 1, "b_pi": 1}
        sides = (listed, side_d) if photon == "u" else (side_u, listed)
        message = f"the side of photon {photon} must be a dict, got ['A_pi', 'a_pi']"
        with pytest.raises(ValueError, match=re.escape(message)):
            lhv.evaluate_strategy(op, LhvStrategy(FACTORIZABLE, *sides))

    @pytest.mark.parametrize("cls", [FACTORIZABLE, UNRESTRICTED])
    def test_unknown_class_rejected(self, cls):
        """It was read as unrestricted, or refused for a missing context token."""
        op = bell.canonical_product(2)
        witness = lhv.max_bound(op, cls).witness
        with pytest.raises(ValueError, match="unknown strategy class 'contextual'"):
            lhv.evaluate_strategy(op, LhvStrategy("contextual", witness.side_u, witness.side_d))

    def test_strategy_that_is_no_lhv_strategy_rejected(self):
        """It escaped as an AttributeError on ``strategy_class``."""
        with pytest.raises(ValueError, match="must be an LhvStrategy, got dict"):
            lhv.evaluate_strategy(bell.canonical_product(1), {"A_pi": 1})

    @pytest.mark.parametrize("type_name", sorted(_NOT_OPERATORS))
    def test_operator_that_is_no_bell_operator_rejected(self, type_name):
        """It escaped as an AttributeError on ``kinds``; it is named before the
        strategy's class is read."""
        op = bell.canonical_product(2)
        witness = lhv.max_bound(op, FACTORIZABLE).witness
        message = f"the operator must be a BellOperator, got {type_name}"
        for strategy in (witness, LhvStrategy("contextual", witness.side_u, witness.side_d)):
            with pytest.raises(ValueError, match=re.escape(message)):
                lhv.evaluate_strategy(_NOT_OPERATORS[type_name](op), strategy)


class TestSignSymmetry:
    def test_unrestricted_full_side_flip_negates(self):
        op = bell.canonical_product(2)
        rng = np.random.default_rng(2)
        for _ in range(20):
            u_vals = rng.choice([1, -1], size=4)
            d_vals = rng.choice([1, -1], size=4)
            s = _strategy(UNRESTRICTED, U_CONTEXTS_N2, u_vals, D_CONTEXTS_N2, d_vals)
            flipped = _strategy(UNRESTRICTED, U_CONTEXTS_N2, -u_vals, D_CONTEXTS_N2, d_vals)
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
            s = _strategy(FACTORIZABLE, U_TOKENS_N2, u_vals, D_TOKENS_N2, d_vals)
            base = lhv.evaluate_strategy(op, s)
            pol_flip = u_vals * np.array([-1, -1, 1, 1])
            assert (
                lhv.evaluate_strategy(
                    op, _strategy(FACTORIZABLE, U_TOKENS_N2, pol_flip, D_TOKENS_N2, d_vals)
                )
                == -base
            )
            assert (
                lhv.evaluate_strategy(
                    op, _strategy(FACTORIZABLE, U_TOKENS_N2, -u_vals, D_TOKENS_N2, d_vals)
                )
                == base
            )

    def test_pinned_search_equals_full_search(self):
        """Pinning the first u value to +1 halves the search without changing
        the maximum of |value| (N <= 2)."""
        for op, cls, u_tokens, d_tokens in (
            (bell.canonical_product(1), FACTORIZABLE, U_TOKENS_CHSH, D_TOKENS_CHSH),
            (bell.canonical_product(2), FACTORIZABLE, U_TOKENS_N2, D_TOKENS_N2),
            (bell.canonical_product(2), UNRESTRICTED, U_CONTEXTS_N2, D_CONTEXTS_N2),
        ):
            full = []
            pinned = []
            for u_vals in product((1, -1), repeat=len(u_tokens)):
                for d_vals in product((1, -1), repeat=len(d_tokens)):
                    s = _strategy(cls, u_tokens, u_vals, d_tokens, d_vals)
                    v = abs(lhv.evaluate_strategy(op, s))
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
                s = _strategy(UNRESTRICTED, U_CONTEXTS_N2, u_vals, D_CONTEXTS_N2, d_vals)
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
        def refuse(_bell):
            raise AssertionError("side table built before the guard check")

        lhv._search.cache_clear()  # else the guard is tested against a cache hit
        monkeypatch.setattr(lhv, "_factorizable_context_values", refuse)
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

    @pytest.mark.parametrize("type_name", sorted(_NOT_OPERATORS))
    def test_operator_that_is_no_bell_operator_rejected(self, type_name, monkeypatch):
        """It escaped as an AttributeError on ``dof_count``; it is named before
        the class check and before the guard."""
        bad = _NOT_OPERATORS[type_name](bell.canonical_product(2))
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
        class), also for an operator that is not the shared one; every call
        returns fresh witness dicts."""
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
        assert (len(searches), len(replays)) == (1, 1)
        assert first == second == third
        for side in ("side_u", "side_d"):
            assert len({id(getattr(res.witness, side)) for res in (first, second, third)}) == 3

    def test_guard_refuses_with_the_search_cached(self, monkeypatch):
        op = bell.canonical_product(2)
        lhv.max_bound(op, FACTORIZABLE)
        monkeypatch.setattr(lhv, "MAX_STRATEGY_PAIRS", 10)
        with pytest.raises(lhv.EnumerationGuardError) as err:
            lhv.max_bound(op, FACTORIZABLE)
        assert err.value.count == 256

    @pytest.mark.parametrize("cls", [FACTORIZABLE, UNRESTRICTED])
    def test_mutated_witness_leaves_the_next_call(self, cls):
        op = bell.canonical_product(2)
        first = lhv.max_bound(op, cls)
        side_u, side_d = dict(first.witness.side_u), dict(first.witness.side_d)
        for token in first.witness.side_u:
            first.witness.side_u[token] *= -1
        first.witness.side_d.clear()
        second = lhv.max_bound(op, cls)
        assert (second.witness.side_u, second.witness.side_d) == (side_u, side_d)
        assert lhv.evaluate_strategy(op, second.witness) == second.bound

    @pytest.mark.parametrize("n", range(1, bell.MAX_DOF + 1))
    def test_tables_built_once_read_only(self, n):
        kinds = model.canonical_kinds(n)
        assert lhv._term_table(kinds) is lhv._term_table(kinds)
        assert lhv._factorizable_context_values(n) is lhv._factorizable_context_values(n)
        assert lhv._context_slots(n) is lhv._context_slots(n)
        per_n = (lhv._context_slots(n), lhv._factorizable_context_values(n))
        for table in (*lhv._term_table(kinds), *per_n):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

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
        """The witness and its replay share one token tuple per photon: a
        first max_bound, on a cold search cache, labels each side's tokens
        once, a second none."""
        calls, side_label = [], model.side_label

        def counting(names, labels):
            calls.append(names)
            return side_label(names, labels)

        lhv._side_tokens.cache_clear()
        lhv._search.cache_clear()
        monkeypatch.setattr(model, "side_label", counting)
        op = bell.canonical_product(4)
        first = lhv.max_bound(op, cls)
        assert len(calls) == 2 * tokens
        assert lhv.max_bound(op, cls) == first
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
    and class, over the whole search, and the witness assigns exactly the
    operator's side tokens (in term order, from the reference labels) and
    replays to the bound."""
    op = bell.BellOperator(kinds=kinds)
    res = lhv.max_bound(op, cls)
    n = len(kinds)
    n_side = 4**n if cls == FACTORIZABLE else 2 ** (2**n)
    assert (res.bound, res.strategies_evaluated) == (_BOUNDS[cls][n - 1], n_side**2)
    for photon, side in enumerate((res.witness.side_u, res.witness.side_d)):
        contexts = [setting_labels(s)[photon] for s in term_settings(kinds)]
        if cls == FACTORIZABLE:  # each factor's two tokens, factor 0 first
            contexts = [c.split()[f] for f in range(n) for c in contexts]
        assert list(side) == list(dict.fromkeys(contexts))
    assert lhv.evaluate_strategy(op, res.witness) == res.bound


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


def _reference_evaluate(op, strategy):
    """The former string replay: every term's tokens looked up per term."""
    def lookup(side, token):
        try:
            val = side[token]
        except KeyError:
            raise ValueError(f"strategy has no assignment for {token!r}") from None
        if val not in (-1, 1):
            raise ValueError(f"assignment for {token!r} must be +-1, got {val!r}")
        return val

    total = 0
    for term, sign in zip(term_settings(op.kinds), op.term_signs, strict=True):
        if strategy.strategy_class == FACTORIZABLE:
            u_val = d_val = 1
            for obs, lab in zip(term.u_ids, op.factor_labels):
                u_val *= lookup(strategy.side_u, f"{obs.name}_{lab}")
            for obs, lab in zip(term.d_ids, op.factor_labels):
                d_val *= lookup(strategy.side_d, f"{obs.name}_{lab}")
        else:
            u_label, d_label = setting_labels(term)
            u_val = lookup(strategy.side_u, u_label)
            d_val = lookup(strategy.side_d, d_label)
        total += sign * u_val * d_val
    return total


def _reference_tokens(op, cls, photon):
    """A side's keys read off the string term table, in first-use order."""
    labels = [setting_labels(t)[photon == "d"] for t in term_settings(op.kinds)]
    if cls == FACTORIZABLE:
        labels = [tok for label in labels for tok in label.split()]
    return list(dict.fromkeys(labels))


@st.composite
def _random_strategies(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_CHSH)), min_size=1, max_size=bell.MAX_DOF))
    op = bell.build_beta_product([_CHSH[k]() for k in kinds])
    cls = draw(st.sampled_from([FACTORIZABLE, UNRESTRICTED]))
    sides = []
    for photon in ("u", "d"):
        tokens = _reference_tokens(op, cls, photon)
        values = draw(st.lists(st.sampled_from([1, -1]), min_size=len(tokens),
                               max_size=len(tokens)))
        sides.append(dict(zip(tokens, values)))
    return op, LhvStrategy(cls, side_u=sides[0], side_d=sides[1]), draw(st.randoms())


class TestIntegerReplay:
    """The integer term table replays every strategy as the string replay did."""

    @settings(max_examples=300, deadline=None)
    @given(_random_strategies())
    def test_equals_string_replay(self, case):
        op, strategy, _ = case
        value = lhv.evaluate_strategy(op, strategy)
        assert type(value) is int
        assert value == _reference_evaluate(op, strategy)

    @settings(max_examples=100, deadline=None)
    @given(_random_strategies(), st.sampled_from([None, 0, 2, -2, 1.5]))
    def test_bad_assignment_names_token(self, case, bad):
        """A dropped token (``None``) or a non-+-1 value raises in both
        replays, naming that token."""
        op, strategy, rnd = case
        side = rnd.choice([strategy.side_u, strategy.side_d])
        token = rnd.choice(sorted(side))
        if bad is None:
            del side[token]
        else:
            side[token] = bad
        for replay in (lhv.evaluate_strategy, _reference_evaluate):
            with pytest.raises(ValueError, match=re.escape(repr(token))):
                replay(op, strategy)

