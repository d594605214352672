"""Group certificates, row symmetry and the class partition."""

import numpy as np
import pytest

from macfeedback import (ConditionalPmf, InputError, Pmf, channel_given_sum,
                         conditional_mi_spread, equivalence_classes,
                         rows_are_permutations, verify_additive)
from macfeedback import catalog
from macfeedback.groups import GroupSpec, group_axiom_violations

from _gen import cyclic_group, random_cyclic_additive_mac, random_mac


class TestGroupAxioms:
    def test_cyclic_groups_pass(self):
        for n in (2, 3, 4, 5):
            assert group_axiom_violations(cyclic_group(n)) == []

    def test_broken_associativity_detected(self):
        cayley = np.array([[0, 1], [1, 1]])  # not a group
        g = GroupSpec(("0", "1"), cayley, 0, np.array([0, 1]), np.array([0, 1]),
                      np.array([[0, 1], [1, 0]]))
        assert group_axiom_violations(g)

    def test_missing_inverse_detected(self):
        # Monoid on 2 elements where 1 has no inverse: 1 + 1 = 1.
        cayley = np.array([[0, 1], [1, 1]])
        g = GroupSpec(("0", "1"), cayley, 0, np.array([0, 1]), np.array([0, 1]),
                      np.array([[0, 1], [1, 0]]))
        msgs = group_axiom_violations(g)
        assert any("inverse" in m or "associativity" in m for m in msgs)


class TestGroupSpecIndices:
    @staticmethod
    def _fields(**change):
        g = catalog.binary_symmetric_group()
        fields = dict(elements=g.elements, cayley=g.cayley, identity=g.identity,
                      embed_x1=g.embed_x1, embed_x2=g.embed_x2, y_action=g.y_action)
        return {**fields, **change}

    @pytest.mark.parametrize("change", [
        dict(cayley=np.array([[0.0, 1.0], [1.0, 0.0]])),
        dict(embed_x1=np.array([False, True])),
        dict(embed_x2=[0.0, 1.0]),
        dict(y_action=np.array([[0, 1], [1, 0]], dtype=bool)),
        dict(identity=0.0), dict(identity=False), dict(identity="0")])
    def test_non_integer_indices_rejected(self, change):
        with pytest.raises(InputError, match="integer"):
            GroupSpec(**self._fields(**change))

    def test_duplicate_elements_rejected(self):
        with pytest.raises(InputError, match="duplicate symbol '0'"):
            GroupSpec(**self._fields(elements=("0", "0")))

    def test_integer_types_accepted(self):
        g = GroupSpec(**self._fields(cayley=[[0, 1], [1, 0]], identity=np.int32(0),
                                     embed_x1=np.array([0, 1], dtype=np.uint8)))
        assert g.cayley.dtype == np.int64 and g.embed_x1.dtype == np.int64
        assert type(g.identity) is int

    def test_from_dict_does_not_truncate_identity(self):
        doc = catalog.binary_symmetric_group().to_dict()
        doc["identity"] = 0.7
        with pytest.raises(InputError, match="identity"):
            GroupSpec.from_dict(doc)


class TestVerifyAdditive:
    def test_erasure_adder_order_four_padded(self):
        # Cyclic group of order 4 with the output alphabet extended by the
        # zero-probability symbol "3" and the erasure fixed by the action.
        mac = catalog.erasure_adder_mac(0.5)
        g = catalog.erasure_adder_group()
        assert g.order == 4
        assert "3" in mac.y_alphabet
        report = verify_additive(mac, g)
        assert report.additive and report.violations == ()

    def test_erasure_adder_order_three_also_valid(self):
        # A tighter closure: the cyclic group of order 3 needs no padding
        # because reachable sums never wrap.
        mac3 = _erasure_adder_unpadded(0.5)
        cay = np.fromfunction(lambda a, b: (a + b) % 3, (3, 3), dtype=np.int64)
        y_action = np.zeros((4, 3), dtype=np.int64)
        for y in range(3):
            for h in range(3):
                y_action[y, h] = (y + h) % 3
        y_action[3, :] = 3
        g3 = GroupSpec(("0", "1", "2"), cay, 0, np.array([0, 1]), np.array([0, 1]),
                       y_action)
        assert verify_additive(mac3, g3).additive

    def test_binary_symmetric_mod_two(self):
        for q in (0.0, 0.11, 0.5):
            report = verify_additive(catalog.binary_symmetric_mac(q),
                                     catalog.binary_symmetric_group())
            assert report.additive

    def test_corrupted_action_detected(self):
        mac = catalog.erasure_adder_mac(0.3)
        g = catalog.erasure_adder_group()
        ya = g.y_action.copy()
        ya[[0, 1], 1] = ya[[1, 0], 1]  # swap two entries of one shift
        bad = GroupSpec(g.elements, g.cayley, g.identity, g.embed_x1, g.embed_x2, ya)
        report = verify_additive(mac, bad)
        assert not report.additive
        assert report.violations

    def test_non_additive_law_detected(self):
        # Make the (1, 0) row differ from the (0, 1) row: same sum, new law.
        mac = catalog.erasure_adder_mac(0.3)
        pmf = mac.pmf.copy()
        pmf[1, 0] = np.array([0.0, 0.35, 0.0, 0.0, 0.65])
        broken = type(mac)(mac.x1_alphabet, mac.x2_alphabet, mac.y_alphabet, pmf)
        report = verify_additive(broken, catalog.erasure_adder_group())
        assert not report.additive
        assert any("sum" in v for v in report.violations)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(InputError):
            verify_additive(catalog.adder_mac(), catalog.erasure_adder_group())

    def test_random_cyclic_families(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mac, g = random_cyclic_additive_mac(rng, int(rng.integers(2, 6)))
            assert verify_additive(mac, g).additive


def _erasure_adder_unpadded(p):
    from macfeedback import Mac

    pmf = np.zeros((2, 2, 4))
    for i in range(2):
        for j in range(2):
            pmf[i, j, i + j] = 1.0 - p
            pmf[i, j, 3] = p
    return Mac(("0", "1"), ("0", "1"), ("0", "1", "2", "e"), pmf)


class TestRowsArePermutations:
    def test_symmetric_rows(self):
        ch = ConditionalPmf(("0", "1"), ("0", "1"),
                            np.array([[0.89, 0.11], [0.11, 0.89]]))
        assert rows_are_permutations(ch)

    def test_erasure_adder_sum_channel(self):
        ch = channel_given_sum(catalog.erasure_adder_mac(0.5),
                               catalog.erasure_adder_group())
        assert rows_are_permutations(ch)

    def test_different_multisets(self):
        ch = ConditionalPmf(("0", "1"), ("0", "1"),
                            np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert not rows_are_permutations(ch)

    def test_additive_channels_always_pass(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            mac, g = random_cyclic_additive_mac(rng, int(rng.integers(2, 6)))
            assert rows_are_permutations(channel_given_sum(mac, g))


class TestConditionalMiSpread:
    def test_erasure_adder_invariant(self):
        mac = catalog.erasure_adder_mac(0.5)
        rep = conditional_mi_spread(mac, 1, Pmf(("0", "1"), np.array([0.5, 0.5])))
        assert rep.max_spread < 1e-10

    def test_binary_symmetric_invariant(self):
        rng = np.random.default_rng(2)
        mac = catalog.binary_symmetric_mac(0.11)
        for _ in range(5):
            p = rng.dirichlet(np.ones(2))
            rep = conditional_mi_spread(mac, 2, Pmf(("0", "1"), p))
            assert rep.max_spread < 1e-10

    def test_generic_channel_spreads(self):
        rng = np.random.default_rng(3)
        spreads = []
        for _ in range(10):
            mac = random_mac(rng)
            rep = conditional_mi_spread(mac, 1, Pmf(("0", "1"), np.array([0.5, 0.5])))
            spreads.append(rep.max_spread)
        assert max(spreads) > 1e-3  # reported, typically far from zero


class TestEquivalenceClasses:
    def test_identity_channel_three_singletons(self):
        ch = ConditionalPmf(("a", "b", "c"), ("0", "1", "2"), np.eye(3))
        part = equivalence_classes(ch)
        assert part.m == 3
        assert part.markov_ok

    def test_half_erased_adder_single_class(self):
        ch = channel_given_sum(catalog.erasure_adder_mac(0.5),
                               catalog.erasure_adder_group())
        part = equivalence_classes(ch, support=("0", "1"))
        assert part.m == 1
        assert not part.markov_ok  # rows differ inside the shared class

    def test_fully_erased_identical_rows(self):
        ch = channel_given_sum(catalog.erasure_adder_mac(1.0),
                               catalog.erasure_adder_group())
        part = equivalence_classes(ch, support=("0", "1"))
        assert part.m == 1
        assert part.markov_ok

    def test_noiseless_adder_disjoint_supports(self):
        ch = channel_given_sum(catalog.erasure_adder_mac(0.0),
                               catalog.erasure_adder_group())
        part = equivalence_classes(ch, support=("0", "1"))
        assert part.m == 2
        assert part.markov_ok

    def test_class_y_sets_disjoint(self):
        rng = np.random.default_rng(4)
        from _gen import random_conditional

        for _ in range(50):
            ch = random_conditional(rng, 4, 5, sparsity=0.6)
            part = equivalence_classes(ch)
            seen = set()
            for c in part.classes:
                assert not (set(c.y_symbols) & seen)
                seen |= set(c.y_symbols)

    def test_empty_support_rejected(self):
        ch = ConditionalPmf(("a", "b"), ("0", "1"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(InputError):
            equivalence_classes(ch, support=())
