"""Group certificates, row symmetry and the class partition."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from macfeedback import (ConditionalPmf, InputError, Mac, Pmf, catalog, channel_given_sum,
                         conditional_mi_spread, equivalence_classes, load_channel_file,
                         rows_are_permutations, verify_additive)
from macfeedback.groups import (EQ38_TOL, ROW_TOL, AdditivityReport, GroupSpec,
                                group_axiom_violations)

from _gen import cyclic_group, random_conditional, random_cyclic_additive_mac, random_mac

CHANNELS = Path(__file__).resolve().parent.parent / "channels"


def _axiom_violations_by_element(g):
    """Reference for ``group_axiom_violations``, with the inverse check element by element."""
    out = []
    c = g.cayley
    n = g.order
    bad = np.argwhere(c[c, :] != c[:, c])
    for a, b, d in bad[:5]:
        out.append(
            f"associativity fails at ({g.elements[a]!r}, {g.elements[b]!r}, "
            f"{g.elements[d]!r})"
        )
    if bad.shape[0] > 5:
        out.append(f"... {bad.shape[0] - 5} more associativity failures")
    e = g.identity
    if not np.array_equal(c[e, :], np.arange(n)):
        out.append(f"left identity fails for {g.elements[e]!r}")
    if not np.array_equal(c[:, e], np.arange(n)):
        out.append(f"right identity fails for {g.elements[e]!r}")
    for a in range(n):
        if not np.any((c[a, :] == e) & (c[:, a] == e)):
            out.append(f"element {g.elements[a]!r} has no two-sided inverse")
    return out


def _verify_additive_by_pair(mac, g):
    """Reference for ``verify_additive``: every input pair, sum pair and
    group element visited in a Python loop, with a per-pair ``np.allclose``."""
    n1, n2, ny = mac.shape
    if g.embed_x1.shape[0] != n1 or g.embed_x2.shape[0] != n2:
        raise InputError(
            f"embeddings cover ({g.embed_x1.shape[0]}, {g.embed_x2.shape[0]}) "
            f"symbols, channel has ({n1}, {n2})"
        )
    if g.y_action.shape[0] != ny:
        raise InputError(
            f"y_action covers {g.y_action.shape[0]} output symbols, channel has {ny}"
        )

    violations = _axiom_violations_by_element(g)
    if violations:
        return AdditivityReport(False, tuple(violations))

    for name, emb in (("embed_x1", g.embed_x1), ("embed_x2", g.embed_x2)):
        if len(set(emb.tolist())) != emb.shape[0]:
            violations.append(f"{name} is not injective")
    if g.identity not in g.embed_x1 or g.identity not in g.embed_x2:
        violations.append("identity element is not in the image of both embeddings")

    ya = g.y_action
    for gi in range(g.order):
        if len(set(ya[:, gi].tolist())) != ny:
            violations.append(
                f"action of {g.elements[gi]!r} is not a permutation of the outputs"
            )
    if not np.array_equal(ya[:, g.identity], np.arange(ny)):
        violations.append("action of the identity moves some output symbol")
    comp = ya[ya, :]
    comp2 = ya[:, g.cayley]
    bad = np.argwhere(comp != comp2)
    for y, g1, g2 in bad[:5]:
        violations.append(
            f"action compatibility fails at (y={mac.y_alphabet[y]!r}, "
            f"{g.elements[g1]!r}, {g.elements[g2]!r})"
        )
    if bad.shape[0] > 5:
        violations.append(f"... {bad.shape[0] - 5} more compatibility failures")
    if violations:
        return AdditivityReport(False, tuple(violations))

    zidx = g.cayley[np.ix_(g.embed_x1, g.embed_x2)]
    sum_pairs = {z: np.argwhere(zidx == z) for z in sorted(set(zidx.ravel().tolist()))}
    rows = {}
    for z, pairs in sum_pairs.items():
        i0, j0 = pairs[0]
        rows[z] = mac.pmf[i0, j0]
        for i, j in pairs[1:]:
            if not np.allclose(mac.pmf[i, j], rows[z], atol=EQ38_TOL, rtol=0.0):
                violations.append(
                    f"law depends on more than the sum: inputs "
                    f"({mac.x1_alphabet[i]!r}, {mac.x2_alphabet[j]!r}) and "
                    f"({mac.x1_alphabet[i0]!r}, {mac.x2_alphabet[j0]!r}) share "
                    f"sum {g.elements[z]!r} but differ"
                )
    if violations:
        return AdditivityReport(False, tuple(violations))

    c, e = g.cayley, g.identity
    inv = np.argmax((c == e) & (c.T == e), axis=1)
    for z in rows:
        for zp in rows:
            d = c[zp, inv[z]]
            shifted = rows[zp][ya[:, d]]
            bad_y = np.flatnonzero(np.abs(rows[z] - shifted) > EQ38_TOL)
            for y in bad_y[:3]:
                violations.append(
                    f"row-shift identity fails at (y={mac.y_alphabet[y]!r}, "
                    f"z={g.elements[z]!r}, z'={g.elements[zp]!r})"
                )
    return AdditivityReport(not violations, tuple(violations))


def _markov_ok_by_member(part, ch):
    """Reference for ``markov_ok``: each class member against its representative."""
    for c in part.classes:
        for sym in c.z_symbols:
            row = ch.rows[ch.input_alphabet.index(sym)]
            if not np.allclose(row, c.representative, atol=ROW_TOL, rtol=0.0):
                return False
    return True


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

    @pytest.mark.parametrize("change, message", [
        (dict(elements="01"), "^elements: expected a non-empty list of string labels$"),
        (dict(cayley=[[0, 1], [1, 2]]),
         r"^cayley\[1\]\[1\]: index 2 out of range for 2 elements$"),
        (dict(cayley=[[0, 1], [1]]), r"^cayley\[1\]: expected 2 entries, got 1$"),
        (dict(identity=2), "^identity: index 2 out of range for 2 elements$"),
        (dict(embed_x1=np.array([0, 2])), r"^embed_x1\[1\]: index 2 out of range for 2 elements$"),
        (dict(embed_x2=np.array([[0, 1]])),
         r"^embed_x2\[0\]: expected an integer index, got \[0, 1\]$"),
        (dict(y_action=np.array([[0, 1], [-1, 0]])),
         r"^y_action\[1\]\[0\]: index -1 out of range for 2 elements$"),
        (dict(y_action=np.array([0, 1])), r"^y_action\[0\]: expected 2 entries, got 0$"),
        (dict(y_action=5), "^y_action: expected a list of entries, got 5$"),
    ], ids=["elements-string", "cayley-range", "cayley-ragged", "identity-range",
            "embed-range", "embed-rank", "action-range", "action-rank", "action-scalar"])
    def test_rejected_at_index_path(self, change, message):
        with pytest.raises(InputError, match=message):
            GroupSpec(**self._fields(**change))

    def test_wrong_cayley_shape_rejected(self):
        with pytest.raises(InputError, match=r"^cayley: expected 2 entries, got 1$"):
            GroupSpec(**self._fields(cayley=[[0, 1]]))

    def test_duplicate_elements_rejected(self):
        with pytest.raises(InputError, match=r"^elements\[1\]: duplicate label '0'$"):
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
            GroupSpec(**doc)


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


def _nudged_row(rng, mac, g):
    """One input pair's row moved by a mass from below to far past EQ38_TOL."""
    pmf = mac.pmf.copy()
    i, j = rng.integers(mac.shape[0]), rng.integers(mac.shape[1])
    top, other = np.argsort(pmf[i, j])[::-1][:2]
    d = EQ38_TOL * rng.choice([0.5, 1.5, 10.0, 1e6])
    pmf[i, j, top] -= d
    pmf[i, j, other] += d
    return Mac(mac.x1_alphabet, mac.x2_alphabet, mac.y_alphabet, pmf), g


def _broken_row_shift(rng, mac, g):
    """Every pair of one sum given a fresh common row: the law still
    depends only on the sum, but the rows no longer shift into each other."""
    pmf = mac.pmf.copy()
    zidx = g.cayley[np.ix_(g.embed_x1, g.embed_x2)]
    pmf[zidx == rng.integers(g.order)] = rng.dirichlet(np.ones(mac.shape[2]))
    return Mac(mac.x1_alphabet, mac.x2_alphabet, mac.y_alphabet, pmf), g


def _non_permutation_action(rng, mac, g):
    """One or more action columns with an output symbol hit twice."""
    ya = g.y_action.copy()
    for gi in rng.choice(g.order, size=rng.integers(1, g.order + 1), replace=False):
        y0, y1 = rng.choice(ya.shape[0], size=2, replace=False)
        ya[y0, gi] = ya[y1, gi]
    return mac, dataclasses.replace(g, y_action=ya)


def _changed_cayley_entry(rng, mac, g):
    c = g.cayley.copy()
    a, b = rng.integers(g.order, size=2)
    c[a, b] = (c[a, b] + rng.integers(1, g.order)) % g.order
    return mac, dataclasses.replace(g, cayley=c)


def _colliding_embedding(rng, mac, g):
    name = str(rng.choice(["embed_x1", "embed_x2"]))
    emb = getattr(g, name).copy()
    i, j = rng.choice(emb.shape[0], size=2, replace=False)
    emb[i] = emb[j]
    return mac, dataclasses.replace(g, **{name: emb})


PERTURBATIONS = [_nudged_row, _broken_row_shift, _non_permutation_action,
                 _changed_cayley_entry, _colliding_embedding]


def _grouped_channels():
    """Every shipped channel with a group block and the catalog's grouped families."""
    out = [(cf.mac, cf.group) for cf in map(load_channel_file, sorted(CHANNELS.glob("*.json")))
           if cf.group is not None]
    out += [(catalog.erasure_adder_mac(p), catalog.erasure_adder_group())
            for p in np.linspace(0.0, 1.0, 9)]
    out += [(catalog.binary_symmetric_mac(q), catalog.binary_symmetric_group())
            for q in np.linspace(0.0, 1.0, 9)]
    return out


class TestVerifyAdditiveMatchesLoopReference:
    """The whole-table checks give the pair-by-pair loop's report, message for message."""

    def test_shipped_and_catalog_channels(self):
        channels = _grouped_channels()
        assert len(channels) == 8 + 18
        for mac, g in channels:
            ref = _verify_additive_by_pair(mac, g)
            assert ref.additive
            assert verify_additive(mac, g) == ref

    @pytest.mark.parametrize("perturb", PERTURBATIONS, ids=lambda f: f.__name__[1:])
    def test_perturbed_cyclic_channels(self, perturb):
        rng = np.random.default_rng(100 + PERTURBATIONS.index(perturb))
        broken = 0
        for _ in range(48):
            mac, g = perturb(rng, *random_cyclic_additive_mac(rng, int(rng.integers(2, 6))))
            assert group_axiom_violations(g) == _axiom_violations_by_element(g)
            ref = _verify_additive_by_pair(mac, g)
            assert verify_additive(mac, g) == ref
            broken += not ref.additive
        assert broken >= 24  # most perturbations break the certificate

    def test_row_shift_names_first_three_outputs(self):
        # A fresh row on one sum of a 5-element cyclic channel breaks the
        # shift identity on up to five outputs per pair of sums; three are named.
        rng = np.random.default_rng(7)
        mac, g = _broken_row_shift(rng, *random_cyclic_additive_mac(rng, 5))
        report = verify_additive(mac, g)
        assert report == _verify_additive_by_pair(mac, g)
        per_pair = {}
        for v in report.violations:
            key = v.split(", ", 1)[1]
            per_pair[key] = per_pair.get(key, 0) + 1
        assert max(per_pair.values()) == 3

    def test_law_violations_listed_by_sum(self):
        # Pair (1, 1) has sum 2 and comes before pair (2, 2), of sum 1, in
        # row-major order; neither is the first pair of its sum.
        mac, g = random_cyclic_additive_mac(np.random.default_rng(8), 3)
        pmf = mac.pmf.copy()
        pmf[1, 1] = pmf[2, 2] = [0.5, 0.25, 0.25]
        mac = Mac(mac.x1_alphabet, mac.x2_alphabet, mac.y_alphabet, pmf)
        report = verify_additive(mac, g)
        assert report == _verify_additive_by_pair(mac, g)
        assert [v.split("share sum ")[1] for v in report.violations] == [
            "'1' but differ", "'2' but differ"]

    def test_dimension_mismatch_raises_in_both(self):
        mac = Mac(("0", "1", "2"), ("0", "1"), catalog.erasure_adder_mac(0.5).y_alphabet,
                  np.full((3, 2, 5), 0.2))
        message = re.escape("embeddings cover (2, 2) symbols, channel has (3, 2)")
        for check in (verify_additive, channel_given_sum):
            with pytest.raises(InputError, match=message):
                check(mac, catalog.erasure_adder_group())


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

    @pytest.mark.parametrize("p_xj", [Pmf(("0", "1", "2"), np.full(3, 1 / 3)),
                                      Pmf(("1", "0"), np.array([0.25, 0.75]))],
                             ids=["three", "swapped"])
    def test_foreign_input_law_rejected(self, p_xj):
        # A law over the free user's labels in another order was read by
        # position.
        with pytest.raises(InputError, match="free user's alphabet"):
            conditional_mi_spread(catalog.erasure_adder_mac(0.5), 1, p_xj)

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

    def test_markov_ok_matches_per_member_reference(self):
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(200):
            ch = random_conditional(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)),
                                    sparsity=0.6)
            if rng.random() < 0.5:
                # Each class's rows made equal, then one row nudged around ROW_TOL.
                rows = ch.rows.copy()
                for c in equivalence_classes(ch).classes:
                    for sym in c.z_symbols:
                        rows[ch.input_alphabet.index(sym)] = c.representative
                k = rng.integers(rows.shape[0])
                top, other = np.argsort(rows[k])[::-1][:2]
                d = ROW_TOL * rng.choice([0.5, 2.0, 1e3])
                rows[k, top] -= d
                rows[k, other] += d
                ch = ConditionalPmf(ch.input_alphabet, ch.output_alphabet, rows)
            support = None
            if rng.random() < 0.3:
                support = tuple(s for s in ch.input_alphabet if rng.random() < 0.7) or None
            part = equivalence_classes(ch, support=support)
            assert part.markov_ok == _markov_ok_by_member(part, ch)
            seen.add(part.markov_ok)
        assert seen == {True, False}

    def test_unknown_support_symbol_rejected(self):
        ch = channel_given_sum(catalog.erasure_adder_mac(0.5),
                               catalog.erasure_adder_group())
        with pytest.raises(InputError, match="support symbol 'nope'"):
            equivalence_classes(ch, support=("0", "nope"))
        with pytest.raises(InputError, match="support symbol 'x'"):
            equivalence_classes(ch, support=("x", "0", "nope"))

    def test_string_support_rejected(self):
        ch = ConditionalPmf(("0", "1"), ("0", "1"), np.eye(2))
        with pytest.raises(InputError, match="^equivalence_classes: support: expected a "
                                             "non-empty list of string labels$"):
            equivalence_classes(ch, support="01")

    def test_empty_support_rejected(self):
        ch = ConditionalPmf(("a", "b"), ("0", "1"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(InputError):
            equivalence_classes(ch, support=())
