"""Information measures against closed forms and brute-force sums."""

import math
import subprocess
import sys

import numpy as np
import pytest

from macfeedback import (InputError, JointDist, Pmf, conditional_entropy,
                         conditional_mi, entropy, independent_copy_joint,
                         joint_entropy, mutual_information)
from macfeedback import catalog
from macfeedback._util import channel_mi_bits, entropy_bits
from macfeedback.infotheory import kl_divergence_vec

from _gen import random_joint, random_mac, random_pmf


def mi_loops(table):
    """I(A;B) by direct double sum, no entropy decomposition."""
    pa = table.sum(axis=1)
    pb = table.sum(axis=0)
    total = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            if table[i, j] > 0:
                total += table[i, j] * math.log2(table[i, j] / (pa[i] * pb[j]))
    return total


def cmi_loops(table):
    """I(A;B|C) on a 3-axis table as the average of per-slice informations."""
    pc = table.sum(axis=(0, 1))
    total = 0.0
    for c in range(table.shape[2]):
        if pc[c] > 0:
            total += pc[c] * mi_loops(table[:, :, c] / pc[c])
    return total


class TestEntropy:
    def test_uniform_four(self):
        assert entropy(Pmf.uniform(("a", "b", "c", "d"))) == pytest.approx(2.0)

    def test_point_mass(self):
        assert entropy(Pmf(("a", "b"), [1.0, 0.0])) == 0.0

    def test_bernoulli_quarter(self):
        # -0.25 log2 0.25 - 0.75 log2 0.75
        expect = 0.25 * 2 + 0.75 * math.log2(4 / 3)
        p = Pmf(("0", "1"), np.array([0.25, 0.75]))
        assert entropy(p) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.811278, abs=1e-6)

    @pytest.mark.parametrize("raw", [[-0.5, 1.5], [0.7, 0.7], [0.5, math.nan]])
    def test_raw_array_is_checked(self, raw):
        # These used to come back as nan, 0.72 bits and nan.
        with pytest.raises(InputError, match=r"^entropy(\[\d\])?: "):
            entropy(np.array(raw))

    @pytest.mark.parametrize("raw", [["0.5", "0.5"], [True, False], np.array([True, False]),
                                     [0.5, None]], ids=["strings", "bools", "bool-array", "null"])
    def test_raw_entries_must_be_numbers(self, raw):
        # Strings and bools used to be read as numbers: 1.0 and 0 bits.
        with pytest.raises(InputError, match=r"^entropy\[\d\]: not a number$"):
            entropy(raw)

    @pytest.mark.parametrize("raw, message", [
        ([[0.5, 0.25], [0.25]],
         r"^entropy\[1\]: expected 2 probabilities, one per entropy symbol$"),
        ([0.5, [0.5]], r"^entropy\[1\]: not a number$")], ids=["short-row", "list-entry"])
    def test_ragged_list_names_its_first_fault(self, raw, message):
        # np.shape used to raise numpy's ValueError on these.
        with pytest.raises(InputError, match=message):
            entropy(raw)


def entropy_reference(table):
    """H in bits by a plain loop over the nonzero entries, with math.log."""
    return -sum(p * math.log(p) for p in np.ravel(table) if p > 0.0) / math.log(2.0)


class TestEntropyKernel:
    def test_matches_log_reference(self):
        rng = np.random.default_rng(11)
        tables = [np.array([5e-324, 0.0, 1.0]), np.array([0.5, 0.0, 0.5]),
                  np.array([1.0, 0.0]), np.zeros(3)]
        for _ in range(20):
            t = rng.dirichlet(np.ones(6)).reshape(2, 3)
            t[rng.random(t.shape) < 0.3] = 0.0
            t.flat[0] = 5e-324
            tables.append(t / t.sum())
        for t in tables:
            assert entropy_bits(t) == pytest.approx(entropy_reference(t), abs=1e-14)

    def test_batched_axes_equal_per_row(self):
        rng = np.random.default_rng(12)
        t = rng.dirichlet(np.ones(12), size=6)
        t[2, :5] = 0.0
        t[4, 7] = 5e-324
        per_row = np.array([entropy_bits(row) for row in t])
        np.testing.assert_allclose(entropy_bits(t, axis=1), per_row, rtol=0, atol=1e-14)
        cube = t.reshape(6, 3, 4)
        np.testing.assert_allclose(entropy_bits(cube, axis=(1, 2)), per_row, rtol=0, atol=1e-14)

    def test_channel_mi_matches_joint(self):
        rng = np.random.default_rng(13)
        rows = rng.dirichlet(np.ones(4), size=3)
        rows[0, 1] = 0.0
        rows[0] /= rows[0].sum()
        batch = rng.dirichlet(np.ones(3), size=5)
        values = channel_mi_bits(batch, rows)
        for p, value in zip(batch, values):
            joint = JointDist((("x", ("0", "1", "2")), ("y", ("0", "1", "2", "3"))),
                              p[:, None] * rows)
            assert float(channel_mi_bits(p, rows)) == pytest.approx(value, abs=1e-14)
            assert value == pytest.approx(mutual_information(joint), abs=1e-12)

    def test_import_leaves_scipy_out(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import macfeedback, sys; print('scipy' in sys.modules)"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestMutualInformation:
    def test_product_joint_is_zero(self):
        rng = np.random.default_rng(0)
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(4))
        j = JointDist((("a", ("0", "1", "2")), ("b", ("0", "1", "2", "3"))),
                      np.outer(a, b))
        assert abs(mutual_information(j)) < 1e-12

    def test_identity_coupling(self):
        j = JointDist((("a", ("0", "1")), ("b", ("0", "1"))),
                      np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert mutual_information(j) == pytest.approx(1.0)

    def test_erasure_adder_one_user(self):
        # X1 ~ Ber(0.5) through the half-erased adder with X2 = 0.
        mac = catalog.erasure_adder_mac(0.5)
        table = np.zeros((2, 2))
        table[:, 0] = 0.5
        j = independent_copy_joint(
            mac, JointDist((("x1", mac.x1_alphabet), ("x2", mac.x2_alphabet)), table))
        assert mutual_information(j, "x1", "y") == pytest.approx(0.5, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            j = random_joint(rng, (3, 4))
            ab = mutual_information(j, "a0", "a1")
            ba = mutual_information(j, "a1", "a0")
            assert abs(ab - ba) < 1e-12

    def test_overlapping_axes_rejected(self):
        joint = random_joint(np.random.default_rng(5), (2, 3))
        with pytest.raises(InputError, match="^mutual_information: axis groups overlap$"):
            mutual_information(joint, ("a0", "a1"), "a1")

    def test_matches_loops(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            j = random_joint(rng, (3, 3))
            assert mutual_information(j) == pytest.approx(mi_loops(j.table), abs=1e-11)


class TestConditionalMi:
    def test_irrelevant_conditioning(self):
        rng = np.random.default_rng(3)
        ab = rng.dirichlet(np.ones(6)).reshape(2, 3)
        c = rng.dirichlet(np.ones(2))
        j = JointDist((("a", ("0", "1")), ("b", ("0", "1", "2")), ("c", ("0", "1"))),
                      ab[:, :, None] * c[None, None, :])
        assert conditional_mi(j) == pytest.approx(
            mutual_information(JointDist((("a", ("0", "1")), ("b", ("0", "1", "2"))), ab)),
            abs=1e-12)

    @pytest.mark.parametrize("a,b,given", [("a0", "a0", "a2"), ("a0", "a1", ("a1", "a2")),
                                           (("a0", "a2"), "a1", "a2")])
    def test_overlapping_axes_rejected(self, a, b, given):
        joint = random_joint(np.random.default_rng(6), (2, 2, 3))
        with pytest.raises(InputError, match="^conditional_mi: axis groups overlap$"):
            conditional_mi(joint, a, b, given)

    def test_all_equal_is_zero(self):
        table = np.zeros((2, 2, 2))
        table[0, 0, 0] = 0.5
        table[1, 1, 1] = 0.5
        j = JointDist((("a", ("0", "1")), ("b", ("0", "1")), ("c", ("0", "1"))), table)
        assert conditional_mi(j) == 0.0

    def test_erasure_adder_iid_inputs(self):
        # Brute-force sum over the 2 x 2 x 5 joint gives exactly 0.5.
        mac = catalog.erasure_adder_mac(0.5)
        p_in = np.full((2, 2), 0.25)
        j = independent_copy_joint(
            mac, JointDist((("x1", mac.x1_alphabet), ("x2", mac.x2_alphabet)), p_in))
        # Reorder axes (x1, y, x2) for the loop oracle.
        table = j.table.transpose(0, 2, 1)
        oracle = cmi_loops(table)
        assert oracle == pytest.approx(0.5, abs=1e-12)
        assert conditional_mi(j, "x1", "y", "x2") == pytest.approx(oracle, abs=1e-11)

    def test_matches_loops_random(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            j = random_joint(rng, (3, 2, 4))
            got = conditional_mi(j, "a0", "a1", "a2")
            assert got == pytest.approx(cmi_loops(j.table), abs=1e-11)


class TestKlDivergence:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(5)
        p = random_pmf(rng, 4).probs
        assert kl_divergence_vec(p, p) == 0.0

    def test_point_vs_uniform(self):
        assert kl_divergence_vec([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0)

    def test_support_violation_is_inf(self):
        assert kl_divergence_vec([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_nonnegative_random(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p, q = random_pmf(rng, 5), random_pmf(rng, 5)
            assert kl_divergence_vec(p.probs, q.probs) >= 0.0


class TestProperties:
    def test_chain_rule(self):
        # I(A; B, C) = I(A; C) + I(A; B | C) on random joints.
        rng = np.random.default_rng(7)
        for _ in range(100):
            sizes = tuple(rng.integers(2, 5, size=3))
            j = random_joint(rng, sizes)
            lhs = mutual_information(j, "a0", ("a1", "a2"))
            rhs = (mutual_information(j, "a0", "a2")
                   + conditional_mi(j, "a0", "a1", "a2"))
            assert abs(lhs - rhs) < 1e-9

    def test_nonnegativity(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            sizes = tuple(rng.integers(2, 5, size=3))
            j = random_joint(rng, sizes)
            assert entropy(j.marginal_table("a0")) >= 0.0
            assert mutual_information(j, "a0", ("a1", "a2")) >= -1e-12
            assert conditional_mi(j, "a0", "a1", "a2") >= -1e-12

    def test_copy_entropy_identity(self):
        # H(Y' | X1, X2, Y) = H(Y | X1, X2) when Y' is an independent copy.
        rng = np.random.default_rng(9)
        for _ in range(50):
            mac = random_mac(rng, ny=int(rng.integers(2, 5)))
            p_in = rng.dirichlet(np.ones(4)).reshape(2, 2)
            j = independent_copy_joint(
                mac, JointDist((("x1", mac.x1_alphabet), ("x2", mac.x2_alphabet)), p_in),
                copies=2)
            lhs = conditional_entropy(j, "y'", ("x1", "x2", "y"))
            rhs = conditional_entropy(j, "y", ("x1", "x2"))
            assert abs(lhs - rhs) < 1e-9

    def test_joint_entropy_subset(self):
        rng = np.random.default_rng(10)
        j = random_joint(rng, (2, 3, 2))
        total = joint_entropy(j)
        assert total == pytest.approx(joint_entropy(j, ("a0", "a1", "a2")), abs=1e-12)
        assert joint_entropy(j, "a1") <= total + 1e-12
