from fractions import Fraction

import pytest

from ietflow.exact import ExactScalar
from ietflow.fixtures import bounded_type_3iet, golden_rotation, symmetric_3iet
from ietflow.iet import Iet, InvalidIetError, Permutation
from ietflow.rauzy import InductionTrace, mat_det, mat_mul
from ietflow.zippered import (
    BackwardUndefinedError,
    InvalidSuspensionError,
    SuspensionData,
    ZipperedRectangles,
    area_normalize,
    backward_rv_step,
    canonical_tau,
    canonical_zippered,
    forward_rv_step,
    heights_from_tau,
)

F = Fraction


class TestCanonicalTau:
    def test_2iet_swap(self):
        perm = Permutation(["A", "B"], ["B", "A"])
        tau = canonical_tau(perm)
        assert tau.value("A") == 1
        assert tau.value("B") == -1
        assert tau.top_partial(1) > 0
        assert tau.bottom_partial(1) < 0

    def test_symmetric_3iet(self):
        perm = Permutation(["A", "B", "C"], ["C", "B", "A"])
        tau = canonical_tau(perm)
        assert [tau.value(a).a for a in "ABC"] == [2, 0, -2]
        assert tau.top_partial(1) == 2 and tau.top_partial(2) == 2
        assert tau.bottom_partial(1) == -2 and tau.bottom_partial(2) == -2

    def test_reducible_rejected(self):
        perm = Permutation(["A", "B"], ["A", "B"])
        with pytest.raises(InvalidIetError):
            canonical_tau(perm)

    def test_invalid_tau_rejected(self):
        perm = Permutation(["A", "B"], ["B", "A"])
        with pytest.raises(InvalidSuspensionError):
            SuspensionData(perm, [-1, 1])


class TestHeights:
    def test_2iet_swap(self):
        perm = Permutation(["A", "B"], ["B", "A"])
        susp = SuspensionData(perm, [1, -1])
        assert heights_from_tau(susp) == (ExactScalar(1), ExactScalar(1))

    def test_symmetric_3iet(self):
        perm = Permutation(["A", "B", "C"], ["C", "B", "A"])
        susp = canonical_tau(perm)
        assert heights_from_tau(susp) == (ExactScalar(2), ExactScalar(4),
                                          ExactScalar(2))

    def test_scaling_linearity(self):
        perm = Permutation(["A", "B", "C"], ["C", "B", "A"])
        susp = canonical_tau(perm)
        scaled = susp.scale(F(3, 7))
        hs = heights_from_tau(susp)
        hs_scaled = heights_from_tau(scaled)
        for h, hc in zip(hs, hs_scaled):
            assert hc == h * F(3, 7)


class TestAreaNormalize:
    def test_already_normalized(self):
        perm = Permutation(["A", "B"], ["B", "A"])
        iet = Iet(perm, [F(1, 2), F(1, 2)])
        z = ZipperedRectangles(iet, SuspensionData(perm, [1, -1]))
        assert z.area == 1
        assert area_normalize(z) is z

    def test_3iet_scaling(self):
        perm = Permutation(["A", "B", "C"], ["C", "B", "A"])
        iet = Iet(perm, [F(1, 3), F(1, 3), F(1, 3)])
        z = ZipperedRectangles(iet, canonical_tau(perm))
        # heights (2,4,2), area = 8/3, so lengths scale by 3/8
        assert z.area == ExactScalar(F(8, 3))
        zn = area_normalize(z)
        assert zn.area == 1
        assert zn.iet.lengths[0] == ExactScalar(F(1, 3)) * F(3, 8)


class TestBackwardStep:
    def test_round_trip_golden(self):
        z = canonical_zippered(golden_rotation(), normalize=False)
        fwd, matrix_f, type_f = forward_rv_step(z)
        back, matrix_b, type_b = backward_rv_step(fwd)
        assert type_b == type_f
        assert matrix_b == matrix_f
        assert back.iet == z.iet
        assert back.suspension.tau == z.suspension.tau

    def test_two_backward_two_forward_identity(self):
        base = canonical_zippered(bounded_type_3iet(), normalize=False)
        z = base
        for _ in range(2):
            z, _, _ = forward_rv_step(z)
        b1, m1, _ = backward_rv_step(z)
        b2, m2, _ = backward_rv_step(b1)
        assert b2.iet == base.iet
        f1, mf1, _ = forward_rv_step(b2)
        f2, mf2, _ = forward_rv_step(f1)
        assert (mf1, mf2) == (m2, m1)
        assert f2.iet == z.iet
        assert f2.suspension.tau == z.suspension.tau

    def test_backward_matrices_form_valid_products(self):
        # five backward steps from a five-step forward image: each factor is
        # a legal single-step matrix (identity plus one unit entry) and the
        # reversed product equals the forward cocycle product B^(0,5)
        z0 = canonical_zippered(bounded_type_3iet(), normalize=False)
        forward_mats = []
        z = z0
        for _ in range(5):
            z, matrix, _ = forward_rv_step(z)
            forward_mats.append(matrix)
        mats = []
        cur = z
        for _ in range(5):
            cur, matrix, _ = backward_rv_step(cur)
            mats.append(matrix)
        for m in mats:
            assert mat_det(m) == 1
            extra = sum(m[i][j] for i in range(3) for j in range(3)) - 3
            assert extra == 1
        assert cur.iet == z0.iet
        prod = mats[-1]
        for m in mats[-2::-1]:
            prod = mat_mul(prod, m)
        expected = forward_mats[0]
        for m in forward_mats[1:]:
            expected = mat_mul(expected, m)
        assert prod == expected
        # the reversed product transports the final lengths onto the base
        lam = [sum((ExactScalar(prod[i][j]) * z.iet.lengths[j]
                    for j in range(3)), ExactScalar(0)) for i in range(3)]
        assert tuple(lam) == z0.iet.lengths

    def test_sign_conditions_preserved(self):
        cur = canonical_zippered(golden_rotation(), normalize=False)
        for _ in range(8):
            cur, _, _ = forward_rv_step(cur)
        for _ in range(8):
            cur, _, _ = backward_rv_step(cur)
            cur.suspension.validate()
            for h in heights_from_tau(cur.suspension):
                assert h.sign() > 0

    def test_generic_tau_allows_fresh_backward_steps(self):
        from ietflow.zippered import generic_tau
        iet = bounded_type_3iet()
        z = ZipperedRectangles(iet, generic_tau(iet.perm, F(3, 11)))
        cur = z
        for _ in range(10):
            cur, _, _ = backward_rv_step(cur)
            cur.suspension.validate()

    def test_area_invariant_under_steps(self):
        z = canonical_zippered(bounded_type_3iet())
        area0 = z.area
        fwd, _, _ = forward_rv_step(z)
        assert fwd.area == area0
        back, _, _ = backward_rv_step(fwd)
        assert back.area == area0

    def test_zero_sum_tau_is_undefined(self):
        perm = Permutation(["A", "B"], ["B", "A"])
        iet = Iet(perm, [F(1, 2), F(1, 2)])
        z = ZipperedRectangles(iet, SuspensionData(perm, [1, -1]))
        with pytest.raises(BackwardUndefinedError):
            backward_rv_step(z)

    def test_forward_contract_on_lambda_part(self):
        # the lambda component of the preimage maps forward onto z's lambda
        seed = canonical_zippered(bounded_type_3iet(), normalize=False)
        z, _, _ = forward_rv_step(seed)
        prev, matrix, step_type = backward_rv_step(z)
        trace = InductionTrace(prev.iet)
        assert trace.step_type(0) == step_type
        assert trace.step_matrix(0) == matrix
        assert trace.iet(1) == z.iet
