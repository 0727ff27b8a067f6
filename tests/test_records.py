"""The frozen-record base of the result types: construction, immutability, equality, repr."""

import copy
import pickle

import pytest

from fiberalg.algebra import AlgebraElement, Idempotent, Signature, idempotent_half
from fiberalg.fiber import (
    FIBER_SIGNATURE,
    FiberDecomposition,
    MomentumTriple,
    TangentTriple,
    decompose_d2,
)
from fiberalg.tensor import ComponentBasis
from fiberalg.verify import PropertyResult


class TestConstruction:
    def test_positional(self):
        t = TangentTriple(1.0, 2.0, 3.0)
        assert (t.dt, t.dq, t.ds) == (1.0, 2.0, 3.0)

    def test_keywords_in_any_order(self):
        assert TangentTriple(ds=3.0, dq=2.0, dt=1.0) == TangentTriple(1.0, 2.0, 3.0)
        assert TangentTriple(1.0, ds=3.0, dq=2.0) == TangentTriple(1.0, 2.0, 3.0)

    def test_defaults(self):
        assert TangentTriple(1.0, 2.0).ds is None
        assert MomentumTriple(1.0, p=2.0).m is None
        assert vars(TangentTriple(1.0, 2.0)) == {"dt": 1.0, "dq": 2.0, "ds": None}

    @pytest.mark.parametrize(
        ("args", "kwargs", "message"),
        [
            ((1.0,), {}, "missing required arguments: 'dq'"),
            ((), {"ds": 1.0}, "missing required arguments: 'dt', 'dq'"),
            ((1.0, 2.0), {"dx": 3.0}, "unexpected keyword argument 'dx'"),
            ((1.0, 2.0), {"dt": 3.0}, "multiple values for argument 'dt'"),
            ((1.0, 2.0, 3.0, 4.0), {}, "takes 3 positional arguments but 4 were given"),
        ],
        ids=["missing", "missing-two", "unexpected", "duplicated", "surplus"],
    )
    def test_bad_arguments_raise_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            TangentTriple(*args, **kwargs)

    def test_post_init_runs_on_both_paths(self):
        assert Signature([1, -1]).squares == (1, -1)
        assert Signature(squares=[1.0]).squares == (1,)
        with pytest.raises(ValueError, match="at least one generator"):
            Signature(())
        with pytest.raises(ValueError, match="must be \\+1 or -1"):
            Signature(squares=(2,))


class TestFrozen:
    @pytest.mark.parametrize("name", ["dt", "extra"])
    def test_assignment_raises(self, name):
        t = TangentTriple(1.0, 2.0, 3.0)
        with pytest.raises(AttributeError, match="frozen"):
            setattr(t, name, 5.0)
        assert vars(t) == {"dt": 1.0, "dq": 2.0, "ds": 3.0}

    def test_deletion_raises(self):
        t = TangentTriple(1.0, 2.0, 3.0)
        with pytest.raises(AttributeError, match="frozen"):
            del t.dt
        assert t.dt == 1.0


class TestEqualityAndHash:
    def test_same_type_and_values(self):
        a, b = TangentTriple(1.0, 2.0, 3.0), TangentTriple(1.0, 2.0, 3.0)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != TangentTriple(1.0, 2.0, 4.0)

    def test_other_record_type_with_equal_values_differs(self):
        t, m = TangentTriple(1.0, 2.0, 3.0), MomentumTriple(1.0, 2.0, 3.0)
        assert t != m and not t == m
        assert len({t, m}) == 2
        assert t != (1.0, 2.0, 3.0)

    def test_signature_hashes_as_its_field_tuple(self):
        assert hash(Signature((1, 1))) == hash(((1, 1),))
        assert {Signature((1, 1)): "fiber"}[FIBER_SIGNATURE] == "fiber"

    def test_idempotent_and_component_basis_keep_identity_equality(self):
        p, q = idempotent_half(0b10, 1, FIBER_SIGNATURE), idempotent_half(0b10, 1, FIBER_SIGNATURE)
        assert p.element == q.element
        assert p != q and p == p
        assert hash(p) == object.__hash__(p)
        doubled = FIBER_SIGNATURE.doubled()
        tensors = (AlgebraElement.basis(doubled, 0),)
        a, b = ComponentBasis(FIBER_SIGNATURE, ("one",), tensors), ComponentBasis(FIBER_SIGNATURE, ("one",), tensors)
        assert a != b and a == a


class TestReprAndVars:
    def test_repr(self):
        assert repr(TangentTriple(1.0, 2.0, 3.0)) == "TangentTriple(dt=1.0, dq=2.0, ds=3.0)"
        assert repr(Signature((1, -1))) == "Signature(squares=(1, -1))"
        assert repr(PropertyResult("p", 3, 0.0, 0.5, 1e-10, True)) == (
            "PropertyResult(name='p', samples=3, max_abs_residual=0.0, "
            "max_rel_residual=0.5, tolerance=1e-10, passed=True)"
        )

    def test_vars_gives_the_fields_in_order(self):
        dec = decompose_d2(AlgebraElement(FIBER_SIGNATURE, [1.0, 2.0, 0.5, 0.25]))
        assert list(vars(dec)) == ["tangent", "momentum", "cross", "action_rate", "min_action_residual"]
        assert list(vars(dec.cross)) == ["c_plus_1", "c_plus_e1", "c_minus_1", "c_minus_e12"]
        assert list(vars(TangentTriple(ds=3.0, dt=1.0, dq=2.0))) == ["dt", "dq", "ds"]


class TestCopies:
    @pytest.mark.parametrize(
        "record",
        [decompose_d2(AlgebraElement(FIBER_SIGNATURE, [1.0, 2.0, 0.5, 0.25])), Signature((1, -1, 1))],
        ids=["FiberDecomposition", "Signature"],
    )
    def test_pickle_and_deepcopy_round_trip(self, record):
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert copied == record and copied is not record
            assert hash(copied) == hash(record)
            assert list(vars(copied)) == list(vars(record))
            with pytest.raises(AttributeError):
                copied.extra = 1

    def test_idempotent_copy_keeps_its_element(self):
        p = idempotent_half(0b01, -1, Signature((1,)))
        copied = copy.deepcopy(p)
        assert isinstance(copied, Idempotent) and copied != p
        assert copied.element == p.element


def test_fiber_decomposition_is_built_positionally_and_by_keyword_alike():
    dec = decompose_d2(AlgebraElement(FIBER_SIGNATURE, [1.0, 2.0, 0.5, 0.25]))
    assert FiberDecomposition(**vars(dec)) == dec
