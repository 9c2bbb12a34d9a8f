"""Bracket container, central series, GL action, and the delta operators."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nilflow
from nilflow.algebra import (
    Bracket,
    VTangent,
    _delta_coeffs,
    _delta_matrix,
    _gl_action_coeffs,
    _gl_action_frame,
    _inv,
    _jacobiator_max,
    bracket_from_dict,
    bracket_to_dict,
    central_series_dims,
    delta,
    delta_transpose,
    derivation_basis,
    gl_action,
    jacobiator_residual,
    load_bracket,
    nilpotency_degree,
    save_bracket,
    validate_bracket,
    vn_inner,
)
from nilflow.exceptions import (
    BracketFormatError,
    ConfigError,
    DimensionMismatch,
    NotNilpotentError,
    SingularMatrix,
    ZeroBracket,
)
from nilflow.generators import (
    filiform,
    heisenberg,
    random_orthogonal,
    random_skew,
    random_two_step,
    rescale_to_norm,
    sphere_perturbation,
)

from conftest import dense_starts, random_sphere_bracket


# ---------------------------------------------------------------------------
# container behaviour


def test_antisymmetry_enforced():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # deliberately missing the (1, 0, 2) = -1 mirror
    with pytest.raises(BracketFormatError):
        Bracket(c)


def test_exact_antisymmetrization_of_rounding():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0 + 1e-12
    b = Bracket(c)
    assert b.coeffs[0, 1, 2] == -b.coeffs[1, 0, 2]


def test_empty_cube_is_rejected():
    with pytest.raises(DimensionMismatch, match="n >= 1"):
        VTangent(np.zeros((0, 0, 0)))


def test_bracket_whose_norm_overflows_is_rejected():
    # ||mu||^2 = 2e400 is inf: every threshold tol * ||mu|| would be inf too
    with pytest.raises(BracketFormatError, match="overflows"):
        heisenberg(1e200)
    b = heisenberg(1e153)  # ||mu||^2 = 2e306 stays finite
    assert b.degree == 2 and validate_bracket(b).degree == 2


def test_bracket_whose_norm_underflows_keeps_its_norm():
    # ||mu||^2 = 2e-400 underflows to 0, but ||mu|| = sqrt(2) 1e-200 does not
    assert heisenberg(1e-200).norm == pytest.approx(math.sqrt(2.0) * 1e-200, rel=1e-15)
    assert rescale_to_norm(heisenberg(1e-200)).norm == pytest.approx(2.0, rel=1e-15)
    assert heisenberg(0.0).norm == 0.0
    # above the underflow range the norm is the plain one, bit for bit
    b = random_two_step(5, np.random.default_rng(3))
    for scale in (1.0, 1e-150, 1e150):
        assert b.scaled(scale).norm == float(np.linalg.norm(b.scaled(scale).coeffs))


@pytest.mark.parametrize("scale", [1e-200, 1e-300])
def test_rank_decisions_of_a_tiny_bracket(scale):
    # the rank threshold scales with ||mu||; a sum of squares that underflowed
    # made it 0, so rounding residue counted as rank
    rng = np.random.default_rng(5)
    b = gl_action(random_orthogonal(5, rng), random_two_step(5, rng))
    assert central_series_dims(b) == [5, 1, 0] and nilpotency_degree(b) == 2
    tiny = b.scaled(scale)
    assert central_series_dims(tiny) == [5, 1, 0]
    assert nilpotency_degree(tiny) == 2


H3 = heisenberg()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: VTangent(np.full((3, 3, 3), np.inf)), BracketFormatError, "finite"),
        (lambda: VTangent.from_entries(3, {(1, 0, 2): 1.0}), BracketFormatError, "bad index triple"),
        (lambda: VTangent.from_entries(3, {(0, 1, 3): 1.0}), BracketFormatError, "bad index triple"),
        (lambda: vn_inner(H3, filiform(4)), DimensionMismatch, "3 vs 4"),
        (lambda: delta_transpose(H3, filiform(4)), DimensionMismatch, "3 vs 4"),
        (lambda: gl_action(np.eye(4), H3), DimensionMismatch, "operator shape"),
        (lambda: delta(H3, np.eye(2)), DimensionMismatch, "operator shape"),
        (lambda: bracket_from_dict([1, 2, 3]), BracketFormatError, "must be a JSON object"),
        (lambda: bracket_from_dict({"n": 3, "entries": [7]}), BracketFormatError, "entry 0 is not an object"),
    ],
    ids=["non_finite", "triple_i_after_j", "triple_k_out_of_range", "vn_inner_n", "delta_transpose_n",
         "gl_action_shape", "delta_shape", "document_not_object", "entry_not_object"],
)
def test_algebra_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_load_bracket_of_invalid_json(tmp_path):
    path = tmp_path / "b.json"
    path.write_text('{"n": 3,')
    with pytest.raises(BracketFormatError, match="invalid JSON"):
        load_bracket(path)


@pytest.mark.parametrize(
    "text", [b'\x80{"n": 3, "entries": []}', b'{"n": ' + b"[" * 100_000], ids=["not_utf8", "nested_too_deep"]
)
def test_load_bracket_of_text_the_decoder_cannot_read(text, tmp_path):
    # these raised a bare UnicodeDecodeError and RecursionError
    path = tmp_path / "b.json"
    path.write_bytes(text)
    with pytest.raises(BracketFormatError, match="invalid JSON"):
        load_bracket(path)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: filiform(2), ConfigError, "n >= 3"),
        (lambda: filiform(5, constants=[1.0, 2.0]), ConfigError, "needs 3 constants"),
        (lambda: random_two_step(2, np.random.default_rng(0)), ConfigError, "n >= 3"),
        (lambda: random_two_step(5, np.random.default_rng(0), m=1), ConfigError, "2 <= m <= n-1"),
        (lambda: random_two_step(5, np.random.default_rng(0), m=5), ConfigError, "2 <= m <= n-1"),
        # a float or str n or m raised a bare TypeError, and random_orthogonal(0)
        # returned a 0 x 0 matrix
        (lambda: filiform(4.0), ConfigError, "integer n >= 3"),
        (lambda: random_two_step(4.5, np.random.default_rng(0)), ConfigError, "integer n >= 3"),
        (lambda: random_two_step(5, np.random.default_rng(0), m=2.5), ConfigError, "integer 2 <= m"),
        (lambda: random_skew(3.0, np.random.default_rng(0)), ConfigError, "integer n >= 1"),
        (lambda: random_orthogonal(0, np.random.default_rng(0)), ConfigError, "integer n >= 1"),
        (lambda: random_orthogonal("3", np.random.default_rng(0)), ConfigError, "integer n >= 1"),
        (lambda: rescale_to_norm(Bracket.zero(3)), ZeroBracket, "zero bracket"),
        # True rescaled to norm 1
        (lambda: rescale_to_norm(heisenberg(), True), ConfigError, "target norm"),
        # a str raised a bare TypeError from math.isfinite
        (lambda: rescale_to_norm(heisenberg(), "2"), ConfigError, "target norm"),
        # a str raised a bare TypeError, and True ran as a spread of 1.0
        (lambda: sphere_perturbation(heisenberg(), np.random.default_rng(0), eps="0.3"), ConfigError, "spread"),
        (lambda: sphere_perturbation(heisenberg(), np.random.default_rng(0), eps=True), ConfigError, "spread"),
    ],
    ids=["filiform_n2", "filiform_constants", "two_step_n2", "two_step_m1", "two_step_m_n",
         "filiform_float_n", "two_step_float_n", "two_step_float_m", "skew_float_n",
         "orthogonal_n0", "orthogonal_str_n", "rescale_zero",
         "rescale_bool_target", "rescale_str_target", "perturbation_str_spread", "perturbation_bool_spread"],
)
def test_generator_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_sphere_perturbation_of_nan_spread_raises(heis):
    with pytest.raises(ConfigError, match="finite"):
        sphere_perturbation(rescale_to_norm(heis), np.random.default_rng(0), eps=math.nan)


def test_sphere_perturbation_of_infinite_spread_raises():
    # an inf matrix never meets the cond < 1e3 redraw bound, so a regression
    # hangs: a subprocess with a timeout turns that into a failure
    src = str(Path(nilflow.__file__).parents[1])  # the package need not be installed
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import math, numpy as np\n"
        "from nilflow.exceptions import ConfigError\n"
        "from nilflow.generators import heisenberg, rescale_to_norm, sphere_perturbation\n"
        "try:\n"
        "    sphere_perturbation(rescale_to_norm(heisenberg()), np.random.default_rng(0), eps=math.inf)\n"
        "except ConfigError:\n"
        "    print('ConfigError')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "ConfigError\n"


def test_coeffs_frozen(heis):
    with pytest.raises(ValueError):
        heis.coeffs[0, 1, 2] = 5.0


def test_from_entries_matches_generator(heis):
    b = Bracket.from_entries(3, {(0, 1, 2): 1.0})
    assert np.array_equal(b.coeffs, heis.coeffs)


def test_apply_and_ad(heis):
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    assert np.allclose(heis.apply(e1, e2), [0.0, 0.0, 1.0])
    assert np.allclose(heis.ad(e1) @ e2, [0.0, 0.0, 1.0])
    assert np.allclose(heis.ad(e1), heis.coeffs[0].T)


def test_norm_and_inner(heis):
    # both ordered pairs (1,2) and (2,1) contribute
    assert vn_inner(heis, heis) == pytest.approx(2.0)
    assert heis.norm == pytest.approx(np.sqrt(2.0))


# ---------------------------------------------------------------------------
# serialization


def test_dict_round_trip(fil4):
    again = bracket_from_dict(bracket_to_dict(fil4))
    assert np.array_equal(again.coeffs, fil4.coeffs)


def test_file_round_trip(tmp_path, heis):
    path = tmp_path / "b.json"
    save_bracket(path, heis)
    assert np.array_equal(load_bracket(path).coeffs, heis.coeffs)


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"entries": []}, "'n'"),
        ({"n": 3, "entries": {}}, "list"),
        ({"n": 3, "entries": [{"i": 2, "j": 1, "k": 3, "value": 1.0}]}, "i < j"),
        ({"n": 3, "entries": [{"i": 1, "j": 2, "k": 9, "value": 1.0}]}, "out of range"),
        ({"n": 3, "entries": [{"i": 1, "j": 2, "value": 1.0}]}, "missing"),
        (
            {
                "n": 3,
                "entries": [
                    {"i": 1, "j": 2, "k": 3, "value": 1.0},
                    {"i": 1, "j": 2, "k": 3, "value": 2.0},
                ],
            },
            "duplicate",
        ),
        ({"n": 3, "entries": [{"i": 1, "j": 2, "k": 3, "value": float("nan")}]}, "finite"),
        ({"n": 3, "entries": [{"i": 1, "j": 2, "k": 3, "value": 10**400}]}, "finite"),
        *(
            ({"n": 3, "entries": [{"i": 1, "j": 2, "k": 3, "value": v}]}, "must be a finite number")
            for v in ("abc", None, [1], True, "1.5")
        ),
    ],
)
def test_dict_rejects_malformed(doc, fragment):
    with pytest.raises(BracketFormatError, match=fragment):
        bracket_from_dict(doc)


def test_to_dict_only_upper_entries(fil4):
    doc = bracket_to_dict(fil4)
    assert all(e["i"] < e["j"] for e in doc["entries"])
    json.dumps(doc)  # plain types throughout


# every integer argument is read by algebra._is_int: (call with the value v, the error it raises)
_INTEGER_ARGUMENTS = {
    "equivalence_checkpoints": (
        lambda v: nilflow.equivalence_report(nilflow.heisenberg(1.0), 0.5, checkpoints=v), ConfigError),
    "derivative_order": (
        lambda v: nilflow.metric_field_2step(nilflow.heisenberg(1.0)).derivative((v, 0, 0)), DimensionMismatch),
    "distance_p": (
        lambda v: nilflow.metric_convergence_distance(nilflow.heisenberg(1.0), nilflow.heisenberg(2.0), 1.0, p=v),
        ConfigError),
    "bracket_n": (lambda v: bracket_from_dict({"n": v, "entries": []}), BracketFormatError),
}


@pytest.mark.parametrize("name", sorted(_INTEGER_ARGUMENTS))
def test_integer_arguments_take_numpy_integers_and_refuse_bools_and_floats(name):
    call, error = _INTEGER_ARGUMENTS[name]
    call(np.int64(2))
    for v in (True, 2.0):
        with pytest.raises(error):
            call(v)


# ---------------------------------------------------------------------------
# central series and validation


@pytest.mark.parametrize(
    "bracket, dims, degree",
    [
        (heisenberg(1.0), [3, 1, 0], 2),
        (filiform(4), [4, 2, 1, 0], 3),
        (filiform(6), [6, 4, 3, 2, 1, 0], 5),
        (Bracket(np.zeros((2, 2, 2))), [2, 0], 0),
    ],
)
def test_central_series(bracket, dims, degree):
    assert central_series_dims(bracket) == dims
    assert nilpotency_degree(bracket) == degree


def test_so3_not_nilpotent():
    c = np.zeros((3, 3, 3))
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    with pytest.raises(NotNilpotentError):
        nilpotency_degree(Bracket(c))


def test_degree_scale_invariant():
    b = filiform(5).scaled(1e-7)
    assert nilpotency_degree(Bracket(b.coeffs)) == 4


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_random_two_step_is_two_step(n, seed):
    b = random_two_step(n, np.random.default_rng(seed))
    assert nilpotency_degree(b) == 2
    assert jacobiator_residual(b) < 1e-12


def test_validate_report(heis):
    rep = validate_bracket(heis)
    assert rep.nilpotent and rep.degree == 2
    assert rep.series_dims == central_series_dims(heis) == [3, 1, 0]
    assert rep.jacobi_residual == 0.0


# [e1,e2]=e3, [e1,e3]=e4, [e2,e3]=e5, [e1,e4]=e5, [e2,e4]=3e5: nilpotent, but
# Jacobi fails on (e1, e2, e3) by 3 e5, 0.115 relative to ||mu||^2 = 26
_NOT_LIE_5 = {(0, 1, 2): 1.0, (0, 2, 3): 1.0, (1, 2, 4): 1.0, (0, 3, 4): 1.0, (1, 3, 4): 3.0}


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6, 1e-100])
def test_validate_decides_jacobi_on_the_unit_bracket(scale):
    # the threshold was absolute below ||mu|| = 1, so tiny scales passed
    rep = validate_bracket(Bracket.from_entries(5, _NOT_LIE_5).scaled(scale))
    assert not rep.nilpotent and rep.degree is None
    assert rep.jacobi_residual == pytest.approx(3.0 * scale**2, rel=1e-12)
    rotated = gl_action(random_orthogonal(5, np.random.default_rng(4)), filiform(5)).scaled(scale)
    rep = validate_bracket(rotated)
    assert rep.nilpotent and rep.degree == 4


def test_validate_flags_non_lie():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    c[0, 2, 0], c[2, 0, 0] = 1.0, -1.0  # jacobiator(e1,e2,e3) = -e3 != 0
    rep = validate_bracket(Bracket(c))
    assert not rep.nilpotent
    assert rep.jacobi_residual > 1e-3


def _einsum_jacobiator_max(c):
    """The cyclic Jacobiator as three einsums, the reference for the matrix product."""
    jac = (
        np.einsum("...ija,...akm->...ijkm", c, c)
        + np.einsum("...jka,...aim->...ijkm", c, c)
        + np.einsum("...kia,...ajm->...ijkm", c, c)
    )
    return np.abs(jac).max(axis=(-4, -3, -2, -1), initial=0.0)


@pytest.mark.parametrize("shape", [(3, 3, 3), (6, 5, 5, 5), (2, 3, 8, 8, 8), (0, 4, 4, 4)])
def test_jacobiator_matches_einsum_form(shape):
    # random skew brackets break Jacobi, so every entry is a real sum
    c = np.random.default_rng(len(shape) * 10 + shape[-1]).standard_normal(shape) * 3.0
    c = c - c.swapaxes(-3, -2)
    got = _jacobiator_max(c)
    ref = _einsum_jacobiator_max(c)
    assert got.shape == ref.shape
    tol = 1e-13 * max(1.0, float(np.sum(c * c, axis=(-3, -2, -1), initial=0.0).max(initial=0.0)))
    assert np.all(np.abs(got - ref) <= tol)
    assert c.size == 0 or ref.min() > 1.0


# ---------------------------------------------------------------------------
# GL action


def _svd_route(g, b):
    """gl_action's coefficients with g^{-1} from the SVD, the route its screen skips."""
    u, s, vt = np.linalg.svd(g)
    c = _gl_action_coeffs(g, (vt.T / s) @ u.T, b.coeffs)
    return 0.5 * (c - c.transpose(1, 0, 2))


def _assert_matches_svd_route(g, b, moved):
    # LU and SVD inverses differ by about cond(g) eps, relative
    ref = _svd_route(g, b)
    assert np.linalg.norm(moved.coeffs - ref) <= 1e-14 * np.linalg.cond(g) * np.linalg.norm(ref)


def test_gl_action_scaling(heis):
    g = np.diag([2.0, 1.0, 1.0])
    pushed = gl_action(g, heis)
    # e1 direction stretched: mu(g^-1 e1, g^-1 e2) = mu(e1/2, e2) = e3/2
    assert pushed.coeffs[0, 1, 2] == pytest.approx(0.5)
    _assert_matches_svd_route(g, heis, pushed)


def test_gl_action_swap(heis):
    g = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert gl_action(g, heis).coeffs[0, 1, 2] == pytest.approx(-1.0)
    _assert_matches_svd_route(g, heis, gl_action(g, heis))


def test_gl_action_singular(heis):
    with pytest.raises(SingularMatrix, match=r"^change of basis is singular \(cond=1\.000e\+17\)$"):
        gl_action(np.diag([1.0, 1.0, 1e-17]), heis)
    # a zero smallest singular value reads as an infinite condition number
    with pytest.raises(SingularMatrix, match=r"^change of basis is singular \(cond=inf\)$"):
        gl_action(np.zeros((3, 3)), heis)


def _svd_calls_of_gl_action(monkeypatch, g, b):
    """(g.mu, the number of SVDs gl_action ran)."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", counting)
        moved = gl_action(g, b)
    return moved, len(calls)


def test_gl_action_decides_by_svd_where_the_screen_fails(monkeypatch, caplog):
    b = filiform(8)
    # cond 5e11, but ||g||_F ||g^{-1}||_F = 1.3e12: the SVD decides, and does not warn
    g = np.diag([1.0] * 7 + [2e-12])
    with caplog.at_level("WARNING", logger="nilflow.algebra"):
        moved, svds = _svd_calls_of_gl_action(monkeypatch, g, b)
    assert svds == 1 and not caplog.records
    _assert_matches_svd_route(g, b, moved)
    # cond 1e13 warns
    with caplog.at_level("WARNING", logger="nilflow.algebra"):
        _, svds = _svd_calls_of_gl_action(monkeypatch, np.diag([1.0, 1.0, 1e-13]), heisenberg())
    assert svds == 1
    assert [r.getMessage() for r in caplog.records] == ["ill-conditioned change of basis: cond=1.000e+13"]
    # a screen at or below 1e12 leaves the SVD out
    g = np.eye(8) + 0.3 * np.random.default_rng(0).standard_normal((8, 8))
    assert _svd_calls_of_gl_action(monkeypatch, g, b)[1] == 0


def test_gl_action_of_the_identity_is_exact():
    b = random_sphere_bracket(6, 2)
    assert np.array_equal(gl_action(np.eye(6), b).coeffs, b.coeffs)


def test_gl_action_keeps_the_overflow_check():
    # cond(g) = 1, but g.mu = 1e10 mu = 1e160 e3 has ||g.mu||^2 past the float range
    with pytest.raises(BracketFormatError, match="overflows"):
        gl_action(1e-10 * np.eye(3), heisenberg(1e150))


def test_gl_action_of_a_non_finite_matrix_raises():
    # LAPACK's full SVD does not return on diag(inf, 1, 1), so a regression
    # hangs: a subprocess with a timeout turns that into a failure
    src = str(Path(nilflow.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import numpy as np\n"
        "from nilflow.algebra import gl_action\n"
        "from nilflow.exceptions import SingularMatrix\n"
        "from nilflow.generators import heisenberg\n"
        "for v in (np.inf, -np.inf, np.nan):\n"
        "    try:\n"
        "        gl_action(np.diag([v, 1.0, 1.0]), heisenberg())\n"
        "    except SingularMatrix:\n"
        "        print('SingularMatrix')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == 3 * "SingularMatrix\n"


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_orthogonal_action_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    b = random_two_step(4, rng)
    q = random_orthogonal(4, rng)
    assert gl_action(q, b).norm == pytest.approx(b.norm, rel=1e-12)
    _assert_matches_svd_route(q, b, gl_action(q, b))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_gl_action_is_an_action(seed):
    rng = np.random.default_rng(seed)
    b = random_two_step(4, rng)
    g = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    h = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    lhs = gl_action(g, gl_action(h, b))
    rhs = gl_action(g @ h, b)
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)
    _assert_matches_svd_route(g @ h, b, rhs)


@given(seed=st.integers(0, 10_000))
@example(seed=816)  # ||g.mu||^2 = 3.9e7, absolute residual 9.0e-9
@example(seed=3213)
@settings(max_examples=25, deadline=None)
def test_gl_action_preserves_jacobi(seed):
    rng = np.random.default_rng(seed)
    b = filiform(5)
    g = np.eye(5) + 0.4 * rng.standard_normal((5, 5))
    moved = gl_action(g, b)
    # relative to ||mu||^2, the scale validate_bracket uses
    assert jacobiator_residual(moved) < 1e-12 * max(1.0, moved.norm**2)
    _assert_matches_svd_route(g, b, moved)


@pytest.mark.parametrize("n", range(1, 9))
def test_inv_is_numpy_inv_bit_for_bit(n):
    # _inv calls numpy.linalg's private gufunc: a numpy that changes it fails here
    rng = np.random.default_rng(700 + n)
    for a in (rng.standard_normal((n, n)), rng.standard_normal((5, n, n)), rng.standard_normal((n, n)).T):
        got = _inv(a)
        assert got.dtype == np.float64 and np.array_equal(got, np.linalg.inv(a))


def test_inv_raises_linalgerror_on_a_singular_matrix():
    singular = np.diag([1.0, 1.0, 0.0])
    stack = np.stack([np.eye(3), singular, 2.0 * np.eye(3)])
    for a in (singular, np.zeros((3, 3)), stack):
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            _inv(a)
        # whatever the caller's error state: cointegrate_h runs under the first
        for state in ({"over": "raise", "invalid": "raise"}, {"all": "ignore"}):
            with np.errstate(**state), pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
                _inv(a)


def test_inv_of_a_nan_matrix_is_nan():
    # as numpy.linalg's inv: no LinAlgError and, with warnings as errors, no warning
    a = np.full((3, 3), np.nan)
    assert np.isnan(_inv(a)).all() and np.isnan(np.linalg.inv(a)).all()


@pytest.mark.parametrize("n", range(1, 9))
def test_gl_action_frame_is_the_stacked_action_bit_for_bit(n):
    rng = np.random.default_rng(800 + n)
    for _ in range(4):
        g = rng.standard_normal((n, n))
        c = rng.standard_normal((n, n, n))
        ginv = _inv(g)
        moved = _gl_action_frame(g, ginv, c.reshape(n, n * n))
        assert moved.shape == (n * n, n)
        assert np.array_equal(moved.reshape(n, n, n), _gl_action_coeffs(g, ginv, c))
    # a stack of frames runs the three products batched: each frame keeps the
    # bits of its own call, on (m, n, n) stacks and on (2, 3, n, n) ones,
    # transposed as the Cholesky factors of innerproduct_scal are
    rows = c.reshape(n, n * n)
    stacks = [rng.standard_normal((m, n, n)) for m in (1, 7, 32, 130)]
    stacks.append(rng.standard_normal((2, 3, n, n)).swapaxes(-1, -2))
    for g in stacks:
        ginv = _inv(g)
        moved = _gl_action_coeffs(g, ginv, c)
        assert moved.shape == g.shape[:-2] + (n, n, n)
        frames, inverses = g.reshape(-1, n, n), ginv.reshape(-1, n, n)
        for h, hinv, mu in zip(frames, inverses, moved.reshape(-1, n, n, n)):
            assert np.array_equal(mu, _gl_action_frame(h, hinv, rows).reshape(n, n, n))


# ---------------------------------------------------------------------------
# delta, its transpose, derivations


def test_delta_of_identity_is_bracket(heis):
    assert np.allclose(delta(heis, np.eye(3)).coeffs, heis.coeffs)


@pytest.mark.parametrize("n", range(3, 9))
def test_delta_matches_its_definition_on_basis_pairs(n):
    # delta_mu(alpha)(x, y) = mu(alpha x, y) + mu(x, alpha y) - alpha mu(x, y), pair by
    # pair through VTangent.apply: the reference for the one kernel _delta_coeffs,
    # which the derivation bases, delta_transpose and laplacian_delta all read
    rng = np.random.default_rng(700 + n)
    eye = np.eye(n)
    for b in dense_starts(n, 600 + n):
        alpha = rng.standard_normal((n, n))
        ref = np.array(
            [[b.apply(alpha @ x, y) + b.apply(x, alpha @ y) - alpha @ b.apply(x, y) for y in eye] for x in eye]
        )
        assert np.abs(delta(b, alpha).coeffs - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n", range(3, 9))
def test_stacked_delta_matches_the_delta_matrix_on_each_sample(n):
    # _delta_coeffs takes leading batch axes, and _delta_matrix batches it over
    # the n^2 unit matrices: a stack of samples must agree with the matrix of each
    rng = np.random.default_rng(800 + n)
    starts = dense_starts(n, 900 + n)
    alphas = rng.standard_normal((len(starts), n, n))
    stack = _delta_coeffs(np.array([b.coeffs for b in starts]), alphas)
    assert stack.shape == (len(starts), n, n, n)
    for out, b, alpha in zip(stack, starts, alphas):
        ref = (_delta_matrix(b.coeffs) @ alpha.reshape(-1)).reshape(n, n, n)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(delta(b, alpha).coeffs, out)


def test_delta_transpose_is_adjoint(rng):
    # a layout check: delta_transpose reads the transpose of the same matrix
    b = random_sphere_bracket(4, 11)
    a = rng.standard_normal((4, 4))
    v = VTangent(np.zeros((4, 4, 4)))
    w = rng.standard_normal((4, 4, 4))
    v = VTangent(0.5 * (w - w.transpose(1, 0, 2)))
    lhs = vn_inner(delta(b, a), v)
    rhs = float(np.sum(a * delta_transpose(b, v)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize(
    "bracket, dim",
    [
        (heisenberg(1.0), 6),
        (filiform(4), 7),
        (Bracket(np.zeros((2, 2, 2))), 4),
        (filiform(5), 9),
        (filiform(6), 11),
    ],
)
def test_derivation_dimensions(bracket, dim):
    assert len(derivation_basis(bracket)) == dim


def test_derivations_satisfy_leibniz(fil4):
    for d in derivation_basis(fil4):
        assert delta(fil4, d).norm < 1e-10


def test_heisenberg_weight_derivation(heis):
    d = np.diag([1.0, 1.0, 2.0])
    assert delta(heis, d).norm < 1e-14
