"""Property tests: seeded (derandomized) hypothesis searches against references and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gqms import commutators, fock, generator
from gqms import model as gm
from helpers import complex_gaussian, csr_bits, form_matrix_by_terms, haar_unitary, random_model

# coefficient parts: zeros of both signs, subnormals, large and ordinary floats
PARTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e300, -1.7e308]),
                  st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def forms(draw):
    d = draw(st.integers(1, 3))
    N_max = draw(st.integers(1, 5 if d < 3 else 3))
    coeffs = [complex(draw(PARTS), draw(PARTS)) for _ in range(2 * d + 1)]
    return d, N_max, np.array(coeffs)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(forms())
def test_form_matrix_is_the_sum_of_its_scaled_terms(form):
    d, N_max, coeffs = form
    lad = fock.build_ladders(fock.build_space(d, N_max))
    with np.errstate(over="ignore"):  # a large part times sqrt(n) may overflow, in both
        assert csr_bits(commutators.form_matrix(coeffs, lad)) == csr_bits(
            form_matrix_by_terms(coeffs, lad))


@st.composite
def seeded_models(draw):
    """A seeded Gaussian model with d <= 2 and m = 1..2d + 1 Kraus rows, and its rng."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 2))
    return rng, random_model(rng, d, draw(st.integers(1, 2 * d + 1)))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seeded_models(), st.integers(2, 5))
def test_generator_preserves_trace_and_hermiticity(seeded, N_max):
    rng, model = seeded
    space = fock.build_space(model.d, N_max)
    superop = generator.build_lindbladian(generator.build_operators(model, space))
    dim = space.interior_dim()
    X = np.zeros((space.D, space.D), dtype=complex)
    X[:dim, :dim] = complex_gaussian(rng, (dim, dim))
    H = X + X.conj().T
    Y, image = superop.apply(X), superop.apply(H)
    scale = 1e-12 * np.abs(Y).sum()
    assert abs(np.trace(Y)) <= scale
    assert abs(np.trace(image)) <= 1e-12 * np.abs(image).sum()
    assert np.array_equal(image, image.conj().T)
    assert np.abs(superop.apply(X.conj().T) - Y.conj().T).max() <= scale


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(seeded_models())
def test_kossakowski_matrix_is_invariant_under_kraus_mixing(seeded):
    rng, model = seeded
    K = gm.build_kossakowski(model.V, model.U).matrix
    mixed = gm.mix_kraus(model, haar_unitary(rng, model.m))
    assert np.abs(gm.build_kossakowski(mixed.V, mixed.U).matrix - K).max() <= 1e-12
