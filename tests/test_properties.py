"""Property tests: seeded (derandomized) hypothesis searches against references."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gqms import commutators, fock
from helpers import csr_bits, form_matrix_by_terms

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
