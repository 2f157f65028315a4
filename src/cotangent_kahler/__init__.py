"""Kahler-Einstein metrics on punctured cotangent bundles of space forms.

The package builds, on the complement of the zero section in the cotangent
bundle of a positively curved space form, the family of metrics

    G = a sqrt(t) g_ij  (horizontal)  +  inverse block  (vertical),
    perturbed radially by a profile v(t) along the momentum,

together with the compatible almost-complex structure, and verifies
numerically that the pair is almost Kahler for every admissible profile,
Kahler exactly at the coupling ``a = sqrt(2c)``, and Einstein exactly on a
two-parameter family of profiles solving a radial Euler equation.

Index convention.  The adapted frame is indexed ``0..2n-1``: ``0..n-1``
are the horizontal fields ``delta_i = d/dq^i + p_k Gamma^k_{ih} d/dp_h``,
``n..2n-1`` the vertical fields ``d/dp_i``.  Each frame object is one
array: the metric ``G`` and ``J`` are ``(2n, 2n)`` (``J e_b = J[a, b]
e_a``), the connection is ``Gamma[a, b, c]`` (``nabla_{e_a} e_b =
Gamma[a, b, c] e_c``), the brackets are ``C[a, b, c]`` (``[e_a, e_b] =
C[a, b, c] e_c``) and the curvature is ``K[a, b, c, d]`` (``K(e_a, e_b)
e_c = K[a, b, c, d] e_d``): the output index is always last.
"""

__version__ = "0.1.0"
