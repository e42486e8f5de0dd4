"""The mapping cone's slot rules, the reference for pairs as forms a + theta b.

Before theta joined the form algebra, a pair (a, b) was two plain forms,
and each operation restated where its signs fall. Those rules are kept
here verbatim, over tuples of theta-free forms, so that the theta route
of ``conethom.cone`` can be checked against the route it replaced.
"""

from conethom.forms import Form


def parity_involution(form: Form) -> Form:
    """Negate terms of odd word length (form degree plus fiber degree);
    the grading involution used by the pair product."""
    return Form(form.chart, {t: -c if t.word.bit_count() & 1 else c for t, c in form.terms.items()})


def wedge(p, q):
    """(a1, b1)(a2, b2) = (a1 a2, b1 a2 + P(a1) b2): second components
    never meet."""
    (a1, b1), (a2, b2) = p, q
    return a1.wedge(a2), b1.wedge(a2) + parity_involution(a1).wedge(b2)


def cone_d(p, omega: Form):
    """(da + omega^b, -db)."""
    a, b = p
    return a.d() + omega.wedge(b), -b.d()


def cone_covariant(eta, phi, omega: Form, p):
    """(covariant d of a + omega ^ b, derivation of a - covariant d of b)."""
    a, b = p
    return eta.covariant_d(a) + omega.wedge(b), phi.derivation(a) - eta.covariant_d(b)


def contract_tautological(p):
    """Plain on the first slot, negated on the second."""
    a, b = p
    return a.contract_tautological(), -b.contract_tautological()


def berezin(p):
    a, b = p
    return a.berezin(), b.berezin()
