"""Frame rotation, the test helper behind the Berezin invariance checks."""

from conethom.forms import Form


def rotate_frame(form: Form, matrix) -> Form:
    """Substitute e_i -> sum_j R[j][i] e_j in every term and re-expand.

    ``matrix`` is an exact rational n x n matrix R; the callers pass
    special orthogonal ones. Each term's fiber word is rebuilt as the
    wedge of its generators' images, which carry no one-form, so only the
    sorting of the new fiber words contributes signs.
    """
    chart = form.chart
    n = chart.n
    images = [
        sum((Form.fiber(chart, j + 1).scale(matrix[j][i]) for j in range(n)), Form.zero(chart))
        for i in range(n)
    ]
    out = Form.zero(chart)
    for (gauss, word), coeff in form.terms.items():
        piece = Form.single(chart, coeff, gauss=gauss, d=chart.names(word & chart.one_form_mask))
        for i in range(n):
            if word & chart.fiber_bit(i + 1):
                piece = piece.wedge(images[i])
        out = out + piece
    return out
