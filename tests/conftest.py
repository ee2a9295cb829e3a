"""Helpers shared by the test modules."""

import numpy as np

from hpfold.encoder import (
    AxisDraw, PenaltyConfig, QuboProblem, VariableLayout, crossing_pairs, overlap_pairs,
)
from hpfold.polynomial import BinaryPolynomial


def problem_from_polynomial(poly: BinaryPolynomial, layout: VariableLayout) -> QuboProblem:
    """The QUBO with the terms of a quadratic polynomial, unit penalties and the x
    axis drawn for every pair of the layout, so that its ``qubo.json`` reloads."""
    n = layout.n_vars
    lin, quad = np.zeros(n), np.zeros((n, n))
    for key, coeff in poly.as_dict().items():
        if len(key) > 2:
            raise ValueError("polynomial degree exceeds 2")
        if len(key) == 1:
            lin[key] = coeff
        elif len(key) == 2:
            quad[key] = quad[key[::-1]] = coeff
    return QuboProblem(
        poly.coefficient(), lin, quad, layout,
        PenaltyConfig(1.0, 1.0, 1.0, 1.0, 1.0),
        AxisDraw(
            overlap=dict.fromkeys(overlap_pairs(layout.n_beads), "x"),
            crossing=dict.fromkeys(crossing_pairs(layout.n_beads), "x"),
        ),
    )
