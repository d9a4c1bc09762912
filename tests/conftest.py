"""Inputs shared by the field and Kloosterman tests."""

import math

import pytest

from heckedist import Ideal, make_field
from heckedist.fields import _table_coords


def negative(ideal, x):
    """The reduced int coordinates of -x mod the ideal."""
    return ideal.reduce_coords(*(-v for v in x))


def unit_inverse_pairs(ideal):
    """[(x, x^{-1})] for the units of O/I, as reduced int coordinate tuples in
    the lex order of residue_coords(): the pairs of ideal._unit_table(), one
    unit of each {x, -x}, with (-x, -x^{-1}) for each."""
    table, k = ideal._unit_table(), ideal.field.degree
    kept = zip(_table_coords(table, k, 0), _table_coords(table, k, k))
    return sorted({pair for x, y in kept
                   for pair in ((x, y), (negative(ideal, x), negative(ideal, y)))})


def hnf_ideals(field, max_norm):
    """Every nonzero integral ideal of norm <= max_norm, as g*(aZ + (b + w)Z) in HNF."""
    if field.degree == 1:
        return [Ideal(field, ((n,),)) for n in range(1, max_norm + 1)]
    t, c = field.t, field.c
    return [Ideal(field, ((g * a, 0), (g * b, g)))
            for g in range(1, math.isqrt(max_norm) + 1)
            for a in range(1, max_norm // (g * g) + 1)
            for b in range(a) if (b * b + t * b - c) % a == 0]


@pytest.fixture(scope="session")
def enumerated_ideals():
    """Every ideal of norm <= 60 in Q and Q(sqrt m), m = 2, 3, 5, 10, 13, 94: inert,
    ramified and split primes, contents g > 1, a class number 2 field and the unit ideal."""
    return [ideal for spec in ("Q", 2, 3, 5, 10, 13, 94)
            for ideal in hnf_ideals(make_field(spec), 60)]
