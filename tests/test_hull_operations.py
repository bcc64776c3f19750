"""Hull operations built from the top residue against the entry-by-entry formulas.

A level-J element is decided by its top residue, so ``+``, ``-`` and quotient
maps are built by ``ProcyclicElement.from_int``.  The ``frozen_*`` functions
below are the earlier formulas, which computed every residue of the result on
its own; each operation must give the same element, or the same ``ValueError``
text, on random ruled and finite chains.
"""

import math

from hypothesis import given, settings, strategies as st

from limitper import ProcyclicElement, chain_make, maximal_chain, quotient

_RATIOS = (2, 3, 5, 6)
_INTS = st.integers(-10**6, 10**6)


def frozen_add(x, y):
    x._check_compatible(y)
    moduli = x.chain.terms(x.level)
    return ProcyclicElement(
        x.chain, x.level, tuple((a + b) % n for a, b, n in zip(x.residues, y.residues, moduli))
    )


def frozen_neg(x):
    moduli = x.chain.terms(x.level)
    return ProcyclicElement(x.chain, x.level, tuple((-a) % n for a, n in zip(x.residues, moduli)))


def frozen_apply(qmap, x, level=None):
    if x.chain != qmap.source:
        raise ValueError("element lives over a different chain than the map source")
    if level is None:
        level = 0
        while True:
            candidate = level + 1
            try:
                qmap.target.nth_term(candidate)
            except ValueError:
                break
            if qmap.source_level_for(candidate) > x.level:
                break
            level = candidate
        if level == 0:
            raise ValueError("element level too shallow for any target level")
    residues = []
    for t in range(1, level + 1):
        j = qmap.source_level_for(t)
        if j > x.level:
            raise ValueError(f"element level {x.level} cannot reach target level {t}")
        residues.append(x.residues[j - 1] % qmap.target.nth_term(t))
    return ProcyclicElement(qmap.target, level, tuple(residues))


def outcome(op, *args):
    """The result of ``op(*args)``, or the text of the ValueError it raises."""
    try:
        return op(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def chains(draw):
    """A ruled or finite chain; its first entry may be 1."""
    prefix = [draw(st.sampled_from((1, 2, 3, 4, 6)))]
    for r in draw(st.lists(st.sampled_from(_RATIOS), max_size=4)):
        prefix.append(prefix[-1] * r)
    return chain_make(prefix, draw(st.lists(st.sampled_from(_RATIOS), max_size=3)))


def levels(chain):
    return st.integers(1, 9 if chain.rule else len(chain.prefix))


@settings(deadline=None, max_examples=200)
@given(st.data(), chains(), _INTS, _INTS)
def test_sum_and_negative_match_the_residue_formulas(data, chain, j, k):
    level = data.draw(levels(chain))
    other = data.draw(st.sampled_from((level, max(level - 1, 1))))
    x = ProcyclicElement.from_int(chain, level, j)
    y = ProcyclicElement.from_int(chain, other, k)
    assert outcome(lambda: x + y) == outcome(frozen_add, x, y)
    assert outcome(lambda: x - y) == outcome(lambda: frozen_add(x, frozen_neg(y)))
    assert -x == frozen_neg(x)


@st.composite
def quotient_maps(draw):
    """A map onto a finite target (gcds of the source entries with a fixed M) or a ruled one."""
    source = draw(chains())
    if draw(st.booleans()):
        exponents = (draw(st.integers(0, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 1)))
        m = math.prod(p**e for p, e in zip((2, 3, 5), exponents))
        depth = draw(levels(source))
        entries = sorted({math.gcd(n, m) for n in source.terms(depth)})
        return quotient(source, chain_make(entries))
    if draw(st.booleans()):
        step = draw(st.integers(1, 3 if source.rule else min(3, len(source.prefix))))
        return quotient(source, source.subchain(step))
    return quotient(source, maximal_chain(source))


@settings(deadline=None, max_examples=300)
@given(st.data(), quotient_maps(), _INTS)
def test_quotient_apply_matches_the_residue_formulas(data, qmap, k):
    x = ProcyclicElement.from_int(qmap.source, data.draw(levels(qmap.source)), k)
    assert outcome(qmap.apply, x) == outcome(frozen_apply, qmap, x)
    level = data.draw(st.integers(1, 10))
    assert outcome(qmap.apply, x, level) == outcome(frozen_apply, qmap, x, level)


def test_shallow_and_unreachable_elements_give_the_old_errors():
    source = chain_make([2], [2])
    qmap = quotient(source, chain_make([4, 8]))
    x = ProcyclicElement.from_int(source, 1, 1)
    message = "ValueError: element level too shallow for any target level"
    assert outcome(qmap.apply, x) == outcome(frozen_apply, qmap, x) == message
    x = ProcyclicElement.from_int(source, 2, 3)
    message = "ValueError: element level 2 cannot reach target level 2"
    assert outcome(qmap.apply, x, 2) == outcome(frozen_apply, qmap, x, 2) == message
