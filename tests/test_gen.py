"""The seeded generators in gen.py end on every draw."""
import random
import threading

import gen
from decolog.calculus import EffectKind


def _draw_axiom(seed):
    return gen.random_theory(random.Random(seed), EffectKind.EXCEPTIONS,
                             n_ops=1, products=False, n_axioms=1)


def test_random_theory_without_two_distinct_terms_raises():
    """With one operation and no products, a seed may leave no two distinct
    terms with the same ends; the axiom draw then raises at once."""
    outcome = []

    def draw():
        try:
            _draw_axiom(0)
        except ValueError as err:
            outcome.append(err)
    worker = threading.Thread(target=draw, daemon=True)
    worker.start()
    worker.join(1.0)
    assert not worker.is_alive()
    assert outcome and "no axiom can be drawn" in str(outcome[0])


def test_random_theory_draws_an_axiom_where_it_can():
    theory = _draw_axiom(4)
    assert len(theory.axioms) == 1
