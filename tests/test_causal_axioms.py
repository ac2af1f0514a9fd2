"""Pearl's counterfactual axioms as exact identities on benchgen hub programs.

Only the wmc backend can answer these programs, so the checks compare wmc
answers with each other and never enumerate (Galles & Pearl 1998; Pearl,
*Causality*, 2009, section 7.3).
"""
from fractions import Fraction

import pytest

from whatif import semantics, wmc
from whatif.benchgen import generate_instance, instance_to_program, sample_query
from whatif.counterfactual import answer_counterfactual, conditional
from whatif.model import CounterfactualQuery, literal_formula
from whatif.transforms import twin

HUB_CELLS = [(40, 3, 1), (60, 3, 8), (100, 3, 1), (40, 5, 2)]  # (n, k, seed)


@pytest.fixture(autouse=True)
def no_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a hub program was enumerated")

    monkeypatch.setattr(semantics, "marginal", refuse)


@pytest.mark.parametrize("n,k,seed", HUB_CELLS)
def test_consistency_effectiveness_and_no_intervention(n, k, seed):
    instance = generate_instance(n, k, seed)
    program = instance_to_program(instance)
    query = sample_query(instance, 2, 2, seed)
    assert query.evidence and query.interventions
    expected = conditional(program, query.query, query.evidence)
    assert type(expected) is Fraction and 0 < expected < 1

    # no interventions: the counterfactual is the conditional, also on the twin
    # network, which answer_counterfactual builds only with interventions
    observed = CounterfactualQuery(query.query, query.evidence)
    assert answer_counterfactual(program, observed) == expected
    assert wmc.conditional(*twin(program, observed)) == expected
    # consistency: forcing what the evidence already holds changes nothing
    held = CounterfactualQuery(query.query, query.evidence, query.evidence)
    assert answer_counterfactual(program, held) == expected
    # effectiveness: an intervened literal holds
    for lit in query.interventions:
        forced = CounterfactualQuery(literal_formula(lit), query.evidence, query.interventions)
        assert answer_counterfactual(program, forced) == 1
