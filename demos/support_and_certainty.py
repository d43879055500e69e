"""Walk through the structural checks on one epistemic state.

Preparing psi and then testing for psi must succeed with certainty, so
every ontic state the preparation can produce has to sit inside the
response core (the xi = 1 region).  Chaining in positivity gives

    preparation support  <=  response core  <=  response support

and the overlap fraction asks how much of that containment survives for
a *different* outcome phi: the mass mu(.|psi) places on phi's preparable
set, relative to the Born probability it must explain.
"""

import numpy as np

from ontomodels.engines import parse_engine
from ontomodels.framework import (
    check_quantum_certainty,
    check_support_chain,
    measurement_of,
    overlap_fraction,
)
from ontomodels.hilbert import born_probability, random_state, state
from ontomodels.rng import stream
from ontomodels.zoo import get_model

SEED = 5


def main():
    model = get_model('ks')
    print('Model: {} ({})'.format(model.display_name, model.table_type))
    print()

    # Sample ontic states from the preparation of |0> and interrogate the
    # response function directly.
    psi = state([1, 0])
    plus = state([1, 1])
    mu = model.prepare_pure(psi)
    batch = mu.sampler(stream(SEED, 'lam'), 8)
    sm = measurement_of(psi)
    xi_same = model.respond.evaluate(psi, batch, sm)
    xi_orth = model.respond.evaluate(state([0, 1]), batch, measurement_of(state([0, 1])))
    xi_skew = model.respond.evaluate(plus, batch, measurement_of(plus))
    print('Eight ontic samples from the |0> preparation:')
    print('  xi(|0> passes) =', np.array2string(np.asarray(xi_same), precision=3))
    print('  xi(|1> passes) =', np.array2string(np.asarray(xi_orth), precision=3))
    print('  xi(|+> passes) =', np.array2string(np.asarray(xi_skew), precision=3))
    print('The prepared outcome is certain, its complement impossible, and')
    print('a skew outcome is decided 0/1 by the ontic state alone.')
    print()

    # The two containment checks, run as falsification tests.
    for check in (check_quantum_certainty, check_support_chain):
        worst = None
        for k in range(20):
            psi_k = random_state(model.dim, stream(SEED, 'state', k))
            res = check(model, psi_k, n_samples=10000, seed=SEED + k)
            assert res.passed, res.witness
            worst = res
        print('{:24s} no violation in 20 states x {} samples'.format(
            worst.name, worst.n_samples))
    print()

    # Overlap fraction for one non-orthogonal pair: the K-S model is
    # maximally psi-epistemic, so the full Born probability is explained
    # by epistemic overlap.
    engine = parse_engine('quad:33', seed=SEED)
    est = overlap_fraction(model, plus, psi, engine)
    print('Overlap fraction for the pair (|+>, |0>):')
    print('  born probability  {:.9f}'.format(born_probability(plus, psi)))
    print('  overlap fraction  {:.9f}  (engine {})'.format(est.value, est.spec))


if __name__ == '__main__':
    main()
