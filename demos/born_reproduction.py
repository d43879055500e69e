"""Check that each implemented model reproduces the Born rule.

Every model predicts outcome probabilities by averaging its response
function over the epistemic state of the preparation.  Those predictions
have to match |<phi|psi>|^2 pair by pair.  Each model carries a default
integration engine suited to its ontic space: exact closed forms where
we have them, sphere quadrature for the qubit models, Monte Carlo for
the rest.
"""

from ontomodels.engines import parse_engine
from ontomodels.framework import born_suite_pairs, predict_probability, measurement_of
from ontomodels.hilbert import born_probability, random_state
from ontomodels.rng import stream
from ontomodels.zoo import get_model, table_models

SEED = 23
N_PAIRS = 40


def main():
    print('Born reproduction on {} random preparation/outcome pairs'.format(N_PAIRS))
    print()
    header = '{:8s} {:22s} {:10s} {:>12s}  verdict'.format(
        'model', 'type', 'engine', 'max dev')
    print(header)
    print('-' * len(header))
    for model in table_models():
        if not model.implemented:
            print('{:8s} {:22s} (declared only, nothing to run)'.format(
                model.name, model.table_type))
            continue
        engine = parse_engine(model.default_engine_spec, seed=SEED)
        report = born_suite_pairs(model, N_PAIRS, SEED, engine)
        print('{:8s} {:22s} {:10s} {:>12.3e}  {}'.format(
            model.name, model.table_type, engine.spec,
            report.max_deviation, 'PASS' if report.passed else 'FAIL'))

    # One pair in detail: the same probability four independent ways.
    model = get_model('ks')
    rng = stream(SEED, 'demo', 'pair')
    psi = random_state(2, rng)
    phi = random_state(2, rng)
    sm = measurement_of(phi)
    print()
    print('One qubit pair under the K-S model, all engines:')
    print('  Born target |<phi|psi>|^2 = {:.12f}'.format(born_probability(phi, psi)))
    for spec in ('quad:17', 'quad:33', 'mc:200000'):
        engine = parse_engine(spec, seed=SEED)
        est = predict_probability(model, psi, phi, sm, engine)
        err = '' if est.stderr is None else ' +/- {:.1e}'.format(est.stderr)
        print('  {:10s} predicts    {:.12f}{}'.format(spec, est.value, err))


if __name__ == '__main__':
    main()
