"""A worker's error reaches the calling process pickled, so every error type
must come back from pickle whole."""

import inspect
import pickle

import pytest

from lossprio import errors

EXAMPLES = {
    "AggregationError": errors.AggregationError("seed 2 has 3 evaluation points, seed 1 has 4"),
    "ConfigurationError": errors.ConfigurationError("seeds[0] = -2: must be nonnegative"),
    "IngestionError": errors.IngestionError("bad magic 0x0803", path="t10k", offset=0),
    "TrainingDivergedError": errors.TrainingDivergedError("non-finite loss", iteration=3),
}


def test_every_error_type_has_an_example():
    defined = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, Exception) and cls.__module__ == errors.__name__}
    assert defined == set(EXAMPLES)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_error_round_trips_through_pickle(name):
    # TrainingDivergedError used to raise "missing 1 required keyword-only
    # argument: 'iteration'" from pickle.loads
    error = EXAMPLES[name]
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert (str(copy), copy.args, vars(copy)) == (str(error), error.args, vars(error))
