import pytest

from lagdelta.gallery import example_names, mesh_export, run_example


@pytest.mark.parametrize("name", example_names())
@pytest.mark.parametrize("samples", [0, -1])
def test_samples_below_one_rejected(name, samples):
    # with no sample, a claim would report its initial worst value as passed
    with pytest.raises(ValueError, match="samples must be >= 1"):
        run_example(name, samples=samples)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        mesh_export(name, samples=samples)
