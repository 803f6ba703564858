"""The public surface of the package."""

import cnlse_ansatz

# removed in favour of the calls they passed through to:
# wp_pair(u, inv)[0] and [1], z_with_rate(params, t)[0], partial(field_A, params)
REMOVED = ("wp", "wp_prime", "ComplexValue", "z_of_t", "make_field_sampler")


def test_every_exported_name_resolves():
    for name in cnlse_ansatz.__all__:
        assert hasattr(cnlse_ansatz, name), name


def test_no_name_is_exported_twice():
    assert len(set(cnlse_ansatz.__all__)) == len(cnlse_ansatz.__all__)


def test_removed_names_stay_removed():
    for name in REMOVED:
        assert name not in cnlse_ansatz.__all__, name
        assert not hasattr(cnlse_ansatz, name), name
