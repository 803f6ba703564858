"""The public surface of the package, and the state its modules hold."""

import importlib
import pkgutil

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


def test_the_only_memos_are_the_lattice_ones():
    # per-time and per-curve state lives on the values that own it (a time
    # row, a curve object): module-level memos are keyed on a lattice alone
    memos = set()
    for info in pkgutil.iter_modules(cnlse_ansatz.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"cnlse_ansatz.{info.name}")
        memos |= {f"{memo.__module__}.{memo.__qualname__}" for memo in vars(module).values()
                  if hasattr(memo, "cache_clear")}
    assert memos == {"cnlse_ansatz.elliptic._laurent_matrix", "cnlse_ansatz.elliptic._real_period"}
