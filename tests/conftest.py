"""Shared fixtures: desk-scale dictionary, datasets and trained networks.

Training fixtures are session-scoped because two of them take on the order
of a minute; every consumer sees the same deterministic artefacts.
"""

import struct

import pytest

import hunfold as hf
from hunfold.nets import init_network
from hunfold.training import TrainConfig, loss_nmse, train

DESK_M = 64
DESK_N = 16
DESK_K = 2
DESK_SIGMA2 = 0.1
DESK_DEPTH = 5
DESK_EPOCHS = 30


@pytest.fixture(scope="session")
def desk_dict():
    return hf.build_dictionary((DESK_M,), hf.draw_sampling(DESK_M, DESK_N, seed=101))


@pytest.fixture(scope="session")
def desk_train_data(desk_dict):
    return hf.gen_dataset(desk_dict, 5000, DESK_K, DESK_SIGMA2, seed=202)


@pytest.fixture(scope="session")
def desk_val_data(desk_dict):
    return hf.gen_dataset(desk_dict, 500, DESK_K, DESK_SIGMA2, seed=203)


def _train_desk(arch, desk_dict, train_ds, val_ds):
    net0 = init_network(arch, desk_dict, DESK_DEPTH, lam=0.1)
    cfg = TrainConfig(learning_rate=1e-3, batch_size=128, epochs=DESK_EPOCHS,
                      seed=7)
    init_val = loss_nmse(net0, val_ds)
    net, report = train(net0, train_ds, val_ds, cfg)
    return {"net": net, "report": report, "init_val": init_val,
            "elapsed": None}


@pytest.fixture(scope="session")
def trained_toeplitz1d(desk_dict, desk_train_data, desk_val_data):
    import time
    t0 = time.perf_counter()
    out = _train_desk("toeplitz1d", desk_dict, desk_train_data, desk_val_data)
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def trained_convlista(desk_dict, desk_train_data, desk_val_data):
    import time
    t0 = time.perf_counter()
    out = _train_desk("convlista", desk_dict, desk_train_data, desk_val_data)
    out["elapsed"] = time.perf_counter() - t0
    return out


# a complex entry that a file holds nowhere else, for poke()
SENTINEL = complex(12345.678, -8765.4321)


def poke(path, value, sentinel=SENTINEL):
    """Overwrite the one f64 real part and the one f64 imaginary part of
    ``sentinel`` in the file at ``path`` with those of ``value``: the file
    of an entry that its writer refuses to write."""
    data = path.read_bytes()
    for old, new in ((sentinel.real, value.real), (sentinel.imag, value.imag)):
        old, new = struct.pack("<d", old), struct.pack("<d", new)
        assert data.count(old) == 1
        data = data.replace(old, new)
    path.write_bytes(data)


def rand_carray(rng, shape, scale=1.0):
    return hf.ComplexArray(scale * rng.standard_normal(shape),
                           scale * rng.standard_normal(shape))
