"""nn numerics, pinned bit for bit.

Real-training rewards run every architecture through ``repro.nn``: the
sigmoid, ``Dense`` with each activation, ``Concatenate``, and one epoch
of ``TrainingReward``.  These digests were recorded at commit ee4a19c,
while the sigmoid still went through a boolean mask and
``Concatenate``'s backward through ``np.split``.  A rewrite that gives
every element the same float operations leaves them unchanged; a
reassociated product or a different formula moves them.  Like the
perfbench reference fingerprints they depend on the numpy/BLAS build.
"""

import hashlib

import numpy as np
import pytest

from repro import experiments
from repro.nas.arch import Architecture
from repro.nn import Concatenate, Dense, GraphModel
from repro.nn.config import dtype_scope
from repro.nn.layers import ACTIVATIONS
from repro.rewards import TrainingReward
from repro.rewards import training as reward_training

_DTYPES = ("float32", "float64")


def _hash(digest, *arrays):
    for arr in arrays:
        arr = np.asarray(arr)
        digest.update(f"{arr.dtype.str}{arr.shape}".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())


# -- the sigmoid ---------------------------------------------------------
#: lengths on both sides of every SIMD width (4 to 16 lanes) and its
#: unrolled multiples, so vector bodies and scalar tails both run
_LENGTHS = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
            127, 128, 129, 255, 256, 257, 1000, 1023, 1024, 1025, 3000)


def _special(dtype) -> np.ndarray:
    """Signed zeros, infinities, the smallest subnormal and normal, and
    the arguments where exp under- or overflows in float32 (±88.7,
    ±103.9) and float64 (±709.8, ±745.2)."""
    info = np.finfo(dtype)
    mags = [0.0, np.inf, info.smallest_subnormal, info.tiny, 88.7, 103.9,
            709.8, 745.2, 1.0, 0.5]
    return np.array([s * m for m in mags for s in (1.0, -1.0)], dtype=dtype)


def _sigmoid_digest(dtype: str) -> str:
    sigmoid = ACTIVATIONS["sigmoid"][0]
    data = np.random.default_rng(7)
    digest = hashlib.sha256()
    for n in _LENGTHS:
        scale = 10.0 ** data.uniform(-8.0, 3.0)
        x = (data.standard_normal(n) * scale).astype(dtype)
        _hash(digest, sigmoid(x))
    x = (data.standard_normal((64, 30)) * 4.0).astype(dtype)
    _hash(digest, sigmoid(x), sigmoid(x[:, ::3]), sigmoid(_special(dtype)))
    return digest.hexdigest()


_SIGMOID_DIGESTS = {
    "float32": "6231e07fcc15abc263c511a97dafc47d2e1bce16617a1072149ebc70ca55fe55",
    "float64": "5c5dea1bedfbaa87ad36e82dc6b04ac06e5e2981b377b55054aaf16c64b5a4d1",
}


@pytest.mark.parametrize("dtype", _DTYPES)
def test_sigmoid_is_pinned(dtype):
    assert _sigmoid_digest(dtype) == _SIGMOID_DIGESTS[dtype]


@pytest.mark.parametrize("dtype", _DTYPES)
def test_sigmoid_of_nan_is_nan(dtype):
    # isnan only: no caller reads the sign bit of a NaN, and it depends
    # on the formula (a form that exponentiates −|x| hands exp a NaN of
    # the other sign than one that exponentiates x), so it is not hashed
    x = np.array([np.nan, -np.nan, 1.0, np.nan], dtype=dtype)
    out = ACTIVATIONS["sigmoid"][0](x)
    assert np.isnan(out).tolist() == [True, True, False, True]


# -- Dense and Concatenate under a plan and eagerly ----------------------
def _run(model: GraphModel, inputs: dict, eager: bool, digest) -> None:
    """Forward, backward and every parameter gradient, twice (the second
    pass reuses the plan's pooled buffers), into ``digest``."""
    for _ in range(2):
        model.zero_grad()
        if eager:
            out = model.forward_eager(inputs, training=True)
        else:
            out = model.forward(inputs, training=True)
        grad = np.cos(np.arange(out.size, dtype=out.dtype)).reshape(out.shape)
        in_grads = (model.backward_eager(grad) if eager
                    else model.backward(grad))
        _hash(digest, out, *(in_grads[k] for k in sorted(in_grads)),
              *(p.grad for p in model.parameters()))


def _inputs(model: GraphModel, batch: int, dtype) -> dict:
    data = np.random.default_rng(batch)
    return {name: data.standard_normal((batch,) + spec.shape).astype(dtype)
            for name, spec in model.inputs.items()}


def _dense_model(activation: str) -> GraphModel:
    """``x → Dense(activation) → Dense(linear)``: the activation's layer
    is interior, so a plan may pool its output."""
    m = GraphModel()
    m.add_input("x", (17,))
    m.add("h", Dense(13, activation), ["x"])
    m.add("y", Dense(3), ["h"])
    m.set_output("y")
    return m


def _concat_model(arity: int, at_output: bool) -> GraphModel:
    """Two or three Dense branches, one of width 1, concatenated; the
    concat is the model output or feeds one more Dense."""
    m = GraphModel()
    widths = ((6, "relu"), (1, "sigmoid"), (9, "tanh"))[:arity]
    for i, (units, act) in enumerate(widths):
        m.add_input(f"x{i}", (5 + i,))
        m.add(f"d{i}", Dense(units, act), [f"x{i}"])
    m.add("cat", Concatenate(), [f"d{i}" for i in range(arity)])
    if at_output:
        m.set_output("cat")
    else:
        m.add("y", Dense(4, "sigmoid"), ["cat"])
        m.set_output("y")
    return m


_BUILDERS = {
    **{f"dense-{act}": (lambda act=act: _dense_model(act))
       for act in ("relu", "tanh", "sigmoid", "linear", "softmax")},
    "concat2": lambda: _concat_model(2, False),
    "concat3": lambda: _concat_model(3, False),
    "concat2-out": lambda: _concat_model(2, True),
    "concat3-out": lambda: _concat_model(3, True),
}


def _layer_digest(name: str, dtype: str, eager: bool) -> str:
    model = _BUILDERS[name]().build(np.random.default_rng(3), dtype=dtype)
    digest = hashlib.sha256()
    for batch in (64, 7):
        _run(model, _inputs(model, batch, dtype), eager, digest)
    return digest.hexdigest()


#: one digest per model and dtype: the compiled plan and the eager walk
#: must both reproduce it
_LAYER_DIGESTS = {
    ("concat2", "float32"):
        "1337ea29b3d90a9ae6b99895ed10c22325bd1334da1c5fce7cb1934f6c367bfe",
    ("concat2", "float64"):
        "b3726cba7dffc1efb7eb1adbbe20f90da92bb544e3ce860da37867a3f81676f6",
    ("concat2-out", "float32"):
        "2fcab740b81cf4becafe160bf80c68c332e4da0892cad698a17d9638af4691e2",
    ("concat2-out", "float64"):
        "968f5d03df5275a4227d439f66ec7877eecda1ee91493d9df8e5fed195196c23",
    ("concat3", "float32"):
        "8210d9ea313b4aadc0051e8b52dd6ecd9a6338242a4434889c9ae2ff0fd95eba",
    ("concat3", "float64"):
        "41e784574fc8d5cc40c1cd5c2c7dff4356ab4bff077b572af584e8f84f17d53d",
    ("concat3-out", "float32"):
        "c87c687615ddc0792d7eeda5cecbd9b74b2454b6e0113e00e044ce9c10caa5e6",
    ("concat3-out", "float64"):
        "086b1a7974fbd18daf140f904aa2e7f7c10dbbca7bf9f16172c87e6b89fd0718",
    ("dense-linear", "float32"):
        "ebf4f9c59c88b5626eb3bb033ed1988ee199d0b717dc79fbbe7d5598b71a4a9b",
    ("dense-linear", "float64"):
        "b725d6ed09de0cc1341e4d40fe3e3bc6d14c61b7173f62d89d9c62d9ebc800b9",
    ("dense-relu", "float32"):
        "e389be1c785c4e737acece7cca8c6c691d44e3997d3d650c8dde2d8b31bbf864",
    ("dense-relu", "float64"):
        "f02b7edee9f8c86f87349912f83cc80034dda66df42924cc8f8b391ba50043df",
    ("dense-sigmoid", "float32"):
        "2a31f381d0b49858cab8e4573cd6fd26d7cecfe5db9fb53c034e5dc0ce114c2e",
    ("dense-sigmoid", "float64"):
        "f65008b447034d0e861f3c71515eb58524c7e9c54264d75d4d9ef8c72090ec05",
    ("dense-softmax", "float32"):
        "d1b05cb95c55470482a0d7d152d261fd53072fe74bb358e779d2f6c2fa9c4138",
    ("dense-softmax", "float64"):
        "37a9392745d626dc866dcd173b72d7047cf1efe3dc97aa9796657898558b814e",
    ("dense-tanh", "float32"):
        "b31c32f4548e279698fc2032a3a7e3ec05a20e94913f937635ff1b5f0bacc8b6",
    ("dense-tanh", "float64"):
        "a6ce47f470c35d00ced92bd7d8ad3079755f75ed09114a3dcdbb0a96cc85b1e4",
}


@pytest.mark.parametrize("eager", [False, True])
@pytest.mark.parametrize("name,dtype", sorted(_LAYER_DIGESTS))
def test_layers_are_pinned(name, dtype, eager):
    assert _layer_digest(name, dtype, eager) == _LAYER_DIGESTS[name, dtype]


# -- one epoch of real training ------------------------------------------
#: combo-small choices: nine MLP nodes of 13 options (C0.B0, C0.B1,
#: C1.B0), C1.B1's 9 connect options, three more MLP nodes (C2.B0).
#: MLP options 3, 7 and 11 are sigmoid Dense layers; every combo
#: architecture concatenates C0's three blocks, and connect options 5–8
#: add a 2- or 3-input concat of the raw inputs.
_ARCHS = (
    (3, 0, 6, 3, 9, 0, 2, 6, 3, 5, 1, 6, 9),
    (6, 11, 6, 1, 0, 0, 3, 3, 3, 6, 9, 12, 0),
    (9, 2, 0, 6, 3, 4, 5, 9, 0, 8, 3, 0, 2),
    (1, 4, 7, 10, 3, 0, 0, 6, 11, 7, 0, 9, 3),
    (3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 3, 3, 3),
    (12, 9, 7, 2, 5, 8, 6, 0, 3, 5, 10, 11, 1),
)


@pytest.fixture(scope="module")
def combo():
    return experiments.working_problem("combo")


def _runs_sigmoid_and_concat(model: GraphModel) -> bool:
    layers = model.layers
    return (any(isinstance(layer, Dense) and layer.activation == "sigmoid"
                for layer in layers.values())
            and any(isinstance(layers[name], Concatenate) and len(srcs) > 1
                    for name, srcs in model.node_inputs.items()))


def _training_digest(problem, dtype: str, index: int, monkeypatch):
    """The reward of one epoch of ``TrainingReward`` and a digest of the
    trained flat parameters."""
    trained = []

    class _Capturing(reward_training.Trainer):
        def fit(self, model, *args, **kwargs):
            assert _runs_sigmoid_and_concat(model)
            history = super().fit(model, *args, **kwargs)
            trained.append(model.flatten_parameters().values.copy())
            return history

    monkeypatch.setattr(reward_training, "Trainer", _Capturing)
    reward = TrainingReward(problem, epochs=1, base_seed=5)
    with dtype_scope(dtype):
        res = reward.evaluate(Architecture(problem.space.name, _ARCHS[index]))
    digest = hashlib.sha256()
    _hash(digest, *trained)
    return res.reward, digest.hexdigest()


_TRAINING_DIGESTS = {
    ("float32", 0): (0.1174961165414744,
                    "b61ae4e1de70406c8d9b4c87ee563c4e679111391c102dca3adbcd9fec2f35a3"),
    ("float32", 1): (-0.6888472369906806,
                    "a6d85b488d3097b5e37bf70808856df66fa573459d73c10787b5280fe568ded5"),
    ("float32", 2): (0.11139071330574413,
                    "a3351ea961d07393d5baf6dff165fc6ac395858cec77fa534847ee54cd19c530"),
    ("float32", 3): (-0.7644843823700906,
                    "40646079c19985846ad8b464bd1e6437f0b2f909efa426fa2206c705ed3f40ce"),
    ("float32", 4): (-0.9498994927347955,
                    "16c69cd2d7f5551553c37013cf38d484d4dd2f6fd4ccb500dda7b43a306b4d21"),
    ("float32", 5): (-0.1840174825611527,
                    "fb5d46cb5d32779b29279c92fd40d45b3ea32c9490b128171775dca31d8cec3d"),
    ("float64", 0): (0.11749612627265649,
                    "0433ad6998b70a9dffe2abf2dd77160ee5c6ee7b4a00495642ef1212b8a294b8"),
    ("float64", 1): (-0.688847256901105,
                    "2eae5cb696df41ee4cc0ad909facb732d7772021e6f5ae09faa2cb0c5ff08cdd"),
    ("float64", 2): (0.11139073279436884,
                    "17f79eade1b46b88969c3cdcf53d20c90e92f027b971b7acf8da6c92ac7405a6"),
    ("float64", 3): (-0.7644844158529138,
                    "81d947873a61de7de0efba123ae6804b237a8b755f3137906107d9c8083ea2e3"),
    ("float64", 4): (-0.9498991896743307,
                    "7645b41254c384a5b16a892b34bd31d3c32c86c4e51cb87aebc790a1d88868c2"),
    ("float64", 5): (-0.18401750922524407,
                    "4d7ed509ad74cd83a02a179c217d7e76922e86934cb0389659769d04a6653b60"),
}


@pytest.mark.parametrize("dtype,index", sorted(_TRAINING_DIGESTS))
def test_training_reward_is_pinned(combo, dtype, index, monkeypatch):
    assert _training_digest(combo, dtype, index, monkeypatch) == \
        _TRAINING_DIGESTS[dtype, index]
