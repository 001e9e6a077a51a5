"""AMBS and mutation numerics, pinned bit for bit.

The AMBS proposer's bootstrap ridge fit, its constant-liar proposals
and the mutation operator it shares with aging evolution are array
code whose every float operation and every draw from the generator
decide the architectures a search proposes.  These digests were
recorded at commit 4cd64a5, before the fit became one stacked solve,
the history was encoded once per proposal and a slot's mutants were
drawn in one call.  A rewrite that keeps each float operation's
operands and each value's draw leaves them unchanged; a reassociated
sum, a reordered draw or an extra draw moves them.  Like the perfbench
reference fingerprints they depend on the numpy/BLAS build.

The mutation digests were recorded through the per-row
``mutate_choices(space, choices, rng)`` of that commit, called once per
parent row in row order; :func:`mutate_choices` takes the whole parent
matrix and must consume the same stream.  The member-by-member fit and
the row-by-row mutation are also kept below as references, and the
array versions must equal them bit for bit over more shapes and seeds
than the digests cover.
"""

import hashlib
import json
import types

import numpy as np
import pytest

from repro.bench import capped_space
from repro.nas.spaces import get_space
from repro.search.ambs import AmbsProposer, RidgeEnsemble, encode_rows
from repro.search.proposer import mutate_choices

#: option-count profiles: 12 binary decisions (perfbench's nt3
#: cap-ops-2 table), 12 decisions of 13 options, 4–9 options, and 13s
#: with one 9
_SPACES = {
    "binary": lambda: capped_space(get_space("nt3-small", scale=0.05), 2),
    "uniform13": lambda: get_space("uno-small"),
    "mixed": lambda: get_space("nt3-small"),
    "combo": lambda: get_space("combo-small"),
}


def _hash(digest, *arrays):
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())


def _hash_state(digest, rng):
    digest.update(json.dumps(rng.bit_generator.state,
                             sort_keys=True).encode())


# -- RidgeEnsemble.fit ---------------------------------------------------
def _fit_digest(profile: str, n: str, dup: bool) -> str:
    """Weights, predictions and generator state of one 8-member fit on
    ``n`` seeded rows (``"d"``: as many rows as encoded columns;
    ``dup``: every row drawn from a quarter of them)."""
    dims = np.array(_SPACES[profile]().action_dims)
    rows_n = int(dims.sum()) + 1 if n == "d" else int(n)
    data = np.random.default_rng(rows_n)
    rows = data.integers(0, dims, size=(rows_n, len(dims)))
    if dup:
        rows = rows[data.integers(0, max(1, rows_n // 4), size=rows_n)]
    y = data.uniform(-1.0, 1.0, size=rows_n)
    x = encode_rows(rows, dims)
    model = RidgeEnsemble(8)
    rng = np.random.default_rng(17)
    model.fit(x, y, rng)
    digest = hashlib.sha256()
    _hash(digest, x, model._weights, *model.predict(x))
    _hash_state(digest, rng)
    return digest.hexdigest()


_FIT_DIGESTS = {
    ("binary", "10", False):
        "cd33e02ed092d00b95d625830dcfae8f02ac7a0c1d989e7c07013c82ed23dc28",
    ("binary", "2059", False):
        "29f9ecf623dc6dc63b0a4338f45977454b54d256e49e43b14626a25ace6aa744",
    ("binary", "300", False):
        "b32f5b1cb4814d1eac32fea487ddbc8155b7b62eba1b50dce16bc5b9fd0a4be5",
    ("binary", "300", True):
        "916fd43fc73c91ba556dea500c5ce564f26e0c85118de11a4eaa81bd712ea5e8",
    ("binary", "d", False):
        "b377754738ab46bd29da81738c46c52d2fecf8552380a9563ebeeb25175a6320",
    ("combo", "2059", True):
        "aa7e6ce0896cc3961198a2704f80c03ec326823f4433bc527fcb2ccf4c293804",
    ("mixed", "10", False):
        "2d5f44ff2ff227a1d2d671f2e05125003e950e75d97d047acafcd99407ec1775",
    ("mixed", "2059", False):
        "a64ba5bb91cc582abdce5f0050a8de92c6dc2fcb53342611ef316ca8e3340cba",
    ("mixed", "300", False):
        "3eb2bcbc8e168b17cb28630b7715f2a4c37755d11faca050fe84aff149a7f441",
    ("mixed", "300", True):
        "c0fe7d8753b7291ad806a9e685d3f3ae843c635dbc648a451d9d1de3b9c194c9",
    ("mixed", "d", False):
        "80c6bbc70daa2957190100c6fc1f1d2eff90c04bdff2246d41fbabd08b18576a",
    ("uniform13", "10", False):
        "c91faece3858d437e64d137ad13353e39d9912049b2be55d6888d554ca327216",
    ("uniform13", "2059", False):
        "6ac3a91adf1d34b55be940a097df3f50765ef29d186c2638a090b515c653f80c",
    ("uniform13", "300", False):
        "3cade463bee8943b1cda8781a21d48fae0a9baf049df7a0c37b3d77f135b7bd1",
    ("uniform13", "300", True):
        "b238dfc96b6d5c70100c465b345e3eaff2e67b4d80eb19ec0a8e1ff46b8610f7",
    ("uniform13", "d", False):
        "3dffbd58909b5fa844ee964c036a24236f8fd44eed1fc354b5bcc0d37e29a8e2",
}


@pytest.mark.parametrize("profile,n,dup", sorted(_FIT_DIGESTS))
def test_ridge_fit_is_pinned(profile, n, dup):
    assert _fit_digest(profile, n, dup) == _FIT_DIGESTS[profile, n, dup]


# -- AmbsProposer.propose --------------------------------------------------
#: scripted histories: name -> (observations, batch, seen watermark,
#: reward kind); "ties" rounds rewards to one decimal, "nan" fails one
#: evaluation in seven
_HISTORIES = {
    "warmup": (7, 6, None, "plain"),
    "nan": (60, 6, None, "nan"),
    "ties": (60, 11, None, "ties"),
    "window": (2100, 3, None, "plain"),
    "seen": (90, 6, 50, "plain"),
    "batch1": (40, 1, None, "plain"),
    "batch11": (40, 11, None, "plain"),
}


def _history(dims, size: int, kind: str):
    data = np.random.default_rng(size)
    actions = data.integers(0, dims, size=(size, len(dims)))
    rewards = data.uniform(-1.0, 1.0, size=size)
    if kind == "ties":
        rewards = np.round(rewards, 1)
    elif kind == "nan":
        rewards[::7] = np.nan
    return actions, rewards


def _propose_digest(profile: str, history: str) -> str:
    """Picks and generator state of one ``propose`` over a scripted
    history fed through ``observe``."""
    size, batch, seen, kind = _HISTORIES[history]
    proposer = AmbsProposer(_SPACES[profile]())
    loop = types.SimpleNamespace(rng=np.random.default_rng(23),
                                 batch=batch)
    actions, rewards = _history(proposer.dims, size, kind)
    for _ in proposer.observe(loop, actions, rewards):
        pass
    picks = proposer.propose(loop, seen)
    assert picks.shape == (batch, len(proposer.dims))
    digest = hashlib.sha256()
    _hash(digest, np.asarray(picks, dtype=np.int64))
    _hash_state(digest, loop.rng)
    return digest.hexdigest()


_PROPOSE_DIGESTS = {
    ("binary", "batch1"):
        "29edcf9223989973efef972c71b356504555e9647ca917a40a4da1c94c773167",
    ("binary", "batch11"):
        "a37d7e9fec837bb56ee3b1cfa63922b84b16c2547c1df5937ccc6f9b707cb9c1",
    ("binary", "nan"):
        "a498f168b0e98e9a16f1a1d0430ba2e581be9fa45c88fb1a2bdb35ab8fbe3a88",
    ("binary", "seen"):
        "e6c19f2aaa0560d2229c09422b56b7e65309ebe7f2698e68b3b215db214f064b",
    ("binary", "ties"):
        "c779889195bdc7a1ee2681d578e50e144c63f2f1e15f56911296bc6b2403bddd",
    ("binary", "warmup"):
        "4362a71975868ce831ac3f6a4d16b337085858151c7e8be35bf1b35b98178f3a",
    ("binary", "window"):
        "24b99e335194d871181636625e3abd97196f6364289fe5e6ae032def73e6dfbd",
    ("combo", "batch1"):
        "7829f5c1086a2eda1c58ec0fe798462c91c3d03dbad3ba6823bfeadcb5c3e19a",
    ("combo", "batch11"):
        "f0ab9e7a7fe7cd06e96791768336a7c9dc8870d1480a6cfd0d444965b4dfe5fe",
    ("combo", "nan"):
        "e4239aab1ce3a1e4d8151f52a8fb499232fb887d43ae1e002ed749ccd4f672e2",
    ("combo", "seen"):
        "e1fb7a00a8d155a5e84245ee07dbd9c03b27548cbd14e6ad836103219cf86d20",
    ("combo", "ties"):
        "142a75ab1ef2395df6530baaae20efe7296448705d0b9dd08586c123dc50bbd0",
    ("combo", "warmup"):
        "2c8496e929406ed2d85c5fc4ca3477c8c7672dd323b9a457b67bfd81976afe11",
    ("combo", "window"):
        "94f2d168c80f3543aa3755fc0e1ab9b08539d3e4626053b156449f5d785b5f42",
    ("mixed", "batch1"):
        "6bedd2aea5cadff05bf90a08fa9fa663e92855e553a87078bdac1760f1c4a457",
    ("mixed", "batch11"):
        "01d9ea727217f42ad5ba7e20d47eaac49db3ceff03c286765b877a362184e06b",
    ("mixed", "nan"):
        "ca3010c8be3fea9dea4363b2af1f0e22c979d309a591560629928d31e2040087",
    ("mixed", "seen"):
        "b8178260196ed42159d3f6d118e696e7020db7ef8917b6e258d8534c00aac3fa",
    ("mixed", "ties"):
        "6cf8e0320b5125f336f5db0aad5f48d8faaf3c0949be9cb4d94f29c0ff6ba5fc",
    ("mixed", "warmup"):
        "002355612922822f7f2cce50b2ed431db7f643d70e2ed7b042a84330a19c5675",
    ("mixed", "window"):
        "ede4f7db4a3d5902e67fd13d070caa633ba8475b3b2604b76f1f059d4df5e13a",
    ("uniform13", "batch1"):
        "5893f4d26c0d9461f926ad9e80c153d793584632756cb730421da942329bc2a7",
    ("uniform13", "batch11"):
        "456ef1965d68e1e650787ebfac61b3ab7529726b4b050e36c6b51648355d943d",
    ("uniform13", "nan"):
        "2bcf24f4ca12d7cedce6db19e95239139e7b2a3f6d355382bf6e4e40ef9ad638",
    ("uniform13", "seen"):
        "3dc14ae39a2ddb09cea136f624d2c13c32a2ff8c20cba59d391fcc96b88e1f3a",
    ("uniform13", "ties"):
        "4a0ca2f895e45b8d58660d0a6e4e34d89d1f357b6c73f319a1c44140b7819d3b",
    ("uniform13", "warmup"):
        "19fcd3a8e23eb8eadc5e93c52193defb41967bfe90a13fc7498c3ba6ee6fec05",
    ("uniform13", "window"):
        "8e786b9d40a781f593055035c45265a9224527002b4d113123b22c9c22313814",
}


@pytest.mark.parametrize("profile,history", sorted(_PROPOSE_DIGESTS))
def test_ambs_propose_is_pinned(profile, history):
    assert _propose_digest(profile, history) == \
        _PROPOSE_DIGESTS[profile, history]


# -- mutate_choices --------------------------------------------------------
#: option counts per decision; "partial" and "single" leave some
#: decisions with one option (not mutable), "fixed" leaves none mutable
_MUTATE_DIMS = {
    "binary": [2] * 12,
    "uniform13": [13] * 12,
    "mixed": [5, 4, 5, 5, 4, 5, 9, 4, 7, 9, 4, 7],
    "combo": [13] * 9 + [9] + [13] * 3,
    "partial": [1, 3, 3, 1, 3, 3],
    "single": [1, 1, 4, 1],
    "fixed": [1] * 6,
}


def _mutate_digest(profile: str) -> str:
    """Mutants and generator state of three calls (1, 32 and 7 parent
    rows) on one generator."""
    dims = np.array(_MUTATE_DIMS[profile])
    rng = np.random.default_rng(31)
    digest = hashlib.sha256()
    for k in (1, 32, 7):
        parents = np.random.default_rng(k).integers(0, dims,
                                                    size=(k, len(dims)))
        before = parents.copy()
        mutants = mutate_choices(dims, parents, rng)
        assert np.array_equal(parents, before)     # parents not touched
        _hash(digest, np.asarray(mutants, dtype=np.int64))
        _hash_state(digest, rng)
    return digest.hexdigest()


_MUTATE_DIGESTS = {
    "binary":
        "b5fe90343fb4a5ab0641a7f0c05b60256ab53bee2fcecaa7a95762f54f806796",
    "combo":
        "5b66a2fdeb11b3997f70e9a8a3064951f42ca214f58e625c130c582c5a788fa8",
    "fixed":
        "c5c045a21a10c2a5a13ab63b774dac668c3701fcec664a9e50c636c7aefb07d8",
    "mixed":
        "6490d43f6c21dc1bf361856c8310ce70955fe2b278d9a5cce1e7c7c68b8b9386",
    "partial":
        "7c8a0bd7a8ff40364cbb20455c350b9ad29f52a06f5f9ac999bdfb429fcb5ce5",
    "single":
        "229c1690171fc4240419e51490fd59c33286e36577a1598468f2e7a634b68592",
    "uniform13":
        "ae85c5e765d349224766ba83526ca47a3fb5f4ae9e8a1722556f5b23aa3229e1",
}


@pytest.mark.parametrize("profile", sorted(_MUTATE_DIGESTS))
def test_mutation_stream_is_pinned(profile):
    assert _mutate_digest(profile) == _MUTATE_DIGESTS[profile]


def test_mutation_without_a_mutable_decision_draws_nothing():
    dims = np.array(_MUTATE_DIMS["fixed"])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    parents = np.zeros((5, len(dims)), dtype=np.int64)
    assert np.array_equal(mutate_choices(dims, parents, rng), parents)
    assert rng.bit_generator.state == state


# -- the loop versions, as references --------------------------------------
def _fit_member_by_member(x, y, rng, members=8, lam=1e-2):
    """One bootstrap draw, ``gesv`` and weight row per member."""
    n, d = x.shape
    weights = np.empty((members, d))
    for m in range(members):
        idx = rng.integers(0, n, size=n)
        xm, ym = x[idx], y[idx]
        weights[m] = np.linalg.solve(xm.T @ xm + lam * np.eye(d), xm.T @ ym)
    return weights


def _mutate_row_by_row(dims, parents, rng):
    """One decision draw and one option draw per parent row."""
    mutable = [t for t, k in enumerate(dims) if k > 1]
    out = np.array(parents, dtype=np.int64)
    if not mutable:
        return out
    for row in out:
        t = mutable[rng.integers(len(mutable))]
        new = int(rng.integers(dims[t] - 1))
        row[t] = new + (new >= row[t])
    return out


@pytest.mark.parametrize("dims", [[2] * 12, [3] * 5, [13] * 12,
                                  [5, 4, 5, 5, 4, 5, 9, 4, 7, 9, 4, 7]])
@pytest.mark.parametrize("n", [3, 40, 250])
def test_stacked_fit_equals_the_member_by_member_fit(dims, n):
    dims = np.array(dims)
    for seed in range(4):
        data = np.random.default_rng(seed)
        rows = data.integers(0, dims, size=(n, len(dims)))
        rows = rows[data.integers(0, n, size=n)]        # duplicated rows
        x, y = encode_rows(rows, dims), data.normal(size=n)
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        model = RidgeEnsemble(8)
        model.fit(x, y, ours)
        assert np.array_equal(model._weights, _fit_member_by_member(x, y, ref))
        assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("mutable,options", [(7, 2), (12, 3), (50, 4),
                                             (30, 6), (1, 5), (9, None)])
def test_mutation_equals_the_row_by_row_draws(mutable, options):
    """Uniform option counts take the one broadcast call; ``None`` mixes
    counts 2–9, which the row loop draws.  One-option decisions are
    interleaved, and never mutate."""
    for seed in range(10):
        data = np.random.default_rng(seed)
        counts = (np.full(mutable, options) if options
                  else data.integers(2, 10, size=mutable))
        dims = np.insert(counts, data.integers(0, mutable, size=3), 1)
        parents = data.integers(0, dims, size=(33, len(dims)))
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for k in (1, 32):
            assert np.array_equal(mutate_choices(dims, parents[:k], ours),
                                  _mutate_row_by_row(dims, parents[:k], ref))
            assert ours.bit_generator.state == ref.bit_generator.state
