"""Stdout of a fixed list of CLI invocations, pinned by sha256.

A change that must keep output byte-identical keeps these digests.  Float
formatting and HiGHS solutions can move with the numerical libraries, so
the test runs only under the numpy and scipy versions the digests were
taken with; on other versions it is skipped.
"""

import hashlib
import json

import numpy as np
import pytest
import scipy
from test_belllp import detected_group, vertex_mixture

from ejmnet.cli import main

NUMPY_VERSION = "2.4.6"
SCIPY_VERSION = "1.17.1"

GOLDEN = [
    ("triangle", "53658a81fea83c169ea6c6fc31d7f516474b75c41a0ceb0c6952f4b915f01817"),
    ("triangle --format csv", "8977de0a287a3fb710304783a307ab8e722a57cc85ea841528f94883bed11b93"),
    ("line --n 6", "e71f4ca6acb7e39b4d7ba5da324cbbe4a9a30e25f7a7e015269dad6e0da46b45"),
    ("line --n 6 --format csv", "3ffb7bf2833c27ce689b817c86cf8c36e974a81e3c0d5ceff603b9c5bfb1b8e5"),
    (
        "polygon --n 5 --event tuple=1,2,3,4,1",
        "895f9d8e16f57259fab7d705567bb04aa94937845ed713bfec5e1701bb1636c9",
    ),
    ("stats --n 4", "becc5e78c91b5c5e6c88aa1b06f4caf084f2774b690e4a6d35cd2eaf2abcc3a7"),
    ("table2 --max-n 64", "619968e3f520c05714a27dc40a74088df74dd5c709cca3f94f47debbd4406909"),
    (
        "qmodel --scan 0:1:0.25 --audit",
        "7e342ec679bcb110c8e3f71ed3d4137e32434a23a05f67947d3109ff63dc2f0f",
    ),
    (
        "qmodel --scan 0:1:0.25 --audit --format csv",
        "946a2411222aa0f5556e91b0876c121061e753deb4f883275d38a150767157fb",
    ),
    ("asym", "9ecf3300ef80cefd72d29ce9d66ce7c16c62eb3e986c494b47a45b6d3b71e2a7"),
    (
        "search --method anneal --cardinality 3 --n 4 --seed 7 --steps 2000",
        "59da838b523b0d102de143de839574f7b9e1a7ecb31750c20ea969beac1845cd",
    ),
    (
        "search --method anneal --cardinality 4 --n 5 --seed 3 --steps 500",
        "272fe560910e11c3d21fd0b3aa93d9c3dc8c9573895c9eafedf78f5fbf59ec36",
    ),
    (
        "search --method anneal --objective l1 --target ejm-triangle --cardinality 4 --seed 11 "
        "--steps 1000",
        "cf42973d1d17ebeb62f669e0e14d730a8fa72b2eadc006a14464de8eec780928",
    ),
    ("bell-check --target pr-box", "66f055394ea3d6972bc50cd9471205c7f646e3e8021c524586f179ddb9d69fb8"),
    ("bell-check --target ejm-line", "c04adc29ffbd71851dd220c7430b1d881fa145679c76dc0fd0a4a6826d5d9748"),
    ("bell-check --target uniform", "8e127f760eebd317d1561074a87fc2c559a69dc3ab45feb8efd0fdd140238d0b"),
    ("search --method exhaustive", "8003cda7c79653096127503953a5e07ea719e72661f287e0224a7d809890b8e1"),
    (
        "search --method exhaustive --optimize-weights",
        "581a582a3d44e13581572c3268447c4f9220277aad05905b63c1f8907d13d921",
    ),
    (
        "search --method exhaustive --objective l1 --target ejm-triangle",
        "63df27fbb82d4ee99c213a48f08481732b3692ae390fde8a42eb5686685e5d3a",
    ),
    (
        "search --method exhaustive --objective linf --target ejm-triangle-coarse",
        "274f87e0474a6a538b57c5ff55da0e5d829e96e98118b626b3adc4b284912c2a",
    ),
    ("line --n 8", "a325d0edae987cfb6f39ebdbdafd8e9e92b3631ce4c1f61f118e52cad088a551"),
    (
        "polygon --n 7 --basis bsm --format csv",
        "ce8113af2620212188f79bc0725744f14b7d980e19d6feef0bd8e8b4f214e6ba",
    ),
    (
        "stats --topology line --n 8 --basis ejmz",
        "50ac77ab5d4c9011019b265947c5d89d0f95307eeb178423edb5a174f58a14d8",
    ),
    ("line --n 1 --format csv", "f9e48dbe1da576e85804bf613c5d8698bdacb2bddd176c3fbc6c87cc543eb768"),
    ("line --n 3 --basis mp", "8a61e5ed03914088cbce781b7303536793a062d2942d2b5e89cee27a607a56ee"),
    (
        "line --n 3 --basis mp --format csv",
        "615d11deb6eca861d3c9bc72e8b84cfabf1c9da4ce6d8694083a087b620a5727",
    ),
    ("line --n 12 --event prefix:5", "8e821fb5bfecf0943bef796294d7666e8073a51ba7399a22b35ef4382b262a09"),
    (
        "polygon --n 40 --basis mp --event all-equal",
        "5a7b7e14d6dcb64cf900ec56572dc731e5f9a29a8d0cbc40f36c48865d486508",
    ),
    ("verify-all", "bfe951f92c43ec8ed8b0819ca99b0e01f224b5e105170ba7977cc25fffb80ace"),
    ("verify-all --no-lp", "5240a36174fd4afde867c9600a5a8be051cf8e803495761dc877e53fd05de495"),
    (
        "line --n 8 --basis mp --format csv",
        "f507298b344da583027db3f3a0918ce3aab3fbfdf5c25721d359b903657ec8bc",
    ),
    ("polygon --n 8 --basis ejmz", "0af544b9991d90efdb56d21edd3a1f3d5bedb7c3a89b0a72cdf174385d181453"),
    ("line --n 7 --basis bsm", "ee14c1d3c0f56d477878c9fbcb67608e623a2abb8a895c83b9dcb71c30f2a208"),
    (
        "search --method exhaustive --objective l1 --target ejm-triangle --optimize-weights",
        "c2db01769b1c334e16524980270cf886ec23c0e1aa145fcfe8058508a58fc8cd",
    ),
    (
        "search --method exhaustive --objective linf --target ejm-triangle-coarse --optimize-weights",
        "a23b64b5f64ef16c9ffb367ca35aa8a1e7aa45b61e7f6062d68810278eaf59e7",
    ),
]


pinned = pytest.mark.skipif(
    (np.__version__, scipy.__version__) != (NUMPY_VERSION, SCIPY_VERSION),
    reason=f"digests were taken with numpy {NUMPY_VERSION}, scipy {SCIPY_VERSION}",
)


def stdout_digest(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pinned
@pytest.mark.parametrize("command, digest", GOLDEN, ids=[command for command, _ in GOLDEN])
def test_stdout_digest(capsys, command, digest):
    assert stdout_digest(capsys, command) == digest


@pinned
def test_digests_hold_forwards_then_in_reverse(capsys):
    """What one call leaves cached in the process does not change another's stdout."""
    for command, digest in GOLDEN + GOLDEN[::-1]:
        assert stdout_digest(capsys, command) == digest, command


@pinned
def test_trivial_group_local_digest(capsys, tmp_path, monkeypatch):
    """A LOCAL verdict under the trivial group, whose weights are the orbit master's own."""
    target = vertex_mixture(np.random.default_rng(20), 20)
    assert detected_group(target) == (0,)
    # A relative path keeps the echoed "file:" name, and so the digest, fixed.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mixture.json").write_text(json.dumps(target.tolist()))
    digest = "0c24b18e7ddb4183fa6fddbc0b3713dd62a11afc48955bae6e43a41d8613a0c5"
    assert stdout_digest(capsys, "bell-check --target-file mixture.json") == digest
