"""Stdout of a fixed list of CLI invocations, pinned by sha256.

A change that must keep output byte-identical keeps these digests.  Float
formatting and HiGHS solutions can move with the numerical libraries, so
the test runs only under the numpy and scipy versions the digests were
taken with; on other versions it is skipped.
"""

import hashlib

import numpy as np
import pytest
import scipy

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
    ("bell-check --target pr-box", "9dad03140539b1b41b57fb439d4240c54447097e08c567e969fdc7915e2a2ad8"),
]


@pytest.mark.skipif(
    (np.__version__, scipy.__version__) != (NUMPY_VERSION, SCIPY_VERSION),
    reason=f"digests were taken with numpy {NUMPY_VERSION}, scipy {SCIPY_VERSION}",
)
@pytest.mark.parametrize("command, digest", GOLDEN, ids=[command for command, _ in GOLDEN])
def test_stdout_digest(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
