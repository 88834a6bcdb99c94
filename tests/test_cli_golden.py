"""Byte-stability of the CLI's stdout, pinned by sha256 digests.

Each command runs in-process through ``cli.main`` on matrix files written
from fixed seeds, and its exit code and the sha256 of its stdout must equal
the recorded values.  A change that moves any printed value, or the layout
around it, shows up here as a changed digest; a change that means to move
output updates the digest, so the diff of this file lists the changed
outputs.

The digests belong to the numpy/LAPACK build they were recorded with
(numpy 2.4.6 wheels with OpenBLAS 0.3.31, x86-64, Haswell kernels): another
build or CPU may round the last bit of a determinant, a matrix product or a
Haar draw differently, and then the affected entries fail although nothing
in bosonsim changed.
"""

import hashlib
import json

import numpy as np
import pytest

from bosonsim.cli import main
from bosonsim.transforms import matrix_to_jsonable, random_haar_unitary

MATRICES = {
    "u1": np.eye(1),
    "u4": random_haar_unitary(4, seed=5),
    "u6": random_haar_unitary(6, seed=6),
    "u8": random_haar_unitary(8, seed=8),
    "u12": random_haar_unitary(12, seed=12),
    "m6": np.random.default_rng(6).standard_normal((6, 6)),
    "m10": random_haar_unitary(10, seed=10),
    "nonunitary": np.diag([1.0, 2.0]),
}

# (id, argv with matrix names in place of paths, exit code, stdout sha256)
GOLDEN = [
    ("dist-d12-n6-json", ["distribution", "u12", "--in", "1,1,1,1,1,1,0,0,0,0,0,0"], 0,
     "4639959ec2c7e7030cbf7a1b0d3f2e5fcdac7a111e71a7bc37f4d157cddd456d"),
    ("dist-d8-n3-csv", ["distribution", "u8", "--in", "1,1,1,0,0,0,0,0", "--format", "csv"], 0,
     "731d5e8b4797fd5c76dfe5f942e748af9d6cfb7b35937802a35bbf1856d2186d"),
    ("dist-bunched-d4-json", ["distribution", "u4", "--in", "2,1,0,0"], 0,
     "b592671e74c8a20eb898471cb3a2addaa0a909d04ca1c5b8b6fcadcbe6167c59"),
    ("dist-bunched-d8-csv",
     ["distribution", "u8", "--in", "2,1,1,1,0,0,0,0", "--format", "csv"], 0,
     "29c87faedf6871e68a10ee0d155f7b370df7acf20d0b7b592532c9053bb8364c"),
    ("dist-identity-in-3", ["distribution", "u1", "--in", "3"], 0,
     "eaeda1147bf04f037ae4a465bef173a07869b13267d5ec0c6dd90b7002163b39"),
    ("dist-fermion-d8-json", ["distribution", "u8", "--in", "1,0,1,0,1,1,0,0", "--fermion"], 0,
     "719259a1d95bcbbd443a32b69bae22d895e0659aac855f9ff2a380c58f76426b"),
    ("dist-fermion-d8-csv",
     ["distribution", "u8", "--in", "1,1,0,1,0,0,1,0", "--fermion", "--format", "csv"], 0,
     "287f16788f5fbfc9ff25ba62b869d3d0493ff3d799474c6ad6f3a144e5bfec23"),
    ("sample-d6-n3-1e6",
     ["sample", "u6", "--in", "1,1,1,0,0,0", "--count", "1000000", "--seed", "1"], 0,
     "6f2bdf69b73deaeb80ca7882a8665240d2c13783a5fd9f64c1253bcc91d65ed8"),
    ("sample-bunched-d4",
     ["sample", "u4", "--in", "2,1,0,0", "--count", "10000", "--seed", "2"], 0,
     "b9fdc4447d670af7c15caa250dc5f5ef1e4d4ad725d89c443d7eb0efafe1fb6f"),
    ("amplitude-bunched-n8",
     ["amplitude", "u8", "--in", "2,2,1,1,1,1,0,0", "--out", "0,0,3,1,0,1,2,1"], 0,
     "125dde852e56cc4ac56a872bbb0bc135783afe73b8440b6f3282c2d77f8b0304"),
    ("amplitude-fermion",
     ["amplitude", "u8", "--in", "1,1,1,1,0,0,0,0", "--out", "0,1,0,1,1,0,1,0", "--fermion"], 0,
     "cc3a0c029fdd8691bd542dcdcf12e5178d5a77520c2554e39ac827591337c4a1"),
    ("expect-boson", ["expect", "u6", "--in", "3,0,1,0,0,2"], 0,
     "602065ae896fc72410a9d41080788ca760d652d840f57e9f84da2428235273f4"),
    ("expect-fermion", ["expect", "u6", "--in", "1,0,1,1,0,0", "--fermion"], 0,
     "5090cc5a49494685159e3ac51bbd91f80ad4b847abde6a9bbe608391f2af23da"),
    ("basis-d3-n3", ["basis", "--d", "3", "--n", "3"], 0,
     "a6a9cca71529c6d0912eebac5c24004eb8b76fd3e5cb95a46d61e748030fcbb6"),
    ("random-unitary-d4", ["random-unitary", "--d", "4", "--seed", "9"], 0,
     "85b8fb23edadac868014fdb4a6748ab5df230c8a031c43e4bbba891c3dc53e98"),
    ("check-unitary", ["check", "u6"], 0,
     "77534e99763d82bf4848a77c2dfbf2b3e2a076e8976c30fc560a5e996ac21894"),
    ("check-nonunitary", ["check", "nonunitary"], 3,
     "2509f701f412f08fd05250ace28146af8df85b5ad23565820c400de42ce17bbd"),
    ("permanent-glynn", ["permanent", "m10"], 0,
     "c95ee644986c825f2a72fd9be85cd54f77cc1674abe060cbbd5c1a2c9762c6ec"),
    ("permanent-naive", ["permanent", "m6", "--naive"], 0,
     "14cccd1a7b760c0a286b9acf9de6f081d18b21b63f522e47e782b6f384c8ea5e"),
]


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, matrix in MATRICES.items():
        path = folder / f"{name}.json"
        path.write_text(json.dumps(matrix_to_jsonable(matrix)))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize(
    "argv, code, digest", [case[1:] for case in GOLDEN], ids=[case[0] for case in GOLDEN]
)
def test_stdout_digest(matrix_files, capsys, argv, code, digest):
    assert main([matrix_files.get(arg, arg) for arg in argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
