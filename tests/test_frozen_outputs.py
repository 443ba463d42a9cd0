"""Frozen CLI outputs: a refactor must leave these bytes unchanged.

Each digest is the sha256 of the stdout of `quatext <args>`; the
subprocess CLI prints the same bytes as `main` run in-process.  Change a
digest only together with a deliberate, documented change of output.
"""

import hashlib

import pytest

from quatext.cli import main

FROZEN = [
    ("table2 --json",
     "bc8df3c36a79237f4c727a6d2360be26e0947c32a6c1df578a3ca3b93c6da22d"),
    ("scan -2000..2000 --h8 --json",
     "3f8dbcdb8a06d3fe6b60275d96ab4e4b248979eb2c22ec2de3003dc026610c71"),
    ("scan -2000..2000 --d4 --json",
     "acbe290bb82ba6a00ad4dd86d229a95df760a0999c6dbc7b3003987049374220"),
    ("h8 -1380 --json",
     "b4bd630c4596b599ee5485dd65669a38bc497529387217971f42f16ecaa36452"),
    ("d4 -1380 --json",
     "57870f46fcf47b5647d92a33b3315a0753f5d6ce928e7d273dea214aa6fc1402"),
    ("table2",
     "2aa39c556ed415de4d6b90fe656379c5458a5107b82a4cfd52ab9013c5da9d5a"),
    ("scan -2000..2000 --h8",
     "4efbf736195830e32a878f518f9fbbeb7498c10c30161fe843f36e95aa11ff93"),
    ("scan -2000..2000 --d4",
     "35cc5f3570ad4b3d45771e29f83f23bd3490d0d90c3574e3cdd4e3376a38dacf"),
    ("h8 -1380",
     "8b332af6565e94d61c6249dc9ad937332112ac263e92c08b43fb72257a6486cf"),
    ("d4 -1380",
     "bad11cabbffb412c8bcdc4643d929685d3dfe9bd4ced0d38947d2c8642eda210"),
    # many conic presearch hits and twists; the second has failed entries
    ("scan 1..5000 --d4 --json",
     "057a2c147c5e4494d3e7703453d25aff5723f444cac40d28b6f43288498be1eb"),
    ("scan -3000..3000 --h8 --max-a 2 --json",
     "f15d9612e507bbc79ca253972adbe3236ed1f9e0412a2b34d92f88bff85799c6"),
]


@pytest.mark.parametrize("args, digest", FROZEN, ids=[a for a, _ in FROZEN])
def test_output_is_frozen(capsys, args, digest):
    assert main(args.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
