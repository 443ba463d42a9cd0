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
    # caller-forced roles, parameter and pair
    ("h8 -1380 --d1 5 --d2 69 --d3 -4 --json",
     "cbc9f98cd95a5fa1b159b0d41944c62dbd66ba23e128fc8fb2d40307df8cb24d"),
    ("h8 520 --d1 5 --d2 8 --d3 13 --a 31 --json",
     "06d48b47cbeae0cd76490a617ff547667c350a3efcdd5f2cd19698e2236edbdd"),
    ("d4 680 --d1 17 --d2 8 --json",
     "25c3d4a3454079b35e33b6152f35ccec927daf8604d195aff35d6a4a8f41580a"),
    # the smallest H8 d whose generator takes the -q twist at infinity
    ("h8 8520 --json",
     "e73e467484e01b9de18455c837b2c18ea3e8bcc9eb0260f58e096b5118938a25"),
    ("h8 8520",
     "875d15f82c482cee42b799420d214be433638d7ef4a3dcf4491b11f8a88eb882"),
]

# Rejected inputs: the exit code and the one line on stderr.
REJECTED = [
    ("h8 -340 --d1 -4 --d2 5 --d3 17", 1,
     "(85/2) != 1 for prime 2 of part -4"),
    ("h8 -1380 --d1 -3 --d2 5 --d3 92", 2,
     "role assignment (-3, 5, 92) admits no generator congruent to a square "
     "mod 4; let the builder assign roles instead"),
    ("h8 -455 --d1 -7 --d2 5 --d3 13", 2,
     "pair (-7, 5) has product = 5 (mod 8); no twist of the generator is "
     "congruent to a square mod 4 for this role choice"),
    ("h8 520 --d1 5 --d2 8 --d3 14", 2,
     "part 14 is not a fundamental discriminant"),
    ("d4 680 --d1 8 --d2 34", 2, "8 * 34 does not divide 680"),
    ("d4 520 --d1 5 --d2 8", 1, "(8/5) != 1 for prime 5 of part 5"),
    ("h8 40", 1,
     "no H8-factorization: d = 40 = 5 · 8 has 2 prime discriminant factor(s); "
     "three nontrivial coprime parts are required"),
    ("d4 40", 1, "no D4-factorization: no admissible pair of parts for d = 40"),
]


@pytest.mark.parametrize("args, digest", FROZEN, ids=[a for a, _ in FROZEN])
def test_output_is_frozen(capsys, args, digest):
    assert main(args.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("args, code, message", REJECTED,
                         ids=[a for a, _, _ in REJECTED])
def test_rejection_is_frozen(capsys, args, code, message):
    assert main(args.split()) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
