"""Traces of fixed seeds stay byte-identical.

The digests are sha256 sums of the files written by
``restaurant-pomdp run --scenario SCENARIO --seed SEED --policy POLICY``.
Any change to the model, the filter, a policy's tie-breaking or the random
streams shows up here; such a change must be argued, and the digests
re-recorded, deliberately.
"""

import hashlib

import pytest

from restaurant_pomdp.cli import main

GOLDEN = {
    ("paper-3tables", "greedy", 0): "7b5363f4ce1136ae35ec6f34e737e96587973e2f9ed0c399ee8e522e22ef78af",
    ("paper-3tables", "greedy", 1): "742c511738da0c82da2f0106b20c968c132b2bfee4b33485e5e199e947b63bc9",
    ("paper-3tables", "fcfs", 0): "0e5640dc5cedf59fc6deffcc128e10239a0f9d66fec1a30dd28ec34370163e6d",
    ("paper-3tables", "fcfs", 1): "16e2c1440af36a2786d6ae3f8da059066822050bfc08c459433692562779dd02",
    ("paper-3tables", "random", 0): "605205a8bec0d56304b30c0aca10fa4ac2b3469154d846de18117e4a2fb300e8",
    ("paper-3tables", "random", 1): "0eeebdaa1d1c3617d96f0545624cd6794ec178f047df8eb6c89bcf880f3a0572",
    ("paper-3tables", "mcts:budget=200", 0): "ba1eaf7499c47007da11757a89f9004c12c8549662c88858705fb55decc22909",
    ("small-1table", "mcts:budget=200", 0): "cd170f1eaf69bec7ded761cb1110d0192ebe6d4c502948eda9282b95fd3a2325",
    ("two-tables", "mcts:budget=200", 0): "72dbeb965ad6fda9c8aeb06fdcf3da024f5e2521ec71f6974bc1704b5a4f4e7a",
    ("two-tables", "mcts:budget=60,max_depth=3,exploration=5", 0): "55d6c91fd3d8e760ed208c62a6ded42306ae976fa086937f77326e0223666e87",
    ("two-tables", "expectimax", 0): "bf3afea9bbbbca458b9cce3692be528d7b044aace35e69babb48db3793003ba5",
    ("small-1table", "expectimax", 0): "44d74b39f600fc4cda2a95268d99fa428422a6a9eed2ba09057f507e6f668682",
    ("paper-3tables", "expectimax:depth=2", 0): "e6e931d0f8e4037213370f1948caebfbdc2911e2320bc9884884220163e0c290",
}


@pytest.mark.parametrize(
    "scenario,policy,seed", sorted(GOLDEN), ids=lambda v: str(v)
)
def test_trace_is_byte_identical(scenario, policy, seed, tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code = main([
        "run", "--scenario", scenario, "--seed", str(seed), "--policy", policy,
        "--out", str(out),
    ])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[scenario, policy, seed]
