import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from multistat import networks
from multistat.networks import (
    Network,
    ParseError,
    builtin_network,
    hybrid_kinase,
    michaelis_menten,
    mixed_phosphorylation,
    parse_network,
    phosphorylation,
)

HK_FILE = """
# hybrid kinase with a response regulator
species: X1 X2 X3 X4 X5 X6
partition: 0: ; 1: X1 X2 X3 X4 ; 2: X5 X6
reaction: X1 -> X2 ; k1 = 1
reaction: X2 -> X3 ; k2 = 1
reaction: X3 -> X4 ; k3 = 2
reaction: X3 + X5 -> X1 + X6 ; k4 = 1
reaction: X4 + X5 -> X2 + X6 ; k5 = 1
reaction: X6 -> X5 ; k6 = 1
totals: T1 = 7/4 ; T2 = 1
"""


def test_parse_hk_file():
    net, part, totals = parse_network(HK_FILE)
    assert net.species == ["X1", "X2", "X3", "X4", "X5", "X6"]
    assert len(net.reactions) == 6
    assert part == [[], ["X1", "X2", "X3", "X4"], ["X5", "X6"]]
    assert totals == {"T1": Fraction(7, 4), "T2": 1}
    assert net.rates()["k3"] == 2
    # identical structure to the builtin
    ref, ref_part = hybrid_kinase()
    assert [(r.source, r.target) for r in net.reactions] == [
        (r.source, r.target) for r in ref.reactions
    ]
    assert part == ref_part


def test_readme_network_file_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```text\n(.*?)```", readme, re.S)
    example = [b for b in blocks if "species:" in b]
    assert len(example) == 1
    net, part, totals = parse_network(example[0])
    ref, ref_part = hybrid_kinase()
    assert [(r.source, r.target) for r in net.reactions] == [
        (r.source, r.target) for r in ref.reactions
    ]
    assert part == ref_part
    assert net.rates() == {"k1": 1, "k2": 1, "k3": 2, "k4": 1, "k5": 1, "k6": 1}
    assert totals == {"T1": Fraction(7, 4), "T2": 1}


def test_parse_decimal_and_fraction_rates():
    net, _, totals = parse_network(
        "species: A B\nreaction: A -> B ; k = 1.25\ntotals: T = 3/4"
    )
    assert net.rates()["k"] == Fraction(5, 4)
    assert totals["T"] == Fraction(3, 4)


def test_parse_multipliers():
    net, _, _ = parse_network("species: A B\nreaction: 2 A -> B ; k = 1")
    assert net.reactions[0].source == (("A", 2),)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("reaction: A -> B ; k = 1", "species"),
        ("species: A B\nreaction: A -> C ; k = 1", "unknown species"),
        ("species: A B\nreaction: A B ; k = 1", "line 2"),
        ("species: A B\nreaction: A -> B ; k = 0", "positive"),
        ("species: A B\nreaction: A -> B ; k = x", "line 2"),
        ("species: A B\nfrobnicate: yes", "unknown key"),
        ("species: A B\nreaction: A -> B ; k = 1\nreaction: A -> B ; q = 2", "duplicate"),
        ("species: A B\npartition: 1: A\nreaction: A -> B ; k=1", "partition"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_network(text)
    assert fragment.lower() in str(exc.value).lower()


def test_hk_conservation_laws():
    net, _ = hybrid_kinase()
    laws = net.conservation_laws()
    assert laws == [
        [1, 1, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 1],
    ]


def test_stoichiometric_matrix_hk():
    net, _ = hybrid_kinase()
    N = net.stoichiometric_matrix()
    # reaction X3 + X5 -> X1 + X6 is column 3
    col = [N[i][3] for i in range(6)]
    assert col == [1, 0, -1, 0, -1, 1]


def test_mass_action_matches_hand_written_odes():
    net, _ = hybrid_kinase()
    k = dict(k1=1.3, k2=0.7, k3=2.1, k4=0.9, k5=1.7, k6=0.4)
    polys = net.mass_action_system(k)
    rng = random.Random(1)
    for _ in range(50):
        x = [rng.uniform(0.1, 3.0) for _ in range(6)]
        x1, x2, x3, x4, x5, x6 = x
        hand = [
            -k["k1"] * x1 + k["k4"] * x3 * x5,
            k["k1"] * x1 - k["k2"] * x2 + k["k5"] * x4 * x5,
            k["k2"] * x2 - k["k3"] * x3 - k["k4"] * x3 * x5,
            k["k3"] * x3 - k["k5"] * x4 * x5,
            -k["k4"] * x3 * x5 - k["k5"] * x4 * x5 + k["k6"] * x6,
            k["k4"] * x3 * x5 + k["k5"] * x4 * x5 - k["k6"] * x6,
        ]
        got = oracles.evaluate(polys, x)
        for a, b in zip(got, hand):
            assert abs(a - b) < 1e-12


def test_mass_action_conserves_laws():
    for net, _ in (hybrid_kinase(), phosphorylation(2), mixed_phosphorylation()):
        k = {r.rate_name: Fraction(random.Random(0).randint(1, 5)) for r in net.reactions}
        polys = net.mass_action_system(k)
        rng = random.Random(9)
        x = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in net.species]
        f = [sum(c * _mono(x, m) for m, c in p.items()) for p in polys]
        for law in net.conservation_laws():
            assert sum(l * fi for l, fi in zip(law, f)) == 0


def _mono(x, m):
    out = Fraction(1)
    for xi, e in zip(x, m):
        out *= xi**e
    return out


def test_phospho_builtin_shapes():
    net, part = phosphorylation(2)
    assert len(net.species) == 9
    assert len(net.reactions) == 12
    assert part[0] == ["ES0", "ES1", "FS1", "FS2"]
    net3, _ = phosphorylation(3)
    assert len(net3.species) == 12
    assert len(net3.reactions) == 18
    assert len(net3.conservation_laws()) == 3


def test_michaelis_menten_builtin():
    net, part = michaelis_menten()
    assert len(net.species) == 4
    assert len(net.conservation_laws()) == 2


def test_builtin_lookup():
    assert builtin_network("hk")[0].name == "hybrid_kinase"
    assert builtin_network("phospho:3")[0].name == "phosphorylation_3"
    assert builtin_network("mm")[0].name == "michaelis_menten"
    assert builtin_network("mixed-phospho")[0].name == "mixed_phosphorylation"
    with pytest.raises(ValueError):
        builtin_network("nope")


def test_duplicate_species_rejected():
    with pytest.raises(ValueError):
        Network(["A", "A"], [])
