import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    parse_number,
    parse_partition,
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


@pytest.mark.parametrize(
    "old,new,message",
    [("T2 = 1", "T1 = 1", "line 11: repeated total 'T1'"),
     ("T2 = 1\n", "T2 = 1\ntotals: T1 = 2 ; T2 = 5\n", "line 12: repeated key 'totals'"),
     ("T2 = 1\n", "T2 = 1\npartition: 0: ; 1: X1 X2 X3 X4 X5 ; 2: X6\n",
      "line 12: repeated key 'partition'"),
     ("partition:", "species: X1 X2\npartition:", "line 4: repeated key 'species'")],
)
def test_a_repeated_key_or_total_names_its_line(old, new, message):
    with pytest.raises(ParseError) as exc:
        parse_network(HK_FILE.replace(old, new))
    assert str(exc.value) == message


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


@pytest.mark.parametrize("value", ["0", "-1/2"])
def test_a_rate_that_is_not_positive_parses(value):
    # the steady-state parametrization decides every rate, from a file or
    # from --k alike
    net, _, _ = parse_network("species: A B\nreaction: A -> B ; k = " + value)
    assert net.rates() == {"k": Fraction(value)}


@pytest.mark.parametrize(
    "text,message",
    [
        ("species: A B\nreaction: A -> B ; k = 1/0", "line 2: not a number: '1/0'"),
        ("species: A B\nreaction: A -> B ; k = 1\ntotals: T1 = 1/0",
         "line 3: not a number: '1/0'"),
    ],
)
def test_division_by_zero_is_not_a_number(text, message):
    with pytest.raises(ParseError) as exc:
        parse_network(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "first,second,message",
    [
        ("k1 = 1", "B -> C ; k1 = 5", "rate 'k1' has two values: 1 and 5"),
        # the reaction without a rate is named k2, which the file gave a value
        ("k2 = 1", "B -> C", "rate 'k2' has two values: 1 and unset"),
    ],
)
def test_one_value_per_rate_name(first, second, message):
    with pytest.raises(ParseError) as exc:
        parse_network("species: A B C\nreaction: A -> B ; %s\nreaction: %s" % (first, second))
    assert str(exc.value) == message


def test_a_rate_name_shared_with_one_value_is_kept():
    net, _, _ = parse_network(
        "species: A B C\nreaction: A -> B ; k1 = 3/2\nreaction: B -> C ; k1 = 1.5")
    assert net.rates() == {"k1": Fraction(3, 2)}


@pytest.mark.parametrize(
    "text,value",
    [("7", 7), ("-7/4", Fraction(-7, 4)), ("+1.25", Fraction(5, 4)), (" .5 ", Fraction(1, 2)),
     ("1e3", 1000), ("2.5E-1", Fraction(1, 4)), ("-0.0", 0)],
)
def test_the_number_grammar(text, value):
    assert parse_number(text) == value


@pytest.mark.parametrize("text", ["1/0", "x", "", "1/2/3", "nan", "inf", "1 2", "0x10", "1/-2"])
def test_not_a_number(text):
    with pytest.raises(ParseError) as exc:
        parse_number(text)
    assert str(exc.value) == "not a number: %r" % text.strip()


@settings(max_examples=200)
@given(st.fractions())
def test_a_printed_rational_reads_back(q):
    assert parse_number(str(q)) == q


@pytest.mark.parametrize(
    "text,message",
    [
        ("0: ; 1: A", "partition must name every species exactly once"),
        ("0: ; 1: A B C", "partition must name every species exactly once"),
        ("0: A ; 1: A B", "partition must name every species exactly once"),
        ("0: ; 1: A ; 1: B", "partition block 1 given twice"),
        ("0: ; 2: A B", "partition blocks must be numbered 0..m"),
        ("1: A B", "partition blocks must be numbered 0..m"),
        ("0: ; x: A B", "bad partition block index 'x'"),
        ("0: ; A B", "partition blocks look like '1: X1 X2'"),
    ],
)
def test_partition_errors(text, message):
    with pytest.raises(ParseError) as exc:
        parse_partition(text, ["A", "B"])
    assert str(exc.value) == message


def test_partition_blocks_in_any_order():
    assert parse_partition(" 2: B ; 0: ; 1: A ;", ["A", "B"]) == [[], ["A"], ["B"]]


# -- the file grammar, written and read back -------------------------------

def _number_text(draw):
    """A positive rational and one way the grammar writes it."""
    kind = draw(st.sampled_from(["integer", "ratio", "decimal"]))
    sign = draw(st.sampled_from(["", "+"]))
    if kind == "integer":
        n = draw(st.integers(1, 10**6))
        return sign + str(n), Fraction(n)
    if kind == "ratio":
        p, q = draw(st.integers(1, 10**4)), draw(st.integers(1, 10**4))
        return sign + "%d/%d" % (p, q), Fraction(p, q)
    m, k = draw(st.integers(1, 10**6)), draw(st.integers(0, 4))
    e = draw(st.one_of(st.none(), st.integers(-3, 3)))
    text = "%d.%0*d" % (m // 10**k, k, m % 10**k) if k else "%d." % m
    value = Fraction(m, 10**k)
    if e is not None:
        text += draw(st.sampled_from("eE")) + str(e)
        value *= Fraction(10) ** e
    return sign + text, value


@st.composite
def _network_files(draw):
    species = ["S%d" % i for i in range(draw(st.integers(1, 5)))]
    cplx = st.dictionaries(st.sampled_from(species), st.integers(1, 3), max_size=3)
    pairs = draw(st.lists(st.tuples(cplx, cplx).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=6,
                          unique_by=lambda p: tuple(_key(c) for c in p)))
    body, reactions = [], []
    for i, (src, tgt) in enumerate(pairs):
        text, rate = _number_text(draw)
        body.append("reaction: %s -> %s ; r%d = %s" % (
            _write_complex(draw, src), _write_complex(draw, tgt), i, text))
        reactions.append((_key(src), _key(tgt), "r%d" % i, rate))
    top = draw(st.integers(0, 3))
    block = draw(st.lists(st.integers(0, top), min_size=len(species), max_size=len(species)))
    partition = [[s for s, b in zip(species, block) if b == i] for i in range(top + 1)]
    totals, written = {}, []
    for j in range(1, draw(st.integers(1, 3)) + 1):
        text, totals["T%d" % j] = _number_text(draw)
        written.append("T%d = %s" % (j, text))
    # reactions keep their order; the other lines go anywhere among them
    for line in ("species: " + " ".join(species),
                 "partition: " + " ; ".join("%d: %s" % (i, " ".join(partition[i]))
                                            for i in draw(st.permutations(range(top + 1)))),
                 "totals: " + " ; ".join(written)):
        body.insert(draw(st.integers(0, len(body))), line)
    return "\n".join(body), species, reactions, partition, totals


def _key(cplx):
    return tuple(sorted(cplx.items()))


def _write_complex(draw, cplx):
    if not cplx:
        return "0"
    sep = draw(st.sampled_from([" ", " * ", "*"]))
    return " + ".join(sp if c == 1 else "%d%s%s" % (c, sep, sp) for sp, c in cplx.items())


@settings(max_examples=100)
@given(_network_files())
def test_a_written_network_reads_back(case):
    text, species, reactions, partition, totals = case
    net, part, got_totals = parse_network(text)
    assert net.species == species
    assert [(r.source, r.target, r.rate_name, r.rate) for r in net.reactions] == reactions
    assert all(isinstance(r.rate, Fraction) for r in net.reactions)
    assert part == partition
    assert list(got_totals.items()) == list(totals.items())


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
