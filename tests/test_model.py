"""Instance model, normalization, generators, and file round-trips."""

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icx.errors import BadParams, CannotNormalize, ParseError
from icx.model import (
    Destination,
    FamilyTag,
    Instance,
    check_family,
    gen_neighboring_antidotes,
    gen_neighboring_interference,
    gen_x_network,
    instance_to_json,
    normalize,
    normalize_groupcast,
    parse_instance,
    serialize_instance,
    validate,
    x_network_sets,
)
from icx.symmetric import builtin_example

from conftest import is_multiple_unicast


def make_destinations(dests):
    return tuple(Destination(i + 1, frozenset(w), frozenset(h)) for i, (w, h) in enumerate(dests))


def make_instance(num_messages, dests, family=None):
    return Instance(num_messages, make_destinations(dests), family)


# The five-destination notation example: every destination wants its own
# message and holds two specific others.
NOTATION_EXAMPLE = make_instance(
    5,
    [
        ({1}, {5, 2}),
        ({2}, {1, 4}),
        ({3}, {2, 4}),
        ({4}, {3, 5}),
        ({5}, {4, 1}),
    ],
)


def test_validate_ok_on_notation_example():
    assert validate(NOTATION_EXAMPLE.num_messages, NOTATION_EXAMPLE.destinations) == []


def test_validate_overlap():
    msgs = validate(3, make_destinations([({1}, {1})]))
    assert any("message 1 both desired and held" in v for v in msgs)


def test_validate_unknown_id():
    msgs = validate(5, make_destinations([({1}, {7})]))
    assert any("unknown message id 7" in v for v in msgs)


def test_validate_empty_wants():
    assert any("desires no message" in v for v in validate(2, make_destinations([(set(), {1})])))


@pytest.mark.parametrize(
    "num_messages, dests, violations",
    [
        (0, [], "instance must have at least one message"),
        (0, [({1}, set())], "instance must have at least one message; destination 1: unknown message id 1"),
        (2, [Destination(1, {1}, ()), Destination(1, {2}, ())], "duplicate destination ids"),
        (2, [({3}, set())], "destination 1: unknown message id 3"),
        (2, [({1}, {3})], "destination 1: unknown message id 3"),
        (2, [(set(), {1})], "destination 1: desires no message"),
        (2, [({1}, {1})], "destination 1: message 1 both desired and held"),
        (3, [({1, 2}, {2, 3}), ({3}, {3})], "destination 1: message 2 both desired and held; "
         "destination 2: message 3 both desired and held"),
    ],
    ids=["no-messages", "no-messages-unknown-id", "duplicate-ids", "unknown-wanted", "unknown-held",
         "empty-wants", "wanted-and-held", "two-violations"],
)
def test_instance_cannot_be_built_invalid(num_messages, dests, violations):
    """Each violation ``validate`` names is refused where an Instance is
    made, with the violations in validate's order."""
    if not all(isinstance(d, Destination) for d in dests):
        dests = make_destinations(dests)
    assert validate(num_messages, dests) == violations.split("; ")
    with pytest.raises(BadParams, match=f"^{re.escape('invalid instance: ' + violations)}$"):
        Instance(num_messages, dests)


# ----------------------------------------------------------------------
# normalize
# ----------------------------------------------------------------------


def test_normalize_split_sliding_windows():
    inst = make_instance(3, [({1, 2, 3}, set())])
    out = normalize(inst, 2)
    assert [sorted(d.wants) for d in out.destinations] == [[1, 2], [2, 3]]
    assert all(d.has == frozenset() for d in out.destinations)


def test_normalize_split_idempotent():
    inst = make_instance(4, [({1, 2}, {3}), ({3, 4}, set())])
    assert normalize(inst, 2) is inst


def test_normalize_split_too_few_wants():
    inst = make_instance(3, [({1}, set())])
    with pytest.raises(CannotNormalize):
        normalize(inst, 2)


def test_normalize_split_counts_before_building(monkeypatch):
    """Two windows of {1, 2, 3} and one of {1, 2} at L = 2, each holding one
    message: 3 destinations and 3 held entries, refused one short of either
    cap before any destination is built."""
    inst = make_instance(4, [({1, 2, 3}, {4}), ({1, 2}, {3})])
    out = normalize(inst, 2)
    assert (len(out.destinations), sum(len(d.has) for d in out.destinations)) == (3, 3)
    for cap in ("MAX_DESTINATIONS", "MAX_HELD_ENTRIES"):
        monkeypatch.setattr(f"icx.model.{cap}", 3)
        assert normalize(inst, 2) == out
        monkeypatch.setattr(f"icx.model.{cap}", 2)
        monkeypatch.setattr("icx.model.Destination", None)  # building one would raise TypeError
        with pytest.raises(BadParams, match="^the instance would have 4 messages, 3 destinations and 3 side-information"):
            normalize(inst, 2)
        monkeypatch.undo()


def test_normalize_groupcast_small():
    # two messages, three destinations, middle one wants both
    inst = make_instance(2, [({1}, set()), ({1, 2}, set()), ({2}, set())])
    out, _ = normalize_groupcast(inst, 2)
    assert out.num_destinations == 4
    assert [sorted(d.wants) for d in out.destinations] == [[1], [1], [2], [2]]
    counts = {m: 0 for m in (1, 2)}
    for d in out.destinations:
        counts[next(iter(d.wants))] += 1
    assert counts == {1: 2, 2: 2}


def test_normalize_groupcast_adds_virtual_destinations():
    inst = make_instance(2, [({1}, {2}), ({2}, set())])
    out, _ = normalize_groupcast(inst, 2)
    # each message now desired twice; virtual copies reuse the original antidotes
    assert out.num_destinations == 4
    assert [sorted(d.wants) for d in out.destinations] == [[1], [1], [2], [2]]
    assert out.destinations[0].has == out.destinations[1].has == frozenset({2})


def test_normalize_groupcast_undesired_message():
    inst = make_instance(2, [({1}, set())])
    with pytest.raises(CannotNormalize):
        normalize_groupcast(inst, 1)


def test_normalize_preserves_validity_random():
    rnd = random.Random(7)
    for _ in range(50):
        M = rnd.randrange(2, 6)
        dests = []
        for _ in range(rnd.randrange(1, 5)):
            wants = set(rnd.sample(range(1, M + 1), rnd.randrange(2, M + 1)))
            rest = [m for m in range(1, M + 1) if m not in wants]
            has = set(m for m in rest if rnd.random() < 0.5)
            dests.append((wants, has))
        inst = make_instance(M, dests)
        out = normalize(inst, 2)  # built, so valid
        assert out.demand_sizes() == {2}


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def test_gen_neighboring_antidotes_5_1_1():
    inst = gen_neighboring_antidotes(5, 1, 1)
    assert inst.num_messages == 5
    for d in inst.destinations:
        k = d.id
        assert d.wants == frozenset({k})
        prev = (k - 2) % 5 + 1
        nxt = k % 5 + 1
        assert d.has == frozenset({prev, nxt})


def test_gen_neighboring_antidotes_8_1_2():
    inst = gen_neighboring_antidotes(8, 1, 2)
    d3 = next(d for d in inst.destinations if d.id == 3)
    assert d3.has == frozenset({2, 4, 5})
    assert all(len(d.has) == 3 for d in inst.destinations)


def test_gen_neighboring_antidotes_complete():
    inst = gen_neighboring_antidotes(3, 0, 2)
    for d in inst.destinations:
        assert d.has == frozenset(range(1, 4)) - d.wants


def test_gen_neighboring_antidotes_bad_params():
    with pytest.raises(BadParams):
        gen_neighboring_antidotes(3, 2, 1)  # U > D
    with pytest.raises(BadParams):
        gen_neighboring_antidotes(3, 1, 2)  # A = K


def test_gen_neighboring_antidotes_circular_invariance():
    K, U, D = 7, 1, 2
    inst = gen_neighboring_antidotes(K, U, D)
    shift = {d.id: d for d in inst.destinations}
    for d in inst.destinations:
        nd = shift[d.id % K + 1]
        assert nd.has == frozenset((h % K) + 1 for h in d.has)


def test_gen_neighboring_interference_6_0_1():
    inst = gen_neighboring_interference(6, 0, 1)
    for d in inst.destinations:
        missing = frozenset(range(1, 7)) - d.has - d.wants
        assert missing == frozenset({d.id % 6 + 1})


def test_gen_neighboring_interference_9_1_2():
    inst = gen_neighboring_interference(9, 1, 2)
    d5 = next(d for d in inst.destinations if d.id == 5)
    assert frozenset(range(1, 10)) - d5.has == frozenset({4, 5, 6, 7})


def test_gen_neighboring_interference_divisibility():
    with pytest.raises(BadParams):
        gen_neighboring_interference(8, 0, 2)


def test_gen_x_network_degenerate_unicast():
    inst = gen_x_network(4, 1)
    assert inst.num_messages == 4
    for d in inst.destinations:
        assert d.wants == frozenset({d.id})
        assert d.has == frozenset(range(1, 5)) - {d.id}


def test_gen_x_network_6_2():
    inst = gen_x_network(6, 2)
    assert inst.num_messages == 12
    for d in inst.destinations:
        assert len(d.wants) == 2
        interference = inst.interferers(d)
        assert len(interference) == 2  # L^2 - L
    assert is_multiple_unicast(inst)


def test_gen_x_network_rejects_5_3():
    with pytest.raises(BadParams):
        gen_x_network(5, 3)


def test_x_network_sets_match_direct_construction():
    # anti-diagonal wants are inside the L^2 window
    for K, L in [(6, 2), (8, 3), (10, 4)]:
        for k in range(1, K + 1):
            wants, window = x_network_sets(K, L, k)
            assert wants <= window
            assert len(window) == L * L and len(wants) == L


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5))
def test_generators_validate(L, mult):
    K = (L + 1) * mult
    if K >= 2 * L:
        inst = gen_x_network(K, L)
        assert validate(inst.num_messages, inst.destinations) == []
        assert is_multiple_unicast(inst)
        assert inst.num_messages == K * L
    if K >= 3:
        inst = gen_neighboring_antidotes(K, 0, min(1, K - 1))
        assert validate(inst.num_messages, inst.destinations) == []


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def test_roundtrip_identity():
    inst = gen_neighboring_antidotes(5, 1, 1)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again == inst
    assert serialize_instance(again) == text
    assert text.endswith("\n")


def test_parse_feasibility_example_file():
    text = serialize_instance(
        make_instance(4, [({1, 2}, set()), ({1, 3}, {4}), ({2, 4}, {3})])
    )
    inst = parse_instance(text)
    assert next(d for d in inst.destinations if d.id == 2).has == frozenset({4})


def test_parse_rejects_overlap():
    bad = '{"messages": 2, "destinations": [{"id": 1, "wants": [1], "has": [1]}]}'
    with pytest.raises(ParseError):
        parse_instance(bad)


def test_parse_rejects_unknown_keys():
    bad = '{"messages": 2, "capacity": 1, "destinations": []}'
    with pytest.raises(ParseError):
        parse_instance(bad)
    bad2 = '{"messages": 2, "destinations": [{"id": 1, "wants": [1], "has": [], "x": 0}]}'
    with pytest.raises(ParseError):
        parse_instance(bad2)


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        parse_instance("{not json")


def test_family_tag_roundtrip():
    inst = gen_x_network(6, 2)
    again = parse_instance(serialize_instance(inst))
    assert again.family == FamilyTag.make("x-network", K=6, L=2)


@pytest.mark.parametrize("inst, params", [
    (gen_neighboring_antidotes(7, 1, 2), (7, 1, 2)),
    (gen_neighboring_antidotes(4, 1, 2), (4, 1, 2)),
    (gen_neighboring_interference(9, 1, 2), (9, 1, 2)),
    (gen_x_network(6, 2), (6, 2)),
    (builtin_example(3).instance, (5, 3)),
], ids=["antidotes", "antidotes-A-is-K-1", "interference", "x-network", "example-3"])
def test_check_family_returns_the_parameters_it_confirmed(inst, params):
    """In the family's own order, (K, U, D) or (K, L): what symmetric_capacity
    and dimension_audit read instead of the tag."""
    assert check_family(inst) == params


@pytest.mark.parametrize("kind, params, names", [
    ("neighboring-antidotes", {"K": 7, "U": 1}, "K, U, D, got K, U"),
    ("neighboring-antidotes", {"K": 5, "U": 1, "D": 1, "Z": 9}, "K, U, D, got D, K, U, Z"),
    ("neighboring-interference", {"K": 9, "U": 1, "L": 2}, "K, U, D, got K, L, U"),
    ("x-network", {}, "K, L, got none"),
], ids=["antidotes-without-D", "antidotes-with-Z", "interference-with-L", "x-network-bare"])
def test_family_tag_names_exactly_its_familys_parameters(kind, params, names):
    """A tag of one of the three families is valid by construction: it names
    exactly that family's parameters, so check_family never meets one that
    lacks a parameter.  A custom tag takes any."""
    with pytest.raises(BadParams, match=f"^{kind} tag must name exactly {names}$"):
        FamilyTag.make(kind, **params)
    assert FamilyTag.make("custom", **params).params == tuple(sorted(params.items()))


@pytest.mark.parametrize("family", [
    '{"kind": "neighboring-antidotes", "K": "5", "U": 1, "D": 1}',
    '{"kind": "neighboring-antidotes", "K": true, "U": 1, "D": 1}',
    '{"kind": "x-network", "K": 6, "L": 2.0}',
    '{"kind": "x-network", "K": 6, "L": null}',
    '["neighboring-antidotes", 5, 1, 1]',
    '"neighboring-antidotes"',
], ids=["string", "bool", "float", "null", "list", "string-tag"])
def test_parse_rejects_non_integer_family_parameters(family):
    obj = instance_to_json(gen_neighboring_antidotes(5, 1, 1))
    obj["family"] = json.loads(family)
    with pytest.raises(ParseError):
        parse_instance(json.dumps(obj))


@pytest.mark.parametrize("template", [
    '{"messages": X, "destinations": [{"id": 1, "wants": [1], "has": []}]}',
    '{"messages": 1, "destinations": [{"id": X, "wants": [1], "has": []}]}',
    '{"messages": 1, "destinations": [{"id": 1, "wants": [X], "has": []}]}',
    '{"messages": 2, "destinations": [{"id": 1, "wants": [2], "has": [X]}]}',
], ids=["messages", "id", "wants", "has"])
def test_parse_rejects_bool_for_integer(template):
    """true is an int to Python but not a number in JSON; with 1 instead
    the same file parses, so the bool alone is refused."""
    parse_instance(template.replace("X", "1"))
    with pytest.raises(ParseError):
        parse_instance(template.replace("X", "true"))


def test_instance_files_are_capped_on_side_information_entries(monkeypatch):
    """Antidotes K=5 U=1 D=1 holds 10 messages in all: read at a limit of 10,
    refused at 9 where the sum passes it, before the next destination is read."""
    obj = instance_to_json(gen_neighboring_antidotes(5, 1, 1))
    monkeypatch.setattr("icx.model.MAX_HELD_ENTRIES", 10)
    assert parse_instance(json.dumps(obj)) == gen_neighboring_antidotes(5, 1, 1)
    monkeypatch.setattr("icx.model.MAX_HELD_ENTRIES", 9)
    obj["destinations"].append({"id": "not read"})
    with pytest.raises(ParseError, match="^more than 9 side-information entries$"):
        parse_instance(json.dumps(obj))


def test_normalize_groupcast_counts_before_building(monkeypatch):
    """Two virtual copies per message at L = 3: 6 destinations holding 6
    messages; refused one short of either cap, and for L = 10^12 at once."""
    inst = make_instance(2, [({1}, {2}), ({2}, {1})])
    out, _ = normalize_groupcast(inst, 3)
    assert (len(out.destinations), sum(len(d.has) for d in out.destinations)) == (6, 6)
    for cap, value in (("MAX_DESTINATIONS", 6), ("MAX_HELD_ENTRIES", 6)):
        monkeypatch.setattr(f"icx.model.{cap}", value)
        assert normalize_groupcast(inst, 3)[0] == out
        monkeypatch.setattr(f"icx.model.{cap}", value - 1)
        with pytest.raises(BadParams, match="^the instance would have 2 messages, 6 destinations and 6 side-information"):
            normalize_groupcast(inst, 3)
        monkeypatch.undo()
    with pytest.raises(BadParams, match="2000000000000 destinations and 2000000000000 side-information"):
        normalize_groupcast(inst, 10**12)
