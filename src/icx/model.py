"""Index coding problem instances: validation, normalization, generators, files.

An instance is messages 1..M and destinations, each desiring a nonempty set of
messages (``wants``) and holding a disjoint set of side information (``has``);
``Instance`` refuses (BadParams) the parts that ``validate`` faults.  Symmetric
families carry a tag so closed-form capacity formulas apply without
pattern-matching raw sets."""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .errors import (
    BadParams, CannotNormalize, ParseError, Record, UnsupportedFamily, dump_json, is_int, parse_json, read_file,
    write_file,
)

FAMILY_KINDS = ("neighboring-antidotes", "neighboring-interference", "x-network", "custom")


class FamilyTag(Record):
    """Symmetric family marker with its construction parameters, sorted
    (name, value) pairs."""

    def __init__(self, kind: str, params: tuple = ()):
        if kind not in FAMILY_KINDS:
            raise BadParams(f"unknown family kind {kind!r}")
        super().__init__(kind, tuple(sorted(params)))

    @staticmethod
    def make(kind: str, **params: int) -> "FamilyTag":
        return FamilyTag(kind, tuple(sorted(params.items())))

    def param(self, name: str) -> int:
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        out.update({k: v for k, v in self.params})
        return out


class Destination(Record):
    """One receiver: id, desired message ids, side-information message ids."""

    def __init__(self, id: int, wants: frozenset, has: frozenset):
        super().__init__(id, frozenset(wants), frozenset(has))


class Instance(Record):
    """An index coding problem with messages 1..num_messages, valid by construction."""

    def __init__(self, num_messages: int, destinations: tuple, family: Optional[FamilyTag] = None):
        destinations = tuple(destinations)
        problems = validate(num_messages, destinations)
        if problems:
            raise BadParams("invalid instance: " + "; ".join(problems))
        super().__init__(num_messages, destinations, family)

    @property
    def num_destinations(self) -> int:
        return len(self.destinations)

    def interferers(self, d: Destination) -> frozenset:
        """Messages that are neither desired nor held at d."""
        return frozenset(range(1, self.num_messages + 1)) - d.wants - d.has

    def demand_sizes(self) -> set:
        return {len(d.wants) for d in self.destinations}


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def validate(num_messages: int, destinations) -> list:
    """The named violations of an instance's parts, messages 1..num_messages
    and a sequence of Destinations: empty iff ``Instance`` accepts them."""
    out = []
    if num_messages < 1:
        out.append("instance must have at least one message")
    ids = [d.id for d in destinations]
    if len(set(ids)) != len(ids):
        out.append("duplicate destination ids")
    valid = set(range(1, num_messages + 1))
    for d in destinations:
        for m in sorted((d.wants - valid) | (d.has - valid)):  # no union of the large sets
            out.append(f"destination {d.id}: unknown message id {m}")
        if not d.wants:
            out.append(f"destination {d.id}: desires no message")
        for m in sorted(d.wants & d.has):
            out.append(f"destination {d.id}: message {m} both desired and held")
    return out


# ----------------------------------------------------------------------
# normalization
# ----------------------------------------------------------------------


def normalize(inst: Instance, L: int) -> Instance:
    """Reshape demand sets so every destination desires exactly L messages.

    A destination wanting more is replaced by sliding L-windows over its
    sorted wants (same antidotes); the achievable rate region projects
    correctly because every original demand is covered.  An output past the
    instance caps is refused (BadParams) before it is built.
    """
    if L < 1:
        raise CannotNormalize("L must be >= 1")
    for d in inst.destinations:
        if len(d.wants) < L:
            raise CannotNormalize(
                f"destination {d.id} desires {len(d.wants)} < L={L} messages"
            )
    if inst.demand_sizes() == {L}:
        return inst
    windows = [(len(d.wants) - L + 1, len(d.has)) for d in inst.destinations]
    _check_generated_size(inst.num_messages, sum(w for w, _ in windows), sum(w * h for w, h in windows))
    dests = []
    for d in inst.destinations:
        wants = sorted(d.wants)
        for start in range(len(wants) - L + 1):
            dests.append((frozenset(wants[start : start + L]), d.has))
    return Instance(
        inst.num_messages,
        tuple(Destination(i + 1, w, h) for i, (w, h) in enumerate(dests)),
        inst.family,
    )


def normalize_groupcast(inst: Instance, L: int) -> tuple:
    """Reshape demands so every message is desired by exactly L destinations
    and every destination desires one message; virtual destinations copy the
    antidotes of the message's first.  Message m is desired by destinations
    (m-1)*L+1 .. m*L.  Also returns, per output destination, the id of the
    input destination whose demand and antidote set it descends from.  An
    output past the instance caps is refused (BadParams) before it is built."""
    if L < 1:
        raise CannotNormalize("L must be >= 1")
    per_message = {m: [] for m in range(1, inst.num_messages + 1)}
    for d in inst.destinations:
        for m in sorted(d.wants):
            per_message[m].append((d.has, d.id))
    held = 0
    for m, holders in per_message.items():
        if not holders:
            raise CannotNormalize(f"message {m} is desired by no destination")
        if len(holders) > L:
            raise CannotNormalize(
                f"message {m} is desired by {len(holders)} > L={L} destinations"
            )
        held += sum(len(has) for has, _ in holders) + (L - len(holders)) * len(holders[0][0])
    _check_generated_size(inst.num_messages, inst.num_messages * L, held)
    dests = []
    sources = []
    for m, holders in per_message.items():
        for has, src in holders + [holders[0]] * (L - len(holders)):  # virtual copies
            dests.append(Destination(len(dests) + 1, frozenset({m}), has))
            sources.append(src)
    return Instance(inst.num_messages, tuple(dests), inst.family), tuple(sources)


# ----------------------------------------------------------------------
# symmetric family generators (1-based circular indexing)
# ----------------------------------------------------------------------


def _mod1(i: int, K: int) -> int:
    return (i - 1) % K + 1


# Above every family instance the tests, scripts and benchmark build (at most
# about 1.4 million held messages, interference K=1200 U=0 D=2), and far below
# what exhausts memory.
MAX_HELD_ENTRIES = 2_000_000


def _check_generated_size(messages: int, destinations: int, held: int):
    """Refuse a family beyond the file caps before anything is built."""
    if messages > MAX_MESSAGES or destinations > MAX_DESTINATIONS or held > MAX_HELD_ENTRIES:
        limits = f"{MAX_MESSAGES}, {MAX_DESTINATIONS} and {MAX_HELD_ENTRIES}"
        raise BadParams(
            f"the instance would have {messages} messages, {destinations} destinations and "
            f"{held} side-information entries; the limits are {limits}"
        )


def gen_neighboring_antidotes(K: int, U: int, D: int) -> Instance:
    """Each destination k wants W_k and holds the U up- and D down-neighbors."""
    return _family_instance("neighboring-antidotes", K, K=K, U=U, D=D)


def _check_neighboring_antidotes(K: int, U: int, D: int):
    """BadParams unless gen_neighboring_antidotes(K, U, D) would build, without building it."""
    if not (0 <= U <= D) or U + D >= K:
        raise BadParams(f"need 0 <= U <= D and U+D < K, got K={K}, U={U}, D={D}")
    _check_generated_size(K, K, K * (U + D))


def _antidote_pairs(K: int, U: int, D: int):
    """(wants, has) of destinations 1..K; outside the family or the caps, BadParams before the first."""
    _check_neighboring_antidotes(K, U, D)
    for k in range(1, K + 1):
        yield frozenset({k}), frozenset(_mod1(k + s, K) for s in range(-U, D + 1) if s)


def gen_neighboring_interference(K: int, U: int, D: int) -> Instance:
    """Each destination k misses only the window W_{k-U}..W_{k+D} around its
    desired message; everything else is side information.

    (D+1) must divide K so the periodic achievable scheme is consistent under
    wraparound; this is the finite-circular fidelity condition.
    """
    return _family_instance("neighboring-interference", K, K=K, U=U, D=D)


def _check_neighboring_interference(K: int, U: int, D: int):
    """BadParams unless gen_neighboring_interference(K, U, D) would build,
    without building it."""
    if not (0 <= U <= D):
        raise BadParams(f"need 0 <= U <= D, got U={U}, D={D}")
    if K < U + D + 1:
        raise BadParams(f"need K >= U+D+1, got K={K}, U={U}, D={D}")
    if K % (D + 1) != 0:
        raise BadParams(f"(D+1)={D + 1} must divide K={K}")
    _check_generated_size(K, K, K * (K - U - D - 1))


def _interference_pairs(K: int, U: int, D: int):
    _check_neighboring_interference(K, U, D)
    all_msgs = frozenset(range(1, K + 1))
    for k in range(1, K + 1):
        yield frozenset({k}), all_msgs - {_mod1(k + off, K) for off in range(-U, D + 1)}


def x_network_sets(K: int, L: int, k: int) -> tuple:
    """(wants, non-antidote window) for destination k of the K-user X family.

    The window is the L*L consecutive messages starting at (k-1)*L+1; the
    desired messages are its anti-diagonal.
    """
    M = K * L
    wants = frozenset(_mod1((k + t) * L - t, M) for t in range(L))
    window = frozenset(_mod1((k - 1) * L + s, M) for s in range(1, L * L + 1))
    return wants, window


def gen_x_network(K: int, L: int) -> Instance:
    """Locally-connected X family: K destinations, L messages per link, M = K*L.

    Requires (L+1) | K and K >= 2L so that the periodic precoder assignment
    and the decode-chain converse stay consistent on the finite circle.
    """
    _check_x_network(K, L)
    return _family_instance("x-network", K * L, K=K, L=L)


def _check_x_network(K: int, L: int):
    """BadParams unless gen_x_network(K, L) would build, without building it."""
    if L < 1:
        raise BadParams(f"need L >= 1, got L={L}")
    if K < 2 * L:
        raise BadParams(f"need K >= 2L, got K={K}, L={L}")
    if K % (L + 1) != 0:
        raise BadParams(f"(L+1)={L + 1} must divide K={K}")
    _check_generated_size(K * L, K, K * (K * L - L * L))


def _x_network_pairs(K: int, L: int):
    """(wants, has) of destinations 1..K, for any K and L >= 1: built-in example 3 has K=5, L=3."""
    all_msgs = frozenset(range(1, K * L + 1))
    for k in range(1, K + 1):
        wants, window = x_network_sets(K, L, k)
        yield wants, all_msgs - window


def _family_instance(kind: str, M: int, **params) -> Instance:
    """The tagged instance of messages 1..M whose destination k has the family's k-th (wants, has) pair."""
    dests = (Destination(k, wants, has) for k, (wants, has) in enumerate(_FAMILIES[kind][1](*params.values()), 1))
    return Instance(M, tuple(dests), FamilyTag.make(kind, **params))


# tag kind -> (its parameters, the (wants, has) pairs of its destinations)
_FAMILIES = {
    "neighboring-antidotes": (("K", "U", "D"), _antidote_pairs),
    "neighboring-interference": (("K", "U", "D"), _interference_pairs),
    "x-network": (("K", "L"), _x_network_pairs),
}


def check_family(inst: Instance) -> tuple:
    """The tag's parameters, in the family's order ((K, U, D), or (K, L) for
    the X network), once the instance is confirmed to be the family its tag
    names: the same messages, and the same destinations as (wants, has)
    pairs, counted with multiplicity and ignoring ids.  UnsupportedFamily
    otherwise."""
    fam = inst.family
    if fam is None or fam.kind == "custom":
        raise UnsupportedFamily("instance carries no symmetric family tag")
    names, pairs = _FAMILIES[fam.kind]
    try:
        params = [fam.param(name) for name in names]
    except KeyError as exc:
        raise UnsupportedFamily(f"{fam.kind} tag lacks parameter {exc.args[0]!r}") from None
    K = params[0]
    size = K * params[1] if fam.kind == "x-network" else K
    # compare the sizes first, so a tag is never expanded beyond the instance
    same_size = size >= 1 and inst.num_messages == size and len(inst.destinations) == K
    try:
        if same_size:
            remaining = Counter((d.wants, d.has) for d in inst.destinations)
            remaining.subtract(pairs(*params))  # counted off one at a time: no family Instance is built
            if not any(remaining.values()):
                return tuple(params)
    except BadParams:  # the parameters lie outside the family
        pass
    tag = " ".join(f"{name}={value}" for name, value in zip(names, params))
    raise UnsupportedFamily(f"instance is not the {fam.kind} family {tag} that its tag names")


# ----------------------------------------------------------------------
# instance files (JSON)
# ----------------------------------------------------------------------

_INSTANCE_KEYS = {"messages", "family", "destinations"}
_DEST_KEYS = {"id", "wants", "has"}
# Far beyond any instance the exact searches can treat, but small enough that
# parsing and validating a file never exhausts memory.
MAX_MESSAGES = 10_000
MAX_DESTINATIONS = 10_000


def instance_to_json(inst: Instance) -> dict:
    out = {"messages": inst.num_messages}
    if inst.family is not None:
        out["family"] = inst.family.to_json()
    out["destinations"] = [
        {"id": d.id, "wants": sorted(d.wants), "has": sorted(d.has)}
        for d in inst.destinations
    ]
    return out


def instance_from_json(obj: dict) -> Instance:
    parts = _instance_parts(obj)
    try:
        return Instance(*parts)
    except BadParams:  # name each violation, as the validate verb does
        raise ParseError("; ".join(validate(*parts[:2]))) from None


def _instance_parts(obj) -> tuple:
    """(messages, destinations, family) read from a file's JSON, not yet validated."""
    if not isinstance(obj, dict):
        raise ParseError("instance file must contain a JSON object")
    unknown = set(obj) - _INSTANCE_KEYS
    if unknown:
        raise ParseError(f"unknown instance keys: {sorted(unknown)}")
    if "messages" not in obj or "destinations" not in obj:
        raise ParseError("instance file needs 'messages' and 'destinations'")
    if not is_int(obj["messages"]):
        raise ParseError("'messages' must be an integer")
    if obj["messages"] > MAX_MESSAGES:
        raise ParseError(f"'messages' is {obj['messages']}, more than the limit of {MAX_MESSAGES}")
    if not isinstance(obj["destinations"], list):
        raise ParseError("'destinations' must be a list")
    if len(obj["destinations"]) > MAX_DESTINATIONS:
        raise ParseError(
            f"{len(obj['destinations'])} destinations, more than the limit of {MAX_DESTINATIONS}"
        )
    family = None
    if "family" in obj and obj["family"] is not None:
        if not isinstance(obj["family"], dict):
            raise ParseError("'family' must be an object")
        fam = dict(obj["family"])
        kind = fam.pop("kind", None)
        if kind is None:
            raise ParseError("family needs a 'kind'")
        for name, value in fam.items():
            if not is_int(value):
                raise ParseError(f"family parameter {name!r} must be an integer")
        try:
            family = FamilyTag.make(kind, **fam)
        except BadParams as exc:
            raise ParseError(str(exc)) from exc
    dests = []
    held = 0
    for i, dobj in enumerate(obj["destinations"]):
        if not isinstance(dobj, dict):
            raise ParseError(f"destination #{i + 1} must be an object")
        unknown = set(dobj) - _DEST_KEYS
        if unknown:
            raise ParseError(f"destination #{i + 1}: unknown keys {sorted(unknown)}")
        for key in _DEST_KEYS:
            if key not in dobj:
                raise ParseError(f"destination #{i + 1}: missing '{key}'")
        if not is_int(dobj["id"]):
            raise ParseError(f"destination #{i + 1}: 'id' must be an integer")
        for key in ("wants", "has"):
            if not isinstance(dobj[key], list) or not all(map(is_int, dobj[key])):
                raise ParseError(f"destination #{i + 1}: '{key}' must be a list of integers")
        held += len(dobj["has"])
        if held > MAX_HELD_ENTRIES:
            raise ParseError(f"more than {MAX_HELD_ENTRIES} side-information entries")
        dests.append(Destination(dobj["id"], frozenset(dobj["wants"]), frozenset(dobj["has"])))
    return obj["messages"], tuple(dests), family


def serialize_instance(inst: Instance) -> str:
    return dump_json(instance_to_json(inst))


def parse_instance(text: str) -> Instance:
    return instance_from_json(parse_json(text))


def load_instance(path) -> Instance:
    return read_file(path, parse_instance)


def save_instance(inst: Instance, path):
    write_file(path, serialize_instance(inst))
