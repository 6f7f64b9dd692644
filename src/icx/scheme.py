"""Vector-linear index codes: representation, verification, decoders, simulation.

A scheme assigns each message m an n x L_m precoding matrix V_m over a finite
field; the broadcast word is sum_m V_m X_m.  Verification runs in two modes:

* decoder mode (combining matrices U present): zero-forcing checks
  U_{m,k} V_i = 0 for every non-antidote interferer i at k, and
  U_{m,k} V_m invertible, both read off one product of each row of
  U_{m,k} with [V_1 | ... | V_K], whose rows are packed once per call.
  A product stays packed: U_{m,k} V_m is read from m's own bits or lanes,
  and the interference from the product's nonzero mask;
* rank mode (V only): at each destination the desired columns are jointly
  independent and rank [V_int | V_des] = rank V_int + rank V_des.  That
  holds exactly when every desired stream decodes, which one reduced form
  of [V_1 | ... | V_K] per call, restricted once per destination to the
  streams it does not hold, shows row by row: a stream decodes when its
  packed row equals the unit row at its pivot.  A restriction eliminates
  again only the rows whose pivots the destination holds, and reads only
  the desired streams' rows.  Only a destination that fails unpacks its
  rows and reads the two ranks, to name what fails.

The two modes accept exactly the same schemes; ``synthesize_decoders`` turns
a rank-mode-valid scheme into a decoder-mode one, reading every combiner off
one reduced form of [V_1 | ... | V_K | J] per call.  ``simulate_exhaustive`` is
the ground-truth check: it decides, for every message tuple, whether each
destination decodes what it wants.  ``simulate_sampled``, a weaker check
run only on request, does the same for seeded pseudorandom tuples.

Both read their verdict off error rows per check (destination, message),
built from the scheme alone: combiners applied to the interference, the
checks decoder-mode ``verify`` walks, or, for V-only schemes, decodable or
not, the collision map, read off the walk rank-mode ``verify`` takes.  A
tuple fails iff some check's rows are nonzero on it, so no tuples need
enumerating: the first failing tuple is the unit tuple at the last stream
some check reads.  The sampler draws from
``random.Random(seed)`` one tuple after another and stops at the first that
fails, so a seed always reports the same failing tuple.
"""

from __future__ import annotations

import json
import operator
import random
from types import MappingProxyType
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain
from typing import Mapping, Optional

from .errors import (
    BadParams,
    DimensionMismatch,
    NoDecoderExists,
    ParseError,
    Record,
    SchemeMalformed,
    UnsupportedFamily,
    dump_json,
    fraction_text,
    is_int,
    parse_json,
    read_file,
    read_record,
    write_file,
)
from .galois import EchelonBasis, Field, Matrix, _row_products, field_from_json
from .model import Instance, check_family


class LinearScheme(Record):
    """Precoding matrices V (per message) and optional combiners U (per (m, k)),
    held read-only."""

    def __init__(self, field: Field, n: int, V: Mapping[int, Matrix], U: Optional[Mapping[tuple, Matrix]] = None):
        super().__init__(field, n, MappingProxyType(dict(V)), None if U is None else MappingProxyType(dict(U)))
        for m, mat in self.V.items():
            if mat.field != self.field or mat.rows != self.n:
                raise SchemeMalformed(f"V[{m}] is not an {self.n}-row matrix over {self.field}")
        if self.U is not None:
            for (m, k), mat in self.U.items():
                if m not in self.V:
                    raise SchemeMalformed(f"U[{m}@{k}] refers to unknown message {m}")
                if mat.field != self.field or mat.rows != self.V[m].cols or mat.cols != self.n:
                    raise SchemeMalformed(
                        f"U[{m}@{k}] must be {self.V[m].cols}x{self.n} over {self.field}"
                    )

    def stream_count(self, m: int) -> int:
        return self.V[m].cols

    def rate(self, m: int) -> Fraction:
        return Fraction(self.stream_count(m), self.n)

    def rates(self) -> dict:
        return {m: self.rate(m) for m in sorted(self.V)}

    def message_ids(self) -> list:
        return sorted(self.V)


class Diagnostic(Record):
    """One failed check: which property broke ("property1", "property2",
    "desired-rank", "resolvability" or "missing-decoder"), at which (m, i, k)."""

    def __init__(self, kind: str, destination: int, message: Optional[int] = None, interferer: Optional[int] = None):
        super().__init__(kind, destination, message, interferer)

    def describe(self) -> str:
        bits = [self.kind, f"destination {self.destination}"]
        if self.message is not None:
            bits.append(f"message {self.message}")
        if self.interferer is not None:
            bits.append(f"interferer {self.interferer}")
        return ", ".join(bits)


class VerificationReport(Record):
    def __init__(self, valid: bool, mode: str, diagnostics: tuple, rates: dict):
        super().__init__(valid, mode, diagnostics, rates)

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "mode": self.mode,
            "diagnostics": [d.describe() for d in self.diagnostics],
            "rates": {str(m): fraction_text(r) for m, r in sorted(self.rates.items())},
        }


def _check_scheme_matches(inst: Instance, scheme: LinearScheme):
    """SchemeMalformed unless the scheme covers exactly the instance's
    messages; an Instance is valid by construction, so it is not checked again."""
    if set(scheme.V) != set(range(1, inst.num_messages + 1)):
        raise SchemeMalformed(f"scheme covers messages {sorted(scheme.V)}, instance has {inst.num_messages}")


def verify(inst: Instance, scheme: LinearScheme, mode: str = "auto") -> VerificationReport:
    """Check a scheme against an instance; see the module docstring for modes."""
    if mode == "auto":
        mode = "decoder" if scheme.U is not None else "rank"
    if mode not in ("rank", "decoder"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "decoder" and scheme.U is None:
        raise SchemeMalformed("decoder mode requires combining matrices")
    cols, total, masks, unheld = _stream_layout(inst, scheme)
    diags = []
    if mode == "rank":
        f = scheme.field
        for d, basis, wanted in _rank_checks(inst, scheme, cols, total):
            if all(decoded for *_, decoded in wanted):
                continue
            desired = sum(map(masks.__getitem__, d.wants))
            rank_des = Matrix.hstack_all(f, [scheme.V[m] for m in sorted(d.wants)]).rank()
            if rank_des != desired.bit_count():
                diags.append(Diagnostic("desired-rank", d.id))
            if interference := unheld(d) & ~desired:
                # R's rank is rank [V_int | V_des].  Cut to V_int, its reduced rows
                # with pivots there stay independent; those with desired pivots are
                # 0 at every pivot, so they add only the rank of their cuts: rank_int
                # is rank R - len(des_rows) + rank cuts, and rank R = rank_des + rank_int
                # iff len(des_rows) = rank_des + rank cuts.
                des_rows = [basis.unpack(row) for _, reads, _ in wanted for row in reads if row is not None]
                at = [total - 1 - c for c in range(interference.bit_length()) if interference >> c & 1]  # R reversed
                cuts = Matrix._trusted(f, len(des_rows), len(at), tuple(row[c] for row in des_rows for c in at))
                if len(des_rows) != rank_des + cuts.rank():
                    diags.append(Diagnostic("resolvability", d.id))
    else:
        for k, m, rows, _, rank, leak in _decoder_checks(inst, scheme, cols, total, masks, unheld):
            if rows is None:
                diags.append(Diagnostic("missing-decoder", k, message=m))
                continue
            if rank != scheme.stream_count(m):
                diags.append(Diagnostic("property2", k, message=m))
            if leak:  # name each interferer whose columns leak, in id order
                diags += [Diagnostic("property1", k, message=m, interferer=i) for i in cols if leak & masks[i]]
    return VerificationReport(not diags, mode, tuple(diags), scheme.rates())


def synthesize_decoders(inst: Instance, scheme: LinearScheme) -> LinearScheme:
    """Compute zero-forcing combiners for a V-only scheme.

    U_{m,k} takes the first rows, in order, of the left null space of V_S (S
    the non-antidote streams other than V_m's) that make U_{m,k} V_m
    invertible; they exist iff the scheme is rank-mode valid.  [V | J], J the
    reversed identity, is reduced once per call.  Restricted to S and J it
    spans [V_S | J]'s rows, and its reduced rows with pivots in J are
    [0 | y J] with y V_S = 0: by descending pivot, ``Matrix.left_nullspace``.
    Those that are rows of the one form have y V = 0, so y V_m = 0 and none
    is ever chosen: only the J pivots of the rows eliminated again are read.
    """
    cols, total, _, _ = _stream_layout(inst, scheme)
    f, n = scheme.field, scheme.n
    J = Matrix.identity(f, n).take_cols(range(n - 1, -1, -1))
    restrict = _restrictions(Matrix.hstack_all(f, [*map(scheme.V.__getitem__, cols), J]), cols)
    U = {}
    for d in inst.destinations:
        for m in sorted(d.wants):
            basis = restrict((*d.has, m))
            js = sorted((c for c in basis.pivots if c >= total), reverse=True)  # J pivots, descending
            ys = [basis.unpack(basis.read(c))[total:][::-1] for c in js]
            ann = Matrix._trusted(f, len(ys), n, tuple(chain.from_iterable(ys)))
            rows = _independent_rows(ann @ scheme.V[m])
            if rows is None:
                raise NoDecoderExists(
                    f"no zero-forcing decoder for message {m} at destination {d.id}"
                )
            U[(m, d.id)] = ann.take_rows(rows)
    return LinearScheme(f, n, scheme.V, U)


def _stream_layout(inst: Instance, scheme: LinearScheme) -> tuple:
    """Every scheme check's set-up, once ``_check_scheme_matches`` passes:
    (message -> the range of its stream columns in [V_1 | ... | V_K], ids
    ascending; total, their count; message -> its columns as a bitmask; a
    destination -> the columns it does not hold, over the smaller side).
    The check makes the instance's messages the scheme's, so d.has is
    summed as it is."""
    _check_scheme_matches(inst, scheme)
    ids = scheme.message_ids()
    *starts, total = accumulate(map(scheme.stream_count, ids), initial=0)
    cols = {m: range(s, s + scheme.stream_count(m)) for m, s in zip(ids, starts)}
    masks = {m: ((1 << len(r)) - 1) << r.start for m, r in cols.items()}
    all_ids = frozenset(masks)  # the large side subtracts d.has from this one set, not from a copy of the keys

    def unheld(d):
        if 2 * len(d.has) <= len(masks):
            return (1 << total) - 1 - sum(map(masks.__getitem__, d.has))
        return sum(map(masks.__getitem__, all_ids - d.has))

    return cols, total, masks, unheld


def _decoder_checks(inst: Instance, scheme: LinearScheme, cols: dict, total: int, masks: dict, unheld):
    """Each check (destination k, wanted message m), in order, as its
    combiner U_{m,k} sees it: (k, m, rows, block, rank, leak).  Each row of
    U_{m,k} [V_1 | ... | V_K] is one packed product (``_row_products``, V's
    rows packed once per call) and its nonzero mask.  block is U_{m,k} V_m,
    read from m's own bits or lanes of each product, and rank its rank;
    leak masks the interferer columns (not held at k, not m's) at which some
    product is nonzero.  rows yields the products' entries, one list per
    row, unpacked only as it is iterated.  rows, block and rank are None
    without U_{m,k}."""
    product, read = _row_products(Matrix.hstack_all(scheme.field, [scheme.V[i] for i in cols]))
    for d in inst.destinations:
        not_held = unheld(d)
        for m in sorted(d.wants):
            if (u := scheme.U.get((m, d.id))) is None:
                yield d.id, m, None, None, None, 0
                continue
            products = [product(u.row(r)) for r in range(u.rows)]
            own = [e for row, _ in products for e in read(row, cols[m])]
            block = Matrix._trusted(u.field, u.rows, len(cols[m]), tuple(own))
            # a 1x1 block has rank 1 exactly when its entry is nonzero
            rank = int(block.entries != (0,)) if len(block.entries) == 1 else block.rank()
            leak = reduce(operator.or_, (nz for _, nz in products), 0) & not_held & ~masks[m]
            yield d.id, m, (read(row, range(total)) for row, _ in products), block, rank, leak


def _rank_checks(inst: Instance, scheme: LinearScheme, cols: dict, total: int):
    """Each destination d, in order, as V alone decides it: (d, basis,
    wanted).  basis is [V_1 | ... | V_K], reduced once per call with its
    streams reversed (column c is stream total - 1 - c), restricted to the
    streams d does not hold.  A valid instance holds no wanted stream, so it
    spans [V_int | V_des]'s rows.  R for short.  wanted lists (m, reads,
    decoded) for each message d wants, in id order: reads holds for each of
    m's streams its row of R, packed (``read``; ``basis.unpack`` gives its
    entries), if the stream is a pivot of R, else None, and decoded says
    whether every one of m's streams is decoded.

    A stream's symbol is a function of what d sees iff its unit vector is in
    R's row space, iff R has it as a row: iff the stream is a pivot and its
    packed row is the unit row at that pivot (``unit``).  Every other entry
    of a row sits at a free column of R, since R is 0 at the other pivots."""
    vfull = Matrix.hstack_all(scheme.field, [scheme.V[m] for m in cols])
    at = {m: range(total - r.stop, total - r.start) for m, r in cols.items()}  # m's columns, reversed
    # the entries reversed: V's rows, last first, each with its streams reversed, which span what V reversed spans
    restrict = _restrictions(Matrix._trusted(vfull.field, vfull.rows, total, vfull.entries[::-1]), at)
    for d in inst.destinations:
        basis = restrict(d.has)
        wanted = []
        for m in sorted(d.wants):
            streams = at[m][::-1]  # in stream order
            reads = list(map(basis.read, streams))
            wanted.append((m, reads, all(row == basis.unit(c) for c, row in zip(streams, reads))))
        yield d, basis, wanted


def _restrictions(mat: Matrix, at: dict) -> tuple:
    """restrict: held -> R, held the ids of distinct messages and R the
    reduced form of mat's rows cut to every column but theirs, as
    ``EchelonBasis.restrict`` gives it for ``read``.  at maps each message
    to the range of its columns in mat.  mat's rows are reduced and
    back-substituted here, once per call, and each message's lane mask,
    the rows whose pivots are its columns and the form's pivot -> row map
    are built here too, so a restriction touches only the held rows."""
    echelon = EchelonBasis(mat.field, mat.cols, mat.rows)
    echelon.grow(mat._row_tuples())
    echelon.back_substitute()
    row_of = {c: i for i, c in enumerate(echelon.pivots)}
    lanes = {m: echelon.unit(r.stop) - echelon.unit(r.start) for m, r in at.items()}  # all ones in m's lanes
    held_rows = {m: [row_of[c] for c in r if c in row_of] for m, r in at.items()}
    everything = echelon.unit(mat.cols) - 1

    def restrict(held):
        cols = everything - sum(map(lanes.__getitem__, held))
        return echelon.restrict(cols, row_of, chain.from_iterable(map(held_rows.__getitem__, held)))

    return restrict


def _independent_rows(mat: Matrix):
    """Indices of mat.cols rows of mat forming an invertible square block, or None."""
    chosen = EchelonBasis(mat.field, mat.cols).grow(map(mat.row, range(mat.rows)))
    return chosen if len(chosen) == mat.cols else None


# ----------------------------------------------------------------------
# zero-error simulation
# ----------------------------------------------------------------------

class SimulationResult(Record):
    def __init__(
        self,
        ok: bool,
        tuples_checked: int,
        counterexample: Optional[dict] = None,  # message id -> symbol tuple
        destination: Optional[int] = None,
        message: Optional[int] = None,
    ):
        super().__init__(ok, tuples_checked, counterexample, destination, message)

    def to_json(self) -> dict:
        out = {"ok": self.ok, "tuples_checked": self.tuples_checked}
        if not self.ok:
            out["counterexample"] = {str(m): list(v) for m, v in sorted(self.counterexample.items())}
            out["destination"] = self.destination
            out["message"] = self.message
        return out


def simulate_exhaustive(inst: Instance, scheme: LinearScheme) -> SimulationResult:
    """Decide, for every message tuple, whether each destination decodes it.

    Tuples are ordered lexicographically (message 1's first stream is the
    most significant digit), so the first counterexample is well defined.
    With combiners U, destination k decodes m as (U_{m,k} V_m)^-1 U_{m,k}
    applied to the non-antidote part of the word.  A V-only scheme, whether
    decodable or not, fails at a destination when the lexicographically
    least tuple with the same broadcast word and the same antidote symbols
    there has different desired symbols.  A combiner with U_{m,k} V_m
    singular fails at once: the counterexample is zero except that x_m is a
    nonzero kernel vector of U_{m,k} V_m, and ``tuples_checked`` is 1.

    Nothing is enumerated.  Each check's error is linear in the tuple, so
    every tuple passes iff every check's support is empty.  Otherwise let s
    be the last stream in their union: every tuple before the unit tuple
    e_s has digits only in streams after s, which no check reads, and e_s
    fails.  It is tuple number q^(total-1-s) + 1, and the failing check is
    the first whose support holds s.  A counterexample lists every message
    with streams; a message without streams has no digits and is left out.
    """
    if isinstance(mapped := _error_map(inst, scheme), SimulationResult):
        return mapped
    cols, total, checks = mapped
    q = scheme.field.order
    union = reduce(operator.or_, (support for *_, support in checks), 0)
    if not union:
        return SimulationResult(True, q**total)
    s = union.bit_length() - 1
    k, m = next((k, m) for k, m, _, support in checks if support >> s & 1)
    return _failure(cols, [int(t == s) for t in range(total)], q ** (total - 1 - s) + 1, k, m)


def simulate_sampled(
    inst: Instance, scheme: LinearScheme, count: int, seed: int = 0
) -> SimulationResult:
    """Encode/decode a deterministic pseudorandom sample of message tuples.

    A weaker check than ``simulate_exhaustive``, run on request: a passing
    result means no counterexample among `count` sampled tuples, nothing more.
    ``random.Random(seed)`` draws each tuple's digits in stream order, one
    tuple after another, so a seed always checks the same tuples.  Each is
    judged by the checks of ``simulate_exhaustive``; if every support is
    empty every tuple passes and none is drawn.  A singular U_{m,k} V_m is
    reported as there.
    """
    if count < 1:
        raise BadParams(f"sample count must be at least 1, got {count}")
    if isinstance(mapped := _error_map(inst, scheme), SimulationResult):
        return mapped
    cols, total, checks = mapped
    f = scheme.field
    live = []  # each check that can fail, its rows unpacked and read on its support only
    for k, m, rows, support in checks:
        if support:
            error = tuple(e if support >> c & 1 else 0 for row in rows for c, e in enumerate(row))
            live.append((k, m, Matrix._trusted(f, len(error) // total, total, error)))
    if not live:
        return SimulationResult(True, count)
    rnd = random.Random(seed)
    for drawn in range(1, count + 1):
        x = Matrix.from_cols(f, [[rnd.randrange(f.order) for _ in range(total)]])
        for k, m, error in live:
            if not (error @ x).is_zero():
                return _failure(cols, x.entries, drawn, k, m)
    return SimulationResult(True, count)


def _failure(cols: dict, digits, checked: int, destination: int, message: int) -> SimulationResult:
    """The failing result for these digits, one per stream; a message without streams is left out."""
    x = {m: tuple(digits[r.start : r.stop]) for m, r in cols.items() if r}
    return SimulationResult(False, checked, x, destination, message)


def _error_map(inst: Instance, scheme: LinearScheme):
    """The prologue of both simulators: SchemeMalformed unless the scheme
    covers the instance's messages, else (cols, total, checks), the first two
    of ``_stream_layout`` and the exact decoding errors as checks (destination
    id, message, rows, support), in destination order and then message
    order; or, in place of all three, the result of its first singular
    check.  A tuple x fails a check iff, for some row r, the sum of r[c] x_c
    over the columns c in support is nonzero.

    With combiners U the rows are U_{m,k} [V_1 | ... | V_K] and the support
    is ``_decoder_checks``' leak: the decoding error up to the invertible
    factor (U V_m)^-1.  Their products stay packed, and the rows are
    unpacked only as they are iterated, which ``simulate_sampled`` alone
    does, for a check with a nonempty support.  If some U_{m,k} V_m is
    singular, the first such check fails at once: the tuple that is zero
    except x_m in the kernel of U_{m,k} V_m looks to destination k like zero.

    Without combiners the rows are x_m minus the same coordinates of the
    lexicographically least tuple with the same word and antidote symbols as
    x, and are zero off the support.  Those tuples are x + y for y in the
    null space of V on the streams the destination does not hold.  If its
    basis b_i is in reduced echelon form with pivots s_i, the least is
    x - sum_i x_{s_i} b_i, so row t is sum_i b_i[t] x_{s_i}.  Take V on
    those streams with its columns in reverse order, and let R be its
    reduced row echelon form.  The free columns are the s_i, and b_i is 1 at
    s_i, 0 at every other free column and -R[j][s_i] at the pivot of row j,
    which R makes 0 unless that pivot comes after s_i in stream order: in
    stream order b_i leads with its 1.  So a desired stream's row is read
    straight off R: -R[j][s] at every other column s if the stream is the
    pivot of row j (nonzero only at free columns), and the unit vector at
    the stream itself if it is free.  ``_rank_checks`` gives each destination's
    R, which ``restrict`` and ``read`` read off one back-substituted form of
    V per call, and each desired stream's row of R, packed, and says whether
    the check's streams all decode.  Such a check has only zero rows: it
    gets support 0 and no rows, and only the checks that fail unpack their
    reads to build theirs.
    """
    cols, total, masks, unheld = _stream_layout(inst, scheme)
    checks = []
    if scheme.U is not None:
        for k, m, rows, block, rank, leak in _decoder_checks(inst, scheme, cols, total, masks, unheld):
            if rows is None:
                raise SchemeMalformed(f"simulation needs the combiner U[{m}@{k}]")
            if rank < block.rows:  # x_m in the kernel of U_{m,k} V_m, every other digit 0
                digits = [0] * cols[m].start + [*block.nullspace().col(0)] + [0] * (total - cols[m].stop)
                return _failure(cols, digits, 1, k, m)
            checks.append((k, m, rows, leak))
        return cols, total, checks
    for d, basis, wanted in _rank_checks(inst, scheme, cols, total):
        for m, reads, decoded in wanted:
            if decoded:
                checks.append((d.id, m, (), 0))
                continue
            rows = []
            for t, row in zip(cols[m], reads):
                error = [0] * total if row is None else list(map(scheme.field.neg, basis.unpack(row)[::-1]))
                error[t] = int(row is None)  # the free stream itself, or nothing at its own pivot
                rows.append(error)
            support = sum(1 << s for s in range(total) if any(error[s] for error in rows))
            checks.append((d.id, m, rows, support))
    return cols, total, checks


# ----------------------------------------------------------------------
# dimension audit for the neighboring-antidotes family
# ----------------------------------------------------------------------


class DimensionAudit(Record):
    """Summed dimensions of unions of consecutive precoder spans.

    alpha[j-1] is sum_i dim(span of V_i .. V_{i+j-1}) over all K circular
    starts.  Any decodable scheme for the neighboring-antidotes family must
    satisfy alpha_j >= (U+j)/(U+1) * alpha_1 for every window size j up to
    the per-destination interferer count K-A-1.
    """

    def __init__(self, K: int, U: int, D: int, alpha: tuple, checks: tuple):
        # checks: (j, alpha_j, lower bound as Fraction, slack as Fraction) per window
        super().__init__(K, U, D, alpha, checks)

    @property
    def holds(self) -> bool:
        return all(slack >= 0 for _, _, _, slack in self.checks)

    @property
    def final_slack(self) -> Fraction:
        return self.checks[-1][3]


def dimension_audit(inst: Instance, scheme: LinearScheme) -> DimensionAudit:
    """Window-dimension accounting for neighboring-antidotes schemes.

    K, U and D come from ``check_family``, which returns them only once it
    has confirmed that the instance is the family its tag names, so the rule
    that they are used only after that check holds by construction.
    """
    _check_scheme_matches(inst, scheme)
    if inst.family is None or inst.family.kind != "neighboring-antidotes":
        raise UnsupportedFamily("dimension audit requires the neighboring-antidotes family tag")
    K, U, D = check_family(inst)
    A = U + D
    jmax = K - A - 1
    if jmax < 1:
        raise UnsupportedFamily("no interference to audit when A >= K-1")
    # One incremental pass per start i: after V_{i+j-1}'s columns are added,
    # the basis spans the window of size j.
    cols = {m: [v.col(c) for c in range(v.cols)] for m, v in scheme.V.items()}
    alpha = [0] * jmax
    for i in range(K):
        basis = EchelonBasis(scheme.field, scheme.n)
        for j in range(jmax):
            basis.grow(cols[(i + j) % K + 1])
            alpha[j] += basis.rank
    checks = []
    for j in range(1, jmax + 1):
        bound = Fraction(U + j, U + 1) * alpha[0]
        checks.append((j, alpha[j - 1], bound, Fraction(alpha[j - 1]) - bound))
    return DimensionAudit(K, U, D, tuple(alpha), tuple(checks))


# ----------------------------------------------------------------------
# scheme files (JSON)
# ----------------------------------------------------------------------

# Like the instance caps in model: far beyond any scheme the checks can treat,
# but small enough that parsing a file never exhausts memory.
MAX_BLOCK_LENGTH = 10_000
MAX_MATRIX_ENTRIES = 1_000_000


def check_scheme_size(n: int, streams: int):
    """BadParams, before the scheme is built, when its file would not read
    back: n times ``streams`` (its precoders' columns and its combiners'
    rows, in all) past MAX_MATRIX_ENTRIES.  Within the instance caps no
    builder's n passes MAX_BLOCK_LENGTH unless its entries pass this first."""
    entries = n * streams
    if entries > MAX_MATRIX_ENTRIES:
        raise BadParams(f"the scheme would have {entries} matrix entries, more than the limit of {MAX_MATRIX_ENTRIES}")


def scheme_to_json(scheme: LinearScheme) -> dict:
    out = {
        "field": scheme.field.to_json(),
        "n": scheme.n,
        "V": {str(m): scheme.V[m].row_list() for m in scheme.message_ids()},
    }
    if scheme.U is not None:
        out["U"] = {f"{m}@{k}": mat.row_list() for (m, k), mat in sorted(scheme.U.items())}
    return out


def _key_ids(key: str, count: int):
    """The ids of a V key 'm' (count 1) or a U key 'm@k' (count 2), or None
    unless the key is written exactly as scheme_to_json writes it."""
    try:
        ids = tuple(map(int, key.split("@")))
    except ValueError:
        return None
    return ids if len(ids) == count and "@".join(map(str, ids)) == key else None


def scheme_from_json(obj: dict) -> LinearScheme:
    """The scheme of a file's JSON: ``field``, ``n``, ``V`` and an optional ``U``, and no other key."""
    field_obj, n, V_obj, U_obj = read_record(obj, "scheme file", ("field", "n", "V"), ("U",))
    try:
        field = field_from_json(field_obj)
    except (ParseError, ValueError) as exc:
        raise ParseError(f"bad field spec: {exc}") from exc
    if not is_int(n) or n < 1:
        raise ParseError(f"'n' must be a positive integer, got {json.dumps(n)}")
    if n > MAX_BLOCK_LENGTH:
        raise ParseError(f"'n' is {n}, more than the limit of {MAX_BLOCK_LENGTH}")
    entries = 0

    def read_matrix(rows, what):
        nonlocal entries
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ParseError(f"{what} must be a list of rows")
        entries += sum(map(len, rows))
        if entries > MAX_MATRIX_ENTRIES:
            raise ParseError(f"more than {MAX_MATRIX_ENTRIES} matrix entries")
        for row in rows:
            bad = [e for e in row if not is_int(e)]
            if bad:
                raise ParseError(f"{what}: entry {json.dumps(bad[0])} is not an integer")
        try:
            return Matrix.from_rows(field, rows)
        except DimensionMismatch as exc:  # ragged rows: the entries are checked integers
            raise ParseError(f"{what}: {exc}") from exc

    if not isinstance(V_obj, dict) or not isinstance(U_obj, (dict, type(None))):
        raise ParseError("'V' and 'U' must be objects")
    V, U = {}, None if U_obj is None else {}
    for name, block, out, count, form in (
        ("V", V_obj, V, 1, "a message id"),
        ("U", U_obj or {}, U, 2, "of the form 'm@k'"),
    ):
        for key, rows in block.items():
            ids = _key_ids(key, count)
            if ids is None:
                raise ParseError(f"{name} key {key!r} is not {form}")
            out[ids[0] if count == 1 else ids] = read_matrix(rows, f"{name}[{key}]")
    try:
        return LinearScheme(field, n, V, U)
    except SchemeMalformed as exc:
        raise ParseError(str(exc)) from exc


def serialize_scheme(scheme: LinearScheme) -> str:
    return dump_json(scheme_to_json(scheme))


def parse_scheme(text: str) -> LinearScheme:
    return scheme_from_json(parse_json(text))


def load_scheme(path) -> LinearScheme:
    return read_file(path, parse_scheme)


def save_scheme(scheme: LinearScheme, path):
    write_file(path, serialize_scheme(scheme))
