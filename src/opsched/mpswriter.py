"""Export of schedule models to standard MIP interchange formats.

Writes fixed-format MPS and CPLEX-style LP text. Row and column names
are generated (R0000001, C0000001) because native variable names carry
parentheses and commas that neither format accepts; a comment header
maps generated column names back to model variables. Output is fully
deterministic: columns follow variable creation order, rows follow
constraint creation order.

Both writers read the store's flat columns (see `opsched.model`). Its
rows were merged when they were added, so every stored coefficient is
a nonzero float and is written as it is. A model holds few distinct
coefficients (5 at pp=4, over 0.42M entries), so each writer formats a
coefficient once per distinct value, in a cache keyed by that value. A
right-hand side is formatted once per distinct ``(type, value)``: an
int of 1e15 or more prints differently from the equal float, so the
type is part of the key.

MPS lists the matrix column by column. `export_mps` transposes the
row-major entries once into one list per column, filled at C speed:
each entry appends two strings that already exist, its row's padded
name (one list of them) and its coefficient's text (the cache), so an
entry costs two pointers and no object of its own. The store's entries
run row by row, so each column's list is in row order. The objective
is one more row, seeded first in the objective column's list; a column
that no row uses writes the objective row's ``COST 0``. COLUMNS is then
joined from those strings and each column's padded name, without a
string per entry, and a column's list is dropped once it is written.

The text is written as it is produced, in chunks of lines (COLUMNS in
whole matrix columns, as many as make about a chunk), never joined
whole: the pp=4 MPS is 16.5 MB, and a joined copy would add its
size, and that of its pieces, to the peak memory of an export that
already holds the materialised model.
"""
from __future__ import annotations

from itertools import chain, compress, islice, repeat
from operator import add, ne, sub
from typing import IO, Iterable, Iterator

from .model import BINARY, ScheduleModel

__all__ = ["export_mps", "export_lp"]

_OBJ = "COST"
# lines per joined write; a COLUMNS write ends with a whole matrix
# column, so it may run over by up to one column
_CHUNK = 4096


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


class _RhsText(dict):
    """`_num` text of each right-hand side, keyed by ``(type, value)``."""

    def __missing__(self, key: tuple[type, float]) -> str:
        text = self[key] = _num(key[1])
        return text


class _CoefText(dict):
    """`_num` text of each coefficient and a newline, keyed by value."""

    def __missing__(self, v: float) -> str:
        text = self[v] = f"{_num(v)}\n"
        return text


def _names(prefix: str, n: int) -> Iterator[str]:
    return map(f"{prefix}%07d".__mod__, range(1, n + 1))


def _write_lines(w, n: int, *parts: str | Iterable[str]) -> None:
    """Write n lines, joined a chunk at a time: line k is the k-th item
    of each part in turn, a part being strings or one string repeated."""
    parts = [repeat(p) if isinstance(p, str) else iter(p) for p in parts]
    m = len(parts)
    for done in range(0, n, _CHUNK):
        k = min(_CHUNK, n - done)
        pieces = [""] * (m * k)
        for i, part in enumerate(parts):
            pieces[i::m] = islice(part, k)
        w("".join(pieces))


def export_mps(model: ScheduleModel, dest: IO[str]) -> None:
    """Write the model as a fixed-format MPS document.

    Binary columns sit inside INTORG/INTEND marker pairs and get
    explicit 0/1 bounds, so any standard reader recovers the same
    mixed-integer matrix. A column that no row uses gets a zero entry
    on the objective row: without a COLUMNS line it would not be
    declared, and its markers would enclose nothing.
    """
    store = model.store
    refs = list(store.variables.values())
    ncols, nrows = len(refs), len(store.ends)
    cnames = list(_names("C", ncols))
    w = dest.write
    w("* generated schedule model\n")
    _write_lines(w, ncols, "* ", cnames, " = ", (ref.name for ref in refs),
                 "\n")
    w("NAME          SCHEDULE\n")
    w("ROWS\n")
    w(f" N  {_OBJ}\n")
    sense_code = {"<=": " L  ", ">=": " G  ", "==": " E  "}
    _write_lines(w, nrows, map(sense_code.__getitem__, store.senses),
                 _names("R", nrows), "\n")

    # each column's entries in row order, as the padded row name and the
    # coefficient text of each in turn: strings that exist once each
    rnames = list(map("%-10s".__mod__, _names("R", nrows)))
    cost = f"{_OBJ:<10}"
    text = _CoefText()
    by_col = [[] for _ in range(ncols)]
    by_col[store.column(model.objective)] += (cost, text[1.0])
    row_of_entry = chain.from_iterable(
        map(repeat, rnames, map(sub, store.ends, chain((0,), store.ends))))
    any(map(list.extend, map(by_col.__getitem__, store.cols),
            zip(row_of_entry, map(text.__getitem__, store.coefs))))
    unused = (cost, text[0.0])
    w("COLUMNS\n")
    marker = 0
    binary = False
    pieces = []
    lines = 0
    for c, (cname, ref) in enumerate(zip(cnames, refs)):
        if (ref.domain == BINARY) != binary:
            # a run of columns of one domain starts
            binary = not binary
            marker += 1
            kind = "'INTORG'" if binary else "'INTEND'"
            pieces.append(
                f"    MARKER{marker:04d}  'MARKER'                 {kind}\n")
            lines += 1
        entries = by_col[c] or unused
        by_col[c] = None
        lines += len(entries) // 2
        pairs = iter(entries)
        pieces += chain.from_iterable(zip(repeat("    %-10s" % cname), pairs,
                                          pairs))
        if lines >= _CHUNK:
            w("".join(pieces))
            pieces = []
            lines = 0
    if binary:
        marker += 1
        pieces.append(
            f"    MARKER{marker:04d}  'MARKER'                 'INTEND'\n")
    w("".join(pieces))

    w("RHS\n")
    rhs_text = _RhsText()
    nonzero = list(map(ne, store.rhs, repeat(0.0)))
    values = list(compress(store.rhs, nonzero))
    _write_lines(w, len(values), "    RHS       ", compress(rnames, nonzero),
                 map(rhs_text.__getitem__, zip(map(type, values), values)),
                 "\n")
    w("BOUNDS\n")
    bound = {BINARY: " BV BND       "}
    _write_lines(w, ncols, (bound.get(ref.domain, " PL BND       ")
                            for ref in refs), map("%-10s".__mod__, cnames),
                 "\n")
    w("ENDATA\n")


def export_lp(model: ScheduleModel, dest: IO[str]) -> None:
    """Write the model in CPLEX LP format, as an MPS alternative.

    An LP reader declares a column where a section names it, so a column
    that no row names gets a ``+ 0`` term on the objective, as the MPS
    writer gives it a zero objective entry.
    """
    store = model.store
    refs = list(store.variables.values())
    names = list(_names("C", len(refs)))
    obj = store.column(model.objective)
    named = set(store.cols)
    named.add(obj)
    w = dest.write
    _write_lines(w, len(refs), "\\ ", names, " = ",
                 (ref.name for ref in refs), "\n")
    w("Minimize\n")
    w(f" obj: {names[obj]}")
    w("".join([f" + 0 {cname}" for c, cname in enumerate(names)
               if c not in named]))
    w("\n")
    w("Subject To\n")
    sense_txt = {"<=": "<=", ">=": ">=", "==": "="}
    # signed coefficient text that goes before a column name
    lead: dict[float, str] = {}
    for v in set(store.coefs):
        mag = abs(v)
        lead[v] = ("- " if v < 0 else "+ ") + (
            "" if mag == 1 else f"{_num(mag)} ")
    rhs_text = _RhsText()
    cols, coefs = store.cols, store.coefs

    def row_lines():
        lo = 0
        for rname, hi, sense, rhs in zip(_names("R", len(store.ends)),
                                         store.ends, store.senses,
                                         store.rhs):
            body = " ".join(map(add, map(lead.__getitem__, coefs[lo:hi]),
                                map(names.__getitem__, cols[lo:hi])))
            if body.startswith("+ "):
                body = body[2:]
            yield (f" {rname}: {body} {sense_txt[sense]} "
                   f"{rhs_text[type(rhs), rhs]}\n")
            lo = hi

    _write_lines(w, len(store.ends), row_lines())
    binaries = [cname for cname, ref in zip(names, refs)
                if ref.domain == BINARY]
    if binaries:
        w("Binary\n")
        _write_lines(w, len(binaries), " ", binaries, "\n")
    w("End\n")
