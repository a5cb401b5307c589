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

MPS lists the matrix column by column. `_by_column` transposes the
row-major entries once, with one sort of plain ints, into compressed
columns: each column's row numbers and coefficients in row order, in
two arrays. The objective is one more row, so the objective column's
``COST 1`` and the ``COST 0`` of a column that no row uses are entries
like any other. COLUMNS is then joined from strings that already
exist, a column's padded name, a row's padded name and a coefficient's
text, without a string per entry.

The text is written as it is produced, in chunks of lines, never
joined whole: the pp=4 MPS is 16.5 MB, and a joined copy would add its
size, and that of its pieces, to the peak memory of an export that
already holds the materialised model.
"""
from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, mod, mul, ne, sub
from typing import IO, Iterable

from .model import BINARY, ConstraintStore, ScheduleModel

__all__ = ["export_mps", "export_lp"]

_OBJ = "COST"
# lines (or matrix columns, in COLUMNS) per joined write
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


def _names(prefix: str, n: int) -> list[str]:
    return list(map(f"{prefix}%07d".__mod__, range(1, n + 1)))


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


class _ByColumn:
    """The matrix in compressed columns, objective row included.

    Column c's entries are the sorted positions ``starts[c]`` to
    ``starts[c + 1]``, in row order; `entries` gives the entry numbers
    at a range of positions, and entry k lies in row ``row_of[k]`` with
    coefficient ``value[k]``. Row number ``len(store.ends)`` is the
    objective, with ``1.0`` on column `obj` and ``0.0`` on each column
    that no row names, so every column has an entry.

    The entries are sorted as plain ints, ``column * n + k`` for n
    entries: one list of ints, where sorting the entry numbers by a key
    would hold two.
    """

    def __init__(self, store: ConstraintStore, obj: int):
        cols, ends = store.cols, store.ends
        nrows, ncols = len(ends), len(store.variables)
        counts = Counter(cols)
        lead = [obj] + [c for c in range(ncols)
                        if c not in counts and c != obj]
        counts.update(lead)
        self.starts = [0, *accumulate(map(counts.__getitem__,
                                          range(ncols)))]
        # the lead's entries first, then the store's, so the objective
        # row comes first in its columns
        self._n = n = len(lead) + len(cols)
        self._keys = list(map(add, map(mul, chain(lead, cols), repeat(n)),
                              range(n)))
        self._keys.sort()
        self.row_of = array("i", repeat(nrows, len(lead)))
        self.row_of.extend(chain.from_iterable(
            map(repeat, range(nrows), map(sub, ends, chain((0,), ends)))))
        self.value = array("d", [1.0, *repeat(0.0, len(lead) - 1)])
        self.value.extend(store.coefs)

    def entries(self, lo: int, hi: int) -> list[int]:
        return list(map(mod, self._keys[lo:hi], repeat(self._n)))


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
    cnames = _names("C", ncols)
    w = dest.write
    w("* generated schedule model\n")
    _write_lines(w, ncols, "* ", cnames, " = ", (ref.name for ref in refs),
                 "\n")
    w("NAME          SCHEDULE\n")
    w("ROWS\n")
    w(f" N  {_OBJ}\n")
    # padded row names, and the objective's after them
    rnames = list(map("%-10s".__mod__, _names("R", nrows)))
    rnames.append(f"{_OBJ:<10}")
    sense_code = {"<=": " L  ", ">=": " G  ", "==": " E  "}
    _write_lines(w, nrows, map(sense_code.__getitem__, store.senses),
                 map(str.rstrip, rnames), "\n")

    matrix = _ByColumn(store, store.column(model.objective))
    starts, row_of, value = matrix.starts, matrix.row_of, matrix.value
    heads = list(map("    %-10s".__mod__, cnames))
    text = _CoefText()
    w("COLUMNS\n")
    marker = 0
    c = 0
    while c < ncols:
        # a run of columns of one domain, between two markers
        binary = refs[c].domain == BINARY
        end = c + 1
        while end < ncols and (refs[end].domain == BINARY) == binary:
            end += 1
        if binary or marker:
            marker += 1
            kind = "'INTORG'" if binary else "'INTEND'"
            w(f"    MARKER{marker:04d}  'MARKER'                 {kind}\n")
        # each entry's column head, then its row and coefficient
        head = chain.from_iterable(map(repeat, heads[c:end],
                                       map(sub, starts[c + 1:end + 1],
                                           starts[c:end])))
        for lo in range(starts[c], starts[end], _CHUNK):
            entries = matrix.entries(lo, min(lo + _CHUNK, starts[end]))
            _write_lines(
                w, len(entries), head,
                map(rnames.__getitem__, map(row_of.__getitem__, entries)),
                map(text.__getitem__, map(value.__getitem__, entries)))
        c = end
    if refs and refs[-1].domain == BINARY:
        marker += 1
        w(f"    MARKER{marker:04d}  'MARKER'                 'INTEND'\n")
    del matrix, starts, row_of, value

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
    names = _names("C", len(refs))
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
