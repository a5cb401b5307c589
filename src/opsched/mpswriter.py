"""Export of schedule models to standard MIP interchange formats.

Writes fixed-format MPS and CPLEX-style LP text. Row and column names
are generated (R0000001, C0000001) because native variable names carry
parentheses and commas that neither format accepts; a comment header
maps generated column names back to model variables. Output is fully
deterministic: columns follow variable creation order, rows follow
constraint creation order.

Both writers share two routines. The column table numbers each
variable once, in store order, keyed by its `VarRef`, a named tuple
that hashes in C, so a term finds its column with one dict lookup and
nothing is built per term. `_merged_rows` turns each row
into its ``(column, coefficient)`` pairs once: a coefficient is
``0.0 + c₁ + c₂ …`` over the row's terms on that column, in order of
first occurrence, and a pair whose sum is ``== 0.0`` is left out. A row
that names no column twice skips the merge dict.

After the ``0.0 +`` every matrix coefficient is a float, and a model
holds few distinct ones (5 at pp=4, over 0.42M entries), so each writer
formats a coefficient once per distinct value, in a cache keyed by that
value. A right-hand side is formatted once per distinct
``(type, value)``: an int of 1e15 or more prints differently from the
equal float, so the type is part of the key.

The text is written as it is produced, section by section, and in MPS
column by column, never joined whole: the pp=4 MPS is 16.5 MB, and a
joined copy would add its size, and that of the pieces, to the peak
memory of an export that already holds the materialised model.

Each writer runs with the cyclic garbage collector paused, as the store
is built (see `opsched.model`). A store built while the collector is off
stays in its youngest generation, so the first collections after the
build would rescan all of it; and the writers' own pieces, like the
store, form no reference cycles.
"""
from __future__ import annotations

from typing import IO, Iterable, Iterator

from .model import BINARY, ScheduleModel, VarRef, _collector_paused

__all__ = ["export_mps", "export_lp"]

_OBJ = "COST"


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


class _RhsText(dict):
    """`_num` text of each right-hand side, keyed by ``(type, value)``."""

    def __missing__(self, key: tuple[type, float]) -> str:
        text = self[key] = _num(key[1])
        return text


def _column_table(model: ScheduleModel) -> dict[VarRef, int]:
    """Column number of every variable, keyed by its `VarRef`."""
    return {ref: k for k, ref in enumerate(model.variables.values())}


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{k:07d}" for k in range(1, n + 1)]


def _merged_rows(model: ScheduleModel, cols: dict[VarRef, int]
                 ) -> Iterator[Iterable[tuple[int, float]]]:
    """Each row's nonzero ``(column, coefficient)`` pairs, in row order.

    A term whose variable is not in the store raises `KeyError`.
    """
    for con in model.constraints:
        terms = con.terms
        cs = [cols[ref] for _, ref in terms]
        vs = [0.0 + coef for coef, _ in terms]
        if len(set(cs)) == len(cs) and 0.0 not in vs:
            yield zip(cs, vs)
        else:
            acc: dict[int, float] = {}
            for c, (coef, _) in zip(cs, terms):
                acc[c] = acc.get(c, 0.0) + coef
            yield [(c, v) for c, v in acc.items() if v != 0.0]


@_collector_paused()
def export_mps(model: ScheduleModel, dest: IO[str]) -> None:
    """Write the model as a fixed-format MPS document.

    Binary columns sit inside INTORG/INTEND marker pairs and get
    explicit 0/1 bounds, so any standard reader recovers the same
    mixed-integer matrix. A column that no row uses gets a zero entry
    on the objective row: without a COLUMNS line it would not be
    declared, and its markers would enclose nothing.
    """
    cols = _column_table(model)
    names = _names("C", len(cols))
    refs = model.variables.values()
    constraints = model.constraints
    rnames = _names("R", len(constraints))
    w = dest.write
    w("* generated schedule model\n")
    w("".join([f"* {cname} = {ref.name}\n"
               for cname, ref in zip(names, refs)]))
    w("NAME          SCHEDULE\n")
    w("ROWS\n")
    w(f" N  {_OBJ}\n")
    sense_code = {"<=": "L", ">=": "G", "==": "E"}
    w("".join([f" {sense_code[con.sense]}  {rname}\n"
               for rname, con in zip(rnames, constraints)]))

    # column-major entries, objective first, then rows in order; each
    # column holds (padded row name, coefficient text) pairs flattened
    entries: list[list[str]] = [[] for _ in names]
    entries[cols[model.objective]] += (f"{_OBJ:<10}", f"{_num(1.0)}\n")
    text: dict[float, str] = {}
    for rname, pairs in zip(rnames, _merged_rows(model, cols)):
        rname = f"{rname:<10}"
        for c, v in pairs:
            t = text.get(v)
            if t is None:
                t = text[v] = f"{_num(v)}\n"
            col = entries[c]
            col.append(rname)
            col.append(t)

    w("COLUMNS\n")
    marker = 0
    in_int = False
    for cname, ref, col in zip(names, refs, entries):
        binary = ref.domain == BINARY
        if binary != in_int:
            marker += 1
            kind = "'INTORG'" if binary else "'INTEND'"
            w(f"    MARKER{marker:04d}  'MARKER'                 {kind}\n")
            in_int = binary
        head = f"    {cname:<10}"
        if col:
            w(head + head.join(map(str.__add__, col[::2], col[1::2])))
        else:
            w(f"{head}{_OBJ:<10}0\n")
    if in_int:
        marker += 1
        w(f"    MARKER{marker:04d}  'MARKER'                 'INTEND'\n")

    w("RHS\n")
    rhs_text = _RhsText()
    w("".join([f"    RHS       {rname:<10}{rhs_text[type(rhs), rhs]}\n"
               for rname, (_, _, rhs, _) in zip(rnames, constraints)
               if rhs != 0.0]))
    w("BOUNDS\n")
    w("".join([f" BV BND       {cname:<10}\n" if ref.domain == BINARY
               else f" PL BND       {cname:<10}\n"
               for cname, ref in zip(names, refs)]))
    w("ENDATA\n")


@_collector_paused()
def export_lp(model: ScheduleModel, dest: IO[str]) -> None:
    """Write the model in CPLEX LP format, as an MPS alternative.

    An LP reader declares a column where a section names it, so a column
    that no row names with a nonzero coefficient gets a ``+ 0`` term on
    the objective, as the MPS writer gives it a zero objective entry.
    A column that appears only in rows where its terms sum to zero stays
    undeclared; no generated model repeats a variable within a row.
    """
    cols = _column_table(model)
    names = _names("C", len(cols))
    refs = model.variables.values()
    constraints = model.constraints
    rnames = _names("R", len(constraints))
    named = {ref for con in constraints for coef, ref in con.terms if coef}
    named.add(model.objective)
    w = dest.write
    w("".join([f"\\ {cname} = {ref.name}\n"
               for cname, ref in zip(names, refs)]))
    w("Minimize\n")
    w(f" obj: {names[cols[model.objective]]}")
    w("".join([f" + 0 {cname}" for cname, ref in zip(names, refs)
               if ref not in named]))
    w("\n")
    w("Subject To\n")
    sense_txt = {"<=": "<=", ">=": ">=", "==": "="}
    # signed coefficient text that goes before a column name
    lead: dict[float, str] = {}
    rhs_text = _RhsText()
    for rname, (_, sense, rhs, _), pairs in zip(rnames, constraints,
                                                _merged_rows(model, cols)):
        parts = []
        for c, v in pairs:
            t = lead.get(v)
            if t is None:
                mag = abs(v)
                t = lead[v] = ("- " if v < 0 else "+ ") + (
                    "" if mag == 1 else f"{_num(mag)} ")
            parts.append(t + names[c])
        body = " ".join(parts)
        if body.startswith("+ "):
            body = body[2:]
        w(f" {rname}: {body} {sense_txt[sense]} {rhs_text[type(rhs), rhs]}\n")
    binaries = [cname for cname, ref in zip(names, refs)
                if ref.domain == BINARY]
    if binaries:
        w("Binary\n")
        w("".join([f" {cname}\n" for cname in binaries]))
    w("End\n")
