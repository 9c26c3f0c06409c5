"""Input document parsing: JSON-compatible model / representation / CW data.

Schema sketch (all numbers plain JSON):

    {
      "representation": {"dim": 1, "generators": {"g": [[[-1.0, 0.0]]]}},
      "blocks": [
        {"id": "m1", "kind": "circle", "index": 0, "delta": 1,
         "holonomy": [], "critical_value": 0.0},
        {"id": "T", "kind": "torus", "extremal": "min",
         "alpha": ["a"], "beta": ["b"], "critical_value": 1.0}
      ],
      "connections": [
        {"from": "r1.w", "to": "m1.w",
         "orbits": [{"sign": 1, "word": []}, {"sign": -1, "word": ["g"]}]}
      ],
      "cw": {"cells": {"0": ["v"], ...}, "boundaries": {"e": [["v", 1, ["t"]], ...]}}
    }

Complex numbers are [re, im] pairs, matrices row-major lists of rows.
Structural problems raise ParseError; semantic validation (unitarity, the
block ordering, gcd conditions) stays with the domain constructors.
"""
from __future__ import annotations

import json

import numpy as np

from .bott import BottModel, CriticalBlock, GradientConnection, Orbit
from .cw import CWComplex
from .errors import ParseError
from .representation import Representation


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def _expect(doc, key, types, where, optional=False, default=None):
    if key not in doc:
        if optional:
            return default
        raise ParseError(f"{where}: missing field {key!r}")
    value = doc[key]
    # bool is an int subtype in Python but never valid in these documents
    if isinstance(value, bool) or not isinstance(value, types):
        raise ParseError(f"{where}.{key}: unexpected type {type(value).__name__}")
    return value


def parse_complex_matrix(rows, where) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"{where}: matrix must be a non-empty list of rows")
    out = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise ParseError(f"{where}: row {i} malformed")
        width = len(row)
        entries = []
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) for x in entry)
            ):
                raise ParseError(f"{where}[{i}][{j}]: entries are [re, im] pairs")
            entries.append(complex(entry[0], entry[1]))
        out.append(entries)
    return np.array(out, dtype=complex)


def parse_word(value, where) -> tuple:
    if value is None:
        return ()
    if isinstance(value, str):
        return tuple(value.split())
    if isinstance(value, list) and all(isinstance(t, str) for t in value):
        return tuple(value)
    raise ParseError(f"{where}: a word is a list of generator tokens")


def parse_representation(doc, where="representation") -> Representation:
    dim = _expect(doc, "dim", int, where)
    gens_doc = _expect(doc, "generators", dict, where)
    gens = {
        name: parse_complex_matrix(mat, f"{where}.generators.{name}")
        for name, mat in gens_doc.items()
    }
    return Representation(dim, gens)


def _parse_point(value, where) -> tuple:
    if not isinstance(value, str) or value.count(".") != 1:
        raise ParseError(f'{where}: points are addressed "blockId.label"')
    block_id, label = value.split(".")
    if not block_id or not label:
        raise ParseError(f"{where}: empty block id or label in {value!r}")
    return block_id, label


def parse_block(doc, where) -> CriticalBlock:
    kind = _expect(doc, "kind", str, where)
    common = dict(
        id=str(_expect(doc, "id", (str, int), where)),
        kind=kind,
        critical_value=float(_expect(doc, "critical_value", (int, float), where, optional=True, default=0.0)),
    )
    try:
        if kind == "circle":
            return CriticalBlock(
                index=_expect(doc, "index", int, where),
                delta=_expect(doc, "delta", int, where),
                holonomy=parse_word(doc.get("holonomy"), f"{where}.holonomy"),
                **common,
            )
        return CriticalBlock(
            extremal=_expect(doc, "extremal", str, where),
            alpha=parse_word(doc.get("alpha"), f"{where}.alpha"),
            beta=parse_word(doc.get("beta"), f"{where}.beta"),
            **common,
        )
    except ParseError:
        raise
    except Exception as err:
        raise ParseError(f"{where}: {err}") from err


def parse_connection(doc, where) -> GradientConnection:
    orbits = []
    for i, orbit in enumerate(_expect(doc, "orbits", list, where)):
        if not isinstance(orbit, dict):
            raise ParseError(f"{where}.orbits[{i}]: expected an object")
        sign = _expect(orbit, "sign", int, f"{where}.orbits[{i}]")
        word = parse_word(orbit.get("word"), f"{where}.orbits[{i}].word")
        try:
            orbits.append(Orbit(sign, word))
        except Exception as err:
            raise ParseError(f"{where}.orbits[{i}]: {err}") from err
    return GradientConnection(
        from_point=_parse_point(_expect(doc, "from", str, where), f"{where}.from"),
        to_point=_parse_point(_expect(doc, "to", str, where), f"{where}.to"),
        orbits=tuple(orbits),
    )


def parse_model(doc, where="document") -> BottModel:
    rep = parse_representation(_expect(doc, "representation", dict, where))
    blocks = [
        parse_block(b, f"{where}.blocks[{i}]")
        for i, b in enumerate(_expect(doc, "blocks", list, where))
    ]
    connections = [
        parse_connection(c, f"{where}.connections[{i}]")
        for i, c in enumerate(_expect(doc, "connections", list, where, optional=True, default=[]))
    ]
    return BottModel(rep, tuple(blocks), tuple(connections))


def parse_cw(doc, where="cw") -> CWComplex:
    cells_doc = _expect(doc, "cells", dict, where)
    cells = {}
    for key, ids in cells_doc.items():
        try:
            k = int(key)
        except ValueError as err:
            raise ParseError(f"{where}.cells: dimension keys are integers, got {key!r}") from err
        if not isinstance(ids, list) or not all(isinstance(c, str) for c in ids):
            raise ParseError(f"{where}.cells.{key}: expected a list of cell ids")
        if not 0 <= k <= 3:
            raise ParseError(f"{where}.cells: dimension {k} out of range 0..3")
        cells[k] = ids
    boundaries = {}
    for cell, terms in _expect(doc, "boundaries", dict, where, optional=True, default={}).items():
        if not isinstance(terms, list):
            raise ParseError(f"{where}.boundaries.{cell}: expected a list")
        parsed = []
        for i, term in enumerate(terms):
            if not (isinstance(term, list) and len(term) in (2, 3)):
                raise ParseError(
                    f"{where}.boundaries.{cell}[{i}]: expected [face, incidence, word]"
                )
            face = term[0]
            incidence = term[1]
            word = parse_word(term[2] if len(term) == 3 else [], f"{where}.boundaries.{cell}[{i}]")
            if not isinstance(face, str) or not isinstance(incidence, int):
                raise ParseError(f"{where}.boundaries.{cell}[{i}]: bad face or incidence")
            parsed.append((face, incidence, word))
        boundaries[cell] = parsed
    try:
        return CWComplex(cells, boundaries)
    except Exception as err:
        raise ParseError(f"{where}: {err}") from err

