"""JSON serialization for generalized relations and databases.

The JSON form is a faithful structural dump: lrps as ``[offset,
period]`` pairs, constraints as the closed DBM's finite bounds, data
values as JSON scalars.  Round-tripping preserves the denoted point set
exactly (and the canonical structure up to DBM closure).
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from typing import Any

from repro.core.dbm import DBM
from repro.core.errors import ParseError
from repro.core.lrp import LRP
from repro.core.relations import Attribute, GeneralizedRelation, Schema
from repro.core.tuples import GeneralizedTuple


def tuple_to_dict(gtuple: GeneralizedTuple) -> dict[str, Any]:
    """One tuple's JSON entry: lrps, written DBM bounds, data values."""
    return {
        "lrps": [[lrp.offset, lrp.period] for lrp in gtuple.lrps],
        "bounds": [[i, j, bound] for i, j, bound in gtuple.dbm.iter_bounds()],
        "data": list(gtuple.data),
    }


def tuples_to_list(tuples: Iterable[GeneralizedTuple]) -> list[dict[str, Any]]:
    """The JSON entries of ``tuples``, unsatisfiable ones left out.

    A tuple with unsatisfiable constraints denotes the empty set, and
    its contradiction may sit in a diagonal marker the off-diagonal
    bounds list cannot express.  It is recognized from the closure a
    tuple carries (:meth:`GeneralizedTuple.closure`), which a stored
    tuple already holds, so no DBM is closed here.
    """
    return [tuple_to_dict(t) for t in tuples if t.closure() is not None]


def relation_to_dict(relation: GeneralizedRelation) -> dict[str, Any]:
    """Convert a relation to a JSON-ready dictionary.

    Its tuples are encoded by :func:`tuples_to_list`, which leaves out
    the unsatisfiable ones.
    """
    return {
        "schema": [
            {"name": a.name, "temporal": a.temporal}
            for a in relation.schema.attributes
        ],
        "tuples": tuples_to_list(relation),
    }


def tuple_from_dict(entry: dict[str, Any]) -> GeneralizedTuple:
    """Rebuild one tuple from its entry (``bounds`` and ``data`` may be
    left out); a malformed entry raises ``KeyError``, ``TypeError`` or
    ``ValueError``."""
    lrps = tuple(LRP.make(offset, period) for offset, period in entry["lrps"])
    dbm = DBM(len(lrps))
    for i, j, bound in entry.get("bounds") or ():
        if i >= 0 and j >= 0:
            dbm.add_difference(i, j, bound)
        elif j < 0:
            dbm.add_upper(i, bound)
        else:
            dbm.add_lower(j, -bound)
    return GeneralizedTuple(
        lrps=lrps, dbm=dbm, data=tuple(entry.get("data") or ())
    )


def relation_from_dict(payload: dict[str, Any]) -> GeneralizedRelation:
    """Rebuild a relation from its dictionary form."""
    try:
        attrs = tuple(
            Attribute(item["name"], bool(item["temporal"]))
            for item in payload["schema"]
        )
        schema = Schema(attrs)
        relation = GeneralizedRelation.empty(schema)
        for entry in payload["tuples"]:
            relation.add(tuple_from_dict(entry))
        return relation
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed relation payload: {exc}") from exc


def dumps(relation: GeneralizedRelation, **json_kwargs) -> str:
    """Serialize one relation to a JSON string."""
    return json.dumps(relation_to_dict(relation), **json_kwargs)


def loads(text: str) -> GeneralizedRelation:
    """Deserialize one relation from a JSON string."""
    return relation_from_dict(json.loads(text))


def dump_database(relations: dict[str, GeneralizedRelation], **json_kwargs) -> str:
    """Serialize a name-to-relation mapping."""
    return json.dumps(
        {name: relation_to_dict(rel) for name, rel in relations.items()},
        **json_kwargs,
    )


def load_database(text: str) -> dict[str, GeneralizedRelation]:
    """Deserialize a name-to-relation mapping."""
    payload = json.loads(text)
    return {
        name: relation_from_dict(entry) for name, entry in payload.items()
    }
