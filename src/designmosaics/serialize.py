"""Mosaic serialization: a JSON header plus optional per-color CSV matrices."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .designs import incidence_from_csv, incidence_to_csv, params_from_json
from .families import build_family
from .mosaics import Mosaic, from_members, implied_member_keys, mosaic_header


def content_hash(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _header_hash(head: dict) -> str:
    return content_hash({k: v for k, v in head.items() if k != "content_hash"})


def save_mosaic(M: Mosaic, json_path, members: bool = False) -> dict:
    """Write the JSON header; with ``members=True`` also one CSV per color."""
    json_path = Path(json_path)
    head = mosaic_header(M)
    if members:
        names = []
        for alpha in range(M.a):
            name = f"{json_path.stem}_member_{alpha}.csv"
            incidence_to_csv(M.member(alpha), json_path.with_name(name))
            names.append(name)
        head["members"] = names
    head["content_hash"] = _header_hash(head)
    json_path.write_text(json.dumps(head, indent=2))
    return head


def load_mosaic(json_path) -> Mosaic:
    """Rebuild from member CSVs when present, else from the family registry.
    Its errors leave the header path for the caller to name."""
    json_path = Path(json_path)
    head = json.loads(json_path.read_text())
    if head.get("format") != "mosaic":
        raise ValueError("not a mosaic header")
    if head.get("content_hash") != _header_hash(head):
        raise ValueError("header does not match its content_hash")
    member_params = head.get("member_params")
    params = None if member_params is None else params_from_json(member_params)
    for key, want in implied_member_keys(params).items():
        if head.get(key) != want:
            raise ValueError(f"header {key} disagrees with its member_params")
    if head.get("members"):
        structures = [incidence_from_csv(json_path.with_name(name))
                      for name in head["members"]]
        M = from_members(structures, member_params=params,
                         meta={"family": head.get("family"), **head.get("params", {})})
    elif head.get("family") is None:
        raise ValueError("header has neither member files nor a family tag")
    else:
        M = build_family(head["family"], **head.get("params", {}))
    if (M.v, M.b, M.a) != (head["v"], head["b"], head["a"]):
        raise ValueError("mosaic sizes disagree with the declared sizes")
    return M
