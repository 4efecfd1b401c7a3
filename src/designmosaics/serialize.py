"""Mosaic files: a JSON header and, with member data, the color matrix F as one
CSV of v rows and b color indices, named under "colors".  A mosaic read from
that CSV is held by F alone; one without it is rebuilt from its family tag."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .designs import json_ints, params_from_json, params_to_json
from .families import FAMILY_BUILDERS, build_family
from .mosaics import MEMBER_KINDS, Mosaic, _from_colors


def content_hash(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _header_hash(head: dict) -> str:
    return content_hash({k: v for k, v in head.items() if k != "content_hash"})


def mosaic_header(M: Mosaic) -> dict:
    implied = implied_member_keys(M.member_params)
    return {"format": "mosaic", "family": M.meta.get("family"),
            "params": {key: val for key, val in M.meta.items() if key != "family"},
            "v": M.v, "b": M.b, "a": M.a, "k": M.k, "member_kind": implied["member_kind"],
            "member_params": None if M.member_params is None else params_to_json(M.member_params),
            "point_classes": implied["point_classes"]}


def implied_member_keys(member_params) -> dict:
    """The header's ``member_kind`` and ``point_classes`` as ``member_params`` implies them."""
    part = getattr(member_params, "partition", None)
    return {"member_kind": MEMBER_KINDS.get(type(member_params)),
            "point_classes": None if part is None else [list(c) for c in part]}


def save_mosaic(M: Mosaic, json_path, members: bool = False) -> dict:
    """Write the JSON header; with ``members=True`` also the CSV of F."""
    json_path = Path(json_path)
    head = mosaic_header(M)
    if members:
        head["colors"] = f"{json_path.stem}_colors.csv"
        np.savetxt(json_path.with_name(head["colors"]), M.color_matrix(), fmt="%d", delimiter=",")
    head["content_hash"] = _header_hash(head)
    json_path.write_text(json.dumps(head, indent=2))
    return head


def load_mosaic(json_path) -> Mosaic:
    """The mosaic of the header's CSV of F, else of its family tag; errors name the key or CSV."""
    json_path = Path(json_path)
    head = json.loads(json_path.read_text())
    if not isinstance(head, dict) or head.get("format") != "mosaic":
        raise ValueError("not a mosaic header")
    if head.get("content_hash") != _header_hash(head):
        raise ValueError("header does not match its content_hash")
    if "members" in head:
        raise ValueError('header key "members" names dense member files, which are no longer read')
    for key, kind in (("family", str), ("params", dict), ("member_params", dict), ("colors", str)):
        if head.get(key) is not None and not isinstance(head[key], kind):
            raise ValueError(f"header {key} is {head[key]!r}, not a {kind.__name__}")
    family, meta = head.get("family"), head.get("params") or {}
    v, b, a, k = sizes = json_ints(head, ("v", "b", "a", "k"), "header")
    params = None if head.get("member_params") is None else params_from_json(head["member_params"])
    for key, want in implied_member_keys(params).items():
        if head.get(key) != want:
            raise ValueError(f"header {key} disagrees with its member_params")
    if head.get("colors") is not None:
        path = json_path.with_name(head["colors"])
        try:
            F = np.loadtxt(path, delimiter=",", dtype=np.int32, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if F.shape != (v, b):
            raise ValueError(f"{path} has shape {F.shape}, not the header's (v, b) = {(v, b)}")
        M = _from_colors(F, a, k=k, member_params=params, meta={"family": family, **meta})
    else:
        json_ints(meta, FAMILY_BUILDERS.get(family, (None, ()))[1], "header params")
        M = build_family(family, **meta)
        if any(M.meta.get(key) != val for key, val in meta.items()):
            raise ValueError(f"header params {meta} are not those family {family!r} reads: {M.meta}")
    if [M.v, M.b, M.a, M.k] != sizes:
        raise ValueError("mosaic sizes disagree with the declared sizes")
    return M
