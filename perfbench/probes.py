"""Spans and call counters installed around the package's public functions.

Nothing here edits the package: each probe replaces a function or method
with a wrapper, in every ``designmosaics`` module namespace that holds the
original object, so names bound by ``from .x import y`` are covered too.

* ``Tracer`` records per-layer self time: a span's duration minus the part
  covered by its child spans.  It wraps coarse, per-command functions only.
* ``Counter`` records exact call counts of hot scalar functions.  Its wrapper
  costs 0.3-0.8 us per call, so it runs in its own process, never in a timed
  or traced one.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

from designmosaics import cli, designs, families, field, hashprops, mosaics, security, serialize, simkit


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "designmosaics" or name.startswith("designmosaics."))]


def install(owner, attr, make_wrapper):
    """Replace ``owner.attr`` with ``make_wrapper(original)``.

    For a class the method is replaced on the class.  For a module function
    every package namespace that binds the same object is patched.
    """
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    patched = 0
    for module in _package_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)
                patched += 1
    if not patched:
        raise RuntimeError(f"{owner.__name__}.{attr} is bound nowhere")


# ---------------------------------------------------------------------------
# traced run: per-layer self time
# ---------------------------------------------------------------------------

# (owner, attribute, metric) for every span; a metric may collect several
TRACED = [
    (cli, "main", "cli.self_s"),
    (serialize, "content_hash", "serialize.content_hash_s"),
    (families, "build_family", "families.build_s"),
    (mosaics.Mosaic, "color_matrix", "mosaics.color_matrix_s"),
    (mosaics, "verify_functional_form", "mosaics.verify_functional_form_s"),
    (mosaics, "verify_mosaic", "mosaics.verify_mosaic_s"),
    (mosaics, "sample_inverse", "mosaics.sample_inverse_s"),
    (designs, "verify_bibd", "designs.verify_members_s"),
    (designs, "verify_gdd", "designs.verify_members_s"),
    (security.WiretapJoint, "__init__", "security.joint_s"),
    (security.PAJoint, "__init__", "security.joint_s"),
    (security, "exact_wiretap_metrics", "security.exact_metrics_s"),
    (security, "exact_pa_metrics", "security.exact_metrics_s"),
    (security, "wiretap_report", "security.bounds_s"),
    (security, "pa_report", "security.bounds_s"),
    (security, "bound_wt_bibd", "security.bounds_s"),
    (security, "bound_wt_gdd", "security.bounds_s"),
    (security, "bound_wt_tv_bibd", "security.bounds_s"),
    (security, "bound_wt_tv_gdd", "security.bounds_s"),
    (security, "bound_pa_kl", "security.bounds_s"),
    (security, "bound_pa_tv", "security.bounds_s"),
    (hashprops, "collision_spectrum", "hashprops.collision_spectrum_s"),
    (hashprops, "epsilon_asu", "hashprops.epsilon_asu_s"),
    (simkit, "wiretap_roundtrip", "simkit.roundtrip_self_s"),
    (simkit, "pa_roundtrip", "simkit.roundtrip_self_s"),
    (simkit, "chi_square_gof", "simkit.chi_square_s"),
]

# metrics not in the table: the import the worker times, the cache-filling
# block_points calls, and the worker's own decode calls
TRACED_LOCAL = ["cli.import_s", "families.block_fill_s", "mosaics.decode_s"]


class Tracer:
    """Self time per metric; spans nest through an explicit stack."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self._child = []          # time covered by children, per open span

    @contextmanager
    def span(self, metric):
        start = time.perf_counter()
        self._child.append(0.0)
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            self.self_s[metric] += dur - self._child.pop()
            if self._child:
                self._child[-1] += dur

    def wrapper(self, metric):
        def make(fn):
            def traced(*args, **kwargs):
                with self.span(metric):
                    return fn(*args, **kwargs)
            return traced
        return make

    def install(self):
        for owner, attr, metric in TRACED:
            install(owner, attr, self.wrapper(metric))
        # a block_points call that misses the geometry's cache fills it; hits
        # stay in the caller's self time
        def make_fill(fn):
            def block_points(geom, c, d):
                if (c, d) in geom._blocks:
                    return fn(geom, c, d)
                with self.span("families.block_fill_s"):
                    return fn(geom, c, d)
            return block_points
        install(families.DennistonGeometry, "block_points", make_fill)

    def metrics(self) -> dict:
        names = [m for _, _, m in TRACED] + TRACED_LOCAL
        return {m: self.self_s.get(m, 0.0) for m in dict.fromkeys(names)}


# ---------------------------------------------------------------------------
# counting run: exact call counts of the hot scalar functions
# ---------------------------------------------------------------------------

COUNTED = [
    (field.GF, "mul", "field.mul_calls"),
    (field.GF, "trace", "field.trace_calls"),
    (field.GF, "sqrt", "field.sqrt_calls"),
    (field.GF, "dual_coords", "field.dual_coords_calls"),
    (field.GF, "inv", "field.inv_calls"),
    (families.DennistonGeometry, "phi_x", "families.phi_x_calls"),
    (families.DennistonGeometry, "phi_x_inv", "families.phi_x_inv_calls"),
    (families.DennistonGeometry, "phi_uc", "families.phi_uc_calls"),
    (families.DennistonGeometry, "phi_uc_inv", "families.phi_uc_inv_calls"),
    (mosaics.Mosaic, "f", "mosaics.f_calls"),
    (mosaics.Mosaic, "g", "mosaics.g_calls"),
    (security, "kl", "security.divergence_calls"),
    (security, "exp_d2", "security.divergence_calls"),
    (security, "d2", "security.divergence_calls"),
]

# the outermost calls into the security layer, over which allocation peaks
SECURITY_ENTRIES = [
    (security.WiretapJoint, "__init__"),
    (security.PAJoint, "__init__"),
    (security, "exact_wiretap_metrics"),
    (security, "exact_pa_metrics"),
    (security, "wiretap_report"),
    (security, "pa_report"),
]


class Counter:
    """Exact call counts, plus the events the benchmark records itself."""

    def __init__(self):
        self.events = defaultdict(int)
        self.peak_alloc = 0
        self._depth = 0

    def wrapper(self, metric):
        events = self.events

        def make(fn):
            def counted(*args):
                events[metric] += 1
                return fn(*args)
            return counted
        return make

    def _security_entry(self, fn):
        def entry(*args, **kwargs):
            self._depth += 1
            if self._depth == 1:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
        return entry

    def install(self):
        for owner, attr, metric in COUNTED:
            install(owner, attr, self.wrapper(metric))
        for owner, attr in SECURITY_ENTRIES:
            install(owner, attr, self._security_entry)

        def make_blocks(fn):
            def block_points(geom, c, d):
                self.events["families.block_points_calls"] += 1
                if (c, d) in geom._blocks:
                    self.events["block_hits"] += 1
                return fn(geom, c, d)
            return block_points

        def make_colors(fn):
            def color_matrix(M):
                if M._colors is None:
                    self.events["mosaics.color_matrix_builds"] += 1
                return fn(M)
            return color_matrix
        install(families.DennistonGeometry, "block_points", make_blocks)
        install(mosaics.Mosaic, "color_matrix", make_colors)

    def reset(self):
        """Zero every count, so that set-up work is left out of a pass."""
        self.events.clear()
        self.peak_alloc = 0

    def metrics(self) -> dict:
        out = {}
        for _, _, metric in COUNTED:
            out[metric] = self.events[metric]
        calls = self.events["families.block_points_calls"]
        out["families.block_points_calls"] = calls
        out["families.block_cache_hit_ratio"] = self.events["block_hits"] / calls if calls else 0.0
        out["mosaics.color_matrix_builds"] = self.events["mosaics.color_matrix_builds"]
        out["security.peak_alloc_mb"] = self.peak_alloc / 2 ** 20
        return out

