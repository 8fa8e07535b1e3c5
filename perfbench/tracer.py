"""Per-layer counts and self times for the traced round.

The tracer wraps public functions of charpflag from outside the package.
A wrapper replaces the function under every name that refers to it in
the package's modules, so calls made through ``from .lattice import
pairing`` in ``cohomology`` or ``certificate`` are counted as well.

Spans are not stored one by one: a sweep round makes millions of
``pairing`` calls.  Each layer keeps a call count and its self time, the
span's duration minus the part covered by wrapped child spans.
"""

from __future__ import annotations

import functools
import json
import time

LAYERS = (
    "lattice.pairing",
    "lattice.is_dominant",
    "lattice.dot_reflect",
    "lattice.weight_arith",
    "lattice.make_datum",
    "lattice.weyl_group",
    "cohomology.andersen_h1",
    "cohomology.bwb_char0",
    "bundles",
    "rootmorph.frobenius_rigidity_verdict",
    "rootmorph.validate_p_morphism",
    "certificate.classify_weight",
    "certificate.certificate_from_rows",
    "certificate.check_equivariant_smoothness",
    "cli.parse",
    "cli.emit",
)
COUNTERS = (
    "lattice.make_datum.hits",
    "cohomology.andersen_h1.undetermined",
    "bundles.weights_built",
    "rootmorph.roots_checked",
)


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._children_ns: list[int] = []  # one slot per open span
        self._datums: dict[int, object] = {}

    def wrap(self, layer, fn, observe=None):
        calls, self_ns, stack = self.calls, self.self_ns, self._children_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                self_ns[layer] += span - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += span
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- observers: counts taken from a call's arguments or result ----------

    def _datum_returned(self, args, datum) -> None:
        # make_datum caches its data: a handle seen before is a cache hit.
        if id(datum) in self._datums:
            self.counters["lattice.make_datum.hits"] += 1
        self._datums[id(datum)] = datum

    def _h1_returned(self, args, status) -> None:
        if status.status == "undetermined":
            self.counters["cohomology.andersen_h1.undetermined"] += 1

    def _bundle_returned(self, args, bundle) -> None:
        weights = bundle if isinstance(bundle, tuple) else bundle.weights
        self.counters["bundles.weights_built"] += len(weights)

    def _morphism_checked(self, args, verdict) -> None:
        self.counters["rootmorph.roots_checked"] += len(args[0].source.roots)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer functions of the imported charpflag package."""
        import charpflag
        from charpflag import bundles, certificate, cli, cohomology, lattice, rootmorph

        modules = (charpflag, lattice, cohomology, bundles, rootmorph, certificate, cli)
        functions = [
            ("lattice.pairing", lattice.pairing, None),
            ("lattice.is_dominant", lattice.is_dominant, None),
            ("lattice.dot_reflect", lattice.dot_reflect, None),
            ("lattice.make_datum", lattice.make_datum, self._datum_returned),
            ("lattice.make_datum", lattice.make_torus, self._datum_returned),
            ("lattice.weyl_group", lattice.weyl_group, None),
            ("cohomology.andersen_h1", cohomology.andersen_h1, self._h1_returned),
            ("cohomology.bwb_char0", cohomology.bwb_char0, None),
            ("rootmorph.frobenius_rigidity_verdict", rootmorph.frobenius_rigidity_verdict, None),
            ("rootmorph.validate_p_morphism", rootmorph.validate_p_morphism, self._morphism_checked),
            ("certificate.classify_weight", certificate.classify_weight, None),
            ("certificate.certificate_from_rows", certificate.certificate_from_rows, None),
            (
                "certificate.check_equivariant_smoothness",
                certificate.check_equivariant_smoothness,
                None,
            ),
            ("cli.parse", cli.build_parser, None),
        ]
        functions += [
            ("bundles", fn, self._bundle_returned)
            for fn in (
                bundles.tautological_weights,
                bundles.frobenius_twist,
                bundles.end_weights,
                bundles.pullback_filtration,
            )
        ]
        for layer, fn, observe in functions:
            wrapper = self.wrap(layer, fn, observe)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapper)

        for op in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__"):
            setattr(lattice.Weight, op, self.wrap("lattice.weight_arith", getattr(lattice.Weight, op)))
        # Top-level parsing of one query; subcommand parsers run inside it.
        cli._Parser.parse_args = self.wrap("cli.parse", cli._Parser.parse_args)
        # The envelope is emitted by json.dumps plus print; module globals
        # shadow builtins, so a ``print`` placed in cli's namespace is the
        # one cli calls.
        cli.json = _JsonWithDumps(self.wrap("cli.emit", json.dumps))
        cli.print = self.wrap("cli.emit", print)

    def report(self, speed: float) -> dict:
        """Counts, and self times scaled by ``speed`` to the reference CPU."""
        return {
            "calls": self.calls,
            "self_s": {layer: ns * speed / 1e9 for layer, ns in self.self_ns.items()},
            "counters": self.counters,
        }


class _JsonWithDumps:
    """The json module with ``dumps`` replaced."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)
