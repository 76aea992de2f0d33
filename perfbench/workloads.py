"""The four benchmark workloads.

Each workload has three stages:

* draw(lib, rng): turn the seed into plain-data inputs (ints, tuples,
  argv lists).  Only this stage sees the seed; the library only ever
  receives the inputs it produces.
* setup(lib, inputs): the timed set-up, namely ring construction and
  AmbientParams construction (with their lazy unit class and alpha forced).
* ops(lib, state, inputs): the operations of one round.  An operation is
  one user-visible verdict or query; its callable returns None when every
  check passes and a failure message otherwise.

A round runs every operation once, in order, with one client and no
threads; rounds repeat the same inputs.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

TYPE0, TYPE1 = "Type0", "Type1"


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], str | None]


def _units_by_type(lib, ctx) -> dict[str, list[int]]:
    out = {TYPE0: [], TYPE1: []}
    for g in ctx.iter_units():
        variant = lib.classify_unit(g).variant
        out[variant].append(g.to_int())
    return out


def _ring_label(p, a, m, s=None) -> str:
    base = f"GR({p**a},{m})"
    return base if s is None else f"{base} s={s}"


def _ambient_size(p, a, m, s) -> int:
    return p ** (a * m * p**s)


# -- oracle-survey --------------------------------------------------------


class OracleSurvey:
    """run_sweep entries: a chain survey per (ring, gamma), plus Hamming and
    homogeneous min-weight oracles for every i when gamma is Type1."""

    name = "oracle-survey"
    # (p, a, m, s) -> gammas drawn per round, by type.  GR(8,1) s=2 takes
    # Type1 constants only: its two Type1 units do the same work, while
    # its two Type0 units differ by 1.7x in products.  GR(4,2) gets seven
    # Type1 draws, whose entries cost about as much as GR(4,1)'s Type0
    # one, so the median operation falls inside that group of eight.
    RINGS = (
        ((2, 3, 1, 2), {TYPE1: 1}),
        ((3, 2, 1, 1), {TYPE0: 1, TYPE1: 2}),
        ((2, 2, 2, 1), {TYPE0: 1, TYPE1: 7}),
        ((2, 2, 1, 2), {TYPE0: 1, TYPE1: 1}),
    )

    def draw(self, lib, rng) -> dict:
        entries = []
        for (p, a, m, s), mix in self.RINGS:
            units = _units_by_type(lib, lib.ring(p, a, m))
            for variant, k in sorted(mix.items()):
                for enc in rng.sample(units[variant], k):
                    entries.append({"ring": [p, a, m, s], "gamma": enc, "type": variant})
        return {"entries": entries}

    def setup(self, lib, inputs) -> dict:
        # run_sweep builds its rings through the cached lib.ring
        return {tuple(e["ring"][:3]): lib.ring(*e["ring"][:3]) for e in inputs["entries"]}

    def ops(self, lib, state, inputs) -> list[Op]:
        return [self._op(lib, e) for e in inputs["entries"]]

    def _op(self, lib, entry) -> Op:
        p, a, m, s = entry["ring"]
        gamma, variant = entry["gamma"], entry["type"]
        label = f"{_ring_label(p, a, m, s)} gamma={gamma} {variant}"

        def run():
            config = lib.SweepConfig(rings=[(p, a, m, s)], gammas=[gamma])
            results = lib.run_sweep(config)
            want = 2 if variant == TYPE1 else 1
            if len(results) != want:
                return f"{len(results)} sweep results, expected {want}"
            bad = [r.line() for r in results if not r.passed]
            return "; ".join(bad) or None

        return Op("sweep", label, run)

    def shape(self, inputs) -> dict:
        rings = {}
        for e in inputs["entries"]:
            p, a, m, s = e["ring"]
            row = rings.setdefault(_ring_label(p, a, m, s), {"R": _ambient_size(p, a, m, s), TYPE0: 0, TYPE1: 0})
            row[e["type"]] += 1
        return {"rings": rings, "ops_per_round": len(inputs["entries"])}


# -- dual-scan ------------------------------------------------------------


class DualScan:
    """Full dual scans of seeded Type1 codes, three checks per code."""

    name = "dual-scan"
    # (p, a, m, s) and one exponent range per code of a round.  GR(27,1)
    # has the majority of codes, so the median operation is one of its
    # scans: the cheapest two, i = 6 and i = 7, always drawn.  Its
    # exponents skip 0, 1 and 9, whose scans do a third to four fifths of
    # the products of the others, and its last code is always i = 8, whose
    # two 3^8-word dual sets set the memory peak.
    CODES = (
        ((3, 3, 1, 1), ((2, 3), (4, 5), (6, 6), (7, 7), (8, 8))),
        ((3, 2, 1, 1), ((1, 5),)),
        ((2, 2, 2, 1), ((1, 3),)),
        ((2, 3, 1, 1), ((1, 5),)),
    )

    def draw(self, lib, rng) -> dict:
        codes = []
        for (p, a, m, s), strata in self.CODES:
            type1 = _units_by_type(lib, lib.ring(p, a, m))[TYPE1]
            for lo, hi in strata:
                codes.append({"ring": [p, a, m, s], "gamma": rng.choice(type1), "i": rng.randint(lo, hi)})
        return {"codes": codes}

    def setup(self, lib, inputs) -> dict:
        ambients = {}
        for c in inputs["codes"]:
            p, a, m, s = c["ring"]
            key = (p, a, m, s, c["gamma"])
            if key not in ambients:
                ctx = lib.ring(p, a, m)
                amb = lib.AmbientParams(ctx, s, ctx.from_int(c["gamma"]))
                amb.alpha  # forces the lazy unit class and alpha
                ambients[key] = amb
        return ambients

    def ops(self, lib, state, inputs) -> list[Op]:
        return [self._op(lib, state, c) for c in inputs["codes"]]

    def _op(self, lib, ambients, c) -> Op:
        p, a, m, s = c["ring"]
        amb = ambients[(p, a, m, s, c["gamma"])]
        i = c["i"]
        label = f"{_ring_label(p, a, m, s)} gamma={c['gamma']} i={i}"

        def run():
            code = lib.build_code(amb, i)
            words = lib.enumerate_codewords(code)
            dual_words = lib.brute_force_dual(code)
            formula_dual = lib.enumerate_codewords(lib.dual_code(code))
            bad = []
            if len(words) != code.cardinality:
                bad.append(f"|C| = {len(words)} != {code.cardinality}")
            if dual_words != formula_dual:
                bad.append("brute-force dual != formula dual")
            if lib.is_self_orthogonal(code) != (words <= dual_words):
                bad.append("self-orthogonality threshold != subset test")
            in_list = i in {d.i for d in lib.self_dual_codes(amb)}
            if in_list != (words == dual_words):
                bad.append("self-dual inventory != oracle")
            return "; ".join(bad) or None

        return Op("dual", label, run)

    def shape(self, inputs) -> dict:
        rings = {}
        for c in inputs["codes"]:
            p, a, m, s = c["ring"]
            row = rings.setdefault(_ring_label(p, a, m, s), {"R": _ambient_size(p, a, m, s), TYPE0: 0, TYPE1: 0})
            row[TYPE1] += 1
        return {"rings": rings, "ops_per_round": len(inputs["codes"])}


# -- large-ring -----------------------------------------------------------


class LargeRing:
    """Unit and formula queries on rings beyond every oracle budget."""

    name = "large-ring"
    # (p, a, m, s), Type1 units per round.  One operation takes one unit
    # through every query.  GR(27,1) units are the cheapest of the slow
    # rings and hold the middle of the nine, so the median operation is
    # one of them.
    RINGS = (
        ((2, 2, 12, 1), 1),
        ((5, 2, 2, 2), 3),
        ((3, 3, 1, 3), 4),
        ((2, 2, 8, 2), 1),
    )
    SPOT_TRIALS = 16

    def draw(self, lib, rng) -> dict:
        units = []
        for (p, a, m, s), k in self.RINGS:
            ctx = lib.build_ring(lib.RingParams(p, a, m))
            q = p**a
            while k:
                coeffs = [rng.randrange(q) for _ in range(m)]
                if lib.classify_unit(ctx.element(coeffs)).variant != TYPE1:
                    continue
                units.append({"ring": [p, a, m, s], "coeffs": coeffs, "spot_seed": rng.randrange(1 << 30)})
                k -= 1
        return {"units": units}

    def setup(self, lib, inputs) -> dict:
        rings, ambients = {}, []
        for u in inputs["units"]:
            p, a, m, s = u["ring"]
            if (p, a, m) not in rings:
                rings[(p, a, m)] = lib.build_ring(lib.RingParams(p, a, m))
            ctx = rings[(p, a, m)]
            amb = lib.AmbientParams(ctx, s, ctx.element(u["coeffs"]))
            amb.alpha  # forces the lazy unit class and alpha
            ambients.append(amb)
        return {"ambients": ambients}

    def ops(self, lib, state, inputs) -> list[Op]:
        return [
            Op("unit", f"{_ring_label(*u['ring'])} unit={u['coeffs']}", self._op(lib, amb, u))
            for u, amb in zip(inputs["units"], state["ambients"])
        ]

    def _op(self, lib, amb, u):
        g = amb.gamma
        ctx = amb.ctx
        p, a, m = ctx.params.p, ctx.params.a, ctx.params.m
        n = amb.n

        def run():
            bad = []
            cls = lib.classify_unit(g)
            if cls.variant != TYPE1 or cls.recompose() != g:
                bad.append(f"classify_unit gave {cls.variant}")
            if g * lib.invert(g) != ctx.one:
                bad.append("invert(g) * g != 1")
            if g * lib.type1_inverse(g) != ctx.one:
                bad.append("type1_inverse(g) * g != 1")
            k = lib.nilpotency_index(amb.x_minus(amb.alpha))
            if k != a * n:
                bad.append(f"nilpotency index {k} != {a * n}")
            # the middle of the chain on every ring: the spot check's cost
            # varies two- to threefold with i, so i is not drawn
            i = a * n // 2
            code = lib.build_code(amb, i)
            if not lib.dual_spot_check(code, trials=self.SPOT_TRIALS, seed=u["spot_seed"]):
                bad.append(f"i={i}: a codeword pair is not orthogonal to the formula dual")
            rows = lib.distance_table(amb)
            if len(rows) != a * n + 1 or any(r.cardinality != p ** (m * (a * n - r.i)) for r in rows):
                bad.append("distance table rows or cardinalities")
            for col in ("d_hamming_formula", "d_hom_formula"):
                d = [getattr(r, col) for r in rows]
                if d[-1] != 0 or any(x > y for x, y in zip(d[:-2], d[1:-1])):
                    bad.append(f"{col} is not nondecreasing with a zero last row")
            codes = lib.self_dual_codes(amb)
            if len(codes) > 1 or any(2 * c.i != a * n or not lib.is_self_orthogonal(c) for c in codes):
                bad.append(f"self-dual list {[c.i for c in codes]}")
            return "; ".join(bad) or None

        return run

    def shape(self, inputs) -> dict:
        rings = {}
        for u in inputs["units"]:
            p, a, m, s = u["ring"]
            row = rings.setdefault(_ring_label(p, a, m, s), {"R": _ambient_size(p, a, m, s), TYPE0: 0, TYPE1: 0})
            row[TYPE1] += 1
        return {"rings": rings, "ops_per_round": len(inputs["units"])}


# -- cli-queries ----------------------------------------------------------


class CliQueries:
    """galring subprocess calls, one at a time, each compared byte for
    byte with in-process galring.cli.main on the same argv."""

    name = "cli-queries"
    # (p, a, m, s) ambients small enough for --words and --oracle
    SMALL = ((2, 2, 1, 2), (2, 3, 1, 1), (3, 2, 1, 1), (2, 2, 2, 1))
    # the two calls that run oracles use one ring each: its Type1 constants
    # all do the same work, so the seed does not set the round's cost
    ORACLE = ((3, 2, 1, 1),)
    VERIFY = ((2, 2, 2, 1),)
    # formula-only distance tables may use larger rings
    FORMULA = ((3, 3, 1, 2), (2, 2, 2, 2), (2, 3, 1, 3), (5, 2, 1, 1))
    KINDS = ("ring-info", "classify", "classify", "code", "dual", "selfdual", "distances", "distances-oracle", "verify")

    def __init__(self, workdir: str):
        self.workdir = workdir

    def draw(self, lib, rng) -> dict:
        calls = []
        for kind in self.KINDS:
            calls.append({"kind": kind, "argv": self._argv(lib, rng, kind)})
        return {"calls": calls}

    def _argv(self, lib, rng, kind) -> list[str]:
        def flags(p, a, m):
            return ["-p", str(p), "-a", str(a), "-m", str(m)]

        def element(ctx, enc):
            return str(enc) if ctx.params.m == 1 else ",".join(map(str, ctx.from_int(enc).coeffs))

        def ambient(rows):
            p, a, m, s = rng.choice(rows)
            ctx = lib.ring(p, a, m)
            gamma = rng.choice(_units_by_type(lib, ctx)[TYPE1])
            return (p, a, m, s), ctx, gamma, flags(p, a, m) + ["-s", str(s), "--gamma", element(ctx, gamma)]

        fmt = ["--format", rng.choice(("json", "csv"))]
        if kind == "ring-info":
            p, a, m, _ = rng.choice(self.SMALL + self.FORMULA)
            return ["ring-info"] + flags(p, a, m)
        if kind == "classify":
            p, a, m, s = rng.choice(self.SMALL + self.FORMULA)
            ctx = lib.ring(p, a, m)
            return ["classify"] + flags(p, a, m) + ["-s", str(s), element(ctx, rng.randrange(ctx.size))]
        if kind in ("code", "dual"):
            (p, a, m, s), _, _, amb = ambient(self.SMALL)
            return [kind] + amb + ["-i", str(rng.randint(0, a * p**s)), "--words"] + fmt
        if kind == "selfdual":
            return ["selfdual"] + ambient(self.SMALL + self.FORMULA)[3] + fmt
        if kind == "distances":
            return ["distances"] + ambient(self.FORMULA)[3] + fmt
        if kind == "distances-oracle":
            return ["distances"] + ambient(self.ORACLE)[3] + ["--oracle"] + fmt
        (p, a, m, s), _, gamma, _ = ambient(self.VERIFY)
        config = {"rings": [[p, a, m, s]], "gammas": [gamma]}
        return ["verify", "--config", json.dumps(config, sort_keys=True)]

    def setup(self, lib, inputs) -> dict:
        rings = {}
        for c in inputs["calls"]:
            argv = c["argv"]
            if "-p" in argv:
                key = tuple(int(argv[argv.index(f) + 1]) for f in ("-p", "-a", "-m"))
                if key not in rings:
                    rings[key] = lib.build_ring(lib.RingParams(*key))
        return rings

    def materialize(self, inputs) -> list[tuple[str, list[str]]]:
        """(kind, argv) pairs, with verify configs written to files."""
        out = []
        os.makedirs(self.workdir, exist_ok=True)
        for n, c in enumerate(inputs["calls"]):
            argv = list(c["argv"])
            if argv[0] == "verify":
                path = os.path.join(self.workdir, f"cli-sweep-{n}.json")
                with open(path, "w") as fh:
                    fh.write(argv[2] + "\n")
                argv[2] = path
            out.append((c["kind"], argv))
        return out

    def reference(self, lib, calls) -> dict:
        """In-process galring.cli.main output for every argv."""
        refs = {}
        for kind, argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = lib.cli.main(list(argv))
            refs[tuple(argv)] = (code, out.getvalue().encode())
        return refs

    def ops(self, calls, refs, env) -> list[Op]:
        return [self._op(kind, argv, refs[tuple(argv)], env) for kind, argv in calls]

    def _op(self, kind, argv, ref, env) -> Op:
        cmd = [sys.executable, "-c", CLI_ENTRY] + list(argv)

        def run():
            proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
            bad = []
            if proc.returncode != 0:
                bad.append(f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-200:]}")
            if ref[0] != 0:
                bad.append(f"in-process exit code {ref[0]}")
            if proc.stdout != ref[1]:
                bad.append("stdout differs from in-process galring.cli.main")
            if kind == "distances-oracle":
                bad.extend(_oracle_disagreements(proc.stdout.decode()))
            return "; ".join(bad) or None

        return Op(kind, " ".join(argv), run)

    def shape(self, inputs) -> dict:
        kinds = {}
        for c in inputs["calls"]:
            kinds[c["kind"]] = kinds.get(c["kind"], 0) + 1
        return {"kinds": kinds, "ops_per_round": len(inputs["calls"])}


CLI_ENTRY = "import sys; from galring.cli import main; sys.exit(main(sys.argv[1:]))"


def _oracle_disagreements(text: str) -> list[str]:
    if text.lstrip().startswith("{"):
        rows = json.loads(text)["rows"]
        return [f"i={r['i']}: formula and oracle disagree" for r in rows if r["agree"] is not True]
    lines = text.splitlines()
    header = lines[0].split(",")
    bad = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        pairs = (("d_hamming_formula", "d_hamming_oracle"), ("d_hom_formula", "d_hom_oracle"))
        if any(row[f] != row[o] for f, o in pairs):
            bad.append(f"i={row['i']}: formula and oracle disagree")
    return bad


def all_workloads(workdir: str) -> dict:
    return {w.name: w for w in (OracleSurvey(), DualScan(), LargeRing(), CliQueries(workdir))}
