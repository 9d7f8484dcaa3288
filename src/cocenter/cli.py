"""Batch runner: every verification suite as a subcommand with exact reports.

Subcommands: restriction | characters | orbital | unipotent | saturate | all.
Reports are lists of flat string-valued rows, so the JSON and CSV writers
carry identical data, and exact arithmetic plus sorted serialization makes
identical configs produce byte-identical reports.

Exit codes: 0 all rows pass, 1 a check failed, 2 configuration or output
error, 3 resource guard tripped.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import itertools
import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from cocenter.exactnum import (
    DEFAULT_GROUP_ORDER_GUARD,
    DomainError,
    ResourceGuardError,
    is_prime,
)
from cocenter.groups import BlockParabolic, compositions
from cocenter.matrices import PrimeContext
from cocenter.characters import (
    InducedModel,
    UnramifiedCharacter,
    character_pairing,
    induced_character_values,
)
from cocenter.measures import (
    Ambient,
    ad_symmetrized_basis,
    double_coset_labels,
    double_coset_measure,
    measure_to_jsonable,
    res_normalized,
    unit_measure,
)
from cocenter.orbital import (
    descent_values,
    gamma_grid,
    orbital_integral,
    separation_rank,
)
from cocenter.oracles import constant_term_oracle_gl2
from cocenter.saturation import (
    ConstructibleSet,
    MPoly,
    product_rule_check,
    sat_fixpoint,
    sat_prime_member,
    verify_witness,
)
from cocenter.unipotent import (
    check_heart_independence,
    count_unipotent_elements,
    heart,
    partitions_of,
)


# primes of the restriction suite's constant-term oracle rows
CONSTANT_TERM_PRIMES = (2, 3)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Exact-arithmetic run parameters; all numbers parse as rationals."""

    p: int = 2
    m: int = 1
    n: int = 2
    blocks: tuple = (1, 1)
    guard: int = DEFAULT_GROUP_ORDER_GUARD
    grid_window: tuple = (-2, 2)
    character_params: tuple = (
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(1)),
        (Fraction(1, 2), Fraction(3)),
        (Fraction(3), Fraction(5)),
    )
    ff_cases: tuple = ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3))
    sat_degree: int = 2
    sat_height: int = 2
    mutate_normalization: bool = False

    def validate(self):
        if self.m < 1:
            raise ConfigError("level m must be >= 1")
        if sum(self.blocks) != self.n:
            raise ConfigError(f"blocks {self.blocks} do not sum to n = {self.n}")
        if any(b < 1 for b in self.blocks):
            raise ConfigError("blocks must be positive")
        if self.guard < 1:
            raise ConfigError("guard must be positive")
        if self.grid_window[0] > self.grid_window[1]:
            raise ConfigError("empty valuation window")
        if not is_prime(self.p):
            raise ConfigError(f"p = {self.p} is not prime")
        if not self.character_params or not self.ff_cases:
            raise ConfigError("empty character family or unipotent case list")
        for n, q in self.ff_cases:
            if n < 1:
                raise ConfigError(f"unipotent case GL_{n} needs n >= 1")
            if not is_prime(q):
                raise ConfigError(f"field size {q} is not prime")
        if self.sat_degree < 1 or self.sat_height < 1:
            raise ConfigError("saturation degree and height must be >= 1")
        return self


def _parse_int_tuple(text):
    return tuple(int(x) for x in text.replace(" ", "").split(",") if x)


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    cfg = RunConfig()
    try:
        if parser.has_section("run"):
            run = parser["run"]
            cfg = replace(
                cfg,
                p=int(run.get("p", cfg.p)),
                m=int(run.get("m", cfg.m)),
                n=int(run.get("n", cfg.n)),
                guard=int(run.get("guard", cfg.guard)),
            )
            if "blocks" in run:
                cfg = replace(cfg, blocks=_parse_int_tuple(run["blocks"]))
            else:
                cfg = replace(cfg, blocks=tuple([1] * cfg.n))
        if parser.has_section("orbital"):
            orb = parser["orbital"]
            lo = int(orb.get("grid_min", cfg.grid_window[0]))
            hi = int(orb.get("grid_max", cfg.grid_window[1]))
            cfg = replace(cfg, grid_window=(lo, hi))
        if parser.has_section("characters") and "params" in parser["characters"]:
            rows = []
            for chunk in parser["characters"]["params"].split(";"):
                chunk = chunk.strip()
                if chunk:
                    rows.append(tuple(Fraction(z) for z in chunk.split(",")))
            cfg = replace(cfg, character_params=tuple(rows))
        if parser.has_section("unipotent") and "cases" in parser["unipotent"]:
            cases = []
            for chunk in parser["unipotent"]["cases"].split(","):
                chunk = chunk.strip()
                if chunk:
                    a, b = chunk.split(":")
                    cases.append((int(a), int(b)))
            cfg = replace(cfg, ff_cases=tuple(cases))
        if parser.has_section("saturate"):
            sat = parser["saturate"]
            cfg = replace(
                cfg,
                sat_degree=int(sat.get("degree", cfg.sat_degree)),
                sat_height=int(sat.get("height", cfg.sat_height)),
            )
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return cfg.validate()


def _row(suite, identity, case, ok, lhs="", rhs=""):
    return {
        "suite": suite,
        "identity": identity,
        "case": case,
        "lhs": str(lhs),
        "rhs": str(rhs),
        "pass": "true" if ok else "false",
    }


def _character_for_blocks(blocks, params):
    padded = (tuple(params) + (Fraction(1),) * len(blocks))[: len(blocks)]
    return UnramifiedCharacter(tuple(blocks), padded)


def _level_one_basis(config: RunConfig, ctx: PrimeContext):
    """Conjugation-orbit indicator basis supported on the two smallest
    double cosets: the maximal compact and the first diagonal one."""
    n = config.n
    ambient = Ambient.general_linear(n)
    k0_labels = list(unit_measure(ambient, ctx, config.guard).support)
    d_labels = double_coset_labels(n, ctx, (1,) + (0,) * (n - 1), config.guard)
    return ad_symmetrized_basis(k0_labels, ctx) + ad_symmetrized_basis(d_labels, ctx)


def run_restriction(config: RunConfig):
    """Normalized restriction through opposite parabolics, compared under
    character and orbital pairings, plus the direct constant term oracle."""
    rows = []
    ctx = PrimeContext(config.p, config.m)
    parab = BlockParabolic(config.n, config.blocks, "upper")
    opp = parab.opposite()
    basis = _level_one_basis(config, ctx)
    grid = gamma_grid(config.p, config.n, config.grid_window)
    chars = [_character_for_blocks(config.blocks, z) for z in config.character_params]
    for idx, h in enumerate(basis):
        up = res_normalized(h, parab)
        low = res_normalized(h, opp)
        for c_idx, chi in enumerate(chars):
            lhs = character_pairing(chi, up)
            rhs = character_pairing(chi, low)
            rows.append(_row("restriction",
                             "normalized-restriction-parabolic-independence/character",
                             f"h{idx}/chi{c_idx}", lhs == rhs, lhs, rhs))
        for g_idx, gam in enumerate(grid):
            lhs = orbital_integral(up, gam).value
            rhs = orbital_integral(low, gam).value
            rows.append(_row("restriction",
                             "normalized-restriction-parabolic-independence/orbital",
                             f"h{idx}/gamma{g_idx}", lhs == rhs, lhs, rhs))
    for prime in CONSTANT_TERM_PRIMES:
        rows.append(_constant_term_row(prime, config))
    return rows


def _constant_term_row(p: int, config: RunConfig):
    """res of the first diagonal double coset vs the direct integration
    oracle (left coset decomposition, then fiberwise ball volumes)."""
    ctx = PrimeContext(p, 1)
    parab = BlockParabolic(2, (1, 1), "upper")
    h = double_coset_measure(2, ctx, (1, 0), config.guard)
    got = res_normalized(h, parab)
    expected = constant_term_oracle_gl2(ctx, normalized=True)
    got_s, expected_s = (json.dumps(measure_to_jsonable(x)["support"], sort_keys=True)
                         for x in (got, expected))
    return _row("restriction", "constant-term-oracle", f"p{p}", got == expected, got_s, expected_s)


def run_characters(config: RunConfig):
    """Induced trace identity rows, one `characters.induced_character_values`
    call per level basis measure for all characters."""
    rows = []
    ctx = PrimeContext(config.p, config.m)
    parab = BlockParabolic(config.n, config.blocks, "upper")
    model = InducedModel(parab, ctx, guard=config.guard)
    basis = _level_one_basis(config, ctx)
    chars = [_character_for_blocks(config.blocks, z) for z in config.character_params]
    for idx, h in enumerate(basis):
        values = induced_character_values(h, chars, parab, model)
        for c_idx, (trace, pairing, trace_n, pairing_n) in enumerate(values):
            case = f"h{idx}/chi{c_idx}"
            rows.append(_row("characters", "induced-character-trace", case,
                             trace == pairing, trace, pairing))
            rows.append(_row("characters", "induced-character-trace/normalized", case,
                             trace_n == pairing_n, trace_n, pairing_n))
    return rows


def run_orbital(config: RunConfig):
    """Descent identity rows, one `orbital.descent_values` call per level
    basis measure through P and its opposite, plus the separation rank probe."""
    rows = []
    ctx = PrimeContext(config.p, config.m)
    parab = BlockParabolic(config.n, config.blocks, "upper")
    opp = parab.opposite()
    basis = _level_one_basis(config, ctx)
    grid = gamma_grid(config.p, config.n, config.grid_window)
    rows.append(
        _row("orbital", "normalization-record", "all-values", True,
             f"Haar(G): K_{config.m} mass 1", f"Haar(T): T meet K_{config.m} mass 1")
    )
    upper = [res_normalized(h, parab) for h in basis]
    lower = [res_normalized(h, opp) for h in basis]
    values = [descent_values(h, grid, ((parab, up), (opp, low)), config.mutate_normalization)
              for h, up, low in zip(basis, upper, lower)]
    for side, orientation in enumerate(("upper", "lower")):
        for idx, (on_g, on_m) in enumerate(values):
            for gam, lhs, (factor, value) in zip(grid, on_g, on_m[side]):
                rhs = factor * value
                vals = ",".join(str(v) for v in gam.valuations(config.p))
                rows.append(
                    _row("orbital", "orbital-descent",
                         f"{orientation}/h{idx}/gamma-val({vals})", lhs == rhs, lhs, rhs)
                )
    omat = [[value for _, value in on_m[0]] for _, on_m in values]
    chars = [_character_for_blocks(config.blocks, z) for z in config.character_params]
    xmat = [[character_pairing(chi, rm) for chi in chars] for rm in upper]
    ro, rx = separation_rank(omat), separation_rank(xmat)
    rows.append(_row("orbital", "separation-probe/rank-agreement", "level-basis",
                     ro == rx, ro, rx))
    return rows


def run_unipotent(config: RunConfig):
    """Induced class histograms and hearts, upper vs lower parabolic."""
    rows = []
    for q in sorted({q for _, q in config.ff_cases}):
        count = count_unipotent_elements(2, q, config.guard)
        rows.append(
            _row("unipotent", "unipotent-element-count", f"GL2(F{q})",
                 count == q * q, count, q * q)
        )
    for n, q in config.ff_cases:
        for blocks in compositions(n):
            options = [list(partitions_of(b)) for b in blocks]
            for combo in itertools.product(*options):
                ok, upper, lower = check_heart_independence(
                    n, blocks, combo, q, config.guard
                )
                case = f"GL{n}(F{q})/levi{blocks}/class{combo}"
                rows.append(
                    _row("unipotent", "induced-class-parabolic-independence", case,
                         ok, json.dumps(upper.classes), json.dumps(lower.classes))
                )
                ht = heart(upper)
                rows.append(
                    _row("unipotent", "induced-class-heart", case,
                         len(ht) == 1, json.dumps(ht), "single dominant class")
                )
    return rows


def run_saturate(config: RunConfig):
    """Curated saturation instances: boundary cases, product rule, covers.
    Every witness search tries at most `config.guard` curves, and every
    root search at most `config.guard` divisor candidates."""
    rows = []
    bounds = (config.sat_degree, config.sat_height, config.guard)
    x = MPoly.variable(1, 0)
    punctured_line = ConstructibleSet.inequation(x)
    w = sat_prime_member(punctured_line, (0,), *bounds)
    rows.append(
        _row("saturate", "cofinite-line-boundary", "origin-of-punctured-line",
             w is not None and verify_witness(w, punctured_line, config.guard),
             json.dumps(w.to_jsonable()) if w else "none", "witness required")
    )
    origin_only = ConstructibleSet.equation(x)
    missing = sat_prime_member(origin_only, (1,), *bounds)
    rows.append(
        _row("saturate", "finite-set-boundary", "point-outside-a-finite-set",
             missing is None, "none" if missing is None else "witness", "no witness")
    )
    x1, x2 = MPoly.variable(2, 0), MPoly.variable(2, 1)
    axes_complement = ConstructibleSet.inequation(x1 * x2)
    w2 = sat_prime_member(axes_complement, (0, 0), 1, config.sat_height, config.guard)
    rows.append(
        _row("saturate", "open-dense-line-cover", "origin-of-axes-complement",
             w2 is not None and verify_witness(w2, axes_complement, config.guard),
             json.dumps(w2.to_jsonable()) if w2 else "none", "degree-1 witness")
    )
    okp, _ = product_rule_check(punctured_line, punctured_line, (0,), (0,), *bounds)
    rows.append(_row("saturate", "saturation-product-rule", "punctured-lines",
                     okp, okp, True))
    both = ConstructibleSet.inequation(x) & ConstructibleSet.inequation(
        x - MPoly.constant(1, 1)
    )
    certified, rounds = sat_fixpoint(both, [(0,), (1,)], *bounds)
    rows.append(
        _row("saturate", "saturation-fixpoint", "doubly-punctured-line",
             len(certified) == 2 and rounds == 2, sorted(map(str, certified)), rounds)
    )
    return rows


SUITES = {
    "restriction": run_restriction,
    "characters": run_characters,
    "orbital": run_orbital,
    "unipotent": run_unipotent,
    "saturate": run_saturate,
}


def run_all(config: RunConfig):
    return [row for run in SUITES.values() for row in run(config)]


def render_json(rows) -> str:
    passed = all(r["pass"] == "true" for r in rows)
    return json.dumps({"passed": passed, "rows": rows}, sort_keys=True, indent=2) + "\n"


FIELDS = ("suite", "identity", "case", "lhs", "rhs", "pass")


def render_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in rows:
        writer.writerow(r)
    return buf.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cocenter",
        description="exact-arithmetic verification suites for parabolic restriction",
    )
    parser.add_argument("suite", choices=sorted(SUITES) + ["all"])
    parser.add_argument("--config", help="INI config file", default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--guard", type=int, default=None,
                        help="override the enumeration guard")
    parser.add_argument("--out", default=None, help="write the report here")
    parser.add_argument("--mutate-normalization", action="store_true",
                        help="test mode: corrupt the descent normalization")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config) if args.config else RunConfig().validate()
        if args.guard is not None:
            config = replace(config, guard=args.guard).validate()
        if args.mutate_normalization:
            config = replace(config, mutate_normalization=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        rows = run_all(config) if args.suite == "all" else SUITES[args.suite](config)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    report = render_json(rows) if args.format == "json" else render_csv(rows)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(report)
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(report)
    return 0 if all(r["pass"] == "true" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
