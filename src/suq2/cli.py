"""Batch command-line surface over the symbolic and spectral layers.

Every subcommand prints a short human summary to stdout and, when
``--out`` is given, writes a machine-readable file.  The three
row-shaped commands ``spectrum``, ``upsilon-scan`` (CSV by default) and
``residue`` (JSON by default) take ``--format json|csv``; they are the
only commands with that flag, and the others write JSON.
``--config FILE`` reads ``key=value`` lines that name the command's own
flags (``z_from`` or ``z-from`` for ``--z-from``); any other key is a
usage error, and explicit flags win over the file.  ``residue`` has no
``--lmax``: every residue is a cutoff-free lattice sum.  Outputs are
deterministic: a fixed configuration -- including the recorded random
seed for the property sweeps -- reproduces the output files byte for
byte.  Only the three float commands import the float layer, inside
their handlers, so the exact commands and checks never load numpy or
scipy.

Exit codes: 0 success, 1 failed verification, 2 usage error (an
unwritable ``--out`` path and a size flag above its ceiling included), 3
numeric non-convergence or overflow.
"""

import argparse
import csv
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .acceptance import CHECK_IDS, coboundary_sweep, run_checks
from .actions import act_e, act_e_right, act_f, act_f_right, act_h, act_weight
from .algebra import AlgebraElement, normalize_word
from .errors import NonConvergenceError
from .functionals import haar
from .hochschild import PSI_132, PSI_213, VOLUME_CHAIN
from .modular import _CLOSED_COCHAINS
from .sampling import make_rng, random_monomial
from .scalars import ONE, Scalar


class UsageError(ValueError):
    """Bad arguments or inputs; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Element input syntax: whitespace-separated generator letters with
# optional ^k powers, fraction tokens p/q, and v^k scalar tokens.

_LETTER = re.compile(r"([abcd])(?:\^([0-9]+))?\Z")
_FRACTION = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")
_VPOWER = re.compile(r"v(?:\^([+-]?[0-9]+))?\Z")


def parse_element(text: str) -> AlgebraElement:
    """One monomial term: e.g. ``"3/2 v^-1 a^2 b"``."""
    tokens = text.split()
    if not tokens:
        raise UsageError("empty element; expected generator letters "
                         "a b c d with optional ^k, fractions p/q, v^k")
    coeff = ONE
    letters: List[str] = []
    for tok in tokens:
        m = _LETTER.match(tok)
        if m:
            letters.extend(m.group(1) * int(m.group(2) or "1"))
            continue
        m = _FRACTION.match(tok)
        if m:
            if m.group(2) and not int(m.group(2)):
                raise UsageError(f"zero denominator in token {tok!r}")
            coeff = coeff * Scalar.from_fraction(
                Fraction(int(m.group(1)), int(m.group(2) or "1")))
            continue
        m = _VPOWER.match(tok)
        if m:
            coeff = coeff * Scalar.v_pow(int(m.group(1) or "1"))
            continue
        raise UsageError(
            f"unrecognized token {tok!r}; use generator letters a b c d "
            "with optional ^k, fractions p/q, and v^k scalars")
    x = normalize_word(letters) if letters else AlgebraElement.unit()
    return x.scale(coeff)


def _parse_schedule(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.replace(",", " ").split())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad epsilon schedule {text!r}") from exc


# ---------------------------------------------------------------------------
# Configuration: each subparser in ``_build_parser`` declares its command's
# flags once, with their types, defaults and fixed choices, and binds its
# handler.  Numeric bounds are checked by the handlers and the weight tag
# by ``spectral._check_omega``, where the values are used.  A --config
# file is a list of the command's own flags, one key=value per line; they
# are parsed ahead of the explicit flags, so explicit flags win.

def _config_flags(path: str, sub: argparse.ArgumentParser) -> List[str]:
    """The key=value lines of a config file as ``--key=value`` flags."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    flags: List[str] = []
    for line in raw.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {line!r} is not key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        # Exact names only: argparse would also take a prefix of a flag.
        if flag == "--config" or flag not in sub._option_string_actions:
            raise UsageError(f"unknown config key {key!r}: "
                             f"{sub.prog} has no {flag} option")
        flags.append(f"{flag}={value}")
    return flags


# ---------------------------------------------------------------------------
# Output plumbing.

def _emit(ns: argparse.Namespace, human: List[str], payload: object,
          header: Optional[Sequence[str]] = None, *,
          text: bool = False) -> None:
    """Print the human lines and, with ``--out``, stream ``payload`` into
    the file: a JSON document by ``json.dump`` (indent 2, one closing
    newline), given a CSV ``header`` an iterable of CSV rows, or with
    ``text`` an iterable of the file's text in chunks.  The file's text is
    never held whole, and without ``--out`` none is formed."""
    for line in human:
        print(line)
    if ns.out is None:
        return
    try:
        with open(ns.out, "w") as fh:
            if text:
                fh.writelines(payload)
            elif header is None:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
            else:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(payload)
    except OSError as exc:
        raise UsageError(f"cannot write {ns.out}: {exc.strerror or exc}")
    print(f"wrote {ns.out}")


def _element_payload(command: str, source: str,
                     result: AlgebraElement) -> Dict[str, object]:
    return {
        "command": command,
        "input": source,
        "result": str(result),
        "element": result.to_json(),
    }


def _scalar_payload(command: str, inputs: Sequence[str],
                    value: Scalar) -> Dict[str, object]:
    return {
        "command": command,
        "inputs": list(inputs),
        "value": str(value),
        "scalar": value.to_json(),
    }


# ---------------------------------------------------------------------------
# Subcommand handlers: return the exit code.

def _cmd_normalize(ns: argparse.Namespace) -> int:
    x = parse_element(ns.element)
    _emit(ns, [f"{ns.element.strip()}  =  {x}"],
          _element_payload("normalize", ns.element, x))
    return 0


#: The (action, side) pairs of ``act`` other than the weights k and kinv.
_LADDERS = {
    ("e", "left"): act_e,
    ("f", "left"): act_f,
    ("h", "left"): act_h,
    ("e", "right"): act_e_right,
    ("f", "right"): act_f_right,
}
_WEIGHT_POWERS = {"k": 1, "kinv": -1}


def _cmd_act(ns: argparse.Namespace) -> int:
    which, side = ns.which, ns.side
    x = parse_element(ns.element)
    if which in _WEIGHT_POWERS:
        result = act_weight(x, side, _WEIGHT_POWERS[which])
    elif (which, side) in _LADDERS:
        result = _LADDERS[which, side](x)
    else:
        raise UsageError(f"action {which!r} is not available on side {side!r}")
    payload = _element_payload("act", ns.element, result)
    payload["which"] = which
    payload["side"] = side
    _emit(ns, [f"{which}[{side}] . ({x})  =  {result}"], payload)
    return 0


def _cmd_haar(ns: argparse.Namespace) -> int:
    x = parse_element(ns.element)
    value = haar(x)
    _emit(ns, [f"h({x})  =  {value}"],
          _scalar_payload("haar", [ns.element], value))
    return 0


#: The cochains of ``cocycle-eval``; ``pair-dvol`` takes the closed ones.
_COCHAINS = {**_CLOSED_COCHAINS, "psi_132": PSI_132, "psi_213": PSI_213}


def _cmd_cocycle_eval(ns: argparse.Namespace) -> int:
    name = ns.cocycle
    if name is None:  # the one value the flag's choices do not check
        raise UsageError(f"unknown cocycle {name!r}; choose from "
                         f"{', '.join(sorted(_COCHAINS))}")
    cochain = _COCHAINS[name]
    need = cochain.degree + 1
    if len(ns.elements) != need:
        raise UsageError(f"{name} takes {need} element arguments, "
                         f"got {len(ns.elements)}")
    args = [parse_element(e) for e in ns.elements]
    value = cochain(*args)
    payload = _scalar_payload("cocycle-eval", ns.elements, value)
    payload["cocycle"] = name
    _emit(ns, [f"{name}({', '.join(str(a) for a in args)})  =  {value}"],
          payload)
    return 0


def _cmd_pair_dvol(ns: argparse.Namespace) -> int:
    name = ns.cocycle
    value = _CLOSED_COCHAINS[name].pair_chain(VOLUME_CHAIN)
    payload = _scalar_payload("pair-dvol", [name], value)
    payload["cocycle"] = name
    _emit(ns, [f"{name}(dvol)  =  {value}"], payload)
    return 0


def _cmd_hochschild_check(ns: argparse.Namespace) -> int:
    seed, tuples = ns.seed, ns.tuples
    if tuples < 1:
        raise UsageError("tuple count must be positive")
    rng = make_rng(seed)
    nonzero = coboundary_sweep(
        tuple(AlgebraElement.from_mono(random_monomial(rng, 3))
              for _ in range(5)) for _ in range(tuples))
    all_zero = not any(nonzero.values())
    human = [f"coboundary sweep: {tuples} seeded 5-tuples (seed {seed})"]
    for name in sorted(nonzero):
        human.append(f"  b({name}): {nonzero[name]} nonzero")
    human.append("all coboundaries vanish"
                 if all_zero else "NONZERO COBOUNDARY FOUND")
    _emit(ns, human, {
        "command": "hochschild-check",
        "seed": seed,
        "tuples": tuples,
        "nonzero_counts": {k: nonzero[k] for k in sorted(nonzero)},
        "all_zero": all_zero,
    })
    return 0 if all_zero else 1


#: Ceilings of the size flags of the float commands, checked before the
#: float layer is imported: past them a run grows until memory runs out.
#: Peak RSS grows as lmax^2 and linearly in the z steps.  Whole-process
#: peaks at each ceiling with ``--out``, CSV / JSON, on one Xeon core:
#: ``spectrum --q 0.999 --lmax 2000`` (4.0 million levels) 208 / 212 MB
#: in 8 / 24 s, the JSON levels written one sector at a time;
#: ``upsilon-scan --q 0.999 --lmax 10000`` (5 z) 631 / 632 MB for
#: identity in 17-19 s and 631 / 631 MB for cstarc in about 16 s CPU,
#: whose prepared bases and weights and one z's terms set the peak of
#: each; 1,000,000 z steps at
#: ``--lmax 1`` 445 / 445 MB in 59 / 63 s, at an hour when the host ran
#: slow.
_SPECTRUM_LMAX = 2000
_SCAN_LMAX = 10_000
_SCAN_Z_STEPS = 1_000_000


def _check_ceiling(flag: str, value: int, ceiling: int) -> None:
    if value > ceiling:
        raise UsageError(f"{flag} {value} is above its ceiling {ceiling}")


def _spectrum_json(q: float, lmax: int,
                   sectors: List[Tuple[int, int, List[float]]]
                   ) -> Iterator[str]:
    """The text that ``json.dump(..., indent=2)`` and a closing newline
    write for the spectrum's payload, one chunk per sector, so that only
    one sector's levels are held as dicts at a time.  Each chunk is cut
    from ``json.dumps`` of the payload holding that sector's levels alone,
    between the text before and after the levels' items, which the
    payload holding one null item shows."""
    frame = {"command": "spectrum", "q": q, "lmax": lmax}
    head, tail = json.dumps(dict(frame, levels=[None]),
                            indent=2).split("    null")
    yield head
    for k, (l2, mult, vals) in enumerate(sectors):
        doc = json.dumps(dict(frame, levels=[
            {"l2": l2, "eigenvalue": v, "multiplicity": mult}
            for v in vals]), indent=2)
        yield (",\n" if k else "") + doc[len(head):-len(tail)]
    yield tail + "\n"


def _cmd_spectrum(ns: argparse.Namespace) -> int:
    q, lmax = ns.q, ns.lmax
    if lmax < 0:
        raise UsageError("cutoff must be non-negative")
    _check_ceiling("--lmax", lmax, _SPECTRUM_LMAX)
    from .spectral import sector_spectrum_closed

    # The levels, one list per sector, with the multiplicity as one int
    # that the sector's rows share: each format forms its rows from them
    # once, the JSON dicts before the dump and the CSV rows as they are
    # written.
    sectors = [(l2, l2 + 1, sector_spectrum_closed(l2, q))
               for l2 in range(lmax + 1)]
    dim = sum((l2 + 1) * 2 * (l2 + 1) for l2 in range(0, lmax + 1))
    human = [f"spectrum q={q}, 2l <= {lmax}: "
             f"{sum(len(vals) for _, _, vals in sectors)} levels, "
             f"total dimension {dim}, range "
             f"[{min(min(vals) for _, _, vals in sectors):.6f}, "
             f"{max(max(vals) for _, _, vals in sectors):.6f}]"]
    if ns.format == "json":
        _emit(ns, human, _spectrum_json(q, lmax, sectors), text=True)
    else:
        _emit(ns, human, ((l2, v, mult)
                          for l2, mult, vals in sectors for v in vals),
              ("l2", "eigenvalue", "multiplicity"))
    return 0


def _cmd_upsilon_scan(ns: argparse.Namespace) -> int:
    z_from, z_to, steps = ns.z_from, ns.z_to, ns.z_steps
    if steps < 1:
        raise UsageError("z-steps must be positive")
    _check_ceiling("--z-steps", steps, _SCAN_Z_STEPS)
    _check_ceiling("--lmax", ns.lmax, _SCAN_LMAX)
    if steps == 1:
        zs = [z_from]
    else:
        width = (z_to - z_from) / (steps - 1)
        zs = [z_from + k * width for k in range(steps)]
    from .spectral import upsilon_scan

    rows = upsilon_scan(ns.omega, ns.q, zs, ns.lmax)
    human = [f"{len(rows)} scan rows: omega={ns.omega}, q={ns.q}, "
             f"z in [{zs[0]}, {zs[-1]}], lmax={ns.lmax}"]
    if ns.format == "json":
        _emit(ns, human, {"command": "upsilon-scan", "rows": rows})
    else:
        _emit(ns, human, (tuple(r.values()) for r in rows), tuple(rows[0]))
    return 0


def _cmd_residue(ns: argparse.Namespace) -> int:
    from .spectral import residue_extract

    kwargs = {} if ns.eps is None else {"schedule": ns.eps}
    report = residue_extract(ns.omega, ns.q, max_error_bar=ns.max_error_bar,
                             **kwargs)
    doc = report.to_json_dict()
    human = [f"residue({ns.omega}, q={ns.q})  =  {report.estimate:.6f} "
             f"+- {report.error_bar:.2e}   [{report.method}]"]
    if ns.format == "csv":
        # The offsets in one cell, comma-joined as --eps takes them.
        doc["schedule"] = ",".join(map(repr, report.schedule))
        _emit(ns, human, [tuple(doc.values())], tuple(doc))
    else:
        _emit(ns, human, doc)
    return 0


def _cmd_verify_all(ns: argparse.Namespace) -> int:
    ids = None if ns.only is None else ns.only.replace(",", " ").split()
    results = run_checks(ids, report=print)
    passed = sum(r.passed for r in results)
    _emit(ns, [f"{passed}/{len(results)} checks passed"], [
        {"check_id": r.check_id, "passed": r.passed, "detail": r.detail}
        for r in results])
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# Parser assembly and entry point.

def _add_numeric(sub: argparse.ArgumentParser, lmax: Optional[int],
                 fmt: str) -> None:
    """The flags shared by the three float commands with row-shaped output,
    given the command's ``--format`` default and ``--lmax`` default, None
    for a command without a cutoff."""
    sub.add_argument("--q", type=float, default=0.5,
                     help="deformation parameter in (0, 1)")
    if lmax is not None:
        sub.add_argument("--lmax", type=int, default=lmax,
                         help="doubled-spin cutoff")
    sub.add_argument("--format", choices=("json", "csv"), default=fmt)


def _build_parser() -> Tuple[argparse.ArgumentParser,
                             Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subparsers by command name: each
    command's flags, with their defaults and choices, and its handler."""
    parser = argparse.ArgumentParser(
        prog="suq2",
        description="Exact quantum-SU(2) Hochschild calculus and the "
                    "spectral residue numerics over it.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("normalize", help="normal form of a monomial word")
    p.add_argument("element", help='e.g. "d a" or "3/2 v^-1 a^2 b"')
    p.set_defaults(handler=_cmd_normalize)

    p = subs.add_parser("act", help="apply a Hopf action to an element")
    p.add_argument("--which", choices=("e", "f", "h", "k", "kinv"),
                   default="e")
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("element")
    p.set_defaults(handler=_cmd_act)

    p = subs.add_parser("haar", help="Haar state of an element")
    p.add_argument("element")
    p.set_defaults(handler=_cmd_haar)

    p = subs.add_parser("cocycle-eval", help="evaluate a named cochain")
    p.add_argument("--cocycle", choices=sorted(_COCHAINS))
    p.add_argument("elements", nargs="+")
    p.set_defaults(handler=_cmd_cocycle_eval)

    p = subs.add_parser("pair-dvol",
                        help="pair a 3-cochain with the volume chain")
    p.add_argument("--cocycle", choices=sorted(_CLOSED_COCHAINS),
                   default="phi")
    p.set_defaults(handler=_cmd_pair_dvol)

    p = subs.add_parser("hochschild-check",
                        help="seeded coboundary-vanishing sweep")
    p.add_argument("--tuples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0,
                   help="PRNG seed recorded in the output")
    p.set_defaults(handler=_cmd_hochschild_check)

    p = subs.add_parser("spectrum", help="closed-form truncated spectrum")
    _add_numeric(p, 6, "csv")
    p.set_defaults(handler=_cmd_spectrum)

    p = subs.add_parser("upsilon-scan",
                        help="weighted trace scan over a z grid")
    p.add_argument("--omega", help="weight tag")
    p.add_argument("--z-from", type=float, default=3.2)
    p.add_argument("--z-to", type=float, default=4.0)
    p.add_argument("--z-steps", type=int, default=5)
    _add_numeric(p, 200, "csv")
    p.set_defaults(handler=_cmd_upsilon_scan)

    p = subs.add_parser("residue", help="residue extraction at z = 3")
    p.add_argument("--omega", help="weight tag")
    p.add_argument("--max-error-bar", type=float,
                   help="fail with exit 3 if the error bar exceeds this")
    p.add_argument("--eps", type=_parse_schedule,
                   help="comma-separated epsilon schedule")
    _add_numeric(p, None, "json")
    p.set_defaults(handler=_cmd_residue)

    p = subs.add_parser("verify-all", help="run the verification battery")
    p.add_argument("--only",
                   help=f"comma-separated subset of: {', '.join(CHECK_IDS)}")
    p.set_defaults(handler=_cmd_verify_all)

    for sub in subs.choices.values():
        sub.add_argument("--config", help="key=value file of this "
                         "command's own flags (explicit flags win)")
        sub.add_argument("--out",
                         help="write machine-readable output to this path")
    return parser, subs.choices


def _parse(argv: List[str]) -> argparse.Namespace:
    parser, subs = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config is None:
        return ns
    at = argv.index(ns.command) + 1
    flags = _config_flags(ns.config, subs[ns.command])
    return parser.parse_args(argv[:at] + flags + argv[at:])


def run_command(argv: Sequence[str]) -> int:
    try:
        ns = _parse(list(argv))
        return ns.handler(ns)
    except SystemExit as exc:
        return int(exc.code or 0)
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: input too large for memory: "
              f"{str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
