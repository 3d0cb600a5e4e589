"""Every definition of the package is reached from the CLI or the battery.

The package exists to run its CLI and the checks of its verification
battery, so a definition that neither reaches is dead weight.  This test
walks the source with the standard library's parser.

* A definition is a module-level function or class, a method of a class,
  or a module-level assignment.  An assignment is reached when any name
  it binds is reached.  Reaching a class reaches its bases, decorators
  and non-method body, but not its methods.
* A definition uses the names it loads and the attribute names it reads;
  an attribute of an imported outside module (``json.loads``) is not one
  of the package's names.
* The roots are ``cli.main``, the console script, every module-level
  statement that is not a definition (the battery's registry included),
  and the bodies of dunder methods, which Python calls implicitly.
  ``cli.py`` is walked like every other module, so a function there that
  no command reaches is flagged too.
* Names are matched by their short name alone, so the closure
  over-approximates: it can miss dead code, but it never flags live code.

The benchmark under ``perfbench/`` is walked the same way, with string
constants counted as names too, since its tracer names the functions it
wraps as strings.  Two exact sets are exempt, each entry with its reason:
``REFERENCES``, reached from no root, and ``BENCH_ONLY``, reached only
from the benchmark.
"""

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "suq2"
PERFBENCH = ROOT / "perfbench"

#: The console script of pyproject.toml, ``suq2 = "suq2.cli:main"``.
ENTRY = "main"

#: Reached from no root: references that tests compare the package with.
REFERENCES = {
    # The admitted-mode rule (n in jset(2l), m = 2l - n) that the (n, m)
    # blocks of _scan_triangle are tested against.
    "spectral.jset",
    # Readers of the CLI's own JSON; the round-trip tests pin to_json as
    # lossless with them.
    "scalars.Scalar.from_json",
    "algebra.AlgebraElement.from_json",
}

#: Reached only from perfbench/, whose tracer pins every one of them by
#: name: they go when the benchmark stops naming them.
BENCH_ONLY = {
    "actions.pairing",          # tracer entry point
    "actions.sigma_right",      # tracer entry point
    "algebra.counit",           # tracer entry point
    "mero.f_value",             # mero_reference("f") and tracer
    "mero.f1_partial",          # mero_reference("f1") and tracer
    "mero.f2_partial",          # mero_reference("f2") and tracer
    "mero._remainder_partial",  # body of f1_partial and f2_partial
    "mero.mero_reference",      # residue-numerics workload
    "modular.phi_res_over_r",   # cochain-closure workload's own cochain
    "scalars.scalar_sqrt",      # tracer entry point
    "scalars._poly_sqrt",       # body of scalar_sqrt
    "spectral.commutator_growth",  # tracer entry point
}

#: What the algebra-level oracles share with the paths they check: the
#: base types of elements and scalars, and their constants.
_EXACT_BASE = {
    "algebra.AlgebraElement", "algebra._SparseSum",
    "algebra._SparseSum.is_zero", "algebra._SparseSum.terms",
    "algebra._accumulate", "scalars.ONE", "scalars.Scalar",
    "scalars.Scalar.is_zero", "scalars.Scalar.v_pow", "scalars._ONE_POLY",
    "scalars._Poly",
}
_WEIGHTS2 = {"algebra.Monomial.left_weight2", "algebra.Monomial.right_weight2"}
_Q_POW = {"scalars.Scalar.q_pow", "scalars.Scalar.v_pow", "scalars._ONE_POLY",
          "scalars._Poly"}

#: The verification web: each checked path, the independent oracle that
#: checks it, and exactly the definitions their two closures share.  A
#: refactor that lets an oracle reuse the path's own rules grows a set and
#: fails the test; one that removes a shared rule shrinks it.
ORACLES = [
    # The direct template sum shares only the argument checks with the
    # closed form; the Gamma ratio, the tail integrals and the pole stay
    # on one side.
    (("h_closed", "h_err_bound"), ("h_direct",),
     {"mero._check_h_params", "spectral._check_z"}),
    # The Sweedler sums of the coproduct against the ladder tables.
    (("act_e", "act_f", "act_h", "act_e_right", "act_f_right", "act_weight"),
     ("sweedler_oracle", "sweedler_oracle_right"),
     _EXACT_BASE | {"algebra.Monomial", "algebra.Monomial.word"}),
    # The residue cochain by commutators against its cup table.
    (("PHI_RES_OVER_R", "int_one_table"), ("phi_res_via_commutators",),
     _EXACT_BASE | _WEIGHTS2 | {"scalars.ZERO"}),
    # pi_split shares the twist table as well; the pi-split check compares
    # each side with phi_res_via_commutators, which shares none of it.
    (("PHI_RES_OVER_R",), ("pi_split",),
     _EXACT_BASE | _WEIGHTS2 | {"hochschild.ORDERS", "hochschild.SLOT_TWISTS",
                                "hochschild._twists", "hochschild.sign"}),
    # The ladder-transport basis of the tests against the closed forms: the
    # bracket product, base types, and a name ``sign`` matched by its short
    # name alone.
    (("pw_orthobasis",), ("transport_orthobasis",),
     {"algebra.AlgebraElement", "algebra.Monomial", "algebra._SparseSum",
      "hochschild.sign", "peterweyl.bracket_difference", "scalars.ONE",
      "scalars.Scalar", "scalars.Scalar.q_pow", "scalars.Scalar.v_pow",
      "scalars.ZERO", "scalars._ONE_POLY", "scalars._Poly",
      "scalars.q_number"}),
    # The 2x2 pair blocks against the scan: the argument checks alone.
    (("upsilon_value",), ("upsilon_identity_pairblocks",),
     {"spectral._check_cutoff", "spectral._check_q", "spectral._check_z"}),
    # The scan and the lattice share the Haar weight by design, and the
    # exact sum.  ``q_pow``, the weights' own argument, matches the Scalar
    # method of that name: the walk matches short names alone.
    (("upsilon_value",), ("eigen_lattice_sum",),
     _Q_POW | {"spectral._check_q", "spectral._check_z",
               "spectral._check_zs", "spectral._exact_sum",
               "spectral._haar_weight", "spectral._settled"}),
    # The certified tail bound against the cutoff-free sums it is tested
    # against: through the tag table it reaches the weights its envelopes
    # bound, and no lattice sum.
    (("tail_bound",),
     ("_identity_lattice", "upsilon_cstarc_lattice", "eigen_lattice_sum"),
     _Q_POW | {"spectral._check_q", "spectral._check_z",
               "spectral._cstarc_weight", "spectral._gamma_half_ratio",
               "spectral._haar_weight", "spectral._identity_weight"}),
]

Definition = Tuple[str, Set[str], Set[str]]  # qualified name, binds, uses


def _outside_modules(tree: ast.Module) -> Set[str]:
    """Names bound by ``import x``: modules outside the package."""
    return {a.asname or a.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for a in node.names}


def _uses(nodes: Iterable[ast.AST], outside: Set[str],
          strings: bool = False) -> Set[str]:
    """Names loaded and attribute names read in ``nodes``, with string
    constants that are identifiers when ``strings`` is set."""
    found: Set[str] = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id in outside)):
                found.add(node.attr)
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                found.add(node.value)
    return found


def _bound(node: ast.stmt) -> Set[str]:
    """The plain names an assignment statement binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return {n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _walk_package(extra: Iterable[Path] = ()
                  ) -> Tuple[List[Definition], Set[str]]:
    """The package's definitions, and the names its roots use; with
    ``extra``, those of the modules there too."""
    definitions: List[Definition] = []
    roots = {ENTRY}
    for path in [*sorted(SRC.glob("*.py")), *extra]:
        tree = ast.parse(path.read_text(), filename=str(path))
        outside = _outside_modules(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                definitions.append((f"{path.stem}.{node.name}", {node.name},
                                    _uses([node], outside)))
            elif isinstance(node, ast.ClassDef):
                qual = f"{path.stem}.{node.name}"
                methods = [n for n in node.body if isinstance(
                    n, (ast.FunctionDef, ast.AsyncFunctionDef))]
                rest = [n for n in node.body if n not in methods]
                definitions.append((qual, {node.name}, _uses(
                    node.bases + node.keywords + node.decorator_list + rest,
                    outside)))
                for fn in methods:
                    uses = _uses([fn], outside)
                    if fn.name.startswith("__") and fn.name.endswith("__"):
                        roots |= uses
                    else:
                        definitions.append((f"{qual}.{fn.name}", {fn.name},
                                            uses))
            elif (isinstance(node, (ast.Assign, ast.AnnAssign))
                  and _bound(node)):
                names = sorted(_bound(node))
                definitions.append((f"{path.stem}.{names[0]}", set(names),
                                    _uses([node], outside)))
            else:
                roots |= _uses([node], outside)
    return definitions, roots


def _closure(definitions: List[Definition], names: Set[str]) -> Set[str]:
    """The qualified names of the definitions reached from ``names``."""
    names = set(names)
    reached: Set[str] = set()
    grew = True
    while grew:
        grew = False
        for qual, binds, uses in definitions:
            if qual not in reached and binds & names:
                reached.add(qual)
                names |= uses
                grew = True
    return reached


def _bench_roots() -> Set[str]:
    roots: Set[str] = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        roots |= _uses([tree], _outside_modules(tree), strings=True)
    return roots


def _reach() -> Dict[str, Set[str]]:
    definitions, roots = _walk_package()
    every = {qual for qual, _, _ in definitions}
    live = _closure(definitions, roots)
    with_bench = _closure(definitions, roots | _bench_roots())
    return {"unreached": every - with_bench, "bench_only": with_bench - live}


def test_every_definition_is_reached():
    assert _reach()["unreached"] == REFERENCES


def test_benchmark_only_names_are_exactly_listed():
    assert _reach()["bench_only"] == BENCH_ONLY


def test_each_oracle_shares_exactly_its_listed_definitions():
    definitions, _ = _walk_package([ROOT / "tests" / "peterweyl_transport.py"])
    for path, oracle, shared in ORACLES:
        got = (_closure(definitions, set(path))
               & _closure(definitions, set(oracle)))
        assert got == shared, (path, oracle, sorted(got ^ shared))
    # The tag table, and with it every lattice sum, stays outside the
    # pair blocks' closure.
    assert "spectral._TAGS" not in _closure(
        definitions, {"upsilon_identity_pairblocks"})


def test_walk_sees_through_class_bodies_and_outside_modules():
    # A method is reached by its own name, not by its class; json.loads
    # names no package method.
    tree = ast.parse("import json\n"
                     "class A:\n"
                     "    X = 1\n"
                     "    def f(self):\n"
                     "        return json.loads(g())\n")
    outside = _outside_modules(tree)
    cls = tree.body[1]
    assert _uses([cls.body[1]], outside) == {"json", "g"}
    assert _bound(cls.body[0]) == {"X"}
