"""Rules on the package source that keep verdicts proof-grade."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


# Names that must not appear in the package: the errors of the old capped
# searches (the point constructions and the witness search have proven
# bounds), the brute-force oracles and test-only helpers that live in
# tests/oracles.py (among them the elimination by inverses and the
# augmented span solve that the integer rref and the reduction test
# replaced, and the span test by a fresh RREF), the worker pool of the
# removed parallel verify (serial verify was faster on every input
# measured), the root-system cache with the environment lookup that
# named its directory (a cache load rebuilt every reflection table to check
# it, so it saved no measurable time; every run builds from the matrix), and
# the walk's capped start search, restarts and stuck error (the start point
# has a proven bound and an exact search backs the float guidance), the
# Fraction polynomial helpers and the Fraction copy of the isolating interval
# that the integer field layer replaced, with their references (the Euclid
# inverse and the Sturm bisection in Fractions), the scan of whole
# boxes that the fractions by height replaced, the flow-curve wrapper
# and the field-level hint that no caller used, and the good-position walk
# that reflected and paired its points again at every step (the walk now
# composes root permutations over signs read once), and the whole-group
# maps of conjugation by a twist power with their permutation-scan
# reference (a product of normal forms twists its few factors one at a
# time), and the moment-curve cone point (whether a closed chamber holds a
# regular point is read off the sum of the cone's generators; the oracles
# keep the search for arbitrary hyperplanes), and the references of the
# eigen layer's fast paths: the kernel solve at every angle, the traces of
# matrix powers with the matrix product they used, the embedding by Horner's
# rule and the multiplication by c as a field product, and the union-find
# and frontier searches of the class layer (every relation there is one
# length-filtered search) with the reflection tables derived from the roots
# (the orbit closure records them as it reflects), and the plateau-exit
# search with its pointer cache, whose chains hung on the order of the
# calls (arrow chains are read off gp1's search) and the depth oracle that
# checks them.
BANNED = ("ConstructionFailed", "SearchBound", "conjugate_by_index",
          "_twist_body", "conj", "pruned", "is_valid", "expand",
          "is_left_weighted_pair", "reflection_element", "reflect_vector",
          "intersect_subspaces", "relative_interior_point",
          "solve_in_span", "rref_by_inverses", "subspace_contains",
          "multiprocessing", "_pool_init", "_pool_check", "_POOL_STATE",
          "load_or_build", "system_to_json", "system_from_json", "cache_key",
          "CACHE_SCHEMA", "cache_dir", "tempfile", "environ", "getenv",
          "_RetryWalk", "_START_ATTEMPTS", "WalkStuck", "_good_start_points",
          "_fpoly_eval", "_fpoly_divmod", "_fpoly_sub", "_poly_mul",
          "_set_dyadic", "_lo", "_hi", "euclid_inverse",
          "fraction_sturm_intervals", "fractions_by_height_boxes",
          "FlowCurve", "flow_curve", "L_hint", "classes_by_union_find",
          "lex_chamber_by_reflection", "twist_index_map", "twist_map",
          "twist_index_map_by_perms", "cone_point_avoiding",
          "decompose_by_full_scan", "traces_by_matrix_powers", "mat_mul",
          "embed_by_horner", "times_gen_by_product", "_find", "_union",
          "_blocks", "simple_reflect", "reflections_from_roots",
          "approx_blocks_by_union_find", "reverse_arrow_reach_by_frontier",
          "arrow_reach_by_frontier", "_plateau_exit", "_exit_cache",
          "arrow_depths_by_frontier")


def test_no_asserts_and_no_capped_construction_error():
    # python -O strips asserts, so no check may live in one; and no banned
    # name may come back.
    offenders = []
    for path in sorted((SRC / "coxmin").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Name):
                names.append(node.id)
            elif isinstance(node, ast.Attribute):
                names.append(node.attr)
            elif isinstance(node, ast.alias):
                names.extend(node.name.split("."))
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.extend(node.module.split("."))
            elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names.append(node.name)
            elif isinstance(node, (ast.arg, ast.keyword)):
                names.append(node.arg)
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}: assert")
            for banned in BANNED:
                if banned in names:
                    offenders.append(f"{path.name}:{node.lineno}: {banned}")
    assert not offenders, offenders


def _referenced_names(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_module_function_and_class_is_used_or_exported():
    # No unused API: each module-level function or class is referenced by
    # some other top-level statement of the package, or is exported from
    # coxmin/__init__.py.
    init = SRC / "coxmin" / "__init__.py"
    exported = _referenced_names(ast.parse(init.read_text()))
    defined, used = [], set()
    for path in sorted((SRC / "coxmin").glob("*.py")):
        if path == init:
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
                # A function's references to itself do not count as a use.
                used |= _referenced_names(node) - {node.name}
            else:
                used |= _referenced_names(node)
    unused = [f"{module}: {name}" for module, name in defined
              if name not in used and name not in exported]
    assert not unused, unused


# Public methods with no caller in the package, kept on purpose (ROADMAP.md,
# "Loose ends"): they are the rational edges of the scalar layer, where
# callers pass a scalar in as Fraction coefficients and read an isolating
# interval out as Fractions.
KEPT_METHODS = {("ScalarField", "scalar"), ("AlgebraicScalar", "interval")}


def test_every_public_method_is_used():
    # No unused API, one level down: each public method of a package class
    # is referenced somewhere in the package outside its own body, or is a
    # rational edge kept on purpose (KEPT_METHODS).
    defined, used = [], set()
    for path in sorted((SRC / "coxmin").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                used |= _referenced_names(node)
                continue
            for deco in node.decorator_list + node.bases:
                used |= _referenced_names(deco)
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    if not item.name.startswith("_"):
                        defined.append((path.name, node.name, item.name))
                    used |= _referenced_names(item) - {item.name}
                else:
                    used |= _referenced_names(item)
    unused = [f"{module}: {cls}.{name}" for module, cls, name in defined
              if name not in used and (cls, name) not in KEPT_METHODS]
    assert not unused, unused
    assert {(cls, name) for _, cls, name in defined} >= KEPT_METHODS


def test_every_import_is_used():
    # A name a module imports is read in that module; __init__ re-exports
    # and __future__ features are exempt.
    unused = []
    for path in sorted((SRC / "coxmin").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused, unused


def test_preconditions_raise_under_optimize():
    # Each former assert is a typed raise that python -O keeps.
    script = (
        "from coxmin import braid, conjugacy, coxeter, eigen, walk\n"
        "a2 = coxeter.build_system(coxeter.named_matrix('A2'))\n"
        "s1 = coxeter.untwisted(a2.generator(0))\n"
        "delta = coxeter.enumerate_twists(a2.matrix)[1]\n"
        "on_wall = eigen.regular_point(a2, eigen.fixed_space(s1))\n"
        "off_wall = coxeter.Chamber.fundamental(a2).interior_point()\n"
        "ctx = braid.BraidContext(a2)\n"
        "rec = conjugacy.enumerate_classes(a2)[1]\n"
        "calls = [\n"
        "    lambda: walk.derivative_test(s1, 0, off_wall, a2.pos_roots[0]),\n"
        "    lambda: walk.derivative_test(s1, 0, on_wall, a2.pos_roots[1]),\n"
        "    lambda: braid.TwistedBraid(ctx, 0, (0,)).power(-1),\n"
        "    lambda: braid.lift(s1, ctx).power(-1),\n"
        "    lambda: coxeter.TwistedElement(a2, delta, 1, a2.identity) * s1,\n"
        "    lambda: rec.coset.index(coxeter.TwistedElement(a2, delta, 1, a2.identity)),\n"
        "    lambda: eigen.regular_point(a2, [off_wall], start_index=-1),\n"
        "    lambda: conjugacy.verify_elliptic_approx(conjugacy.enumerate_classes(a2)[0]),\n"
        "    lambda: conjugacy.arrow_reduce(coxeter.untwisted(a2.identity), rec),\n"
        "    lambda: conjugacy.partial_conjugation_transfer(\n"
        "        [], coxeter.untwisted(a2.identity), a2.generator(0), a2.identity),\n"
        "]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "        print('passed')\n"
        "    except ValueError:\n"
        "        print('ValueError')\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 10
