"""JSON artifact files: curves, torsion tables, twist data, algebras,
trivialisations, quadrics, and descent outputs.

Every element is stored as its rational coordinate vector over the
declared tower (strings "p/q", never decimals).  Every file carries the
content hash of the curve it belongs to, so artifacts from different
curves cannot be mixed.  Dumps are canonical: sorted keys, fixed
separators, one trailing newline.

The loaders of files over a torsion table take (j, table), and decode
each table a file carries once per call (_decoded).  A field equal to
the curve's is the curve's own tower; any other field is decoded where
it is read.
"""

import hashlib
import json
import re
from math import gcd, lcm

from .fields import FieldElement, FieldTower, ReducibleExtension, tower_extend
from .curve import Curve, Point, TorsionTable
from .linalg import ExactMatrix
from .algebra import MODES, RhoTable, CSA, Trivialisation
from .descent_funcs import CurveData
from .geometry import QuadricSystem, PlaneCurveEquation, plane_monomials


class ParseError(ValueError):
    """The file does not have the expected shape."""


def dumps_canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))
        fh.write("\n")


def _req(j, key):
    """j[key], or ParseError when the artifact has no such field."""
    try:
        return j[key]
    except (KeyError, TypeError):
        raise ParseError("artifact has no %r field" % key)


def _object(pairs):
    """A JSON object as a dict; json alone keeps a repeated key's last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ParseError("a JSON object repeats a key")
    return obj


def load(path):
    """The artifact object in a file.  ParseError when the file cannot be
    decoded: bytes that are not UTF-8, text that is not JSON, nesting
    past the recursion limit, or an integer past Python's digit limit."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh, object_pairs_hook=_object)
        except ParseError:
            raise
        except (ValueError, RecursionError) as e:
            raise ParseError("not valid JSON: %s" % e)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("artifact files are objects with a 'kind' field")
    return obj


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # the shape str(Fraction) writes


def _nest(flat, degrees):
    """A coordinate vector as the nested lists of the file format: one
    list level per tower level, the outermost generator outermost."""
    if not degrees:
        return flat[0]
    step = len(flat) // degrees[-1]
    return [_nest(flat[k:k + step], degrees[:-1]) for k in range(0, len(flat), step)]


def _unnest(j, degrees):
    if not degrees:
        return [j]
    if not isinstance(j, list) or len(j) != degrees[-1]:
        raise ParseError("coefficient data does not match the tower")
    return [q for c in j for q in _unnest(c, degrees[:-1])]


def tower_to_json(tower):
    return [{"name": name, "minpoly": [_nest(elem_to_json(c), tower.degrees[:i]) for c in mp]}
            for i, (name, mp) in enumerate(tower.levels)]


def tower_from_json(j):
    """Rebuild a tower level by level; tower_extend certifies each
    minimal polynomial monic and irreducible, as at creation."""
    if not isinstance(j, list):
        raise ParseError("a tower is a list of levels")
    tower = FieldTower.rationals()
    for lvl in j:
        if not isinstance(lvl, dict) or not isinstance(lvl.get("name"), str) \
                or not isinstance(lvl.get("minpoly"), list):
            raise ParseError("tower levels need a 'name' and a 'minpoly' list")
        coeffs = [elem_from_json(tower, _unnest(c, tower.degrees)) for c in lvl["minpoly"]]
        try:
            tower = tower_extend(tower, coeffs, name=lvl["name"])
        except (ReducibleExtension, ValueError) as e:
            raise ParseError("tower level %r: %s" % (lvl["name"], e))
    return tower


def elem_to_json(e):
    """Each coordinate p/q as str(Fraction(p, q)) writes it, with one gcd."""
    q, gs = e._den, ((p, gcd(p, e._den)) for p in e._num)
    return ["%d" % (p // g) if g == q else "%d/%d" % (p // g, q // g) for p, g in gs]


def elem_from_json(tower, j):
    """An element from its "p/q" strings in one pass over their integers.
    Fraction would also read exponents (1e3000000 takes seconds) and _."""
    if not isinstance(j, list) or len(j) != tower.degree:
        raise ParseError("coordinate vector has wrong length for the tower")
    parts = []
    for s in j:
        if not isinstance(s, str):  # a JSON float is not the value it was written as
            raise ParseError("bad rational %r: rationals are stored as strings" % (s,))
        if not (m := _RATIONAL.fullmatch(s)):
            raise ParseError("bad rational %r: not of the form p/q" % (s,))
        try:
            parts.append((int(m[1]), int(m[2] or 1)))
        except ValueError:  # past the digit limit
            raise ParseError("bad rational %r" % (s,))
    den = lcm(*(q for _, q in parts))
    if not den:
        raise ParseError("bad rational in %r: a zero denominator" % (j,))
    return FieldElement(tower, [p * (den // q) for p, q in parts], den)


def _ij_key(ij):
    return "%d,%d" % ij


def _pair_key(a, b):
    return _ij_key(a) + "|" + _ij_key(b)


def _indexed_from_json(j, table, decode, what):
    """A table keyed by torsion indices, {"i,j": value}, decoded: exactly
    the keys of the table's indices."""
    if not isinstance(j, dict):
        raise ParseError("expected an object keyed by 'i,j'")
    if set(j) != {_ij_key(ij) for ij in table.indices}:
        raise ParseError("expected one %s per torsion point, keyed 'i,j' with 0 <= i, j < %d"
                         % (what, table.n))
    return {ij: decode(j[_ij_key(ij)]) for ij in table.indices}


def _pairs_to_json(values):
    """A table keyed by pairs of torsion indices, as {"i,j|k,l": element}."""
    return {_pair_key(a, b): elem_to_json(v) for (a, b), v in values.items()}


def _extension_from_json(j, K, what):
    """A tower that extends the curve's field K: K itself when j is K's
    own JSON (tower_to_json writes only lists, objects and strings, so ==
    is JSON equality), else tower_from_json(j)."""
    L = K if j == tower_to_json(K) else tower_from_json(j)
    if not K.is_prefix_of(L):
        raise ParseError("%s does not extend the curve's" % what)
    return L


def _decoded(table, kind, j, decode, *field):
    """decode(j), once per (kind, canonical JSON of j, *field) in the one
    store of the table's curve and n, CurveData.once, which keeps nothing
    of a decode that raises ParseError.  Callers share what it keeps."""
    return CurveData.of(table.curve, table.n).once(lambda: decode(j), kind,
                                                   dumps_canonical(j), *field)


def _pairs_from_json(j, table):
    """The inverse of _pairs_to_json over the curve's field: exactly the
    keys "i,j|k,l" of pairs of the table's indices, in a dict of the
    caller's own."""
    return dict(_decoded(table, "pair table", j, lambda j: _decode_pairs(j, table)))


def _decode_pairs(j, table):
    if not isinstance(j, dict):
        raise ParseError("pair tables are objects keyed by 'i,j|k,l'")
    idx = table.indices
    keys = {(a, b): _pair_key(a, b) for a in idx for b in idx}
    if set(j) != set(keys.values()):
        raise ParseError("pair tables need one value per pair of torsion points, "
                         "keyed 'i,j|k,l' with 0 <= i, j, k, l < %d" % table.n)
    return {ab: elem_from_json(table.curve.field, j[key]) for ab, key in keys.items()}


def _gamma_from_json(field, j, table):
    """gamma as {"i,j": element}: one nonzero value per torsion point."""
    gamma = _indexed_from_json(j, table, lambda g: elem_from_json(field, g), "nonzero value")
    if any(g.is_zero() for g in gamma.values()):
        raise ParseError("gamma needs one nonzero value per torsion point")
    return gamma


def curve_to_json(curve):
    body = {"field": tower_to_json(curve.field),
            "a": elem_to_json(curve.a), "b": elem_to_json(curve.b)}
    return {"kind": "curve", "hash": _hash_body(body), **body}


def _hash_body(body):
    return hashlib.sha256(dumps_canonical(body).encode()).hexdigest()[:16]


def curve_hash(curve):
    return curve_to_json(curve)["hash"]


def curve_from_json(j):
    if j.get("kind") != "curve":
        raise ParseError("not a curve file")
    field = tower_from_json(_req(j, "field"))
    curve = Curve(field, elem_from_json(field, _req(j, "a")),
                  elem_from_json(field, _req(j, "b")))
    if curve_hash(curve) != j.get("hash"):
        raise ParseError("curve hash does not match its contents")
    return curve


def _check_kind(j, kind, curve):
    """j is an artifact of this kind that belongs to this curve."""
    if not isinstance(j, dict) or j.get("kind") != kind:
        raise ParseError("not a %s file" % kind)
    if j.get("hash") != curve_hash(curve):
        raise ParseError("artifact belongs to a different curve")


def _check_table_kind(j, kind, table):
    """j is an artifact of this kind that belongs to this curve and n."""
    _check_kind(j, kind, table.curve)
    if type(_req(j, "n")) is not int or j["n"] != table.n:
        raise ParseError("%s file is for n = %r, not %d" % (kind, j["n"], table.n))


def torsion_to_json(table):
    h = curve_hash(table.curve)
    pts = []
    for p in table:
        pts.append(None if p.is_infinity else
                   {"x": elem_to_json(p.x), "y": elem_to_json(p.y)})
    return {"kind": "torsion", "hash": h, "n": table.n, "points": pts}


def torsion_from_json(j, curve):
    _check_kind(j, "torsion", curve)
    n = _req(j, "n")
    pts = _req(j, "points")
    if type(n) is not int or n < 3 or n % 2 == 0:
        raise ParseError("torsion file is for n = %r, not an odd integer n >= 3" % (n,))
    if not isinstance(pts, list) or len(pts) != n * n or pts[0] is not None:
        raise ParseError("torsion file needs n^2 points starting at O")
    t1 = point_from_json(pts[n], curve)
    t2 = point_from_json(pts[1], curve)
    try:
        table = TorsionTable(curve, n, t1, t2)
    except ValueError as e:
        raise ParseError("torsion file: %s" % e)
    for p, pj in zip(table, pts):
        q = Point.at_infinity(curve) if pj is None else point_from_json(pj, curve)
        if not (p == q):
            raise ParseError("torsion file is not a basis table")
    return table


def point_to_json(p):
    if p.is_infinity:
        raise ValueError("a point file holds an affine point, not O")
    return {"kind": "point", "hash": curve_hash(p.curve),
            "x": elem_to_json(p.x), "y": elem_to_json(p.y)}


def point_from_json(j, curve):
    K = curve.field
    x = elem_from_json(K, _req(j, "x"))
    y = elem_from_json(K, _req(j, "y"))
    try:
        return Point(curve, x, y)
    except ValueError as e:
        raise ParseError(str(e))


def point_file_from_json(j, curve):
    _check_kind(j, "point", curve)
    return point_from_json(j, curve)


def rho_to_json(rho):
    table = rho.table
    return {"kind": "rho", "hash": curve_hash(table.curve), "n": table.n,
            "values": _pairs_to_json(rho.values)}


def rho_from_json(j, table):
    _check_table_kind(j, "rho", table)
    return RhoTable(table, _pairs_from_json(_req(j, "values"), table))


def csa_to_json(csa):
    table = csa.table
    return {"kind": "csa", "hash": curve_hash(table.curve), "n": table.n,
            "rho": _pairs_to_json(csa.rho.values),
            "structure": _pairs_to_json(csa.structure)}


def csa_from_json(j, table):
    _check_table_kind(j, "csa", table)
    rho = RhoTable(table, _pairs_from_json(_req(j, "rho"), table))
    structure = _pairs_from_json(_req(j, "structure"), table)
    return CSA(table, rho, structure)


def matrix_to_json(m):
    return [[elem_to_json(e) for e in row] for row in m.rows]


def matrix_from_json(tower, j, n):
    if not isinstance(j, list) or len(j) != n \
            or not all(isinstance(row, list) and len(row) == n for row in j):
        raise ParseError("a matrix is a list of rows, %d rows of %d entries" % (n, n))
    return ExactMatrix([[elem_from_json(tower, e) for e in row] for row in j], tower)


def triv_to_json(triv):
    return {"kind": "trivialisation", "hash": curve_hash(triv.table.curve),
            "n": triv.table.n, "mode": triv.mode, "field": tower_to_json(triv.field),
            "rho": _pairs_to_json(triv.rho.values),
            "matrices": {_ij_key(ij): matrix_to_json(m) for ij, m in triv.matrices.items()},
            "gamma": None if triv.gamma is None else {_ij_key(ij): elem_to_json(g)
                                                      for ij, g in triv.gamma.items()}}


def triv_from_json(j, table):
    _check_table_kind(j, "trivialisation", table)
    L = _extension_from_json(_req(j, "field"), table.curve.field,
                             "the trivialisation's field")
    rho = RhoTable(table, _pairs_from_json(_req(j, "rho"), table))
    def decode(mj):
        return _indexed_from_json(mj, table, lambda m: matrix_from_json(L, m, table.n), "matrix")
    # keyed by L too: two towers of one degree write the same matrix JSON
    matrices = dict(_decoded(table, "matrices", _req(j, "matrices"), decode, L))
    gamma = j.get("gamma")
    if gamma is not None:
        gamma = _gamma_from_json(L, gamma, table)
    mode = _req(j, "mode")
    if mode not in MODES:
        raise ParseError("trivialisation mode %r is not one of %s" % (mode, ", ".join(MODES)))
    return Trivialisation(table, rho, L, matrices, mode, gamma)


def quadrics_to_json_forms(qs):
    forms = []
    for f in qs.forms:
        forms.append([[a, b, elem_to_json(c)] for (a, b), c in sorted(f.items())])
    return forms


def quadrics_from_json_forms(field, n, forms):
    if type(n) is not int or not isinstance(forms, list) or not forms \
            or not all(isinstance(f, list) and f for f in forms):
        raise ParseError("quadrics are a nonempty list of nonempty forms for an integer n")
    out = []
    for f in forms:
        d = {}
        for term in f:
            if not isinstance(term, list) or len(term) != 3:
                raise ParseError("quadric terms are [i, j, coeff]")
            a, b, c = term
            if type(a) is not int or type(b) is not int or not 0 <= a <= b < n * n:
                raise ParseError("quadric term indices %r, %r are not 0 <= i <= j < %d"
                                 % (a, b, n * n))
            if (a, b) in d:
                raise ParseError("a quadric repeats the term z_%d z_%d" % (a, b))
            d[(a, b)] = elem_from_json(field, c)
        out.append(d)
    return QuadricSystem(field, n, out)


def quadrics_to_json(qs, curve, rho):
    return {"kind": "quadrics", "hash": curve_hash(curve), "n": qs.n,
            "rho": _pairs_to_json(rho.values),
            "forms": quadrics_to_json_forms(qs)}


def _forms_from_json(forms, table):
    return _decoded(table, "quadric forms", forms,
                    lambda f: quadrics_from_json_forms(table.curve.field, table.n, f))


def quadrics_from_json(j, table):
    """(qs, rho): the quadrics and the rho table they were built for."""
    _check_table_kind(j, "quadrics", table)
    return (_forms_from_json(_req(j, "forms"), table),
            RhoTable(table, _pairs_from_json(_req(j, "rho"), table)))


def plane_to_json(cub):
    return {"monomials": [list(m) for m in cub.monomials],
            "coeffs": [elem_to_json(c) for c in cub.coeffs]}


def plane_from_json(j, field, n):
    mono, coeffs = _req(j, "monomials"), _req(j, "coeffs")
    if not (isinstance(mono, list) and isinstance(coeffs, list)
            and all(isinstance(m, list) and len(m) == 3
                    and all(type(e) is int for e in m) for m in mono)):
        raise ParseError("a plane curve is a list of [i, j, k] monomials and a list of coeffs")
    mono = [tuple(m) for m in mono]
    if mono != plane_monomials(n):
        raise ParseError("monomial list is not the graded lex basis")
    coeffs = [elem_from_json(field, c) for c in coeffs]
    if len(coeffs) != len(mono):
        raise ParseError("plane curve needs one coefficient per monomial")
    return PlaneCurveEquation(field, n, coeffs)


def descent_to_json(out, curve):
    triv = out["trivialisation"]
    gamma = out["gamma"]
    gfield = next(iter(gamma.values())).tower
    return {"kind": "descent", "hash": curve_hash(curve),
            "n": out["report"]["n"], "seed": out["seed"],
            "quadrics": quadrics_to_json_forms(out["quadrics"]),
            "csa": csa_to_json(out["csa"]),
            "trivialisation": triv_to_json(triv),
            "gamma": {"field": tower_to_json(gfield),
                      "values": {_ij_key(ij): elem_to_json(g)
                                 for ij, g in gamma.items()}},
            "plane_curve": plane_to_json(out["plane_curve"]),
            "report": out["report"]}


def descent_from_json(j, table):
    curve, n = table.curve, table.n
    _check_table_kind(j, "descent", table)
    K = curve.field
    gj = _req(j, "gamma")
    gfield = _extension_from_json(_req(gj, "field"), K, "gamma's field")
    gamma = _gamma_from_json(gfield, _req(gj, "values"), table)
    seed = _req(j, "seed")
    if type(seed) is not int:
        raise ParseError("descent seed %r is not an integer" % (seed,))
    out = {"quadrics": _forms_from_json(_req(j, "quadrics"), table),
           "csa": csa_from_json(_req(j, "csa"), table),
           "trivialisation": triv_from_json(_req(j, "trivialisation"), table),
           "gamma": gamma,
           "plane_curve": plane_from_json(_req(j, "plane_curve"), K, n),
           "report": _req(j, "report"), "seed": seed}
    tfield = out["trivialisation"].field
    if not (tfield.is_prefix_of(gfield) or gfield.is_prefix_of(tfield)):
        raise ParseError("the trivialisation's field and gamma's field are not one tower")
    return out
