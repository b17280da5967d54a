"""Command line front end for the descent pipeline.

Commands: torsion, quadrics, algebra, rho-from-point, trivialize,
descend, verify.  Exit codes: 1 for I/O and parse problems, 2 for
failed mathematical preconditions, 3 for certification failures.
fields.NoCertificate, the refusal of the l-adic root rule, is a
ValueError: 1 when it rejects a tower level read from a file, 2 when
no prime certifies a root list the pipeline needs.
"""

import argparse
import sys
from contextlib import contextmanager

from . import serialize as ser
from .curve import TorsionNotRational
from .descent_funcs import CurveData, EigenspaceDimensionError
from .algebra import (MODES, RhoTable, validate_rho, rho_from_point, build_csa,
                      check_coboundary, trivialize, certify_once,
                      CertificationFailed, BadBasePoint)
from .geometry import (quadrics_for_C, descend, descent_report, sample_images,
                       sampling_field, RankNotOne, _lead_one, _symmetric_cube)


@contextmanager
def _load_curve(args):
    """The per-curve data of the --curve file for --n, for the command."""
    data = CurveData.of(ser.curve_from_json(ser.load(args.curve)), args.n)
    try:
        yield data
    finally:  # curve._data and data.curve form a cycle: unlinked, refcounting frees both
        data.curve._data.pop(data.n, None)


def _load_rho(path, table):
    """A rho table from either a rho file or an algebra file."""
    j = ser.load(path)
    if j.get("kind") == "csa":
        values = ser.csa_from_json(j, table).rho.values
    else:
        values = ser.rho_from_json(j, table).values
    return validate_rho(table, values)


def cmd_torsion(args, data):
    table = data.table
    ser.save(args.out, ser.torsion_to_json(table))
    print("%d torsion points -> %s" % (len(table), args.out))
    return 0


def cmd_quadrics(args, data):
    table = data.table
    rho = _load_rho(args.rho, table) if args.rho else RhoTable.trivial(table)
    qs = quadrics_for_C(data.curve, table, rho)
    ser.save(args.out, ser.quadrics_to_json(qs, data.curve, rho))
    print("%d independent quadrics -> %s" % (len(qs), args.out))
    return 0


def cmd_algebra(args, data):
    csa = build_csa(data.table, data.eps, _load_rho(args.rho, data.table))
    ser.save(args.out, ser.csa_to_json(csa))
    print("certified algebra -> %s" % args.out)
    return 0


def cmd_rho_from_point(args, data):
    q = ser.point_file_from_json(ser.load(args.point), data.curve)
    rho = rho_from_point(data.table, q)
    ser.save(args.out, ser.rho_to_json(rho))
    print("validated rho from base point -> %s" % args.out)
    return 0


def cmd_trivialize(args, data):
    rho = _load_rho(args.rho, data.table)
    matrices = gamma = None
    if args.mode == "user":
        if not args.triv:
            raise ser.ParseError("user mode needs --triv with the matrices")
        user = ser.triv_from_json(ser.load(args.triv), data.table)
        matrices, gamma = user.matrices, user.gamma
    triv = trivialize(data.emb, data.eps, rho, mode=args.mode, matrices=matrices, gamma=gamma)
    ser.save(args.out, ser.triv_to_json(triv))
    print("certified %s trivialisation -> %s" % (args.mode, args.out))
    return 0


def cmd_descend(args, data):
    rho = _load_rho(args.rho, data.table)
    triv = ser.triv_from_json(ser.load(args.triv), data.table)
    out = descend(data.curve, args.n, rho, triv, seed=args.seed)
    ser.save(args.out, ser.descent_to_json(out, data.curve))
    print("%s -> %s" % (out["report"]["summary"], args.out))
    return 0


def _certified(run):
    """(run(), None), or (None, witness) when run raises CertificationFailed."""
    try:
        return run(), None
    except CertificationFailed as e:
        return None, e.witness


def _check_parts(path, values, data, emit, qs=None, csa=None, triv=None):
    """Validate a file's rho table, then check each part given, and a
    trivialisation's gamma, against it; each check and rebuild runs once
    per == data in a verify call (CurveData.once).  Returns the validated
    rho, or None when it or the trivialisation fails."""
    rho, w = _certified(lambda: validate_rho(data.table, values))
    if not emit(path, "rho is a symmetric cocycle", w is None, w):
        return None
    if qs is not None:
        want = data.n ** 2 * (data.n ** 2 - 3) // 2
        rebuilt = data.once(lambda: quadrics_for_C(data.curve, data.table, rho), "quadrics",
                            rho.values)
        same = qs == rebuilt
        emit(path, "quadric count", len(qs) == want, len(qs))
        # quadrics_for_C has certified the rank of the forms it built
        rank = len(rebuilt) if same else qs.rank()
        emit(path, "quadric rank", rank == want, rank)
        emit(path, "quadrics match recomputation", same)
    if csa is not None:
        rebuilt, w = _certified(lambda: data.once(lambda: build_csa(data.table, data.eps, rho),
                                                  "csa", rho.values))
        emit(path, "structure constants certify and match",
             w is None and rebuilt.structure == csa.structure and csa.rho.values == rho.values, w)
    if triv is not None:
        _, w = _certified(lambda: certify_once(triv, data.eps))
        if not emit(path, "trivialisation certifies",
                    w is None and triv.rho.values == rho.values, w):
            return None
        if triv.gamma is not None:
            _, w = _certified(lambda: check_coboundary(data.table, triv.gamma, rho))
            if not emit(path, "trivialisation gamma is a coboundary for rho", w is None, w):
                return None
    return rho


def _verify_file(path, j, data, emit):
    """Check one artifact, reading E[n] only for the kinds that use it."""
    kind = j.get("kind")
    if kind == "curve":
        ser.curve_from_json(j)
        emit(path, "curve parses and matches its hash", True)
    elif kind == "point":
        ser.point_file_from_json(j, data.curve)
        emit(path, "point lies on the curve", True)
    elif kind == "torsion":
        torsion = ser.torsion_from_json(j, data.curve)
        ok = (data.n * torsion.t1).is_infinity and (data.n * torsion.t2).is_infinity
        emit(path, "basis points are n-torsion", ok)
    elif kind == "rho":
        _check_parts(path, ser.rho_from_json(j, data.table).values, data, emit)
    elif kind == "csa":
        csa = ser.csa_from_json(j, data.table)
        _check_parts(path, csa.rho.values, data, emit, csa=csa)
    elif kind == "trivialisation":
        triv = ser.triv_from_json(j, data.table)
        _check_parts(path, triv.rho.values, data, emit, triv=triv)
    elif kind == "quadrics":
        qs = ser.quadrics_from_json(j, data.table)
        _check_parts(path, ser.quadrics_rho_from_json(j, data.table).values, data, emit, qs=qs)
    elif kind == "descent":
        _verify_descent(path, j, data, emit)
    else:
        raise ser.ParseError("unknown artifact kind %r" % kind)


def _verify_descent(path, j, data, emit):
    """The part checks on the quadrics, algebra and trivialisation of a
    descent file, against the rho of its trivialisation, then the checks
    of the descent itself: gamma, the cubic and its pencil identities, the
    report, and one fresh image on the cubic, the check descend makes on
    its second image; the pencil identities make one enough (see
    geometry.descend).

    That premise, a pencil of dimension 2, follows from what verify
    certifies.  With c = eps rho nowhere zero, the certified A =
    tau(delta_T1) and B = tau(delta_T2) are units with A B = c(T1, T2)
    tau(delta_{T1+T2}) and B A = c(T2, T1) tau(delta_{T1+T2}); rho is
    symmetric, so A B = zeta B A, zeta = e_3(T1, T2).  compute_G_basis,
    run for the fresh image, certifies that the nine characters are
    distinct and every e_3 value a cube root of 1, so zeta is primitive
    (zeta = 1 gives chi_T1 = chi_O).  If A v = a v, then A B v = zeta a B v,
    so over Kbar A has the distinct eigenvalues a, zeta a, zeta^2 a on v,
    B v, B^2 v, and B^3 v = b v, as B^3 commutes with A.  In the basis v,
    B v / b^(1/3), B^2 v / b^(2/3), A = a diag(1, zeta, zeta^2) and B is
    b^(1/3) times the cyclic shift, both of determinant 1 once scaled.
    F o (sA) = s^3 F o A and det(sA) = s^3 det(A), so the cubics with
    F o A = det(A) F and F o B = det(B) F are, in that basis, those fixed
    by diag(1, zeta, zeta^2) (spanned by x^3, y^3, z^3, xyz) and by the
    shift: the span of x^3 + y^3 + z^3 and xyz (Artebani and Dolgachev,
    Enseign. Math. 55 (2009)), of dimension 2 over Kbar and so over K."""
    out = ser.descent_from_json(j, data.table)
    qs, triv, gamma, cubic = (out["quadrics"], out["trivialisation"], out["gamma"],
                              out["plane_curve"])
    rho = _check_parts(path, triv.rho.values, data, emit, qs, out["csa"], triv)
    if rho is None:
        return
    _, w = _certified(lambda: check_coboundary(data.table, gamma, rho))
    emit(path, "gamma is a coboundary for rho", w is None, w)
    emit(path, "plane cubic is nonzero and normalized",
         not cubic.is_zero() and _lead_one(cubic.coeffs) == cubic.coeffs)
    eigen = [(_symmetric_cube(a), a.det()) for a in map(triv.matrices.get, data.table.generators)]
    emit(path, "plane cubic is fixed by the generators up to their determinant",
         all(s.mat_vec(cubic.coeffs) == [d * c for c in cubic.coeffs] for s, d in eigen))
    gfield = next(iter(gamma.values())).tower
    emit(path, "report matches the descent",
         out["report"] == descent_report(data.n, out["seed"], len(qs), len(gfield.levels)))
    # the image of one fresh base point under the stored gamma and
    # trivialisation, drawn on the field descend samples on
    sample_gamma, _ = sampling_field(gamma, gfield, triv)
    images = sample_images(data.curve, data.gbasis, sample_gamma, qs, triv, out["seed"] + 1)
    try:
        fresh = cubic.evaluate(next(images)).is_zero()
    except (CertificationFailed, RankNotOne):
        fresh = False
    emit(path, "fresh samples land on the stored cubic", fresh)


def cmd_verify(args, data):
    failures = []

    def emit(path, name, ok, detail=None):
        tag = "PASS" if ok else "FAIL"
        extra = "" if detail is None else " (%r)" % (detail,)
        print("%s %s: %s%s" % (tag, path, name, extra))
        if not ok:
            failures.append((path, name))
        return ok

    for path in args.files:
        _verify_file(path, ser.load(path), data, emit)
    if failures:
        print("%d check(s) failed" % len(failures))
        return 3
    print("all checks pass")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="ndescent",
        description="Exact descent pipeline: torsion, coverings, "
                    "obstruction algebras, and plane equations.")
    sub = ap.add_subparsers(dest="command", required=True)
    curve = argparse.ArgumentParser(add_help=False)
    curve.add_argument("--curve", required=True, help="curve artifact file")
    curve.add_argument("--n", type=int, default=3)
    out = argparse.ArgumentParser(add_help=False, parents=[curve])
    out.add_argument("--out", required=True, help="output artifact file")

    p = sub.add_parser("torsion", parents=[out], help="enumerate the rational n-torsion")
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("quadrics", parents=[out], help="quadrics for the (twisted) covering")
    p.add_argument("--rho", help="rho or algebra file; omitted means trivial")
    p.set_defaults(func=cmd_quadrics)

    p = sub.add_parser("algebra", parents=[out], help="structure constants of the twisted algebra")
    p.add_argument("--rho", required=True)
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("rho-from-point", parents=[out], help="the twist attached to a base point")
    p.add_argument("--point", required=True, help="point artifact file")
    p.set_defaults(func=cmd_rho_from_point)

    p = sub.add_parser("trivialize", parents=[out], help="build and certify a trivialisation")
    p.add_argument("--rho", required=True)
    p.add_argument("--mode", default="standard", choices=MODES)
    p.add_argument("--triv", help="matrices file for user mode")
    p.set_defaults(func=cmd_trivialize)

    p = sub.add_parser("descend", parents=[out], help="full pipeline to a plane curve")
    p.add_argument("--rho", required=True)
    p.add_argument("--triv", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_descend)

    p = sub.add_parser("verify", parents=[curve], help="re-run all checks on artifact files")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_verify)

    args = ap.parse_args(argv)
    try:
        with _load_curve(args) as data:
            return args.func(args, data)
    except (OSError, ser.ParseError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except (TorsionNotRational, BadBasePoint, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (CertificationFailed, RankNotOne, EigenspaceDimensionError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
