"""Independent answers for the benchmark's checks.

Everything here is computed from the problem files with this module's own
GF(p) and GF(p^r) arithmetic; it never imports `cartierforge`.  Element
codes follow the problem-file convention: the code sum(d_i p^i) stands for
sum(d_i t^i) in GF(p)[t]/(f), where f is the smallest monic irreducible
polynomial of degree r over GF(p), ordered by the code of its low-first
coefficient vector.  This module finds f by its own search.

`facts` reduces one module of a problem file to the quantities the checks
need, and `check` decides whether the program's result for one command
has the properties the method must have.
"""

from __future__ import annotations

import itertools

import numpy as np

CARTIER, FROBENIUS = "cartier", "frobenius"


def _poly_rem(a: list, g: list, p: int) -> list:
    """Remainder of a by the monic g over GF(p); coefficient lists low-first."""
    a = list(a)
    while len(a) >= len(g):
        c = a[-1]
        shift = len(a) - len(g)
        for i, gi in enumerate(g):
            a[shift + i] = (a[shift + i] - c * gi) % p
        a.pop()
    return a


def _digits(code: int, p: int, n: int) -> list:
    out = []
    for _ in range(n):
        out.append(code % p)
        code //= p
    return out


def irreducible(f: list, p: int) -> bool:
    """No monic factor of degree 1..deg(f)/2 divides the monic f."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            if not any(_poly_rem(f, _digits(code, p, d) + [1], p)):
                return False
    return True


def smallest_modulus(p: int, r: int) -> list:
    for code in range(p ** r):
        f = _digits(code, p, r) + [1]
        if irreducible(f, p):
            return f
    raise ValueError(f"no irreducible polynomial of degree {r} over GF({p})")


class Field:
    """GF(p^r) by full addition and multiplication tables (q <= a few
    hundred), with the dense linear algebra the checks need."""

    def __init__(self, p: int, r: int = 1):
        self.p, self.r, self.q = p, r, p ** r
        q = self.q
        self.modulus = smallest_modulus(p, r) if r > 1 else [0, 1]
        dig = [_digits(c, p, r) for c in range(q)]
        weights = [p ** i for i in range(r)]

        def code(d):
            return sum(c * w for c, w in zip(d, weights))

        self.add_t = np.array([[code([(x + y) % p for x, y in zip(dig[a], dig[b])])
                                for b in range(q)] for a in range(q)], dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            for b in range(q):
                prod = [0] * (2 * r - 1)
                for i, x in enumerate(dig[a]):
                    for j, y in enumerate(dig[b]):
                        prod[i + j] = (prod[i + j] + x * y) % p
                rem = _poly_rem(prod, self.modulus, p) if r > 1 else prod
                mul[a, b] = code(rem + [0] * (r - len(rem)))
        self.mul_t = mul
        self.neg_t = np.array([code([(-x) % p for x in dig[a]]) for a in range(q)],
                              dtype=np.int64)
        self.inv_t = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            self.inv_t[a] = int(np.nonzero(mul[a] == 1)[0][0])

    def arr(self, rows) -> np.ndarray:
        a = np.array(rows, dtype=np.int64)
        if a.size and (a.min() < 0 or a.max() >= self.q):
            raise ValueError("element code out of range")
        return a

    def mmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
        for k in range(a.shape[1]):
            out = self.add_t[out, self.mul_t[a[:, k:k + 1], b[k:k + 1, :]]]
        return out

    def msub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.add_t[a, self.neg_t[b]]

    def mpow(self, a: np.ndarray, n: int) -> np.ndarray:
        out = np.eye(a.shape[0], dtype=np.int64)
        for _ in range(n):
            out = self.mmul(a, out)
        return out

    def rank(self, a: np.ndarray) -> int:
        m = np.array(a, dtype=np.int64)
        rank = 0
        for col in range(m.shape[1] if m.ndim == 2 else 0):
            rows = [i for i in range(rank, m.shape[0]) if m[i, col]]
            if not rows:
                continue
            m[[rank, rows[0]]] = m[[rows[0], rank]]
            m[rank] = self.mul_t[self.inv_t[m[rank, col]], m[rank]]
            for i in range(m.shape[0]):
                if i != rank and m[i, col]:
                    m[i] = self.add_t[m[i], self.neg_t[self.mul_t[m[i, col], m[rank]]]]
            rank += 1
        return rank

    def nil_index(self, k: np.ndarray):
        """Least n >= 1 with k^n = 0, or None when k is not nilpotent."""
        acc = np.eye(k.shape[0], dtype=np.int64)
        for n in range(1, k.shape[0] + 1):
            acc = self.mmul(k, acc)
            if not acc.any():
                return n
        return None if k.shape[0] else 1


def _monomial_action(F: Field, actions, exps) -> np.ndarray:
    out = np.eye(actions[0].shape[0], dtype=np.int64)
    for X, e in zip(actions, exps):
        out = F.mmul(F.mpow(X, e), out)
    return out


def _equivariant(F: Field, kind: str, actions, s: np.ndarray) -> bool:
    for X in actions:
        Xq = F.mpow(X, F.q)
        if kind == CARTIER:
            lhs, rhs = F.mmul(s, Xq), F.mmul(X, s)
        else:
            lhs, rhs = F.mmul(s, X), F.mmul(Xq, s)
        if not np.array_equal(lhs, rhs):
            return False
    return True


def facts(F: Field, mdoc: dict) -> dict:
    """What the checks need to know about one module of a problem file."""
    kind = mdoc.get("kind", CARTIER)
    if mdoc.get("tier") == "pid":
        out = {"tier": "pid", "kind": kind, "torsion_dim": 0, "torsion_nil": True,
               "free_rank": 0, "u_zero": True, "valid": True}
        if "torsion" in mdoc:
            x = F.arr(mdoc["torsion"]["x_action"])
            s = F.arr(mdoc["torsion"]["structure"])
            out.update(torsion_dim=x.shape[0],
                       torsion_nil=F.nil_index(s) is not None,
                       valid=F.nil_index(x) is not None and _equivariant(F, kind, [x], s))
        if "free" in mdoc:
            out.update(free_rank=len(mdoc["free"]),
                       u_zero=all(not any(int(c) % F.q for c in u) for u in mdoc["free"]))
        return out
    actions = [F.arr(a) for a in mdoc["carrier"]["actions"]]
    s = F.arr(mdoc["structure"])
    dim = s.shape[0]
    valid = all(np.array_equal(F.mmul(a, b), F.mmul(b, a))
                for a, b in itertools.combinations(actions, 2))
    valid = valid and all(not _monomial_action(F, actions, rel).any()
                          for rel in mdoc["ring"]["relations"])
    out = {"tier": "artinian", "kind": kind, "dim": dim, "nil": F.nil_index(s),
           "valid": valid and _equivariant(F, kind, actions, s)}
    if kind == FROBENIUS:
        # Sol at the closed point is the fixed space of the semilinear map
        # induced by tau on V = M / mM.  Over GF(q^s) its F_q-dimension is
        # the nullity of tau^s - 1 on V (Galois descent), that is
        # dim M - rank[tau^s - 1 | X_1 .. X_n]; the geometric dimension is
        # the stable rank of tau on V, rank[tau^dim | X] - rank[X].
        xs = np.hstack(actions) if actions else np.zeros((dim, 0), dtype=np.int64)
        eye = np.eye(dim, dtype=np.int64)
        out["sol_dim"] = {n: dim - F.rank(np.hstack([F.msub(F.mpow(s, n), eye), xs]))
                          for n in (1, 2)}
        out["geometric_dim"] = F.rank(np.hstack([F.mpow(s, dim), xs])) - F.rank(xs)
    return out


def _opposite(kind: str) -> str:
    return FROBENIUS if kind == CARTIER else CARTIER


def _perverse_expected(f: dict, degree: int) -> bool:
    """Middle perversity of one module placed in degree -1, 0 or 1:
    generic stalk H^d for d > -1 needs the free part crystal-zero (all
    multipliers zero), the closed stalk for d > 0 needs both parts, and
    local cohomology for d < 0 needs the torsion part nilpotent."""
    ok = True
    if degree > -1:
        ok = ok and f["u_zero"]
    if degree > 0:
        ok = ok and f["torsion_nil"] and f["u_zero"]
    if degree < 0:
        ok = ok and f["torsion_nil"]
    return ok


def check(F: Field, cmd: dict, res: dict, f: dict) -> str | None:
    """None when `res` has the properties the method must have, else why not."""
    op = cmd["op"]
    if op != "validate" and not f["valid"]:
        return "input module is invalid"
    if op == "validate":
        if res.get("ok") is not f["valid"]:
            return f"validate says {res.get('ok')}, oracle says {f['valid']}"
        return None
    if op == "perverse":
        degree = int(cmd.get("degree", 0))
        if degree not in (-1, 0, 1):
            raise ValueError("perverse checks are defined for degrees -1, 0, 1")
        want = _perverse_expected(f, degree)
        return None if res.get("ok") is want else f"perverse {res.get('ok')}, want {want}"
    if res.get("ok") is not True:
        return f"ok is {res.get('ok')!r}"
    if op == "nilpotent":
        return None if res.get("index") == f["nil"] else f"index {res.get('index')}, want {f['nil']}"
    if op == "unitalize":
        if f["nil"] is not None:
            return None if res.get("status") == "zero" else f"status {res.get('status')} on a nilpotent structure"
        cert = res.get("certificate") or {}
        if res.get("status") != "unit" or not res.get("dim"):
            return f"status {res.get('status')} with dim {res.get('dim')} on a non-nilpotent structure"
        if not all(isinstance(cert.get(k), int) for k in ("kernel_index", "cokernel_index")):
            return f"certificate indices not finite: {cert}"
        return None
    if op == "double-dual":
        w = np.array(res.get("witness", []), dtype=np.int64)
        if w.shape != (f["dim"], f["dim"]) or F.rank(w) != f["dim"]:
            return "evaluation witness is not an invertible dim x dim matrix"
        return None
    if op == "base-change":
        if res.get("dual") is not True:
            return "dual base change failed"
        if f["kind"] == FROBENIUS:
            sol, s = res.get("sol", {}), int(cmd.get("s", 2))
            want = (f["sol_dim"][s], f["sol_dim"][s], f["geometric_dim"], f["geometric_dim"])
            got = (sol.get("dim_base"), sol.get("dim_ext"), sol.get("geom_base"), sol.get("geom_ext"))
            if got != want:
                return f"sol base change {got}, want {want}"
        return None
    if op == "sol":
        s = int(cmd.get("s", 1))
        want = (f["sol_dim"][s], f["geometric_dim"])
        got = (res.get("dim_fq"), res.get("geometric_dim"))
        return None if got == want else f"sol {got}, want {want}"
    if op == "local-duality":
        verdicts = {v["degree"]: v for v in res.get("verdicts", [])}
        if sorted(verdicts) != [0, 1]:
            return f"verdict degrees {sorted(verdicts)}"
        if any(v["local_zero"] != v["ext_zero"] for v in verdicts.values()):
            return "local and Ext verdicts disagree"
        if verdicts[0]["local_zero"] != f["torsion_nil"]:
            return "degree-0 verdict differs from torsion nilpotency"
        if verdicts[1]["ext_zero"] != f["u_zero"]:
            return "degree-1 Ext verdict differs from u = 0"
        return None
    if op == "dualize":
        want = {}
        if f["torsion_dim"]:
            want["0"] = {"torsion_dim": f["torsion_dim"], "free_rank": 0,
                         "kind": _opposite(f["kind"])}
        if f["free_rank"]:
            want["-1"] = {"torsion_dim": 0, "free_rank": f["free_rank"],
                          "kind": _opposite(f["kind"])}
        return None if res.get("terms") == want else f"dual terms {res.get('terms')}, want {want}"
    raise ValueError(f"no check for command {op!r}")
