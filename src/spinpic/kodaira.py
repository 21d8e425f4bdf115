"""Kodaira-type classification of the even spin moduli space, genus by genus.

The engine certifies one of three verdicts with exact rational evidence:

* UNIRULED (3 <= g <= 7): the covering curve R pairs negatively with the
  canonical class.
* KAPPA_NONNEGATIVE (g = 8): the canonical class decomposes with nu = 0.
* GENERAL_TYPE (g >= 9): the decomposition has nu > 0 and, when the
  auxiliary divisor is completely known, non-negative boundary remainders.

The choice of evidence lives in `_rk_is_evidence` alone, and the three sign
rules in `certify` alone. `classify` gathers that evidence and ends in
`certify`; `verify` runs `certify` on the evidence it has already computed.

`decompose_canonical` computes each slot of the decomposition as an
integer from the slot forms of K and theta, D's numerators and the pullback
rule, and builds no class. It reads D's di numerators by position, in one
pass over the values that DivisorSpec stores in the order lambda, d0, d1,
..., dh. A `Decomposition` keeps nu, its one Fraction, and c and c' as
integers over their lcm den, not reduced: lowest terms are taken only where
a value is read, by Fraction in c and c_prime, in remainder by the one
class kernel, picard._sum_terms, and in `certificate_json` (which the text
certificate prints too) by _remainders, which writes both lists from one
gcd map where c'_i - c_i is a multiple of den, as it is for the paper's
forms, and each list by its own _ratios call otherwise.

Everything the arithmetic cannot certify (effectivity of the auxiliary
divisor, bigness of lambda, extension of pluricanonical forms) is carried
on the certificate as a named hypothesis, not silently assumed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice, repeat
from math import gcd, lcm

from . import catalog, testcurves, transfer
from .errors import GenusMismatchError, VerificationFailureError
from .picard import S_SIDE, DivisorClass, GenusCtx, _ratios, _spelled, _sum_terms, _Value

UNIRULED = "UNIRULED"
KAPPA_NONNEGATIVE = "KAPPA_NONNEGATIVE"
GENERAL_TYPE = "GENERAL_TYPE"

FLAG_CONDITIONAL = "CONDITIONAL"
FLAG_EXTRAPOLATED = "EXTRAPOLATED"
FLAG_FORMAL_BASIS = "FORMAL_BASIS"

# The divisor construction is tabulated for 3 <= g <= 22; beyond that the
# same rule is evaluated but the certificate is stamped EXTRAPOLATED.
MAX_TABULATED_GENUS = 22
# R . K is the evidence up to this genus, the decomposition of K from the next one on.
MAX_RK_GENUS = 7


def _rk_is_evidence(g: int) -> bool:
    """Whether genus g's evidence is R . K rather than the decomposition: the one comparison with MAX_RK_GENUS."""
    return g <= MAX_RK_GENUS


class Decomposition(_Value):
    """Canonical = nu*lambda + 8*theta + (3/(2*b0))*pullback(D) + remainder.

    nu is what the lambda slot leaves of canonical - 8*theta - (3/(2*b0))*pullback(D).
    The remainder's ai and bi coefficients, i = 1..h, are c_num and
    c_prime_num over den > 0, the decomposition's lcm denominator, not
    reduced; all three are None when the divisor spec carries no boundary
    coefficients, whose non-negativity is then conditional. c and c_prime
    read them as reduced Fraction tuples, and remainder builds their class,
    in lowest terms by the kernel, on each read. c_num and c_prime_num are
    decompose_canonical's affine maps of D's di numerators: when the
    pullback rule gives ai and bi one multiplicity, c'_i - c_i is one
    integer for every i >= 2 and one at i = 1, the shape that
    certificate_json's writer relies on.
    """

    __slots__ = __match_args__ = ("d_spec", "nu", "den", "c_num", "c_prime_num")

    def __init__(self, d_spec: catalog.DivisorSpec, nu: Fraction, den: int | None,
                 c_num: tuple[int, ...] | None, c_prime_num: tuple[int, ...] | None) -> None:
        self._init(d_spec=d_spec, nu=nu, den=den, c_num=c_num, c_prime_num=c_prime_num)

    @property
    def c(self) -> tuple[Fraction, ...] | None:
        return None if self.conditional else tuple([Fraction(n, self.den) for n in self.c_num])

    @property
    def c_prime(self) -> tuple[Fraction, ...] | None:
        return None if self.conditional else tuple([Fraction(n, self.den) for n in self.c_prime_num])

    @property
    def conditional(self) -> bool:
        return self.c_num is None

    @property
    def remainder(self) -> DivisorClass | None:
        """The spin-side class sum(c_i*ai + c'_i*bi), built on each read; None when conditional."""
        if self.conditional:
            return None
        table, h = _spelled(self.d_spec.ctx.g), len(self.c_num)
        pairs = zip(islice(table.s, 3, 2 * h + 3), chain.from_iterable(zip(self.c_num, self.c_prime_num)))
        return _sum_terms(self.d_spec.ctx, S_SIDE, ((1, self.den, pairs),))

    def remainders_nonnegative(self) -> bool:
        if self.conditional:
            raise VerificationFailureError("remainders are conditional; no sign information")
        return min(self.c_num) >= 0 and min(self.c_prime_num) >= 0  # den > 0, so a numerator carries its sign


def decompose_canonical(ctx: GenusCtx, spec: catalog.DivisorSpec) -> Decomposition:
    """Decompose the spin-side canonical class against 8*theta + scaled D.

    D is the class that spec holds. Each slot of the remainder
    canonical_s - nu*lambda - 8*theta - (3/(2*b0))*pullback(D) is one
    integer over one lcm denominator, from K's and theta's slot forms
    (catalog), D's numerators and the pullback rule (transfer._PULLBACK):
    no class is built. nu, the one Fraction, is read off the lambda slots,
    and the a0 and b0s slots must vanish. Without b_i, D = a*lambda - b0*d0,
    the remainders stay conditional and only these slots are read; with
    them, each c_i and c'_i is an affine map of D's di numerator and stays
    over den unreduced. The di numerators are read by position, one pass
    over D's stored values from the third on, by DivisorSpec's storage
    order, with no lookup by label.
    """
    if spec.ctx != ctx:
        raise GenusMismatchError(f"divisor is for genus {spec.ctx.g}, expected {ctx.g}")
    (k_den, *k), (t_den, *t) = catalog._CANONICAL_S_FORM, catalog._THETANULL_FORM
    p_lam, p_a0, p_b0s, p_ai, p_bi = transfer._PULLBACK
    num = spec.divisor.num
    d_lam, d0 = num["lambda"], num["d0"]
    den = lcm(k_den, t_den, -2 * d0)
    # K - 8*theta over den at lambda, a0, b0s, a1, b1 and at ai, bi for i >= 2
    lam, a0, b0s, a1, b1, ai, bi = [den // k_den * x - 8 * (den // t_den) * y for x, y in zip(k, t)]
    # pullback keeps D's den, and b0*den = -d0, so (3/(2*b0))*pullback(D) is p times D's images over den
    p = 3 * (den // (-2 * d0))
    nu = Fraction(lam - p * p_lam * d_lam, den)
    for label, n in (("a0", a0 - p * p_a0 * d0), ("b0s", b0s - p * p_b0s * d0)):
        if n:
            raise VerificationFailureError(f"nonzero {label} remainder {Fraction(n, den)}")
    if not spec.complete:
        return Decomposition(spec, nu, None, None, None)
    # c_i and c'_i are affine maps of D's di numerator; i = 1 takes the (a1, b1) slots instead
    d = list(islice(num.values(), 2, None))
    pa, pb = p * p_ai, p * p_bi
    c, c_prime = [ai - pa * n for n in d], [bi - pb * n for n in d]
    c[0] += a1 - ai
    c_prime[0] += b1 - bi
    return Decomposition(spec, nu, den, tuple(c), tuple(c_prime))


def uniruled_certificate(ctx: GenusCtx) -> Fraction:
    """Pairing of the covering curve R with the canonical class, as a Fraction; negative iff g <= 7."""
    return Fraction(testcurves.intersect(testcurves.covering_curve(ctx), catalog.canonical_s(ctx)))


class KodairaCertificate(_Value):
    """Per-genus verdict plus the exact numbers that justify it."""

    __slots__ = __match_args__ = ("ctx", "verdict", "rk", "decomposition", "flags", "annotations", "citations")

    def __init__(self, ctx: GenusCtx, verdict: str, rk: Fraction | None, decomposition: Decomposition | None,
                 flags: tuple[str, ...], annotations: tuple[str, ...], citations: tuple[str, ...]) -> None:
        self._init(ctx=ctx, verdict=verdict, rk=rk, decomposition=decomposition, flags=flags,
                   annotations=annotations, citations=citations)


def _remainders(dec: Decomposition) -> tuple[list[str], list[str]]:
    """c and c' of a complete decomposition as "p/q" lists: the one writer of both.

    With the pullback rule's one multiplicity for ai and bi, c'_i - c_i is
    the bi slot less the ai slot of K - 8*theta, one integer for every
    i >= 2 and one at i = 1, read off the lists' last and first entries.
    Where den divides both, gcd(c'_i, den) = gcd(c_i, den), so one gcd map
    and one _ratios call write both lists; for the paper's forms both are
    4*den. Otherwise, only under a perturbed slot form or pullback rule,
    each list is written by a call of its own.
    """
    c, c_prime, den = dec.c_num, dec.c_prime_num, dec.den
    _, _, _, p_ai, p_bi = transfer._PULLBACK
    if p_ai == p_bi and not (c_prime[0] - c[0]) % den and not (c_prime[-1] - c[-1]) % den:
        both = _ratios(c + c_prime, den, list(map(gcd, c, repeat(den))) * 2)
        return both[:len(c)], both[len(c):]
    return _ratios(c, den), _ratios(c_prime, den)


def certificate_json(cert: KodairaCertificate) -> dict:
    """The certificate in its external JSON shape; every rational is "p/q", and c and c' are written by _remainders."""
    dec = cert.decomposition
    c, c_prime = (None, None) if dec is None or dec.conditional else _remainders(dec)
    return {
        "genus": cert.ctx.g,
        "verdict": cert.verdict,
        "nu": None if dec is None else str(dec.nu),
        "rk": None if cert.rk is None else str(cert.rk),
        "c": c,
        "c_prime": c_prime,
        "flags": list(cert.flags),
        "citations": list(cert.citations),
    }


_RATIONALITY_NOTES = {
    3: "this moduli space is known to be rational via the Scorza map",
    4: "this moduli space is known to be rational (Takagi-Zucconi)",
}


def classify(ctx: GenusCtx, user_d: catalog.DivisorSpec | None = None) -> KodairaCertificate:
    """Classify one genus: gather only the evidence its genus uses, then `certify` it."""
    # a user divisor steeper than the slope bound is rejected at every genus,
    # also where the verdict does not use it
    spec = catalog.choose_d(ctx, user_d)
    if _rk_is_evidence(ctx.g):
        return certify(ctx, uniruled_certificate(ctx), None)
    return certify(ctx, None, decompose_canonical(ctx, spec))


def certify(ctx: GenusCtx, rk: Fraction | None, dec: Decomposition | None) -> KodairaCertificate:
    """Pure: keep only the evidence the genus uses, certify it by its sign rules, add flags, notes and citations.

    rk (the pairing R . K) is that evidence where _rk_is_evidence(g), dec (whose d_spec is D) elsewhere.
    Evidence that is missing or certifies nothing raises VerificationFailureError.
    """
    g = ctx.g
    if _rk_is_evidence(g):
        dec = None
        if rk is None:
            raise VerificationFailureError(f"no R . K evidence at genus {g}")
        if rk >= 0:
            raise VerificationFailureError(f"R . K = {rk} is not negative at genus {g}")
        verdict = UNIRULED
    else:
        rk = None
        if dec is None:
            raise VerificationFailureError(f"no decomposition of the canonical class at genus {g}")
        if dec.nu < 0 or (dec.nu == 0 and g > 8):
            raise VerificationFailureError(
                f"nu = {dec.nu} is {'negative' if g == 8 else 'not positive'} at genus {g}"
            )
        if not dec.conditional and not dec.remainders_nonnegative():
            raise VerificationFailureError(f"negative boundary remainder at genus {g}")
        verdict = KAPPA_NONNEGATIVE if g == 8 else GENERAL_TYPE

    flags: list[str] = []
    annotations: list[str] = []
    if g <= 4:
        flags.append(FLAG_FORMAL_BASIS)
        annotations.append(
            "generation of the rational Picard group by this basis is known for g >= 5 only; "
            "computations below use the formal span"
        )
    if g in _RATIONALITY_NOTES:
        annotations.append(_RATIONALITY_NOTES[g])
    if verdict == UNIRULED:
        citations = [
            "R is a covering curve, so a negative pairing puts the canonical class outside "
            "the pseudo-effective cone",
            "uniruledness of varieties with non-pseudo-effective canonical class "
            "(Boucksom-Demailly-Paun-Peternell)",
        ]
    else:
        annotations.append(
            "the bi coefficient of the combination 8*theta + (3/(2*b0))*pullback(D) "
            "is 4 + 3*b_i/(2*b0); the remainders are computed from the exact identity, "
            "never transcribed"
        )
        if dec.conditional:
            flags.append(FLAG_CONDITIONAL)
            annotations.append(
                "boundary coefficients b_i of D are not recorded here; non-negativity of the "
                "remainders is conditional on b_i/b0 being large enough"
            )
        if g > MAX_TABULATED_GENUS:
            flags.append(FLAG_EXTRAPOLATED)
            annotations.append(
                f"the auxiliary-divisor rule is tabulated for 3 <= g <= {MAX_TABULATED_GENUS}; "
                "this certificate extrapolates it"
            )
        citations = [
            f"effectivity of the auxiliary divisor ({catalog.provenance_name(dec.d_spec.provenance)})",
            "the class lambda is big and nef on the even spin moduli space",
        ]
    if verdict == KAPPA_NONNEGATIVE:
        if dec.nu != 0:
            annotations.append(f"nu = {dec.nu} > 0 here; the certificate still "
                               "only claims non-negative Kodaira dimension at genus 8")
        annotations.append(
            "Kodaira dimension exactly 0 at genus 8 is known, but lies outside what this "
            "decomposition certifies"
        )
    elif verdict == GENERAL_TYPE:
        citations.append("extension of pluricanonical forms over resolutions for g >= 4 (Ludwig)")
    return KodairaCertificate(ctx, verdict, rk, dec, flags=tuple(flags),
                              annotations=tuple(annotations), citations=tuple(citations))
