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

A `Decomposition` keeps the remainder class that `decompose_canonical`
sums in integers by one _sum_terms call, nu being its one Fraction; c and
c_prime are read off it, and `certificate_json` writes each of their "p/q"
lists by one _ratios call, which the text certificate prints too.

Everything the arithmetic cannot certify (effectivity of the auxiliary
divisor, bigness of lambda, extension of pluricanonical forms) is carried
on the certificate as a named hypothesis, not silently assumed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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
    remainder is the spin-side class of the ai / bi remainders, None when
    the divisor spec carries no boundary coefficients: their non-negativity
    is then conditional, and no ai / bi slot is summed. c and c_prime read
    its ai and bi coefficients, i = 1..h, as Fraction tuples.
    """

    __slots__ = __match_args__ = ("d_spec", "nu", "remainder")

    def __init__(self, d_spec: catalog.DivisorSpec, nu: Fraction, remainder: DivisorClass | None) -> None:
        self._init(d_spec=d_spec, nu=nu, remainder=remainder)

    def _numerators(self, family: str) -> list[int]:
        """The remainder's numerators at the labels family[1..h] of its own genus: "a" for c, "b" for c'."""
        num, ctx = self.remainder.num, self.remainder.ctx
        return [num.get(label, 0) for label in getattr(_spelled(ctx.g), family)[1:ctx.h + 1]]

    @property
    def c(self) -> tuple[Fraction, ...] | None:
        return None if self.conditional else tuple([Fraction(n, self.remainder.den) for n in self._numerators("a")])

    @property
    def c_prime(self) -> tuple[Fraction, ...] | None:
        return None if self.conditional else tuple([Fraction(n, self.remainder.den) for n in self._numerators("b")])

    @property
    def conditional(self) -> bool:
        return self.remainder is None

    def remainders_nonnegative(self) -> bool:
        if self.conditional:
            raise VerificationFailureError("remainders are conditional; no sign information")
        # den is positive, so a numerator carries its sign; decompose_canonical leaves only c_i and c'_i stored
        return min(self.remainder.num.values(), default=0) >= 0


def decompose_canonical(ctx: GenusCtx, spec: catalog.DivisorSpec) -> Decomposition:
    """Decompose the spin-side canonical class against 8*theta + scaled D.

    D is the class that spec holds. The remainder
    canonical_s - nu*lambda - 8*theta - (3/(2*b0))*pullback(D) is one
    _sum_terms call over integer groups, with nu read off the lambda slots
    as one integer combination, so it stores no lambda, and its a0 and b0s
    slots must vanish whatever the divisor. nu is the one Fraction built.
    Without b_i, D = a*lambda - b0*d0, the remainders stay conditional, and
    the call sums only the lambda, a0 and b0s pairs: no ai / bi is summed.
    """
    if spec.ctx != ctx:
        raise GenusMismatchError(f"divisor is for genus {spec.ctx.g}, expected {ctx.g}")
    k, theta, d = catalog.canonical_s(ctx), catalog.thetanull_class(ctx), transfer.pullback(spec.divisor)
    # pullback keeps D's den, and b0*den = -D.num["d0"], so (3/(2*b0))*pullback(D) is 3*d.num over 2*b0*den
    groups = [(1, k.den, k.num), (-8, theta.den, theta.num), (-3, -2 * spec.divisor.num["d0"], d.num)]
    den = lcm(*(q for _, q, _ in groups))
    nu = sum([n * (den // q) * num.get("lambda", 0) for n, q, num in groups])  # over den
    terms = [(n, q, num.items() if spec.complete else [(l, num[l]) for l in ("lambda", "a0", "b0s") if l in num])
             for n, q, num in groups]
    remainder = _sum_terms(ctx, S_SIDE, [*terms, (-nu, den, (("lambda", 1),))])
    for label in ("a0", "b0s"):
        if label in remainder.num:
            raise VerificationFailureError(f"nonzero {label} remainder {remainder[label]}")
    return Decomposition(spec, Fraction(nu, den), remainder if spec.complete else None)


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


def certificate_json(cert: KodairaCertificate) -> dict:
    """The certificate in its external JSON shape; every rational is "p/q"."""
    dec = cert.decomposition
    rest = None if dec is None else dec.remainder

    def remainders(family: str) -> list[str] | None:  # the one writer of c and c'
        return None if rest is None else _ratios(dec._numerators(family), rest.den)

    return {
        "genus": cert.ctx.g,
        "verdict": cert.verdict,
        "nu": None if dec is None else str(dec.nu),
        "rk": None if cert.rk is None else str(cert.rk),
        "c": remainders("a"),
        "c_prime": remainders("b"),
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
