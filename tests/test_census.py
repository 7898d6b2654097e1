"""One pinned census of the small-prime pipeline: every family member and
its twist at every prime 5 <= p <= 64 run through search's own calls
(build_family_curve, Endo, determine_r on the oracle trace, group_orders),
then the eigenvalue and basis variant of the subgroup that info reads.

It is not an oracle check: the grids that compare with the oracle, the
affine Curve and brute force stay where they are.  It pins what the
pipeline returns, so a rewrite of its internals that changes one output,
or one refusal's class or message, fails the cell it changed.  A re-pin
is a change of behaviour, to be declared with the cases that changed."""

import hashlib

from qcurve.errors import DomainError
from qcurve.families import FAMILY_DEGREES, Endo, build_family_curve, determine_r, group_orders
from qcurve.fields import FieldCtx, factorize, legendre
from qcurve.glv import subgroup_basis

CENSUS_PRIMES = [p for p in range(5, 65) if all(p % q for q in range(2, p))]


def census_fields(p):
    """The least nonresidue delta, and delta = -1 at p = 3 (mod 4)."""
    least = next(x for x in range(2, p) if legendre(x, p) == -1)
    return [FieldCtx(p, delta) for delta in ((p - 1, least) if p % 4 == 3 else (least,))]


def _refusal(exc):
    return type(exc).__name__, str(exc)


def census_rows(d, ctx, s):
    """The member's row and its twist's: r, both orders and psi's isogeny
    (num, den, c, codomain), then (variant, N, eigenvalue) of the subgroup
    basis of the endomorphism's own curve; each stage that refuses records
    the refusal's class and message instead."""
    try:
        fam = build_family_curve(d, ctx, s)
    except DomainError as exc:
        return [(s, _refusal(exc))]
    rows = []
    for twisted in (False, True):
        endo = Endo(fam, twisted=twisted)
        iso = endo.isogeny
        A, B = iso.codomain.A, iso.codomain.B
        row = [s, twisted, iso.num, iso.den, iso.c.a, iso.c.b, A.a, A.b, B.a, B.b]
        try:
            r = determine_r(endo)
        except DomainError as exc:
            rows.append((*row, _refusal(exc)))
            continue
        orders = group_orders(endo, r)
        row += [r, orders]
        try:
            variant, basis = subgroup_basis(endo, r, factorize(orders[twisted]))
            row.append((variant, basis.order, basis.eigenvalue))
        except DomainError as exc:
            row.append(_refusal(exc))
        rows.append(tuple(row))
    return rows


def census_digests():
    """SHA-256 of the rows of each (d, p) cell, over its fields and every s."""
    digests = {}
    for d in FAMILY_DEGREES:
        for p in CENSUS_PRIMES:
            digest = hashlib.sha256()
            for ctx in census_fields(p):
                for s in range(p):
                    digest.update(repr((ctx.delta, census_rows(d, ctx, s))).encode())
            digests[d, p] = digest.hexdigest()
    return digests


CENSUS = {
    # d = 2
    (2, 5): "073a0c1c13cf36e29def068235c7e41d1a4a7e3043ce92a596b6f85ffc99a3c6",
    (2, 7): "2462daa8cf0f8a6e9999491233a1e8e581c7d8f6b95fb1d35317518abe14ba50",
    (2, 11): "1f2ff4a5f29afe75c1e067173373690a4d98941df50f04d6c980b040b82e1434",
    (2, 13): "091f3aff16bd20e87e32dedb36174fea61f6bfe4b67e066317c0cdefef7a1445",
    (2, 17): "07caee0431d8aed6385764453658e934e61f54a7bf433a295559feff0ac381b0",
    (2, 19): "6ec2b457d9340923f01d0b6a47f6101ac36b84bada2e944992a5a035d72b3a5d",
    (2, 23): "d73ef2bd95eac9ed701617d930cc92afdaf3a223af7a24d5a013ab22a35db4f2",
    (2, 29): "0c5abb96d7b59e7e882725dceae02af703ed1cb076a1c63d44a7c1aa9b3a74af",
    (2, 31): "e80709ac7aa278403cd127e712023ac564f043b23ae5a524f9f741cf68f07cb4",
    (2, 37): "d0253598a27c25f6f81af1a606ee9b13d713aa3cfad48f0a4b1557d521eca92a",
    (2, 41): "1db28d45b98a9c140e6fa8ba2f76218b6aceeb610030252882ef50b30371af63",
    (2, 43): "f19e8da1fa76197984182e50d483b5a5a8d4a18e79f6d51ce93e5f4fe780b93f",
    (2, 47): "9b75451217a9e47e99e2577063d553c4090f3cfff790e3303b6a61bc0c542d8c",
    (2, 53): "0b5cf19a1658585788ae049aafdf91d7c8fbd72767f8a6839d693ec41d896e4c",
    (2, 59): "2ea1c08197756142873ba5aa3aef389d1d5eb91a452fd78b25d167dba4dc8cd5",
    (2, 61): "517431f2b5669386a6f626d327d2e70c094206af46e30f013ca189e1a85b2ce9",
    # d = 3
    (3, 5): "b2c6d2684e2c3edd7842fafcfdfeebdbe10c04d8c871d3a799290e83d55446eb",
    (3, 7): "d3c6abf82c61108a847c94e8f98ed7fe17081af02c97afdab3b25bd03a3fe922",
    (3, 11): "ddb9d8b9ef71d4b3a3724fb889e82c56829ceeef7fa16bab37b1d57d02f8961f",
    (3, 13): "9478de5f51048b4c4d854d780b3d66b83871d90eb30b189294bd5c6c57b9d7c3",
    (3, 17): "355b1e07f18f46a1b3957650fb3ad4f5bdcfb872a51ea091ca23a1855d7b3529",
    (3, 19): "4676b7c4f441d5b00743b8792c49a626a5b9e16a9cc6b40db760539da3bf3807",
    (3, 23): "800b52920ce91a279b97fa8f06261e6091dfe5441c624cefa56950dfb9c138f1",
    (3, 29): "a05fb629c83350421fef83120a2755cbc6f3d47caeed32d1da0c2547d9815282",
    (3, 31): "44aa95f05b32e45869683085e0c51b0d81fcbf46752906fed15961fa3811eba9",
    (3, 37): "db6208b74c2f2c6bf389f63f401e8c16fccbdbbb5bdce76d754ef8b0d9193847",
    (3, 41): "2ba8d72abe5ea50416b64b631ab9521d69e070f595def8af8e007f0527e3f5e4",
    (3, 43): "1a3b6488c54ef5201f824d57028975098b593478d752bac18860492e3814a4c5",
    (3, 47): "a01055c362b2e4e7b38f0babdf3769b14a8b3cc1a80dc6a64e00a88627828794",
    (3, 53): "c5ab19293bb8dc1378c2b2ab3a2cc92e8f8b3508f48bd6441067fb2a625a6487",
    (3, 59): "fe71738ac08b39d4f41c4dd2176c52f2b9c7cd7020b55159d3f736881442ff5d",
    (3, 61): "e08f0a8bd0a826d1f5a1eae355538ced7684de0b7d86cd9f467b538cfe679a20",
    # d = 5
    (5, 5): "3f129c0aa064c087ac6b9ab849a008f983dc417801e8fea34adba741fef9520b",
    (5, 7): "b6670bff773c2137f7674d12796f73ee29cc44314afd250839f52c1c1af970ca",
    (5, 11): "4de9bc09df30f5b05934c22ce6bea63678c543c0198573de9c07fa454e73ec7d",
    (5, 13): "bf754b77250d7f47f574ae4ec5380c4134b498686a4ad6183c56a04d8d2e286a",
    (5, 17): "7a05318ef78920a4e872aa9cfb3bbd728a766ef69a032b8fb970f4f45e4a40b6",
    (5, 19): "981c81dfaecee0004cdd0ec6cb9b6105862522a98b748645ce316003b4c154f4",
    (5, 23): "09508803ace53988b9ed1c76ac58fdad131ef14823db913ccae8c01ea073e966",
    (5, 29): "bd9e1825f458cb177222ba6f0085265471c4ea581c9e67e13745f913a3cb470e",
    (5, 31): "78d2f39b680f26203114cf5ef722ca30b9c08c60d19c549f3f719b58d3e49579",
    (5, 37): "374e4c711574fec179b54980e6d2e3ed2aaed79d27fe585e736a1bc0cd04a898",
    (5, 41): "796c33e8dc3dc5ea8fd3be608ecd43b1a8ea46bfaf3bd6a6551f844dfe25dfb4",
    (5, 43): "db0bbbdda9fe4d770b839eeacb538cbc9dbe28c5ae13f7eecce78e5539a104d6",
    (5, 47): "8769e060a0c78fcbd331f69b07e0ebfdb11117df0f1a75fafca77e70aaae515a",
    (5, 53): "96979e36c82745e174930165eada489479116ba69e1449f74c6371a70dd1a1da",
    (5, 59): "3d2ae950231a660ae09474bba61480b8203062572381b956b109ae8afb4dd607",
    (5, 61): "51527654f40a197b228783742f614d50f4166776d62c532b2577aa4f3b78dbed",
    # d = 7
    (7, 5): "749a1efc9e9ffff2dcd0ef9d2da7516f760df754a4f67bd88adf63dcb0b74910",
    (7, 7): "80709c975d3aa1dd0f8f8127a9f1525c680b86d180db88a8d9bf49bb3c336e51",
    (7, 11): "05bccc391ce747baf492402a22391270df2a5735f5a609652206c140d9ddb5c9",
    (7, 13): "2aa832f679e426872c439119e860ab862e7a089fef7d2a3f6821058f1363b13b",
    (7, 17): "4811cb1ffa0b8d99dd7c531b4ded9de2744c1d28324c4a2eb18f0b38fcc4ecd3",
    (7, 19): "d473925f461e0cd7b998c2d9e212f9986836611c3a386238fd627d6f33983735",
    (7, 23): "09e9af07064703b3f568609c5a2e75a123e151ab11dac9391f1392b56627cb29",
    (7, 29): "ca1aa6310cdb884e142ec9d1d3ad855c53842f35cb123bd2a625dd3463a27e1e",
    (7, 31): "681825e3a6fb8023344a7f93dbc7a5efb7da8b28d6dc963f1bed026b1a735d95",
    (7, 37): "bad225dd6e1b39e99479ac782aa3167200918f3cf76afc2aca881016d674a8cb",
    (7, 41): "afb878a917b537debdd10ebe5717ff1059245ff0122f5edc05ff07c5f9f42562",
    (7, 43): "462f45a6276b324e8f0686fac7eb701d06716bcbcfa318c0865536de451a0427",
    (7, 47): "39abdf09cc4bfd6ceb00bb0201e27dbc5fd4b022e83a792fd553b2a0c57ee7fa",
    (7, 53): "000f15efe6bb99d7997136f63bfa69e37ce42bdd56d6446d5352d3cb99c08bc9",
    (7, 59): "74c77e2a89db21449706d4ea1f1f8b215e46fdfcf3290d6e8d660932933061c9",
    (7, 61): "6f8da25f27c5dbad956931d93cc99032714cdca7b1f8186f49feacf1b0315293",
}


def test_small_prime_census():
    got = census_digests()
    changed = [cell for cell in got if got[cell] != CENSUS.get(cell)]
    assert not changed, f"census cells (d, p) changed: {changed}"
    assert list(got) == list(CENSUS)
