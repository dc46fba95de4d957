"""Frozen SHA-256 digests of exact values, pinned through series refactors.

Each case hashes the repr of a canonical form of a library value:
partition tables as sorted (partition, coefficient) pairs, q-series as
their coefficient lists.  They pin the universal tables through
dimension 32 and the cross-checked values on six models exactly, beyond
the weights the independent oracles reach, so a change to how the genus
series are built cannot move a single value unnoticed.

To refresh a digest after an intended change of value, print
``_digest(CASES[name]())`` for the case.
"""
import hashlib
from collections.abc import Mapping

import pytest

from ellcob.algebra import QSeries
from ellcob.cli import parse_manifold
from ellcob.genera import (
    ahat,
    ahat_sequence,
    elliptic_polynomials,
    elliptic_q_coefficients,
    l_sequence,
    signature,
    twist_character,
    twisted_ahat_polynomial,
    twisted_ahat_tangent,
)


def _canonical(value):
    if isinstance(value, Mapping):
        return sorted((key, _canonical(c)) for key, c in value.items())
    if isinstance(value, QSeries):
        return [_canonical(c) for c in value.coeffs]
    if isinstance(value, (list, tuple)):
        return [_canonical(c) for c in value]
    return value


def _digest(value) -> str:
    return hashlib.sha256(repr(_canonical(value)).encode()).hexdigest()


# the first four are spin or have an HP factor, so most of their values
# vanish; the last two are not spin and carry nonzero values throughout
MODELS = ("X12xHP:2:c=2", "pb:9:[1,2,-1,0]", "hp:6", "prod(cp:2,hp:3)", "pb:6:[1,2,0]", "prod(cp:2,cp:4)")

CASES = {}
for _k in range(1, 9):
    CASES[f"elliptic_polynomials({_k},{_k})"] = lambda k=_k: elliptic_polynomials(k, k)
    CASES[f"l_sequence({_k}).top"] = lambda k=_k: l_sequence(k).polynomial(k)
    CASES[f"ahat_sequence({_k}).top"] = lambda k=_k: ahat_sequence(k).polynomial(k)
    CASES[f"twisted_ahat_polynomial({_k})"] = lambda k=_k: twisted_ahat_polynomial(k)
CASES["elliptic_polynomials(3,32)"] = lambda: elliptic_polynomials(3, 32)
CASES["twist_character(8,9)"] = lambda: twist_character(8, 9)
for _text in MODELS:
    CASES[f"elliptic_q_coefficients({_text},6)"] = lambda t=_text: elliptic_q_coefficients(parse_manifold(t)[0], 6)
    for _genus in (signature, ahat, twisted_ahat_tangent):
        CASES[f"{_genus.__name__}({_text})"] = lambda t=_text, g=_genus: g(parse_manifold(t)[0])

FROZEN = {
    'ahat(X12xHP:2:c=2)': 'b48b53d167e9268f349ceb0698bdc63ba167f724613aa5825f4c96e224b44120',
    'ahat(hp:6)': 'b48b53d167e9268f349ceb0698bdc63ba167f724613aa5825f4c96e224b44120',
    'ahat(pb:6:[1,2,0])': '9c95bc7463d5ca6d8a3894d7f519c19b5d8a2fe90070775e4abbba64c890f526',
    'ahat(pb:9:[1,2,-1,0])': 'b48b53d167e9268f349ceb0698bdc63ba167f724613aa5825f4c96e224b44120',
    'ahat(prod(cp:2,cp:4))': 'cc7d59ab4ae8df12a2e4923133cb7a29a9d7d7ec8afa73694841300d37e40a66',
    'ahat(prod(cp:2,hp:3))': 'b48b53d167e9268f349ceb0698bdc63ba167f724613aa5825f4c96e224b44120',
    'ahat_sequence(1).top': '802608b1056bfaa602ed72c468d10a68c11b5ed25e4811234621492f935fed13',
    'ahat_sequence(2).top': '1d4fdc024a0962cd565e329fd671cfc9fd18f52498bbf6cc5ad5d99a2257ac73',
    'ahat_sequence(3).top': '1a02fa7b3bdf6ab2bc31034cb35ba19297615d3ddb5a81338db6d7c2428b3815',
    'ahat_sequence(4).top': '36ef6e88b3636ac33e163364873836a17c723b3d49deb458106e3a7b061f2bb6',
    'ahat_sequence(5).top': '7f790df78356fac4cf9c32e0f108f62a3f8e2f9d8fc36793e160558a85ba1bcf',
    'ahat_sequence(6).top': '50e3fdbfcbbad2dcebca8ab7f9d78200c4b2a58e4b4914e25b35515bcc5ee9c9',
    'ahat_sequence(7).top': 'f01aa7ed9261379ed1177efce12a2b57c3cec1e5c58b10d5c52419bef763c851',
    'ahat_sequence(8).top': '9a448c33fb33fb26d358fd7eb61d4bbf033ed65e0654467d0cf3eaf77c72f2fd',
    'elliptic_polynomials(1,1)': '79d7439d9b742355353b12108e4ca1fbac07f69679728f805d8284d7a75cbe68',
    'elliptic_polynomials(2,2)': 'af0e713a732470c5af04ca6535652e06d4c5208211e58d967c0ee350865a2f1b',
    'elliptic_polynomials(3,3)': 'da403e7070317112bb96f674a9dd00f3b61789cdeda4490048ae81474950f972',
    'elliptic_polynomials(3,32)': '75695e608fac173537ccf1d58f6f6b613d3bdebaf855c3f0213018c9c4404a5c',
    'elliptic_polynomials(4,4)': '467707db6385973b8972e562ea69247114a9843b55b278ff577ddac1c869b401',
    'elliptic_polynomials(5,5)': '53cd8c70d074f11689088bc9e7e253810b354aaec974b78c4576b001c352d5b1',
    'elliptic_polynomials(6,6)': '418282b552595a3c4f2b0aea2e97a92a65fbcc96336662b7927b68f5080e699a',
    'elliptic_polynomials(7,7)': 'dc18dd518f886bb0bfe0e6f538574681eaebd88838e3343d0621f01d9791095f',
    'elliptic_polynomials(8,8)': 'e87c39bccc1a1cc2510fa497fffa47c9eb571de130f77a60c9c63c0017e1505d',
    'elliptic_q_coefficients(X12xHP:2:c=2,6)': 'b88f71958a1a4ed26d4776cc6cb18f98640460a950516403d76da4ae1ab2a7bc',
    'elliptic_q_coefficients(hp:6,6)': '2238a0817ed00826b7a4e89bded8d846265bb1c95c52780ba4f5ac94449418b2',
    'elliptic_q_coefficients(pb:6:[1,2,0],6)': 'e564078bc9b730a2f3b06741592f27177a3e246505e3f19376d183b35ba37497',
    'elliptic_q_coefficients(pb:9:[1,2,-1,0],6)': 'b88f71958a1a4ed26d4776cc6cb18f98640460a950516403d76da4ae1ab2a7bc',
    'elliptic_q_coefficients(prod(cp:2,cp:4),6)': '68f4de5b6351a74d472bdc1702eed3a293b6ca78bd08a521ca27320590ca4d9e',
    'elliptic_q_coefficients(prod(cp:2,hp:3),6)': 'b88f71958a1a4ed26d4776cc6cb18f98640460a950516403d76da4ae1ab2a7bc',
    'l_sequence(1).top': 'db64a00f5a45eb0b55f541202aca840aec63ae818deca2908666f9ac1099e4c7',
    'l_sequence(2).top': '37477973755ccecf16452091a3acb78eb475f22f7488176a6cbf62e82d756887',
    'l_sequence(3).top': '2563b6fe09b1b99d9eb92b527c03f1be7b327233150434a5c44ba89154f68fce',
    'l_sequence(4).top': 'a5534e0266905a3dd6d01600f151c45a28583dd0125fae46fbdbe426144c5a2a',
    'l_sequence(5).top': '6655fe2de6bb02645701202bdbc622dad0699ed5af08b7c7b19b10574a611904',
    'l_sequence(6).top': '71c11b3195f47151e26d15599c960f7980dfec65883bbf6376869da65620d0f3',
    'l_sequence(7).top': 'e1f65b69340e72cbb5229a5d7ded2df989cfa87f663507e5af49885ec7af225b',
    'l_sequence(8).top': 'ffeb1f0e3d7d00c450a22aab30e0ad76622a3ab066beb444fed32c2c1b310e14',
    'signature(X12xHP:2:c=2)': 'b48b53d167e9268f349ceb0698bdc63ba167f724613aa5825f4c96e224b44120',
    'signature(hp:6)': '677761ef40ed56829b26484730f17ebca43c0269790d76d55b0c005e88c5c4e0',
    'signature(pb:6:[1,2,0])': '677761ef40ed56829b26484730f17ebca43c0269790d76d55b0c005e88c5c4e0',
    'signature(pb:9:[1,2,-1,0])': 'b48b53d167e9268f349ceb0698bdc63ba167f724613aa5825f4c96e224b44120',
    'signature(prod(cp:2,cp:4))': '677761ef40ed56829b26484730f17ebca43c0269790d76d55b0c005e88c5c4e0',
    'signature(prod(cp:2,hp:3))': 'b48b53d167e9268f349ceb0698bdc63ba167f724613aa5825f4c96e224b44120',
    'twist_character(8,9)': '3552a5fb6f739de59cb133e9959d58a3d91273e1392719b67f86d237d51b0e01',
    'twisted_ahat_polynomial(1)': '3b8f45ad812522c0419c708853d873655af88dcc20f9c3b2b001030c37c57b3b',
    'twisted_ahat_polynomial(2)': '6deece94b4b8a6e6d561602759164ef5a90f542d4e808431b1db09cd52589023',
    'twisted_ahat_polynomial(3)': 'c4880ee3a5648bd35c358f71200b8c0f859d7b77f828ce280c298e04a734c82c',
    'twisted_ahat_polynomial(4)': 'b6e947f476d49f872e3a5f141fa58f55ef0f690b4bfaf8c4458ffba91b2bc15e',
    'twisted_ahat_polynomial(5)': '1a2fcac66faf18bf876d06857149fa95121647d3e3a5b45ead4ee4871c17a8ff',
    'twisted_ahat_polynomial(6)': '44b1537292f6aaa2eb2c95adcd20753e1a81664068d8375023b4b768d724d3bf',
    'twisted_ahat_polynomial(7)': 'efa50ce32971f27f72f2689c86753a326faca360dca30866d261c35662121da7',
    'twisted_ahat_polynomial(8)': '0d25523ecc52117877dc685edb430b58b3b802a084e8ab0bcad65595600315a2',
    'twisted_ahat_tangent(X12xHP:2:c=2)': 'b48b53d167e9268f349ceb0698bdc63ba167f724613aa5825f4c96e224b44120',
    'twisted_ahat_tangent(hp:6)': 'b48b53d167e9268f349ceb0698bdc63ba167f724613aa5825f4c96e224b44120',
    'twisted_ahat_tangent(pb:6:[1,2,0])': 'c428b86ae72b69df8475bd197ffd0c63378619324fa8e2643ca9f22c20ff7805',
    'twisted_ahat_tangent(pb:9:[1,2,-1,0])': 'b48b53d167e9268f349ceb0698bdc63ba167f724613aa5825f4c96e224b44120',
    'twisted_ahat_tangent(prod(cp:2,cp:4))': 'd192009fabdd0785087a9c9dabfa57544855a885d6cc80c8c5a7bb8896a05337',
    'twisted_ahat_tangent(prod(cp:2,hp:3))': 'b48b53d167e9268f349ceb0698bdc63ba167f724613aa5825f4c96e224b44120',
}


def test_every_case_is_frozen():
    assert sorted(FROZEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_frozen_digest(name):
    assert _digest(CASES[name]()) == FROZEN[name]
