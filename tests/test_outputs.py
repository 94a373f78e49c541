"""Every output of the public API on fixed seeded inputs, pinned by digest.

A change that is meant to leave results alone, such as a faster route to the
same Schur values, must not move one float bit or one exact value.  Each
(input, operation) pair keeps its own SHA-256 over the reprs of its outputs,
so a failure names what changed.  The inputs cover bands of width 1 to 3
((4,2,0) and (5,3,1,0)), the banded elimination of wider ones ((9,4,0)), the
exact eliminations of order 4 on Gaussian entries, the e-form of the square
band (4,4,4,4) and the 4 x 4 h-forms ((7,6,5,4) and (9,7,5,3,0)), with the
complex window code of their float twins, and real, complex, weighted and
unweighted data, each fitted in exact mode and, converted to binary64, in
float mode.  All inputs draw from one seeded stream, so a new one goes last.
Real-data inputs of the last two shapes are often refused in float by the
degeneracy floor of D (ROADMAP item 14), so they are complex.  The digests are the same under
Python 3.10 to 3.13.

A float digest pins bits, not accuracy, so the float outputs of each input
are also held to the exact outputs of the same binary64 data by a digit
floor.
"""

import hashlib
import math
import random
from fractions import Fraction

from schurfit import DataSet, Exponents, Scalar, b_matrix, extend_b_matrix, fit, init_state, pseudoinverse, update

INPUTS = {
    # name: (degrees, points, complex data, weighted)
    "quartic_real": ((4, 2, 0), 9, False, False),
    "quartic_complex_weighted": ((4, 2, 0), 8, True, True),
    "cubic_four_terms_weighted": ((5, 3, 1, 0), 7, False, True),
    "wide_real_weighted": ((9, 4, 0), 6, False, True),
    "wide_complex": ((9, 4, 0), 5, True, False),
    "square_band_complex_weighted": ((7, 6, 5, 4), 7, True, True),
    "five_terms_complex_weighted": ((9, 7, 5, 3, 0), 7, True, True),
}

DIGESTS = {
    "quartic_real": {
        "fit_exact": "bcfe4b87764519dc449d0745152b94e9f0004c869a0e23f0f12b9099a896cad2",
        "fit_float": "0c55ee3774fe21dd1d8e4b84cb6269cbe4059338fc3a3bcd2098386186d897b4",
        "pseudoinverse_exact": "853496d513de7ecd69e22cbab96abf26b6e6b24bada4851fcac2cbab701a3353",
        "pseudoinverse_float": "04785e71025e49126e70156d03db81e5510aae4eeb4e3eebe1862b3d4bb30e06",
        "b_matrix_exact": "9589521b6487410f3abc34addc527ef7cb3eaa546bdd43d7b03166573cd68043",
        "b_matrix_float": "46a7ad12efba52c96fd3754c940240df395cd6b29135950397d798067877d47e",
        "extend_b_exact": "5d8c90fe91c1ee4e702c9788667a1d5105138999e5d233c052be693dfad5966c",
        "extend_b_float": "398855de0f6ebddf92213eb8531f83e7677fa7923dc9478eb11c252406076f4d",
        "stream_exact": "3c834ea9482f25c49a3f69ce1e609399dffca8c8c8bae705f8b4b9809fdcb3c6",
        "stream_float": "e10620acad4dde699ab43ab36733bbf43d56b14cf0aab3f60df4869401684bad",
    },
    "quartic_complex_weighted": {
        "fit_exact": "274c744eb259441f8bc8c661d359ab0e426310131202c6f65a432d2a54f84dda",
        "fit_float": "7c7a9a68d2e271ea94398cba40ff76de68ebde302382129b91efc8c2c6494419",
        "pseudoinverse_exact": "abd1473af5fe8a612a03b0ddea954c46e8a8decc3ffd6c2d1ea83a91b7ed49d2",
        "pseudoinverse_float": "24b8818cd39edaf1bf8702d5b1e964757030a727f551a585f2a77667ddb3ec6c",
        "b_matrix_exact": "e2120e0c5fee4205c65d1c1af75fb79919ab0ed4e6bcc17adb2b2aad15cb8a83",
        "b_matrix_float": "4e175c46a442d5c91708a68a667153a99bf6ed80f5a56a1dd1f667a6c1485118",
        "extend_b_exact": "07e94beafc02e00efbc37f07da91ad013c97e14e407d622de9414b892fe03bcd",
        "extend_b_float": "f7c5fd7f3c1889a80679de0a0705ca99fc99991f250e5756b1901641ccdcd7a0",
        "stream_exact": "9b4cb3bc0c1373963e75ccb27c7a361dd096422a9e1763ff352b818084c7581b",
        "stream_float": "c48ae707ed8c605420489dd80b447e4c3d74be28fb23a31f9c00bf65b68808d1",
    },
    "cubic_four_terms_weighted": {
        "fit_exact": "20aa39437d9d6e9b886ff405e38662529491317642825fa6f773ba0381b914c8",
        "fit_float": "fa60eba7a63c97692bb9731cb5de98ca39eee4cf018ccd8ba8b1b9c5917941fc",
        "pseudoinverse_exact": "60606f6fdb0561e390adeb1e6071b3d8c6eb4a35c628997b5f697fc63b3908e5",
        "pseudoinverse_float": "1be758b77dc552e4d92c34a3d1483c0947dfc3cf08646e6737527c9fc6bb9397",
        "b_matrix_exact": "411ee63a74ee7f5dcb8fbc23ba749b98a065b7c25c23fcf2132e1f44794b1797",
        "b_matrix_float": "af7033d9263ac94a22059df61cf0e801f0851c5515f6767deabb6d662864ed00",
        "extend_b_exact": "50545364465115a466583036a0416a3121b7d48e9d5d327960d7bf8be6fe8baa",
        "extend_b_float": "edda2376122bf33df2e34cf6befa7064aee5d7f614d2950c296ce686e6ffb7d3",
        "stream_exact": "1d904ff54b4416e81b9f605d768a2ab33947c3843a51d79cf1b6415522cea974",
        "stream_float": "2dd13622b8af4bbd5c3bd192db974c0ba4fbc846dbe7fe06cd1f412518cd95b1",
    },
    "wide_real_weighted": {
        "fit_exact": "e8a50b606493faaaf302989943de1cc3bb13cca6d9d7107c658043d4c977ba20",
        "fit_float": "a1ba46a6acfca1c67b1f44182e447fc11902d9d647e513b9efe382c87e403373",
        "pseudoinverse_exact": "9ceb5b3287a61e2cef1562862f9d1eb0e866186026327fc2b7d0818a5dde55b2",
        "pseudoinverse_float": "b396f1ed9ab56d53eea14cdc2c1cbdf41157261c56486c66453b2df3de12c50d",
        "b_matrix_exact": "ccb595153477476976d580a827e6a6cf2e6174ca9ae3e2c468015f8df7c3aa10",
        "b_matrix_float": "c9ae02196d751043a535f54db579c1cb312a6222f69694eb120f5be4b9d5ff5c",
        "extend_b_exact": "4d479639abaea3098c5d247c7d026ba3f99e588522bafa27abdbe1b224e074ba",
        "extend_b_float": "3e89c4ff80c30229012f4fca0dc3d0e2ba991a155efc01ee88128a4946aa5be3",
        "stream_exact": "d850d72ca40d997c0865d99aff3c4a2f35555aa4a0f6999b956c34994edcb5e9",
        "stream_float": "45852878c4f2932bb48faecf64f4dd0d03eeefec11c09f4b9a0ed1b26a5d3c98",
    },
    "wide_complex": {
        "fit_exact": "d13bdcd651a75cb4609d8946ad9d96a9fd6376e1e341a3b31dec0cac8e72b7c3",
        "fit_float": "47e9a8220dda3bf44de6dc602ddaf5cb0886f7c81c0250ea971cb16838e9b3ac",
        "pseudoinverse_exact": "1c4eb1639a390031c21949527a8e9917c5466dcc312a1888d46da222e1c76e30",
        "pseudoinverse_float": "10fe7a1a5756fcb5d2d1acc755b241486280a55fe45f343b842d0b702fedbb88",
        "b_matrix_exact": "d44e6d9f93721663e4b44a16bd923ddadc4f0708169c1c1a6588e2bbb0fa90da",
        "b_matrix_float": "2f541620987393b8701b31b073acf2c7f207cdf67f20e96b9bc9bddd05065768",
        "extend_b_exact": "388e36fc4ba7da415da6853d4c4a3de0a59a04c739f7640e6bc80ec94521a2be",
        "extend_b_float": "d23a794e4f6b2d940bf1fc4a7fef2394a30acd93125f68bc5db7fe304784311f",
        "stream_exact": "0d46301aadd482e6a259493ebf4aa0c60bec596538c42d33ddf69a66c716c9bf",
        "stream_float": "f316566294f96a77e8f5542db5b8c648cdc3b49a64a219a8495db3679526216c",
    },
    "square_band_complex_weighted": {
        "fit_exact": "aca39004608b6ef696d69d52abdac4812273023cfeffa1b05fda4766e5b86487",
        "fit_float": "a8453c9fe5c38e4a2155392d96d62418ac9423485a0373cef93ec824bfcc7344",
        "pseudoinverse_exact": "6cf848988f75e9e2029efb90fd3df85ceb722fad3a3fd2d7be4bbfe460106f40",
        "pseudoinverse_float": "39a46b4b5cdc573a01fa3990a37973e8e642dd5ff2db4f077fb5df6612e53522",
        "b_matrix_exact": "530a6acaaf0b98e9a248418517419c313263c13bdd3bb8a3c4a17937ea6af452",
        "b_matrix_float": "d48e2f3d9c2ff8973634a1f6bcf5fca2365eacfd4638ef8223027a537b42f82b",
        "extend_b_exact": "b4299038c9a76cf35cf7d223d9c7b38e4ea2259d78b3bc86762799a442601290",
        "extend_b_float": "b56be328a64fcdde977342c4d5d82d92cadd47df7ac72a1b8db9b2922322298c",
        "stream_exact": "4ac3137872a122eb8a7115983e4d98fe7b9d91ab4cc536a48ff2b0a7db692582",
        "stream_float": "2faedb46497229a655ecdb9e8eca1713a73ab58ecc04f11b5ee32e6cb8b41f3a",
    },
    "five_terms_complex_weighted": {
        "fit_exact": "81289290beb5a5253a5bbe2341c9217972087b55a7675b4caf9f7fb764f69975",
        "fit_float": "051c278a2ed0e5a951fe443b33c1ba92989ff3963e6ab159a474f8814647b805",
        "pseudoinverse_exact": "12734a586d42e518cec29dc7174a158c8b2947c3094aa5113593a7e09c274d37",
        "pseudoinverse_float": "5487280ee19ca5fe6c3e10293637748f20b90901a9854f555cd56ce3d9f61590",
        "b_matrix_exact": "a9e18c1e1cd4af95ab30d88c0f7c6250e67235b031f99a37e0cfa703c241cf9a",
        "b_matrix_float": "0ff795033e6ba3cb96357100f5ff475fca27f786d357830afe7e8bcb5a007b8d",
        "extend_b_exact": "14a9a3423f8e7dc0c29ccf0894b9db26623febca676735d8c9a33fa5e1a05cf5",
        "extend_b_float": "5ab9c16abe93a998bd1a9a111319ad56a4837a591576bc0929a5bcf154807802",
        "stream_exact": "973ed40fafa0188a46a28ec11b33e8ecbb3247ea6177841edb4b6c9e826cf441",
        "stream_float": "59ee424691cbb0ccef1417ef0449bcd2711eabcdd3d05c399142ba2afbf27767",
    },
}


# The fewest correct digits among the float fit, pseudoinverse and final
# stream coefficients of each input (see `_digits`), recorded when float 3 x 3
# determinants were still `det`'s pivoted elimination.  A float output may
# fall at most DIGIT_SLACK below its input's floor.
DIGIT_FLOORS = {
    "quartic_real": 14.78,
    "quartic_complex_weighted": 14.96,
    "cubic_four_terms_weighted": 14.33,
    "wide_real_weighted": 14.08,
    "wide_complex": 13.72,
    "square_band_complex_weighted": 13.53,
    "five_terms_complex_weighted": 13.36,
}
DIGIT_SLACK = 0.3


def _exact_data(rng, m, complex_, weighted):
    def q():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 8))

    x, seen = [], set()
    while len(x) < m:
        v = (q(), q() if complex_ else 0)
        if v not in seen:
            seen.add(v)
            x.append(Scalar.from_exact(*v))
    y = [Scalar.from_exact(q(), q() if complex_ else 0) for _ in range(m)]
    w = None
    if weighted:
        w = [
            Scalar.from_exact(Fraction(rng.randint(1, 9), rng.randint(1, 4)), rng.randint(0, 2) if complex_ else 0)
            for _ in range(m)
        ]
    return DataSet(x, y, w)


def _float_data(data):
    return DataSet(
        [v.to_float() for v in data.x],
        [v.to_float() for v in data.y],
        None if data.w is None else [v.to_float() for v in data.w],
    )


def _binary64_exact(data):
    """The float data set as exact Scalars of the same binary64 values."""

    def lift(v):
        return Scalar.from_exact(Fraction(v.re), Fraction(v.im))

    w = None if data.w is None else [lift(v) for v in data.w]
    return DataSet([lift(v) for v in data.x], [lift(v) for v in data.y], w)


def _inputs():
    """(name, exponents, exact data, the same data in binary64) per input."""
    rng = random.Random(15)
    for name, (degrees, m, complex_, weighted) in INPUTS.items():
        exact = _exact_data(rng, m, complex_, weighted)
        yield name, Exponents(degrees), exact, _float_data(exact)


def _stream(d, data):
    state = init_state(d, exact=data.exact)
    steps = []
    for k in range(data.m):
        state = update(state, data.x[k], data.y[k], None if data.w is None else data.w[k])
        steps.append(state.to_dict())
    return steps


def _extended_b(d, data):
    """B of the first n points, then each `extend_b_matrix` over the rest of
    the stream, point by point."""
    n = len(d)
    head = DataSet(data.x[:n], data.y[:n], None if data.w is None else data.w[:n])
    state, b = init_state(d, head), b_matrix(d, head)
    steps = [b]
    for k in range(n, data.m):
        w = None if data.w is None else data.w[k]
        b = extend_b_matrix(state, b, data.x[k], w)
        state = update(state, data.x[k], data.y[k], w)
        steps.append(b)
    return steps


def _outputs(d, exact, floated):
    """The outputs of each operation, keyed by its name."""
    return {
        "fit_exact": fit(d, exact),
        "fit_float": fit(d, floated),
        "pseudoinverse_exact": pseudoinverse(d, exact),
        "pseudoinverse_float": pseudoinverse(d, floated),
        "b_matrix_exact": b_matrix(d, exact),
        "b_matrix_float": b_matrix(d, floated),
        "extend_b_exact": _extended_b(d, exact),
        "extend_b_float": _extended_b(d, floated),
        "stream_exact": _stream(d, exact),
        "stream_float": _stream(d, floated),
    }


def digests():
    """{input: {operation: SHA-256 of the repr of its outputs}}."""
    out = {}
    for name, d, exact, floated in _inputs():
        outputs = _outputs(d, exact, floated)
        out[name] = {op: hashlib.sha256(repr(v).encode()).hexdigest() for op, v in outputs.items()}
    return out


def _digits(rows, reference, scales):
    """-log10 of the largest error of the float Scalar `rows` against the
    exact `reference` rows, clamped at 20 digits.  Row i is measured in the
    basis (x/s)^{d_i}, that is multiplied by scales[i], relative to the
    largest reference entry there, as the benchmark's `coef_digits` does."""
    worst = top = Fraction(0)
    for row, ref_row, scale in zip(rows, reference, scales, strict=True):
        for v, ref in zip(row, ref_row, strict=True):
            dre, dim = Fraction(v.re) - ref.re, Fraction(v.im) - ref.im
            worst = max(worst, (dre * dre + dim * dim) * scale * scale)
            top = max(top, (ref.re * ref.re + ref.im * ref.im) * scale * scale)
    return -math.log10(max(math.sqrt(worst / top), 1e-20))


def float_digits():
    """{input: {output: digits}} of the float fit, pseudoinverse and final
    stream coefficients against the exact fit and pseudoinverse of the same
    binary64 data."""
    out = {}
    for name, d, _, floated in _inputs():
        exact = _binary64_exact(floated)
        s = Fraction(max(abs(complex(v)) for v in exact.x))
        scales = [s**di for di in d]
        a = [[v] for v in fit(d, exact).coefficients]
        state = init_state(d, exact=False)
        for k in range(floated.m):
            state = update(state, floated.x[k], floated.y[k], None if floated.w is None else floated.w[k])
        out[name] = {
            "fit": _digits([[v] for v in fit(d, floated).coefficients], a, scales),
            "pseudoinverse": _digits(pseudoinverse(d, floated), pseudoinverse(d, exact), scales),
            "stream": _digits([[v] for v in state.coefficients], a, scales),
        }
    return out


def test_every_output_keeps_its_recorded_digest():
    got = digests()
    changed = [(name, op) for name, ops in got.items() for op in ops if DIGESTS[name].get(op) != ops[op]]
    assert not changed, f"outputs changed: {changed}"


def test_float_outputs_keep_their_digits():
    lost = {
        (name, output): round(got, 2)
        for name, outputs in float_digits().items()
        for output, got in outputs.items()
        if got < DIGIT_FLOORS[name] - DIGIT_SLACK
    }
    assert not lost, f"float outputs below their input's digit floor: {lost}"


if __name__ == "__main__":
    # print the digests and the float digits, for recording them after an
    # intended change
    import pprint

    pprint.pprint(digests(), width=120)
    pprint.pprint(float_digits(), width=120)
