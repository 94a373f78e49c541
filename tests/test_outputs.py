"""Every output of the public API on fixed seeded inputs, pinned by digest.

A change that is meant to leave results alone, such as a faster route to the
same Schur values, must not move one float bit or one exact value.  Each
(input, operation) pair keeps its own SHA-256 over the reprs of its outputs,
so a failure names what changed.  The inputs cover bands of width 1 to 3
((4,2,0) and (5,3,1,0)), the banded elimination of wider ones ((9,4,0)), and
real, complex, weighted and unweighted data, each fitted in exact mode and,
converted to binary64, in float mode.  The digests are the same under
Python 3.10 to 3.13.
"""

import hashlib
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
}

DIGESTS = {
    "quartic_real": {
        "fit_exact": "bcfe4b87764519dc449d0745152b94e9f0004c869a0e23f0f12b9099a896cad2",
        "fit_float": "76b7154c119bc03e76ce8ed0ee620e1daf3ed81068f6428a3aebba04cabadbf2",
        "pseudoinverse_exact": "853496d513de7ecd69e22cbab96abf26b6e6b24bada4851fcac2cbab701a3353",
        "pseudoinverse_float": "db7a82e570520b52d782d8c2e5d8c00aaef1567ec2e3f5f0bac62641652ca877",
        "b_matrix_exact": "9589521b6487410f3abc34addc527ef7cb3eaa546bdd43d7b03166573cd68043",
        "b_matrix_float": "43f70f056da0b140ee110b4aee0de815401878e4b0a7f34931846a25eb88bb81",
        "extend_b_exact": "5d8c90fe91c1ee4e702c9788667a1d5105138999e5d233c052be693dfad5966c",
        "extend_b_float": "289b5cbe7f196b6c616a67e5fcf1bf72d4325ac2f506fbd2e552549d4f7a3539",
        "stream_exact": "3c834ea9482f25c49a3f69ce1e609399dffca8c8c8bae705f8b4b9809fdcb3c6",
        "stream_float": "0db3583530db874ace05b041c4e88d8c2fc31ac15eee86772d8e33fa8645b291",
    },
    "quartic_complex_weighted": {
        "fit_exact": "274c744eb259441f8bc8c661d359ab0e426310131202c6f65a432d2a54f84dda",
        "fit_float": "2355b62ef9f24708880729d4b7e265fbd3eaef06d90215fc8c2ba343fb4aa3e0",
        "pseudoinverse_exact": "abd1473af5fe8a612a03b0ddea954c46e8a8decc3ffd6c2d1ea83a91b7ed49d2",
        "pseudoinverse_float": "f849b8a3948ed7da4fc03ddb59da0599a66f331857c0c0f2f40c94054f619132",
        "b_matrix_exact": "e2120e0c5fee4205c65d1c1af75fb79919ab0ed4e6bcc17adb2b2aad15cb8a83",
        "b_matrix_float": "41ea434f3f5f2ff06e94285098691806f10bdb0446fc04204ac336903a22fb16",
        "extend_b_exact": "07e94beafc02e00efbc37f07da91ad013c97e14e407d622de9414b892fe03bcd",
        "extend_b_float": "db19e50280567303a75e4451e6b7e1a414d31e3b67ade1adeb36acad8d47e3b0",
        "stream_exact": "9b4cb3bc0c1373963e75ccb27c7a361dd096422a9e1763ff352b818084c7581b",
        "stream_float": "43b5c7714f7ac42df2d7283b987caa411ea430f29e9f3d314f61e95507d9aaec",
    },
    "cubic_four_terms_weighted": {
        "fit_exact": "20aa39437d9d6e9b886ff405e38662529491317642825fa6f773ba0381b914c8",
        "fit_float": "38a5c2af76809149d01e8fcfb81e4b8bfe6da7928ac8d9d6a48680ced75fca63",
        "pseudoinverse_exact": "60606f6fdb0561e390adeb1e6071b3d8c6eb4a35c628997b5f697fc63b3908e5",
        "pseudoinverse_float": "d522f56c683cfa90a0692668b5bb2544ca5acfe7a83eece348698e7ea2a25695",
        "b_matrix_exact": "411ee63a74ee7f5dcb8fbc23ba749b98a065b7c25c23fcf2132e1f44794b1797",
        "b_matrix_float": "00aa7c5715c5c8246fc5e2bb686721e6fda643427d5175e29e2a30686f623f83",
        "extend_b_exact": "50545364465115a466583036a0416a3121b7d48e9d5d327960d7bf8be6fe8baa",
        "extend_b_float": "762d1e862f1fcd61d88671549a09316e2bbd4404a57784a8c303d4da0e32f35d",
        "stream_exact": "1d904ff54b4416e81b9f605d768a2ab33947c3843a51d79cf1b6415522cea974",
        "stream_float": "1ebdeb70acec8d78a00d3932c942f88cfc9178e7e725eeed65b8486d81c79f29",
    },
    "wide_real_weighted": {
        "fit_exact": "e8a50b606493faaaf302989943de1cc3bb13cca6d9d7107c658043d4c977ba20",
        "fit_float": "56c89c3a3e85cfc3db68ef8997871b97a1f9d24d2634c7a9a1a55f799dc40cd6",
        "pseudoinverse_exact": "9ceb5b3287a61e2cef1562862f9d1eb0e866186026327fc2b7d0818a5dde55b2",
        "pseudoinverse_float": "af44b4a43c71f28d6355b4234d590ca2a9928e9ef2fc19ff56f4361c485da14a",
        "b_matrix_exact": "ccb595153477476976d580a827e6a6cf2e6174ca9ae3e2c468015f8df7c3aa10",
        "b_matrix_float": "bb205a8af2470a898e5091e85b4cf83a57978151079f75004a1aba920c8a1ab9",
        "extend_b_exact": "4d479639abaea3098c5d247c7d026ba3f99e588522bafa27abdbe1b224e074ba",
        "extend_b_float": "b22ae9e141cfc973a39f1fe0ce38e424f2c62b99a11113e2969c6f867090573a",
        "stream_exact": "d850d72ca40d997c0865d99aff3c4a2f35555aa4a0f6999b956c34994edcb5e9",
        "stream_float": "d480da1af6d5c02874186ff8f7d87e2811c2556a482ea384b698ae4b1882a474",
    },
    "wide_complex": {
        "fit_exact": "d13bdcd651a75cb4609d8946ad9d96a9fd6376e1e341a3b31dec0cac8e72b7c3",
        "fit_float": "4620460e9d889a8f72e799130951eb27b5bd0d1516e761f7524d9aa82f14d817",
        "pseudoinverse_exact": "1c4eb1639a390031c21949527a8e9917c5466dcc312a1888d46da222e1c76e30",
        "pseudoinverse_float": "e8699aa5973504164d40e0284603248956eff48c62f376b22ee4ed626f6b2412",
        "b_matrix_exact": "d44e6d9f93721663e4b44a16bd923ddadc4f0708169c1c1a6588e2bbb0fa90da",
        "b_matrix_float": "0c48459266d2d938c6b2274aec3880cbc97f2f6818475584ce4390b677d40c9b",
        "extend_b_exact": "388e36fc4ba7da415da6853d4c4a3de0a59a04c739f7640e6bc80ec94521a2be",
        "extend_b_float": "c11fd050dd31d8f22daa3361c039c906c7a433c46d3711700b299dd517b4535a",
        "stream_exact": "0d46301aadd482e6a259493ebf4aa0c60bec596538c42d33ddf69a66c716c9bf",
        "stream_float": "7d66e15cba5ac822b566cf6014cf6588380ae7a57b6da9948c7127b4a2d08bb9",
    },
}


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
        "b_matrix_float": "0c48459266d2d938c6b2274aec3880cbc97f2f6818475584ce4390b677d40c9b",
        "extend_b_exact": "388e36fc4ba7da415da6853d4c4a3de0a59a04c739f7640e6bc80ec94521a2be",
        "extend_b_float": "c11fd050dd31d8f22daa3361c039c906c7a433c46d3711700b299dd517b4535a",
        "b_matrix_float": b_matrix(d, floated),
        "extend_b_exact": _extended_b(d, exact),
        "extend_b_float": _extended_b(d, floated),
        "stream_exact": _stream(d, exact),
        "stream_float": _stream(d, floated),
    }


def digests():
    """{input: {operation: SHA-256 of the repr of its outputs}}."""
    rng = random.Random(15)
    out = {}
    for name, (degrees, m, complex_, weighted) in INPUTS.items():
        exact = _exact_data(rng, m, complex_, weighted)
        outputs = _outputs(Exponents(degrees), exact, _float_data(exact))
        out[name] = {op: hashlib.sha256(repr(v).encode()).hexdigest() for op, v in outputs.items()}
    return out


def test_every_output_keeps_its_recorded_digest():
    got = digests()
    changed = [(name, op) for name, ops in got.items() for op in ops if DIGESTS[name].get(op) != ops[op]]
    assert not changed, f"outputs changed: {changed}"


if __name__ == "__main__":
    # print the digests, for recording them after an intended change
    import pprint

    pprint.pprint(digests(), width=120)
