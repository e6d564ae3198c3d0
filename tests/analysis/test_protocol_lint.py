"""Protocol lint tests (RA4xx): tag family pairing over runtime sources."""

from repro.analysis import check_protocol, lint_sources
from repro.analysis.protocol_lint import tag_families


def _codes(found):
    return [d.code for d in found]


class TestTagFamilies:
    def test_constants_are_exact(self):
        fams = tag_families()
        assert fams["INIT"].exact and fams["INIT"].key == "app.init"
        assert fams["STATUS"].key == "lb.status"

    def test_constructors_become_prefix_patterns(self):
        fams = tag_families()
        assert not fams["move"].exact
        assert fams["move"].prefix == "lb.move."
        assert fams["boundary"].prefix == "pipe.bnd."
        assert fams["halo"].prefix == "pipe.halo."
        assert fams["front"].prefix == "front."
        assert fams["residual"].prefix == "conv.res."
        assert fams["cont"].prefix == "conv.cont."


class TestShippedRuntime:
    def test_no_errors(self):
        found = check_protocol()
        assert not [d for d in found if d.severity.value == "error"], [
            d.format() for d in found
        ]

    def test_no_ra4xx_findings(self):
        # Every tag family is sent and waited for through a blocking
        # receive site (`_wait` counts as one), and every control kind
        # is both constructed and handled: no warnings either.
        found = check_protocol()
        assert not [d for d in found if d.code.startswith("RA4")], [
            d.format() for d in found
        ]


class TestSyntheticSources:
    def test_orphan_send_is_ra401(self):
        src = "def f():\n    yield Send(1, Tags.INIT, None, 8)\n"
        found = lint_sources([("m.py", src)])
        ra401 = [d for d in found if d.code == "RA401"]
        assert ra401 and "app.init" in ra401[0].message
        assert ra401[0].locus == "m.py:2"

    def test_receive_without_send_is_ra402(self):
        src = "def f():\n    msg = yield Recv(src=0, tag=Tags.INSTR)\n"
        found = lint_sources([("m.py", src)])
        ra402 = [d for d in found if d.code == "RA402"]
        assert ra402 and "lb.instr" in ra402[0].message

    def test_poll_only_consumption_is_ra404(self):
        src = (
            "def f():\n"
            "    yield Send(1, Tags.move(3), None, 8)\n"
            "    msg = yield Poll(src=1, tag=Tags.move(3))\n"
        )
        found = lint_sources([("m.py", src)])
        assert "RA404" in _codes(found)

    def test_dispatch_by_equality_pairs_a_send(self):
        src = (
            "def f():\n"
            "    yield Send(1, Tags.STATUS, None, 8)\n"
            "    msg = yield Recv()\n"
            "    if msg.tag == Tags.STATUS:\n"
            "        pass\n"
        )
        found = lint_sources([("m.py", src)])
        assert "RA401" not in _codes(found)

    def test_dispatch_by_startswith_pairs_a_send(self):
        src = (
            "def f():\n"
            "    yield Send(1, Tags.residual(2), None, 8)\n"
            "    msg = yield Recv()\n"
            "    tag = msg.tag\n"
            "    if tag.startswith('conv.res.'):\n"
            "        pass\n"
        )
        found = lint_sources([("m.py", src)])
        assert "RA401" not in _codes(found)

    def test_lambda_expected_tag_counts_as_receive(self):
        src = (
            "def f():\n"
            "    yield Send(1, Tags.boundary(0, 1, 2), None, 8)\n"
            "    msg = yield from recv_neighbor(\n"
            "        0, lambda: Tags.boundary(0, 1, 2))\n"
        )
        found = lint_sources([("m.py", src)])
        assert "RA401" not in _codes(found)

    def test_cross_module_pairing(self):
        sender = "def f():\n    yield Send(1, Tags.INIT, None, 8)\n"
        receiver = "def g():\n    msg = yield Recv(src=0, tag=Tags.INIT)\n"
        found = lint_sources([("a.py", sender), ("b.py", receiver)])
        codes = _codes(found)
        assert "RA401" not in codes and "RA402" not in codes
