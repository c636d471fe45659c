"""Property tests: a shared handler table dispatches as a private one.

``Node.register_handler`` keeps copy-on-write tables: nodes start on
one shared empty table, a method of the node moves it to a memoised
shared successor, and anything else gives the node a private table.
For generated registration programs over two to four nodes of two
classes (the second overrides one handler and adds one, as
``GridVinePeer`` extends ``PGridPeer``), each step one of

- a method of the node, for a kind it already maps or another one;
- a foreign callable: another node's bound method, a module function
  or a closure;
- a shared wrapper of one of the node's functions bound with
  ``MethodType``, one wrapper per ``(function, kind)``, as
  ``perfbench/spans.py`` registers its timed handlers,

after every step every node must dispatch every kind — through the
gate's fast path (``SimNetwork._deliver``) and through
``Node.on_message`` — exactly as a private per-node dict of the
handlers it was given would.  Since every node is checked after every
step, no registration may change another node's dispatch.  The
successor memo gains no more entries than the program registered
distinct ``(kind, function)`` pairs of a node's own.  This catches a
table changed in place while shared, and a foreign bound method
shared by its function (it would then run on the wrong node).
"""

from types import MethodType

from hypothesis import given
from hypothesis import strategies as st

from repro.mediation.peer import GridVinePeer
from repro.pgrid.peer import PGridPeer
from repro.simnet import network
from repro.simnet.network import Message, Node, SimNetwork
from repro.util.keys import Key

from strategies import STANDARD_SETTINGS

KINDS = ("a", "b", "c", "d", "e")

#: what every handler run appends ``(tag, node id, kind)`` to
LOG: list[tuple] = []


class Alpha(Node):
    PROTOCOL = (("a", "on_a"), ("b", "on_b"))

    def __init__(self, node_id):
        super().__init__(node_id)
        for kind, name in self.PROTOCOL:
            self.register_handler(kind, getattr(self, name))

    def on_a(self, message):
        LOG.append(("Alpha.on_a", self.node_id, message.kind))

    def on_b(self, message):
        LOG.append(("Alpha.on_b", self.node_id, message.kind))

    def on_c(self, message):
        LOG.append(("Alpha.on_c", self.node_id, message.kind))


class Beta(Alpha):
    PROTOCOL = Alpha.PROTOCOL + (("c", "on_c"), ("d", "on_d"))

    def on_b(self, message):
        LOG.append(("Beta.on_b", self.node_id, message.kind))

    def on_d(self, message):
        LOG.append(("Beta.on_d", self.node_id, message.kind))


METHODS = ("on_a", "on_b", "on_c", "on_d")


def plain(message):
    LOG.append(("plain", None, message.kind))


def closure(node_id):
    def handler(message):
        LOG.append(("closure", node_id, message.kind))
    return handler


#: (function, kind) -> the one wrapper every node registers for it
WRAPPERS: dict[tuple, object] = {}


def shared_wrapper(function, kind):
    wrapper = WRAPPERS.get((function, kind))
    if wrapper is None:
        def wrapper(node, message):
            LOG.append(("wrapped", node.node_id, kind))
            function(node, message)
        WRAPPERS[function, kind] = wrapper
    return wrapper


@st.composite
def programs(draw):
    """``(classes, steps)``: 2–4 nodes, then up to 12 registrations."""
    classes = draw(st.lists(st.sampled_from((Alpha, Beta)),
                            min_size=2, max_size=4))
    nodes = st.integers(min_value=0, max_value=len(classes) - 1)
    step = st.one_of(
        st.tuples(st.just("own"), nodes, st.sampled_from(KINDS),
                  st.sampled_from(METHODS)),
        st.tuples(st.just("foreign"), nodes, st.sampled_from(KINDS),
                  st.one_of(nodes, st.sampled_from(("plain", "closure")))),
        st.tuples(st.just("wrapped"), nodes, st.sampled_from(KINDS),
                  st.sampled_from(METHODS)),
    )
    return classes, draw(st.lists(step, max_size=12))


def dispatch(handle, kind):
    """What one delivery of ``kind`` through ``handle`` logs (or the
    error it raises)."""
    del LOG[:]
    try:
        handle(Message(kind, "x", "y"))
    except ValueError as error:
        return ("raised", str(error))
    return list(LOG)


def assert_dispatch_equals_reference(net, nodes, references):
    for node, reference in zip(nodes, references):
        for kind in KINDS:
            handler = reference.get(kind)
            if handler is None:
                expected = dispatch(node.unhandled_message, kind)
            else:
                expected = dispatch(handler, kind)

            def deliver(message, node=node):
                message.dst = node.node_id
                net._deliver(message)

            assert dispatch(deliver, kind) == expected
            assert dispatch(node.on_message, kind) == expected


@STANDARD_SETTINGS
@given(programs())
def test_shared_tables_dispatch_as_private_ones(program):
    classes, steps = program
    net = SimNetwork()
    nodes = [cls(f"n{i}") for i, cls in enumerate(classes)]
    for node in nodes:
        net.attach(node)
    references = [{kind: getattr(node, name) for kind, name in
                   type(node).PROTOCOL} for node in nodes]
    own_pairs = {(kind, getattr(type(node), name))
                 for node in nodes for kind, name in type(node).PROTOCOL}
    memo_before = set(network._SUCCESSORS)
    assert_dispatch_equals_reference(net, nodes, references)
    for action, index, kind, what in steps:
        node = nodes[index]
        if action == "own":
            if not hasattr(node, what):
                continue
            handler = getattr(node, what)
            own_pairs.add((kind, handler.__func__))
        elif action == "wrapped":
            if not hasattr(node, what):
                continue
            wrapper = shared_wrapper(getattr(type(node), what), kind)
            handler = MethodType(wrapper, node)
            own_pairs.add((kind, wrapper))
        elif what == "plain":
            handler = plain
        elif what == "closure":
            handler = closure(node.node_id)
        else:
            handler = nodes[what].on_a
            if nodes[what] is node:  # a method of its own after all
                own_pairs.add((kind, handler.__func__))
        node.register_handler(kind, handler)
        references[index][kind] = handler
        assert_dispatch_equals_reference(net, nodes, references)
    added = {(network._SUCCESSORS[function][1], function)
             for function in set(network._SUCCESSORS) - memo_before}
    assert added <= own_pairs


def test_every_peer_of_a_class_shares_one_table():
    for cls in (PGridPeer, GridVinePeer):
        peers = [cls(f"n{i}", Key("01"), rng=i) for i in range(50)]
        assert len({id(peer._handlers) for peer in peers}) == 1
        assert type(peers[0]._handlers) is dict
    # A private registration leaves the others on the shared table.
    first, second = (PGridPeer(f"m{i}", Key("1")) for i in range(2))
    shared = second._handlers
    first.register_handler("route", plain)
    assert second._handlers is shared
    assert first._handlers is not shared
    assert shared["route"] is PGridPeer._handle_route
